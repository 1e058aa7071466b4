#include "hv/tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "hv/models/simplified_consensus.h"
#include "hv/ta/parser.h"
#include "hv/util/json.h"

namespace hv::tools {
namespace {

constexpr const char* kEchoModel = R"(
ta Echo {
  parameters n, t, f;
  shared x;
  resilience n > 3*t;
  resilience t >= f;
  resilience f >= 0;
  processes n - f;
  initial A;
  locations B, W, D;
  rule announce: A -> B do x += 1;
  rule wait: A -> W;
  rule proceed: W -> D when x >= t + 1 - f;
  selfloop B;
  selfloop D;
}
)";

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file: ctest runs the cases of this fixture as concurrent
    // processes, and one case's TearDown must not delete another's model.
    model_path_ = ::testing::TempDir() +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                  "_echo_model.ta";
    std::ofstream file(model_path_);
    file << kEchoModel;
  }

  void TearDown() override { std::remove(model_path_.c_str()); }

  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::string model_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(run({}), 2);
  EXPECT_EQ(run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, CheckHoldsReturnsZero) {
  const int code =
      run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out_.str().find("holds"), std::string::npos);
}

TEST_F(CliTest, CheckViolationReturnsOneWithTrace) {
  const int code = run({"check", model_path_, "--prop", "<>(locA == 0 && locW == 0)",
                        "--name", "everyone_proceeds"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out_.str().find("violated"), std::string::npos);
  EXPECT_NE(out_.str().find("counterexample to everyone_proceeds"), std::string::npos);
  EXPECT_NE(out_.str().find("parameters:"), std::string::npos);
}

TEST_F(CliTest, CheckBudgetReturnsThree) {
  const int code = run({"check", model_path_, "--prop", "<>(locA == 0)",
                        "--max-schemas", "0"});
  EXPECT_EQ(code, 3);
  EXPECT_NE(out_.str().find("budget"), std::string::npos);
}

TEST_F(CliTest, CheckFlagValidation) {
  EXPECT_EQ(run({"check", model_path_}), 2);  // missing --prop
  EXPECT_NE(err_.str().find("--prop is required"), std::string::npos);
  EXPECT_EQ(run({"check", model_path_, "--prop"}), 2);  // flag without value
  EXPECT_EQ(run({"check", model_path_, "--prop", "locA == 0", "--bogus", "1"}), 2);
  EXPECT_EQ(run({"check", "/nonexistent.ta", "--prop", "x >= 1"}), 2);
}

TEST_F(CliTest, FlagBeforeTheFileIsNotTakenForIt) {
  // The file comes first; a leading flag leaves it missing, and the flag's
  // value is not reported as a stray argument.
  EXPECT_EQ(run({"check", "--threads", "4", model_path_}), 2);
  EXPECT_NE(err_.str().find("check: missing model file"), std::string::npos) << err_.str();
  EXPECT_EQ(err_.str().find("unexpected argument"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"audit", "--jobs", "4", "c.json"}), 2);
  EXPECT_NE(err_.str().find("audit: missing certificate file"), std::string::npos) << err_.str();
  EXPECT_EQ(err_.str().find("unexpected argument"), std::string::npos) << err_.str();
}

TEST_F(CliTest, NonNumericFlagValueIsAUsageError) {
  // A malformed number is a usage error that names its flag, never an
  // uncaught exception that aborts the process.
  const std::string prop = "[](locB == 0) -> [](locD == 0)";
  EXPECT_EQ(run({"check", model_path_, "--prop", prop, "--threads", "abc"}), 2);
  EXPECT_NE(err_.str().find("--threads"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"check", model_path_, "--prop", prop, "--timeout", "x"}), 2);
  EXPECT_NE(err_.str().find("--timeout"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"check", model_path_, "--prop", prop, "--threads", "4x"}), 2);
  EXPECT_NE(err_.str().find("--threads"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"work", "--connect", "unix:/tmp/hv-nowhere.sock", "--heartbeat-ms", "zz"}), 2);
  EXPECT_NE(err_.str().find("--heartbeat-ms"), std::string::npos) << err_.str();
}

TEST_F(CliTest, OutOfRangeFlagValueIsAUsageError) {
  EXPECT_EQ(run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                 "--max-schemas", "99999999999999999999"}),
            2);
  EXPECT_NE(err_.str().find("--max-schemas"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("out of range"), std::string::npos) << err_.str();
}

TEST_F(CliTest, CheckWithoutPropUsesBundledDefaults) {
  const std::string path = ::testing::TempDir() + "simplified_consensus.ta";
  {
    std::ofstream file(path);
    file << ta::to_text(models::simplified_consensus());
  }
  EXPECT_EQ(run({"check", path}), 0) << err_.str();
  for (const char* name : {"Inv1_0", "Inv2_0", "SRoundTerm", "Good_0", "Dec_0"}) {
    EXPECT_NE(out_.str().find(name), std::string::npos) << name << "\n" << out_.str();
  }
  std::remove(path.c_str());
}

TEST_F(CliTest, CheckRejectsMalformedProperty) {
  EXPECT_EQ(run({"check", model_path_, "--prop", "locNowhere == 0"}), 2);
  EXPECT_EQ(run({"check", model_path_, "--prop", "[](<>(locA == 0))"}), 2);
}

TEST_F(CliTest, CheckAcceptsRepeatedProps) {
  // Several --prop flags check in one run; the i-th --name labels the i-th
  // property. The exit code aggregates: any violation wins over all-holds.
  const int code = run({"check", model_path_,
                        "--prop", "[](locB == 0) -> [](locD == 0)", "--name", "safe",
                        "--prop", "<>(locA == 0 && locW == 0)", "--name", "everyone"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out_.str().find("safe: holds"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("everyone: violated"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("counterexample to everyone"), std::string::npos);

  // JSON mode renders an array for several properties, in submission order.
  const int json = run({"check", model_path_,
                        "--prop", "[](locB == 0) -> [](locD == 0)", "--name", "safe",
                        "--prop", "<>(locA == 0 && locW == 0)", "--name", "everyone",
                        "--json"});
  EXPECT_EQ(json, 1);
  const std::string text = out_.str();
  const std::size_t safe_at = text.find("\"property\": \"safe\"");
  const std::size_t everyone_at = text.find("\"property\": \"everyone\"");
  ASSERT_NE(safe_at, std::string::npos) << text;
  ASSERT_NE(everyone_at, std::string::npos) << text;
  EXPECT_LT(safe_at, everyone_at);
  EXPECT_EQ(text.front(), '[');

  // Unnamed extra properties get positional default names.
  const int unnamed = run({"check", model_path_,
                           "--prop", "[](locB == 0) -> [](locD == 0)",
                           "--prop", "[](locB == 0) -> [](locD == 0)"});
  EXPECT_EQ(unnamed, 0);
  EXPECT_NE(out_.str().find("property: holds"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("property2: holds"), std::string::npos) << out_.str();

  // More --name flags than --prop flags is a usage error.
  EXPECT_EQ(run({"check", model_path_, "--prop", "locA == 0",
                 "--name", "a", "--name", "b"}),
            2);
}

TEST_F(CliTest, ExplicitChecksOneValuation) {
  const int code = run({"explicit", model_path_, "--prop",
                        "[](locB == 0) -> [](locD == 0)", "--params", "n=4,t=1,f=1"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out_.str().find("states"), std::string::npos);
  EXPECT_EQ(run({"explicit", model_path_, "--prop", "<>(locA == 0 && locW == 0)",
                 "--params", "n=4,t=1,f=0"}),
            1);
}

TEST_F(CliTest, ExplicitValidatesParams) {
  EXPECT_EQ(run({"explicit", model_path_, "--prop", "locA == 0 -> [](locD == 0)",
                 "--params", "n=4,zz=1"}),
            2);
  EXPECT_EQ(run({"explicit", model_path_, "--prop", "locA == 0 -> [](locD == 0)",
                 "--params", "n=3,t=1,f=0"}),
            2);  // violates resilience n > 3t
  EXPECT_EQ(run({"explicit", model_path_, "--prop", "locA == 0 -> [](locD == 0)",
                 "--params", "garbage"}),
            2);
}

TEST_F(CliTest, JsonOutput) {
  const int code = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                        "--name", "safe", "--json"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out_.str().find("{\"property\": \"safe\", \"verdict\": \"holds\""),
            std::string::npos);
  // A violation embeds the escaped counterexample.
  const int violated = run({"check", model_path_, "--prop",
                            "<>(locA == 0 && locW == 0)", "--json"});
  EXPECT_EQ(violated, 1);
  EXPECT_NE(out_.str().find("\"verdict\": \"violated\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"counterexample\": \""), std::string::npos);
  EXPECT_EQ(out_.str().find('\n'), out_.str().size() - 1);  // single line
  // explicit --json.
  const int explicit_code = run({"explicit", model_path_, "--prop",
                                 "[](locB == 0) -> [](locD == 0)", "--params",
                                 "n=4,t=1,f=1", "--json"});
  EXPECT_EQ(explicit_code, 0);
  EXPECT_NE(out_.str().find("\"states\": "), std::string::npos);
}

TEST_F(CliTest, JsonOutputEscapesControlCharacters) {
  // A property name with a carriage return and a raw control byte must
  // still yield valid JSON that round-trips the name.
  const std::string name = "a\rb\x01c";
  const int code = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                        "--name", name, "--json"});
  EXPECT_EQ(code, 0);
  Json parsed;
  ASSERT_NO_THROW(parsed = Json::parse(out_.str())) << out_.str();
  EXPECT_EQ(parsed.at("property").as_string(), name);
}

TEST_F(CliTest, JsonOutputMatchesGoldenSchema) {
  // Golden-file check on the machine-readable schema: field names and order
  // are a contract; only the numeric values are volatile.
  const int code = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                        "--name", "safe", "--json"});
  EXPECT_EQ(code, 0);
  const std::string normalized =
      std::regex_replace(out_.str(), std::regex(R"((": )-?[0-9][-+.eE0-9]*)"), "$1#");
  EXPECT_EQ(normalized,
            "{\"property\": \"safe\", \"verdict\": \"holds\", \"schemas\": #, "
            "\"pruned\": #, \"cut\": #, \"lemma_hits\": #, \"lemmas_learned\": #, "
            "\"unknown_schemas\": #, \"resumed\": #, \"retries\": #, "
            "\"seconds\": #, \"pivots\": #, \"rational_fast_ops\": #, "
            "\"rational_big_ops\": #, \"rational_fast_ratio\": #, \"note\": \"\", "
            "\"segments_pushed\": #, \"segments_popped\": #, \"segments_reused\": #, "
            "\"prefix_reuse_ratio\": #}\n");
}

TEST_F(CliTest, JournalAndResumeRoundTrip) {
  const std::string journal = ::testing::TempDir() + "cli_journal.jsonl";
  std::remove(journal.c_str());
  const int first = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                         "--name", "safe", "--journal", journal});
  EXPECT_EQ(first, 0);
  std::ifstream written(journal);
  EXPECT_TRUE(written.good());

  // Resuming from the complete journal settles every schema from the file.
  const int resumed = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                           "--name", "safe", "--resume", journal});
  EXPECT_EQ(resumed, 0);
  EXPECT_NE(out_.str().find("resumed from journal"), std::string::npos) << out_.str();
  std::remove(journal.c_str());
}

TEST_F(CliTest, ResumeUnderOtherPruningIsRefused) {
  // A journal written with the cone on holds pruned records a --no-pruning
  // run cannot make: resuming from it is refused, plain and certifying
  // alike, before anything is solved or written.
  const std::string journal = ::testing::TempDir() + "cli_pruning_journal.jsonl";
  const std::string cert = ::testing::TempDir() + "cli_pruning.cert.json";
  std::remove(journal.c_str());
  std::remove(cert.c_str());
  const std::string prop = "[](locB == 0) -> [](locD == 0)";
  ASSERT_EQ(run({"check", model_path_, "--prop", prop, "--journal", journal}), 0);

  EXPECT_EQ(run({"check", model_path_, "--prop", prop, "--no-pruning", "--resume", journal,
                 "--json"}),
            2);
  EXPECT_NE(err_.str().find("property_directed_pruning"), std::string::npos) << err_.str();
  EXPECT_EQ(out_.str().find("\"pruned\""), std::string::npos) << out_.str();

  EXPECT_EQ(run({"check", model_path_, "--prop", prop, "--no-pruning", "--certify",
                 "--cert-out", cert, "--resume", journal}),
            2);
  EXPECT_NE(err_.str().find("property_directed_pruning"), std::string::npos) << err_.str();
  EXPECT_FALSE(std::ifstream(cert).good());
  std::remove(journal.c_str());
}

TEST_F(CliTest, SimulateValidatesByzantineIds) {
  // Ids outside [0, n) used to index out of bounds deep inside the runner.
  EXPECT_EQ(run({"simulate", "--byzantine", "9"}), 2);
  EXPECT_NE(err_.str().find("out of range"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"simulate", "--byzantine", "1,1", "--t", "2"}), 2);
  EXPECT_NE(err_.str().find("duplicate"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"simulate", "--byzantine", "0,1", "--t", "1"}), 2);
  EXPECT_NE(err_.str().find("exceed t"), std::string::npos) << err_.str();
}

TEST_F(CliTest, FaultInjectionEnvDegradesToUnknown) {
  // HV_FAULT_* arm the deterministic injector through the CLI: with every
  // solve attempt failing, the run must finish with exit 3 and report the
  // degraded schemas rather than crash.
  ::setenv("HV_FAULT_KIND", "solver-throw", 1);
  ::setenv("HV_FAULT_EVERY", "1", 1);
  const int code = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                        "--no-pruning"});
  ::unsetenv("HV_FAULT_KIND");
  ::unsetenv("HV_FAULT_EVERY");
  EXPECT_EQ(code, 3);
  EXPECT_NE(out_.str().find("unknown"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("schemas unknown"), std::string::npos) << out_.str();
  // Watchdog flags validate their values like every other flag.
  EXPECT_EQ(run({"check", model_path_, "--prop", "locA == 0", "--pivot-budget"}), 2);
  EXPECT_EQ(run({"check", model_path_, "--prop", "locA == 0", "--schema-timeout"}), 2);
  EXPECT_EQ(run({"check", model_path_, "--prop", "locA == 0", "--memory-budget"}), 2);
}

TEST_F(CliTest, CertifyEmitsAuditableCertificate) {
  const std::string cert_path = ::testing::TempDir() + "echo_cert.json";
  const int code = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                        "--name", "safe", "--certify", "--cert-out", cert_path});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out_.str().find("certificate: " + cert_path), std::string::npos);

  EXPECT_EQ(run({"audit", cert_path}), 0);
  EXPECT_NE(out_.str().find("audit: PASS"), std::string::npos);
  EXPECT_EQ(run({"audit", cert_path, "--json"}), 0);
  EXPECT_NE(out_.str().find("\"ok\": true"), std::string::npos);

  // Tampering with the stored verdict must flip the audit to failure.
  std::string text;
  {
    std::ifstream file(cert_path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  const std::string needle = "\"verdict\":\"holds\"";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"verdict\":\"violated\"");
  {
    std::ofstream file(cert_path);
    file << text;
  }
  EXPECT_EQ(run({"audit", cert_path}), 1);
  EXPECT_NE(out_.str().find("audit: FAIL"), std::string::npos);
  std::remove(cert_path.c_str());
}

TEST_F(CliTest, AuditValidatesInput) {
  EXPECT_EQ(run({"audit"}), 2);
  EXPECT_EQ(run({"audit", "/nonexistent.cert.json"}), 2);
  const std::string bad_path = ::testing::TempDir() + "bad_cert.json";
  {
    std::ofstream file(bad_path);
    file << "{\"format\": \"hv-cert\"";
  }
  EXPECT_EQ(run({"audit", bad_path}), 2);
  EXPECT_EQ(run({"audit", bad_path, "--jobs", "0"}), 2);  // validated before parsing
  std::remove(bad_path.c_str());
}

TEST_F(CliTest, AuditJobsShardsWithIdenticalOutput) {
  const std::string cert_path = ::testing::TempDir() + "echo_jobs_cert.json";
  ASSERT_EQ(run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                 "--name", "safe", "--certify", "--cert-out", cert_path}),
            0);

  ASSERT_EQ(run({"audit", cert_path}), 0);
  const std::string single = out_.str();
  EXPECT_EQ(run({"audit", cert_path, "--jobs", "3"}), 0);
  EXPECT_EQ(out_.str(), single);
  // --workers is an alias (mirroring hvc check), and --json shards too.
  EXPECT_EQ(run({"audit", cert_path, "--workers", "2"}), 0);
  EXPECT_EQ(out_.str(), single);
  ASSERT_EQ(run({"audit", cert_path, "--json"}), 0);
  const std::string single_json = out_.str();
  EXPECT_EQ(run({"audit", cert_path, "--json", "--jobs", "4"}), 0);
  EXPECT_EQ(out_.str(), single_json);
  std::remove(cert_path.c_str());
}

TEST_F(CliTest, RedbellyDagFlagValidation) {
  EXPECT_EQ(run({"redbelly", "--dag-workers", "0"}), 2);
  EXPECT_NE(err_.str().find("--dag-workers"), std::string::npos);
  EXPECT_EQ(run({"redbelly", "--resume"}), 2);  // still needs --journal
}

TEST_F(CliTest, RedbellyDagMatchesSequentialStdout) {
  // The stable report (verdicts, schema counts, composition) must be
  // byte-identical between schedules; only the timing lines and the DAG
  // accounting line may differ, and node progress goes to stderr only.
  const auto normalize = [](const std::string& text) {
    std::string out;
    for (std::istringstream lines(text); !lines.eof();) {
      std::string line;
      std::getline(lines, line);
      if (line.rfind("total time:", 0) == 0 || line.rfind("dag:", 0) == 0) continue;
      // Strip the per-property timing suffix "(N schemas, Xs)" -> "(N schemas)".
      const std::size_t at = line.rfind(", ");
      if (at != std::string::npos && line.back() == ')') line = line.substr(0, at) + ")";
      out += line + "\n";
    }
    return out;
  };
  // The default is one lane, and it prints no progress.
  ASSERT_EQ(run({"redbelly"}), 0);
  const std::string one_lane = normalize(out_.str());
  EXPECT_NE(out_.str().find("dag: 1 lane(s)"), std::string::npos);
  EXPECT_TRUE(err_.str().empty());
  ASSERT_EQ(run({"redbelly", "--dag-workers", "2"}), 0);
  EXPECT_EQ(normalize(out_.str()), one_lane);
  EXPECT_NE(err_.str().find("[dag "), std::string::npos);  // progress on stderr
  EXPECT_NE(err_.str().find("eta"), std::string::npos);
}

TEST_F(CliTest, RedbellyJournalResumedIntoAnotherNodeIsNotASuccess) {
  // A node journal copied over another node's is refused by the journal
  // header check; the refused node must surface as unknown with that error,
  // and the run must not report full verification.
  const std::string prefix = ::testing::TempDir() + "swapped_node_journal";
  const auto journal = [&prefix](const char* property) {
    return prefix + ".consensus." + property + ".jsonl";
  };
  const auto remove_journals = [] {
    for (const auto& entry : std::filesystem::directory_iterator(::testing::TempDir())) {
      if (entry.path().filename().string().rfind("swapped_node_journal.", 0) == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  };
  remove_journals();
  ASSERT_EQ(run({"redbelly", "--dag-workers", "1", "--journal", prefix}), 0);
  {
    std::ifstream from(journal("Inv1_1"), std::ios::binary);
    std::ofstream to(journal("Inv1_0"), std::ios::binary | std::ios::trunc);
    to << from.rdbuf();
  }
  EXPECT_EQ(run({"redbelly", "--dag-workers", "1", "--journal", prefix, "--resume"}), 3);
  const std::string report = out_.str();
  EXPECT_NE(report.find("Inv1_0: unknown ("), std::string::npos) << report;
  EXPECT_NE(report.find("resume journal belongs to pipeline node"), std::string::npos)
      << report;
  EXPECT_NE(report.find("Agreement:  unknown"), std::string::npos) << report;
  remove_journals();
}

TEST_F(CliTest, SimulateFairDecides) {
  const int code = run({"simulate", "--n", "4", "--t", "1", "--inputs", "0,1,0,1",
                        "--scheduler", "fair"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out_.str().find("agreement: ok"), std::string::npos);
  EXPECT_NE(out_.str().find("decision=1"), std::string::npos);
}

TEST_F(CliTest, SimulateWithByzantine) {
  const int code = run({"simulate", "--n", "4", "--t", "1", "--byzantine", "3",
                        "--scheduler", "random", "--seed", "7"});
  EXPECT_NE(out_.str().find("agreement: ok"), std::string::npos);
  EXPECT_TRUE(code == 0 || code == 3);  // safety always; termination typical
}

TEST_F(CliTest, SimulateLemma7) {
  const int code = run({"simulate", "--lemma7", "--rounds", "6"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out_.str().find("oscillation sustained"), std::string::npos);
}

TEST_F(CliTest, SimulateValidatesArguments) {
  EXPECT_EQ(run({"simulate", "--inputs", "0,1"}), 2);        // wrong arity
  EXPECT_EQ(run({"simulate", "--scheduler", "warp"}), 2);    // unknown scheduler
}

TEST_F(CliTest, DistributedFlagValidation) {
  EXPECT_EQ(run({"serve", model_path_, "--prop", "locA == 0"}), 2);
  EXPECT_NE(err_.str().find("--listen is required"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"serve", model_path_, "--listen", "bogus", "--prop", "locA == 0"}), 2);
  EXPECT_NE(err_.str().find("bad address"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"work"}), 2);
  EXPECT_NE(err_.str().find("--connect is required"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"work", "--connect", "not-an-address"}), 2);
}

TEST_F(CliTest, WorkReportsUnreachableCoordinator) {
  // No coordinator listening: the worker retries briefly, then gives up with
  // the inconclusive exit code (3), not a crash or a usage error.
  const int code = run({"work", "--connect", "unix:/tmp/hv-nowhere.sock", "--retry", "0.2"});
  EXPECT_EQ(code, 3);
  EXPECT_NE(out_.str().find("cannot connect"), std::string::npos) << out_.str();
}

TEST_F(CliTest, CheckWorkersForksMatchingVerdicts) {
  // Fork-local distributed mode: same verdict and exit code as in-process.
  const int holds = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                         "--workers", "2"});
  EXPECT_EQ(holds, 0);
  EXPECT_NE(out_.str().find("holds"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("distributed: 2 workers joined"), std::string::npos)
      << out_.str();

  const int violated = run({"check", model_path_, "--prop", "<>(locA == 0 && locW == 0)",
                            "--name", "everyone_proceeds", "--workers", "2"});
  EXPECT_EQ(violated, 1);
  EXPECT_NE(out_.str().find("counterexample to everyone_proceeds"), std::string::npos)
      << out_.str();

  const int budget = run({"check", model_path_, "--prop", "<>(locA == 0)",
                          "--max-schemas", "0", "--workers", "2"});
  EXPECT_EQ(budget, 3);
  EXPECT_NE(out_.str().find("budget"), std::string::npos) << out_.str();
}

TEST_F(CliTest, CheckThreadsKeepsInProcessPool) {
  const int code = run({"check", model_path_, "--prop", "[](locB == 0) -> [](locD == 0)",
                        "--threads", "2"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out_.str().find("holds"), std::string::npos);
  EXPECT_EQ(out_.str().find("distributed:"), std::string::npos);  // no fork banner
}

TEST_F(CliTest, DotEmitsGraph) {
  EXPECT_EQ(run({"dot", model_path_}), 0);
  EXPECT_NE(out_.str().find("digraph \"Echo\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"A\" -> \"B\""), std::string::npos);
}

TEST_F(CliTest, PrintRoundTrips) {
  EXPECT_EQ(run({"print", model_path_}), 0);
  const std::string printed = out_.str();
  // The printed form must be parseable again (write it and re-print).
  const std::string second_path = ::testing::TempDir() + "echo_roundtrip.ta";
  {
    std::ofstream file(second_path);
    file << printed;
  }
  EXPECT_EQ(run({"print", second_path}), 0);
  EXPECT_EQ(out_.str(), printed);
  std::remove(second_path.c_str());
}

}  // namespace
}  // namespace hv::tools
