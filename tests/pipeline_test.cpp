#include "hv/pipeline/holistic.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <random>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hv/checker/parameterized.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/simplified_consensus.h"

namespace hv::pipeline {
namespace {

using checker::PropertyResult;
using checker::Verdict;

PropertyResult make_result(const char* name, Verdict verdict) {
  PropertyResult result;
  result.property = name;
  result.verdict = verdict;
  return result;
}

HolisticReport synthetic_report(Verdict bv, Verdict inv, Verdict live) {
  HolisticReport report;
  for (const char* name :
       {"BV-Just0", "BV-Just1", "BV-Obl0", "BV-Obl1", "BV-Unif0", "BV-Unif1", "BV-Term"}) {
    report.bv_results.push_back(make_result(name, bv));
  }
  for (const char* name : {"Inv1_0", "Inv1_1", "Inv2_0", "Inv2_1"}) {
    report.consensus_results.push_back(make_result(name, inv));
  }
  for (const char* name : {"Dec_0", "Dec_1", "Good_0", "Good_1", "SRoundTerm"}) {
    report.consensus_results.push_back(make_result(name, live));
  }
  return report;
}

TEST(ComposeVerdictsTest, AllHoldGivesAllHold) {
  HolisticReport report = synthetic_report(Verdict::kHolds, Verdict::kHolds, Verdict::kHolds);
  compose_verdicts(report);
  EXPECT_EQ(report.agreement, Verdict::kHolds);
  EXPECT_EQ(report.validity, Verdict::kHolds);
  EXPECT_EQ(report.termination, Verdict::kHolds);
  EXPECT_TRUE(report.fully_verified());
}

TEST(ComposeVerdictsTest, GadgetFailureInvalidatesEverything) {
  // If a bv-broadcast property is violated, the gadget substitution in the
  // simplified automaton is unjustified: nothing may be claimed verified.
  HolisticReport report =
      synthetic_report(Verdict::kViolated, Verdict::kHolds, Verdict::kHolds);
  compose_verdicts(report);
  EXPECT_EQ(report.agreement, Verdict::kViolated);
  EXPECT_EQ(report.validity, Verdict::kViolated);
  EXPECT_EQ(report.termination, Verdict::kViolated);
  EXPECT_FALSE(report.fully_verified());
}

TEST(ComposeVerdictsTest, SafetyAndLivenessAreIndependent) {
  HolisticReport report = synthetic_report(Verdict::kHolds, Verdict::kHolds, Verdict::kUnknown);
  compose_verdicts(report);
  EXPECT_EQ(report.agreement, Verdict::kHolds);
  EXPECT_EQ(report.validity, Verdict::kHolds);
  EXPECT_EQ(report.termination, Verdict::kUnknown);
}

TEST(ComposeVerdictsTest, MissingResultsAreUnknown) {
  HolisticReport report;
  compose_verdicts(report);
  EXPECT_EQ(report.agreement, Verdict::kUnknown);
  EXPECT_EQ(report.termination, Verdict::kUnknown);
  EXPECT_FALSE(report.fully_verified());
}

// --- out-of-order completion (the DAG scheduler's arrival orders) -------------

struct ComposedVerdicts {
  Verdict agreement;
  Verdict validity;
  Verdict termination;
};

ComposedVerdicts compose(HolisticReport report) {
  compose_verdicts(report);
  return {report.agreement, report.validity, report.termination};
}

bool same(const ComposedVerdicts& a, const ComposedVerdicts& b) {
  return a.agreement == b.agreement && a.validity == b.validity &&
         a.termination == b.termination;
}

TEST(ComposeVerdictsTest, InvariantUnderEveryArrivalInterleaving) {
  // Concurrent lanes settle property nodes in arbitrary order; the report's
  // result vectors record completion order. The composition must depend only
  // on the *set* of results. Exhaustively permute a mixed five-element
  // liveness suffix (120 interleavings of holds/violated/unknown arrivals)
  // against the sequential baseline.
  HolisticReport base =
      synthetic_report(Verdict::kHolds, Verdict::kHolds, Verdict::kHolds);
  base.consensus_results[4].verdict = Verdict::kUnknown;   // Dec_0
  base.consensus_results[6].verdict = Verdict::kViolated;  // Good_0
  const ComposedVerdicts sequential = compose(base);

  std::vector<PropertyResult> tail(base.consensus_results.begin() + 4,
                                   base.consensus_results.end());
  std::sort(tail.begin(), tail.end(),
            [](const PropertyResult& a, const PropertyResult& b) {
              return a.property < b.property;
            });
  int interleavings = 0;
  do {
    HolisticReport permuted = base;
    std::copy(tail.begin(), tail.end(), permuted.consensus_results.begin() + 4);
    EXPECT_TRUE(same(compose(permuted), sequential)) << "interleaving " << interleavings;
    ++interleavings;
  } while (std::next_permutation(
      tail.begin(), tail.end(), [](const PropertyResult& a, const PropertyResult& b) {
        return a.property < b.property;
      }));
  EXPECT_EQ(interleavings, 120);
}

TEST(ComposeVerdictsTest, InvariantUnderSeededFullShuffles) {
  // Full-width randomized interleavings of all sixteen results, covering
  // every verdict mix the exhaustive suffix test cannot afford.
  const Verdict verdicts[] = {Verdict::kHolds, Verdict::kViolated, Verdict::kUnknown};
  std::mt19937 rng(20220725);  // the paper's PODC year-month-day, fixed
  for (const Verdict bv : verdicts) {
    for (const Verdict inv : verdicts) {
      for (const Verdict live : verdicts) {
        HolisticReport base = synthetic_report(bv, inv, live);
        base.consensus_results[0].verdict = Verdict::kUnknown;  // break uniformity
        const ComposedVerdicts sequential = compose(base);
        for (int round = 0; round < 25; ++round) {
          HolisticReport shuffled = base;
          std::shuffle(shuffled.bv_results.begin(), shuffled.bv_results.end(), rng);
          std::shuffle(shuffled.consensus_results.begin(), shuffled.consensus_results.end(),
                       rng);
          EXPECT_TRUE(same(compose(shuffled), sequential));
        }
      }
    }
  }
}

TEST(ComposeVerdictsTest, RacedConsensusArrivalsCannotOutrunGadgetFailure) {
  // Upstream-failure cancellation: when a bv property is refuted, the DAG
  // cancels the consensus nodes — but a consensus node that settled *before*
  // the refutation arrived legitimately left its result behind. Either way
  // (results raced in, or cancelled and absent) the composition must match
  // a run in which no consensus node started at all.
  HolisticReport cancelled =
      synthetic_report(Verdict::kViolated, Verdict::kHolds, Verdict::kHolds);
  cancelled.consensus_results.clear();  // nothing ran
  const ComposedVerdicts gate_first = compose(cancelled);

  HolisticReport raced = synthetic_report(Verdict::kViolated, Verdict::kHolds, Verdict::kHolds);
  // Partial arrivals: only some consensus nodes settled before cancellation.
  raced.consensus_results.resize(3);
  EXPECT_TRUE(same(compose(raced), gate_first));
  // A missing (cancelled) ingredient degrades each composed verdict to
  // unknown — never to holds; the violated-dominates case with all inputs
  // present is GadgetFailureInvalidatesEverything above.
  EXPECT_EQ(gate_first.agreement, Verdict::kUnknown);
  EXPECT_EQ(gate_first.validity, Verdict::kUnknown);
  EXPECT_EQ(gate_first.termination, Verdict::kUnknown);
  EXPECT_FALSE(HolisticReport(cancelled).fully_verified());
}

// --- DAG pipeline end-to-end parity -------------------------------------------

TEST(HolisticDagTest, DagRunMatchesSequentialPipeline) {
  // The default schedule is one lane, which visits the nodes in stage order;
  // two lanes must reach the same verdicts and accounting.
  // Every node is bounded by a schema budget, not a wall clock, so each
  // verdict is the same at any speed (a sanitizer build included). The
  // budget covers every bv property (19 schemas each); the consensus and
  // naive properties exhaust it. A budget above the largest consensus count
  // (Inv1_1, 40,708 schemas) would not do: the naive SRoundTerm reaches a
  // schema that takes minutes to solve before its 600th.
  HolisticOptions one_lane;
  one_lane.include_naive_attempt = true;
  one_lane.naive_timeout_seconds = 0;
  one_lane.check.enumeration.max_schemas = 300;
  const HolisticReport seq = verify_red_belly_consensus(one_lane);

  HolisticOptions dag = one_lane;
  dag.dag_workers = 2;
  const HolisticReport par = verify_red_belly_consensus(dag);

  EXPECT_EQ(seq.dag_lanes, 1);
  EXPECT_EQ(par.dag_lanes, 2);
  EXPECT_EQ(seq.agreement, par.agreement);
  EXPECT_EQ(seq.validity, par.validity);
  EXPECT_EQ(seq.termination, par.termination);
  EXPECT_EQ(seq.fully_verified(), par.fully_verified());

  const auto match = [](const std::vector<PropertyResult>& a,
                        const std::vector<PropertyResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].property, b[i].property);
      EXPECT_EQ(a[i].verdict, b[i].verdict) << a[i].property;
      EXPECT_EQ(a[i].schemas_checked, b[i].schemas_checked) << a[i].property;
    }
  };
  match(seq.bv_results, par.bv_results);
  match(seq.consensus_results, par.consensus_results);
  ASSERT_EQ(seq.naive_results.size(), par.naive_results.size());
  for (std::size_t i = 0; i < seq.naive_results.size(); ++i) {
    EXPECT_EQ(seq.naive_results[i].verdict, par.naive_results[i].verdict);
    EXPECT_EQ(seq.naive_results[i].schemas_checked, par.naive_results[i].schemas_checked);
  }
  EXPECT_GT(par.cpu_seconds, 0.0);
  EXPECT_GT(seq.cpu_seconds, 0.0);
}

// The stage contract of the pipeline, pinned on tiny budgets: a bv property
// that does not hold cancels the consensus stage, the naive attempt gates
// nothing, and the composition reports whatever settled.

/// "[dag k/n] <stage>.<property>: <status>" with the key's fingerprint hash,
/// the node time and the ETA removed.
std::string strip_progress(const std::string& line) {
  std::string out = std::regex_replace(line, std::regex("#[0-9a-f]{16}"), "");
  return std::regex_replace(out, std::regex(R"( \([^()]*s\)|, eta [^,]*s$)"), "");
}

TEST(HolisticDagTest, UnprovenGadgetCancelsTheConsensusStage) {
  // Five schemas leave every bv property unknown, so no consensus property
  // may start; the composition still runs and reports unknown.
  for (const int lanes : {1, 2}) {
    HolisticOptions options;
    options.check.enumeration.max_schemas = 5;
    options.dag_workers = lanes;
    std::vector<std::string> progress;
    std::mutex progress_mutex;
    options.on_progress = [&](const std::string& line) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress.push_back(line);
    };
    const HolisticReport report = verify_red_belly_consensus(options);
    ASSERT_EQ(report.bv_results.size(), 7u);
    EXPECT_TRUE(report.consensus_results.empty());
    EXPECT_TRUE(report.naive_results.empty());
    EXPECT_EQ(report.nodes_cancelled, 9);
    EXPECT_EQ(report.dag_lanes, lanes);
    EXPECT_EQ(report.agreement, Verdict::kUnknown);
    EXPECT_EQ(report.validity, Verdict::kUnknown);
    EXPECT_EQ(report.termination, Verdict::kUnknown);
    EXPECT_NE(report.to_string().find("\ndag: " + std::to_string(lanes) +
                                      " lane(s), 9 node(s) cancelled\n"),
              std::string::npos)
        << report.to_string();
    if (lanes != 1) continue;

    // One lane visits the nodes in stage order: each bv property starts and
    // fails, the consensus properties are cancelled, then the composition.
    std::vector<std::string> expected;
    const std::string total = "/17] ";
    int settled = 0;
    for (const PropertyResult& result : report.bv_results) {
      EXPECT_EQ(result.verdict, Verdict::kUnknown) << result.property;
      expected.push_back("[dag " + std::to_string(settled) + total + "bv." + result.property +
                         ": start");
      expected.push_back("[dag " + std::to_string(++settled) + total + "bv." +
                         result.property + ": failed");
    }
    const ta::ThresholdAutomaton consensus = models::simplified_consensus_one_round();
    for (const spec::Property& property : models::simplified_properties(consensus)) {
      expected.push_back("[dag " + std::to_string(++settled) + total + "consensus." +
                         property.name + ": cancelled");
    }
    expected.push_back("[dag 16/17] compose.theorem6: start");
    expected.push_back("[dag 17/17] compose.theorem6: done");
    std::vector<std::string> stripped;
    for (const std::string& line : progress) stripped.push_back(strip_progress(line));
    EXPECT_EQ(stripped, expected);
    ASSERT_FALSE(progress.empty());
    EXPECT_EQ(progress.front().find("eta"), std::string::npos);  // nothing settled yet
    EXPECT_NE(progress.back().find(", eta 0s"), std::string::npos) << progress.back();
  }
}

// The scheduling contract the pipeline's stages keep, node by node: a gate
// that fails cancels every node behind it, the composition runs after
// whatever settled, and the progress stream is ordered with a final ETA of 0.

/// The stripped progress lines of a five-schema run (every bv property
/// unknown) on `lanes` lanes.
std::vector<std::string> unproven_gadget_progress(int lanes, HolisticReport& report) {
  HolisticOptions options;
  options.check.enumeration.max_schemas = 5;
  options.dag_workers = lanes;
  std::vector<std::string> progress;
  std::mutex progress_mutex;
  options.on_progress = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(progress_mutex);
    progress.push_back(line);
  };
  report = verify_red_belly_consensus(options);
  return progress;
}

TEST(DagSchedulerTest, FailureCancelsGatedTransitiveDependents) {
  // Every bv node fails, so each consensus node is cancelled without ever
  // starting, at any lane count; the other bv nodes still run.
  for (const int lanes : {1, 2}) {
    HolisticReport report;
    const std::vector<std::string> progress = unproven_gadget_progress(lanes, report);
    ASSERT_EQ(report.bv_results.size(), 7u) << lanes;
    for (const PropertyResult& result : report.bv_results) {
      EXPECT_NE(result.verdict, Verdict::kHolds) << result.property;
    }
    EXPECT_TRUE(report.consensus_results.empty()) << lanes;
    EXPECT_EQ(report.nodes_cancelled, 9) << lanes;
    int bv_failed = 0;
    int consensus_cancelled = 0;
    for (const std::string& line : progress) {
      const std::string stripped = strip_progress(line);
      if (stripped.find("] bv.") != std::string::npos &&
          stripped.ends_with(": failed")) {
        ++bv_failed;
      }
      if (stripped.find("] consensus.") == std::string::npos) continue;
      EXPECT_TRUE(stripped.ends_with(": cancelled")) << stripped;
      ++consensus_cancelled;
    }
    EXPECT_EQ(bv_failed, 7) << lanes;
    EXPECT_EQ(consensus_cancelled, 9) << lanes;
  }
}

TEST(DagSchedulerTest, OrderingOnlyDependentRunsAfterFailure) {
  // The Theorem-6 composition waits for every node and runs regardless of
  // how they settled: its start follows every other settle.
  for (const int lanes : {1, 2}) {
    HolisticReport report;
    const std::vector<std::string> progress = unproven_gadget_progress(lanes, report);
    ASSERT_GE(progress.size(), 2u) << lanes;
    EXPECT_EQ(strip_progress(progress[progress.size() - 2]),
              "[dag 16/17] compose.theorem6: start");
    EXPECT_EQ(strip_progress(progress.back()), "[dag 17/17] compose.theorem6: done");
    for (std::size_t i = 0; i + 2 < progress.size(); ++i) {
      EXPECT_EQ(progress[i].find("compose."), std::string::npos) << progress[i];
    }
    EXPECT_EQ(report.agreement, Verdict::kUnknown);
    EXPECT_EQ(report.validity, Verdict::kUnknown);
    EXPECT_EQ(report.termination, Verdict::kUnknown);
  }
}

TEST(DagSchedulerTest, ObserverSeesOrderedEventsAndEta) {
  // On two lanes the lines still come one at a time: the settled count never
  // falls, each run node starts once and settles once, each cancelled node
  // only settles, and the last line reports an ETA of 0.
  HolisticReport report;
  const std::vector<std::string> progress = unproven_gadget_progress(2, report);
  const std::regex shape(R"(^\[dag (\d+)/17\] ([a-z0-9]+\.[A-Za-z0-9_-]+)(#[0-9a-f]{16})?: )"
                         R"((start|failed|done|cancelled)( \([^()]*s\))?(, eta [^,]*s)?$)");
  int last_settled = 0;
  int starts = 0;
  int settles = 0;
  for (const std::string& line : progress) {
    std::smatch match;
    ASSERT_TRUE(std::regex_match(line, match, shape)) << line;
    const int settled = std::stoi(match[1].str());
    EXPECT_GE(settled, last_settled) << line;
    last_settled = settled;
    if (match[4].str() == "start") {
      ++starts;
      EXPECT_EQ(settled, settles) << line;
    } else {
      ++settles;
      EXPECT_EQ(settled, settles) << line;
    }
  }
  EXPECT_EQ(starts, 8);    // 7 bv nodes and the composition
  EXPECT_EQ(settles, 17);  // those 8 and the 9 cancelled consensus nodes
  EXPECT_EQ(last_settled, 17);
  ASSERT_FALSE(progress.empty());
  EXPECT_NE(progress.back().find(", eta 0s"), std::string::npos) << progress.back();
}

TEST(HolisticDagTest, CancelBeforeStartRunsNothing) {
  std::atomic<bool> cancel{true};
  HolisticOptions options;
  options.check.cancel = &cancel;
  const HolisticReport report = verify_red_belly_consensus(options);
  EXPECT_TRUE(report.bv_results.empty());
  EXPECT_TRUE(report.consensus_results.empty());
  EXPECT_TRUE(report.naive_results.empty());
  EXPECT_EQ(report.nodes_cancelled, 17);  // 7 bv, 9 consensus, the composition
  EXPECT_EQ(report.agreement, Verdict::kUnknown);
  EXPECT_EQ(report.termination, Verdict::kUnknown);
  EXPECT_FALSE(report.fully_verified());
}

TEST(HolisticDagTest, CancelMidRunStopsFurtherProperties) {
  // The flag turns true as the first property settles: nothing starts after
  // it, and the composition still reports what settled.
  std::atomic<bool> cancel{false};
  HolisticOptions options;
  options.check.enumeration.max_schemas = 5;
  options.check.cancel = &cancel;
  options.on_progress = [&cancel](const std::string& line) {
    if (line.find(": start") == std::string::npos) cancel.store(true);
  };
  const HolisticReport report = verify_red_belly_consensus(options);
  ASSERT_EQ(report.bv_results.size(), 1u);
  EXPECT_EQ(report.bv_results[0].property, "BV-Just0");
  EXPECT_TRUE(report.consensus_results.empty());
  EXPECT_EQ(report.nodes_cancelled, 16);  // 6 bv, 9 consensus, the composition
  EXPECT_EQ(report.agreement, Verdict::kUnknown);
}

TEST(HolisticDagTest, ThrowingProgressSinkReachesTheCaller) {
  for (const int lanes : {1, 2}) {
    HolisticOptions options;
    options.check.enumeration.max_schemas = 5;
    options.dag_workers = lanes;
    options.on_progress = [](const std::string&) { throw std::runtime_error("sink is full"); };
    EXPECT_ANY_THROW(verify_red_belly_consensus(options)) << lanes;
  }
}

TEST(HolisticDagTest, NaiveAttemptGatesNothing) {
  HolisticOptions options;
  options.include_naive_attempt = true;
  options.naive_timeout_seconds = 0;
  options.check.enumeration.max_schemas = 5;
  const HolisticReport report = verify_red_belly_consensus(options);
  EXPECT_EQ(report.naive_results.size(), 3u);
  EXPECT_EQ(report.bv_results.size(), 7u);
  EXPECT_TRUE(report.consensus_results.empty());
  EXPECT_EQ(report.nodes_cancelled, 9);
}

TEST(HolisticDagTest, DefaultPipelineJournalsPerNodeAndResumes) {
  // The default one-lane pipeline writes one journal per node, and a second
  // run resumes every node from its own file. Learning is off so that the
  // accounting does not depend on the order schemas settle in.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "holistic_node_journals";
  fs::remove_all(dir);
  fs::create_directories(dir);
  HolisticOptions options;
  options.check.lemmas = false;
  options.journal_prefix = (dir / "run").string();

  const HolisticReport first = verify_red_belly_consensus(options);
  EXPECT_EQ(first.dag_lanes, 1);
  ASSERT_TRUE(first.fully_verified());
  for (const PropertyResult& result : first.bv_results) {
    EXPECT_TRUE(fs::exists(dir / ("run.bv." + result.property + ".jsonl"))) << result.property;
  }
  for (const PropertyResult& result : first.consensus_results) {
    EXPECT_TRUE(fs::exists(dir / ("run.consensus." + result.property + ".jsonl")))
        << result.property;
  }

  options.resume = true;
  const HolisticReport second = verify_red_belly_consensus(options);
  EXPECT_TRUE(second.fully_verified());
  std::int64_t resumed = 0;
  const auto match = [&resumed](const std::vector<PropertyResult>& fresh,
                                const std::vector<PropertyResult>& replayed) {
    ASSERT_EQ(fresh.size(), replayed.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(fresh[i].property, replayed[i].property);
      EXPECT_EQ(fresh[i].verdict, replayed[i].verdict) << fresh[i].property;
      EXPECT_EQ(fresh[i].schemas_resumed, 0) << fresh[i].property;
      // A replayed schema counts where it settled (checked, pruned) and
      // into schemas_resumed as well.
      EXPECT_EQ(fresh[i].schemas_checked, replayed[i].schemas_checked) << fresh[i].property;
      EXPECT_EQ(fresh[i].schemas_pruned, replayed[i].schemas_pruned) << fresh[i].property;
      EXPECT_LE(replayed[i].schemas_resumed,
                replayed[i].schemas_checked + replayed[i].schemas_pruned)
          << fresh[i].property;
      resumed += replayed[i].schemas_resumed;
    }
  };
  match(first.bv_results, second.bv_results);
  match(first.consensus_results, second.consensus_results);
  EXPECT_GT(resumed, 0);
  fs::remove_all(dir);
}

// --- model-level regression checks (fast subsets of Table 2) ------------------

TEST(ModelVerificationTest, BvBroadcastSafetyHolds) {
  const ta::ThresholdAutomaton ta = models::bv_broadcast();
  for (const auto& property : models::bv_properties(ta)) {
    if (property.name != "BV-Just0" && property.name != "BV-Just1") continue;
    const PropertyResult result = checker::check_property(ta, property);
    EXPECT_EQ(result.verdict, Verdict::kHolds) << property.name;
  }
}

TEST(ModelVerificationTest, BvBroadcastLivenessHolds) {
  const ta::ThresholdAutomaton ta = models::bv_broadcast();
  for (const auto& property : models::bv_properties(ta)) {
    if (property.name != "BV-Term" && property.name != "BV-Obl0") continue;
    const PropertyResult result = checker::check_property(ta, property);
    EXPECT_EQ(result.verdict, Verdict::kHolds) << property.name;
  }
}

TEST(ModelVerificationTest, SimplifiedFastPropertiesHold) {
  const ta::ThresholdAutomaton ta = models::simplified_consensus_one_round();
  for (const auto& property : models::simplified_properties(ta)) {
    if (property.name == "Inv1_0" || property.name == "Inv1_1" ||
        property.name == "SRoundTerm") {
      continue;  // covered by the slow suite / table2 bench
    }
    const PropertyResult result = checker::check_property(ta, property);
    EXPECT_EQ(result.verdict, Verdict::kHolds) << property.name;
  }
}

TEST(ModelVerificationTest, AgreementInvariantHolds) {
  // Inv1_0 is the paper's agreement invariant and our heaviest property
  // (~10s): if a process decides 0 in a superround, no process decided 1.
  const ta::ThresholdAutomaton ta = models::simplified_consensus_one_round();
  for (const auto& property : models::simplified_properties(ta)) {
    if (property.name != "Inv1_0") continue;
    const PropertyResult result = checker::check_property(ta, property);
    EXPECT_EQ(result.verdict, Verdict::kHolds);
    // Cross-schema learning cuts most of the subtrees; the enumerated space
    // (solved + cut) is still the paper-scale workload.
    EXPECT_GT(result.schemas_checked + result.schemas_cut, 1000);
  }
}

TEST(ModelVerificationTest, WeakenedBvBroadcastLosesUniformity) {
  const ta::ThresholdAutomaton weak = models::bv_broadcast_weakened();
  bool justification_held = false;
  bool uniformity_broken = false;
  for (const auto& property : models::bv_properties(weak)) {
    const PropertyResult result = checker::check_property(weak, property);
    if (property.name == "BV-Just0") {
      justification_held = result.verdict == Verdict::kHolds;
    }
    if (property.name == "BV-Unif0") {
      uniformity_broken = result.verdict == Verdict::kViolated;
      ASSERT_TRUE(result.counterexample.has_value());
      // The witness parameters must themselves violate n > 3t (the paper's
      // resilience): that is exactly what makes them reachable here.
      const auto n = *weak.find_variable("n");
      const auto t = *weak.find_variable("t");
      EXPECT_LE(result.counterexample->params.at(n), 3 * result.counterexample->params.at(t));
    }
  }
  EXPECT_TRUE(justification_held);
  EXPECT_TRUE(uniformity_broken);
}

TEST(ModelVerificationTest, WeakenedConsensusLosesAgreement) {
  const ta::ThresholdAutomaton weak = models::simplified_consensus_weakened_one_round();
  for (const auto& property : models::simplified_properties(weak)) {
    if (property.name != "Inv1_0") continue;
    const PropertyResult result = checker::check_property(weak, property);
    EXPECT_EQ(result.verdict, Verdict::kViolated);
    ASSERT_TRUE(result.counterexample.has_value());
    // The counterexample reaches both a 1-decision (D1) and a 0-decision
    // (D0) in one superround.
    const std::string trace = result.counterexample->to_string(weak);
    EXPECT_NE(trace.find("D1"), std::string::npos);
    EXPECT_NE(trace.find("D0"), std::string::npos);
  }
}

}  // namespace
}  // namespace hv::pipeline
