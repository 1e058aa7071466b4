#include "hv/checker/journal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "hv/checker/parameterized.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/registry.h"
#include "hv/models/simplified_consensus.h"
#include "hv/smt/proof_json.h"
#include "hv/spec/compile.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/version.h"

namespace hv::checker {
namespace {

// The pid keeps concurrent runs of the same test binary apart.
std::string temp_path(const char* name) {
  const std::string path = ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

JournalRecord record(const char* property, const char* cursor, SchemaVerdict verdict,
                     std::int64_t length = 0, std::int64_t pivots = 0,
                     const char* note = "") {
  JournalRecord r;
  r.property = property;
  r.cursor = cursor;
  r.verdict = verdict;
  r.solve.length = length;
  r.solve.pivots = pivots;
  r.solve.note = note;
  return r;
}

/// A hand-written record line of property "safe" whose length field is the
/// raw token `length`.
std::string record_line(const char* cursor, const char* length,
                        const char* verdict = "unsat") {
  return std::string(R"({"type":"record","property":"safe","cursor":")") + cursor +
         R"(","verdict":")" + verdict + R"(","length":)" + length +
         R"(,"pivots":0,"retries":0,"note":""})" + "\n";
}

TEST(JournalTest, SchemaCursorIsStableAndContentBased) {
  Schema schema;
  schema.unlock_order = {2, 0, 1};
  schema.cut_positions = {0, 3};
  EXPECT_EQ(schema_cursor(1, schema), "q1|2,0,1|0,3");
  EXPECT_EQ(schema_cursor(1, schema), schema_cursor(1, schema));
  // Any content difference must produce a different cursor.
  Schema other = schema;
  other.cut_positions = {0, 2};
  EXPECT_NE(schema_cursor(1, schema), schema_cursor(1, other));
  EXPECT_NE(schema_cursor(0, schema), schema_cursor(1, schema));
}

TEST(JournalTest, RoundTripsRecords) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    ProgressJournal journal(path, "Echo", /*flush_batch=*/2);
    journal.append(record("safe", "q0|0|1", SchemaVerdict::kUnsat, 4, 17));
    journal.append(record("safe", "q0|0|2", SchemaVerdict::kPruned));
    journal.append(record("live", "q1||0", SchemaVerdict::kUnknown, 0, 0, "injected \"fault\"\n"));
    journal.append(record("live", "q1||1", SchemaVerdict::kUnknown, 0, 0, "cr\r tab\t ctl\x01 bs\\"));
    EXPECT_EQ(journal.records_written(), 4);
  }
  const ResumeState state = load_journal(path);
  EXPECT_EQ(state.automaton, "Echo");
  EXPECT_EQ(state.skipped_lines, 0);
  ASSERT_NE(state.find("safe", "q0|0|1"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|1")->verdict, SchemaVerdict::kUnsat);
  EXPECT_EQ(state.find("safe", "q0|0|1")->solve.length, 4);
  EXPECT_EQ(state.find("safe", "q0|0|1")->solve.pivots, 17);
  ASSERT_NE(state.find("safe", "q0|0|2"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|2")->verdict, SchemaVerdict::kPruned);
  // Notes survive escaping (quotes, newline).
  ASSERT_NE(state.find("live", "q1||0"), nullptr);
  EXPECT_EQ(state.find("live", "q1||0")->solve.note, "injected \"fault\"\n");
  // Every escape the writer emits decodes back.
  ASSERT_NE(state.find("live", "q1||1"), nullptr);
  EXPECT_EQ(state.find("live", "q1||1")->solve.note, "cr\r tab\t ctl\x01 bs\\");
  // (property, cursor) is the key: same cursor under another property is
  // distinct.
  EXPECT_EQ(state.find("live", "q0|0|1"), nullptr);
}

TEST(JournalTest, LaterRecordsWin) {
  const std::string path = temp_path("journal_laterwins.jsonl");
  {
    ProgressJournal journal(path, "Echo");
    journal.append(record("safe", "q0|0|1", SchemaVerdict::kUnknown, 0, 0, "first attempt failed"));
    journal.append(record("safe", "q0|0|1", SchemaVerdict::kUnsat, 4, 9));
  }
  const ResumeState state = load_journal(path);
  ASSERT_NE(state.find("safe", "q0|0|1"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|1")->verdict, SchemaVerdict::kUnsat);
}

TEST(JournalTest, ToleratesTornTrailingLine) {
  // The only corruption an append-only journal can suffer from kill -9 is a
  // torn last line; loading must skip it and keep every complete record.
  const std::string path = temp_path("journal_torn.jsonl");
  {
    ProgressJournal journal(path, "Echo");
    journal.append(record("safe", "q0|0|1", SchemaVerdict::kUnsat, 4, 9));
  }
  {
    std::ofstream file(path, std::ios::app | std::ios::binary);
    // Corrupt numbers are malformed lines too: a bare sign, a digit run
    // beyond int64, and a negative counter, which would drive the resumed
    // run's totals below zero. The same line with a positive length loads.
    // So are verdicts outside the codec's vocabulary, a record-type line
    // claiming sat included (only a sat-type line may).
    file << record_line("q0|0|3", "-") << record_line("q0|0|4", "99999999999999999999")
         << record_line("q0|0|5", "-3") << record_line("q0|0|6", "3")
         << record_line("q0|0|7", "3", "maybe") << record_line("q0|0|8", "3", "sat");
    file << R"({"type":"record","property":"safe","cursor":"q0|0|2","verdict":"uns)";  // torn
  }
  const ResumeState state = load_journal(path);
  EXPECT_EQ(state.skipped_lines, 6);
  ASSERT_NE(state.find("safe", "q0|0|1"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|2"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|3"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|4"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|5"), nullptr);
  ASSERT_NE(state.find("safe", "q0|0|6"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|6")->solve.length, 3);
  EXPECT_EQ(state.find("safe", "q0|0|7"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|8"), nullptr);
  // Both fail in the codec a fleet's record frames share.
  UnitOutcome solve;
  EXPECT_THROW(record_from_json(Json::parse(record_line("q0|0|7", "3", "maybe")), &solve),
               InvalidArgument);
  EXPECT_THROW(record_from_json(Json::parse(record_line("q0|0|8", "3", "sat")), &solve),
               InvalidArgument);
}

TEST(JournalTest, AppendAfterTornTailKeepsBothSides) {
  // A resumed run appends past the torn tail; a later load must see the old
  // and the new records and still skip the torn line in the middle.
  const std::string path = temp_path("journal_torn_append.jsonl");
  {
    ProgressJournal journal(path, "Echo");
    journal.append(record("safe", "q0|0|1", SchemaVerdict::kUnsat, 4, 9));
  }
  {
    std::ofstream file(path, std::ios::app | std::ios::binary);
    file << R"({"type":"record","property":"safe","cursor":"q0|0|2","verdict")"
         << "\n";  // torn, but newline-terminated
  }
  {
    ProgressJournal journal(path, "Echo");
    journal.append(record("safe", "q0|0|3", SchemaVerdict::kPruned));
  }
  const ResumeState state = load_journal(path);
  EXPECT_EQ(state.skipped_lines, 1);
  EXPECT_NE(state.find("safe", "q0|0|1"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|2"), nullptr);
  EXPECT_NE(state.find("safe", "q0|0|3"), nullptr);
}

TEST(JournalTest, RejectsMissingHeaderAndMixedAutomatons) {
  const std::string missing = temp_path("journal_no_header.jsonl");
  {
    std::ofstream file(missing, std::ios::binary);
    file << record_line("q0|0|1", "1");
  }
  EXPECT_THROW(load_journal(missing), Error);

  const std::string mixed = temp_path("journal_mixed.jsonl");
  {
    ProgressJournal a(mixed, "Echo");
  }
  {
    ProgressJournal b(mixed, "BvBroadcast");
  }
  EXPECT_THROW(load_journal(mixed), Error);

  EXPECT_THROW(load_journal(temp_path("journal_absent.jsonl")), Error);
}

TEST(JournalTest, ParseSchemaCursorInvertsSchemaCursor) {
  Schema schema;
  schema.unlock_order = {2, 0, 1};
  schema.cut_positions = {0, 3};
  std::size_t query = 0;
  Schema parsed;
  ASSERT_TRUE(parse_schema_cursor(schema_cursor(7, schema), &query, &parsed));
  EXPECT_EQ(query, 7u);
  EXPECT_EQ(parsed.unlock_order, schema.unlock_order);
  EXPECT_EQ(parsed.cut_positions, schema.cut_positions);

  // Empty unlock order / cut positions survive the roundtrip.
  Schema empty;
  ASSERT_TRUE(parse_schema_cursor(schema_cursor(0, empty), &query, &parsed));
  EXPECT_EQ(query, 0u);
  EXPECT_TRUE(parsed.unlock_order.empty());
  EXPECT_TRUE(parsed.cut_positions.empty());

  for (const char* bad : {"", "q", "x0|1|2", "q|1|2", "q0", "q0|1", "q1a|0|1",
                          "q0|1,|2", "q0|a,b|2", "q0|1|2|3",
                          // Digit runs past the integer range must be rejected,
                          // not overflow: cursors arrive from journal files and
                          // remote workers.
                          "q99999999999999999999|0|1",
                          "q0|99999999999999999999|1",
                          "q0|1|99999999999999999999"}) {
    EXPECT_FALSE(parse_schema_cursor(bad, &query, &parsed)) << bad;
  }
}

TEST(JournalTest, ResumeRefusesMismatchedIdentity) {
  ResumeState resume;
  resume.automaton = "Echo";
  resume.model_hash = "aaaaaaaaaaaaaaaa";
  resume.hvc_version = kHvcVersion;

  // Matching identity passes; legacy journals without hash/version pass too.
  EXPECT_NO_THROW(require_resume_compatible(resume, "Echo", "aaaaaaaaaaaaaaaa"));
  ResumeState legacy;
  legacy.automaton = "Echo";
  EXPECT_NO_THROW(require_resume_compatible(legacy, "Echo", "aaaaaaaaaaaaaaaa"));

  // Wrong automaton: precise diagnostic naming both.
  try {
    require_resume_compatible(resume, "BvBroadcast", "aaaaaaaaaaaaaaaa");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("recorded for automaton 'Echo'"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("'BvBroadcast'"), std::string::npos);
  }

  // Wrong model hash: the cursors would not line up.
  try {
    require_resume_compatible(resume, "Echo", "bbbbbbbbbbbbbbbb");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("different model"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("aaaaaaaaaaaaaaaa"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("bbbbbbbbbbbbbbbb"), std::string::npos);
  }

  // Wrong hvc version.
  ResumeState old = resume;
  old.hvc_version = "0.0.1";
  try {
    require_resume_compatible(old, "Echo", "aaaaaaaaaaaaaaaa");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("written by hvc 0.0.1"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find(kHvcVersion), std::string::npos);
  }
}

TEST(JournalTest, NodeIdentityRoundTripsThroughHeader) {
  // A pipeline-DAG per-node journal stamps the node key into its header and
  // gets it back on load; a whole-run journal has no node field at all.
  const std::string path = temp_path("journal_node.jsonl");
  {
    JournalHeader header("SimplifiedConsensus", "cafebabecafebabe");
    header.node = "consensus.Inv1_0#0123456789abcdef";
    ProgressJournal journal(path, header);
    journal.append(record("Inv1_0", "q0|0|1", SchemaVerdict::kUnsat, 3, 5));
  }
  const ResumeState state = load_journal(path);
  EXPECT_EQ(state.automaton, "SimplifiedConsensus");
  EXPECT_EQ(state.node, "consensus.Inv1_0#0123456789abcdef");
  ASSERT_NE(state.find("Inv1_0", "q0|0|1"), nullptr);

  const std::string plain = temp_path("journal_nonode.jsonl");
  { ProgressJournal journal(plain, JournalHeader("Echo", "cafebabecafebabe")); }
  EXPECT_TRUE(load_journal(plain).node.empty());
}

TEST(JournalTest, ResumeRefusesCrossNodeJournals) {
  // Two nodes of the same automaton share cursor space (same property
  // names, same schema cursors under different options fingerprints), so a
  // cross-node resume would silently replay wrong verdicts — it must be
  // refused with a diagnostic naming both nodes.
  ResumeState resume;
  resume.automaton = "SimplifiedConsensus";
  resume.model_hash = "aaaaaaaaaaaaaaaa";
  resume.hvc_version = kHvcVersion;
  resume.node = "consensus.Inv1_0#1111111111111111";

  EXPECT_NO_THROW(require_resume_compatible(resume, "SimplifiedConsensus", "aaaaaaaaaaaaaaaa",
                                            "consensus.Inv1_0#1111111111111111"));
  // A whole-run resume (no node requested) accepts legacy and per-node
  // journals alike; a per-node resume accepts a node-less journal (the
  // automaton/hash checks still guard it).
  EXPECT_NO_THROW(
      require_resume_compatible(resume, "SimplifiedConsensus", "aaaaaaaaaaaaaaaa"));
  ResumeState nodeless = resume;
  nodeless.node.clear();
  EXPECT_NO_THROW(require_resume_compatible(nodeless, "SimplifiedConsensus",
                                            "aaaaaaaaaaaaaaaa",
                                            "consensus.Inv1_0#1111111111111111"));

  try {
    require_resume_compatible(resume, "SimplifiedConsensus", "aaaaaaaaaaaaaaaa",
                              "consensus.Inv2_0#1111111111111111");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("consensus.Inv1_0#1111111111111111"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("consensus.Inv2_0#1111111111111111"),
              std::string::npos);
  }
  // Same property, different options fingerprint: still refused.
  EXPECT_THROW(require_resume_compatible(resume, "SimplifiedConsensus", "aaaaaaaaaaaaaaaa",
                                         "consensus.Inv1_0#2222222222222222"),
               InvalidArgument);
}

TEST(JournalTest, HeaderRecordsModelHashAndVersion) {
  const std::string path = temp_path("journal_identity.jsonl");
  {
    ProgressJournal journal(path, JournalHeader("Echo", "cafebabecafebabe"));
    journal.append(record("safe", "q0|0|1", SchemaVerdict::kUnsat, 4, 9));
  }
  const ResumeState state = load_journal(path);
  EXPECT_EQ(state.automaton, "Echo");
  EXPECT_EQ(state.model_hash, "cafebabecafebabe");
  EXPECT_EQ(state.hvc_version, kHvcVersion);

  // A journal claiming a different hash in a later header is contradictory.
  {
    std::ofstream file(path, std::ios::app | std::ios::binary);
    file << R"({"hv_journal":4,"automaton":"Echo","model_hash":"deadbeefdeadbeef",)"
         << R"("prune_implications":true,"prune_dead_unlocks":true,)"
         << R"("property_directed_pruning":true})" << "\n";
  }
  EXPECT_THROW(load_journal(path), Error);
}

TEST(JournalTest, ModelContentHashIsPinned) {
  // Journal headers, pipeline node keys and the fleet handshake carry the
  // hash, so it must not drift across releases.
  for (const auto& [key, hash] : {std::pair{"bv_broadcast", "5dd700473302d0e6"},
                                  std::pair{"st_broadcast", "08f95ded517057b5"},
                                  std::pair{"simplified_consensus", "342bf47f6554a980"},
                                  std::pair{"naive_consensus", "6288279a40639066"}}) {
    EXPECT_EQ(model_content_hash(hv::models::builtin_model(key)), hash) << key;
  }
}

TEST(JournalTest, CutFieldRoundTrips) {
  // An unsat record may carry a subtree-cut prefix length; it rides on the
  // record itself so a kill can never separate the verdict from the cut.
  const std::string path = temp_path("journal_cut.jsonl");
  {
    ProgressJournal journal(path, "Echo");
    JournalRecord with_cut = record("safe", "q0|2,0,1|", SchemaVerdict::kUnsat, 4, 17);
    with_cut.cut = 2;
    journal.append(with_cut);
    journal.append(record("safe", "q0|0|2", SchemaVerdict::kUnsat, 3, 5));
  }
  const ResumeState state = load_journal(path);
  ASSERT_NE(state.find("safe", "q0|2,0,1|"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|2,0,1|")->cut, 2);
  // Records without the field load as "no cut".
  ASSERT_NE(state.find("safe", "q0|0|2"), nullptr);
  EXPECT_EQ(state.find("safe", "q0|0|2")->cut, -1);
}

TEST(JournalTest, ResumeReplaysRecordedSubtreeCuts) {
  // A run interrupted after journaling cut-bearing unsat records must, on
  // resume, replay those cuts: the subtrees they cover are skipped without
  // re-solving, and the verdict matches an uninterrupted run.
  const ta::ThresholdAutomaton ta = hv::models::simplified_consensus_one_round();
  spec::Property property;
  bool found = false;
  for (const auto& candidate : hv::models::simplified_properties(ta)) {
    if (candidate.name == "Inv2_0") {
      property = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  CheckOptions options;
  options.property_directed_pruning = false;  // cuts, not cone prunes
  if (!lemmas_enabled(options)) GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  options.journal_path = temp_path("journal_cut_full.jsonl");
  const PropertyResult reference = check_property(ta, property, options);
  ASSERT_EQ(reference.verdict, Verdict::kHolds);
  ASSERT_GT(reference.schemas_cut, 0);

  // An "interrupted" run: the schema budget stops it partway through, after
  // at least one cut-bearing unsat record reached the journal.
  CheckOptions partial = options;
  partial.journal_path = temp_path("journal_cut_partial.jsonl");
  partial.enumeration.max_schemas = reference.schemas_checked / 2;
  const PropertyResult first_half = check_property(ta, property, partial);
  EXPECT_EQ(first_half.verdict, Verdict::kUnknown);
  bool journaled_cut = false;
  for (const auto& [key, settled] : load_journal(partial.journal_path).settled) {
    journaled_cut = journaled_cut || (settled.verdict == SchemaVerdict::kUnsat && settled.cut >= 0);
  }
  ASSERT_TRUE(journaled_cut) << "interrupted run recorded no subtree cut";

  CheckOptions resumed = options;
  resumed.journal_path = partial.journal_path;
  resumed.resume_path = partial.journal_path;
  const PropertyResult second_half = check_property(ta, property, resumed);
  EXPECT_EQ(second_half.verdict, reference.verdict);
  EXPECT_GT(second_half.schemas_resumed, 0);
  // The replayed cuts keep pruning past the resume point.
  EXPECT_GT(second_half.schemas_cut, 0);
}

TEST(JournalTest, RepeatedIdenticalHeadersAreFine) {
  // check_properties re-opens the journal per property; each open appends a
  // header for the same automaton.
  const std::string path = temp_path("journal_repeat_header.jsonl");
  {
    ProgressJournal journal(path, "Echo");
    journal.append(record("safe", "q0|0|1", SchemaVerdict::kUnsat, 4, 9));
  }
  {
    ProgressJournal journal(path, "Echo");
    journal.append(record("live", "q0|0|1", SchemaVerdict::kPruned));
  }
  const ResumeState state = load_journal(path);
  EXPECT_EQ(state.automaton, "Echo");
  EXPECT_EQ(state.skipped_lines, 0);
  EXPECT_NE(state.find("safe", "q0|0|1"), nullptr);
  EXPECT_NE(state.find("live", "q0|0|1"), nullptr);
}

TEST(JournalTest, RefusesAVersionTwoJournal) {
  // Version 2 wrote its own flat record lines without counters or proofs;
  // reading one half-way would resume with silently missing evidence.
  const std::string path = temp_path("journal_v2.jsonl");
  {
    std::ofstream file(path, std::ios::binary);
    file << R"({"hv_journal":2,"automaton":"Echo","model_hash":"cafebabecafebabe"})" << "\n";
    file << R"({"p":"safe","c":"q0|0|1","v":"unsat","len":4,"piv":9})" << "\n";
  }
  try {
    load_journal(path);
    FAIL() << "expected hv::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("version-2 journal"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("start a fresh journal"), std::string::npos)
        << error.what();
  }
}

TEST(JournalTest, RefusesAVersionThreeJournal) {
  // Version 3 headers did not record the pruning options, so a resume could
  // not tell whether its pruned records hold for the run.
  const std::string path = temp_path("journal_v3.jsonl");
  {
    std::ofstream file(path, std::ios::binary);
    file << R"({"hv_journal":3,"automaton":"Echo","model_hash":"cafebabecafebabe"})" << "\n";
  }
  try {
    load_journal(path);
    FAIL() << "expected hv::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("version-3 journal"), std::string::npos)
        << error.what();
  }
}

TEST(JournalTest, HeaderRecordsTheSchemaSpace) {
  const std::string path = temp_path("journal_space.jsonl");
  JournalHeader header("Echo", "cafebabecafebabe");
  header.space.property_directed_pruning = false;
  { ProgressJournal journal(path, header); }
  const ResumeState state = load_journal(path);
  EXPECT_TRUE(state.space.prune_implications);
  EXPECT_TRUE(state.space.prune_dead_unlocks);
  EXPECT_FALSE(state.space.property_directed_pruning);
  EXPECT_NO_THROW(require_resume_compatible(state, "Echo", "cafebabecafebabe", {}, header.space));
  try {
    require_resume_compatible(state, "Echo", "cafebabecafebabe");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("property_directed_pruning off"), std::string::npos)
        << error.what();
  }
  // A later header under other pruning options contradicts the first.
  header.space.property_directed_pruning = true;
  { ProgressJournal journal(path, header); }
  EXPECT_THROW(load_journal(path), Error);
}

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

std::string proof_text(const smt::proof::Node& node) {
  return smt::proof::to_json(node).to_string();
}

TEST(JournalTest, CertifyingRecordsRoundTripTheirEvidenceAndCounters) {
  // A certifying journal line carries what the certificate needs: an unsat
  // schema's proof, a sat schema's model, and its counterexample.
  const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
  const spec::Property property = spec::compile(ta, "d", "locA != 0 -> [](locD == 0)");
  CheckOptions options;
  options.certify = true;
  options.property_directed_pruning = false;
  options.journal_path = temp_path("journal_certify_roundtrip.jsonl");
  const PropertyResult result = check_property(ta, property, options);
  ASSERT_EQ(result.verdict, Verdict::kViolated);
  ASSERT_NE(result.evidence, nullptr);

  const ResumeState state = load_journal(options.journal_path);
  EXPECT_EQ(state.skipped_lines, 0);
  bool saw_unsat = false;
  bool saw_sat = false;
  std::int64_t pivots = 0;
  std::int64_t fast = 0;
  std::int64_t big = 0;
  for (const SchemaEvidence& evidence : result.evidence->schemas) {
    const JournalRecord* record =
        state.find("d", schema_cursor(evidence.query_index, evidence.schema));
    ASSERT_NE(record, nullptr);
    pivots += record->solve.pivots;
    fast += record->solve.rational_fast_ops;
    big += record->solve.rational_big_ops;
    if (evidence.sat) {
      saw_sat = true;
      EXPECT_EQ(record->verdict, SchemaVerdict::kSat);
      ASSERT_NE(record->solve.model, nullptr);
      EXPECT_EQ(*record->solve.model, *evidence.model);
      ASSERT_TRUE(record->solve.counterexample.has_value());
      ASSERT_TRUE(result.counterexample.has_value());
      EXPECT_EQ(record->solve.counterexample->steps.size(), result.counterexample->steps.size());
      EXPECT_EQ(record->solve.counterexample->params, result.counterexample->params);
    } else {
      saw_unsat = true;
      EXPECT_EQ(record->verdict, SchemaVerdict::kUnsat);
      ASSERT_NE(record->solve.proof, nullptr);
      EXPECT_EQ(proof_text(*record->solve.proof), proof_text(*evidence.proof));
    }
  }
  EXPECT_TRUE(saw_unsat);
  EXPECT_TRUE(saw_sat);
  EXPECT_EQ(pivots, result.simplex_pivots);
  EXPECT_EQ(fast, result.rational_fast_ops);
  EXPECT_EQ(big, result.rational_big_ops);
  EXPECT_GT(fast, 0);
}

TEST(JournalTest, ResumeFromACompleteJournalKeepsEveryCounter) {
  // Every record carries its counters, so a run resumed from a complete
  // journal reports the journaling run's arithmetic, not zeros.
  const ta::ThresholdAutomaton ta = hv::models::bv_broadcast();
  const std::vector<spec::Property> properties = hv::models::bundled_properties(ta);
  CheckOptions options;
  options.property_directed_pruning = false;
  options.journal_path = temp_path("journal_counters.jsonl");
  const std::vector<PropertyResult> reference = check_properties(ta, properties, options);

  CheckOptions resumed = options;
  resumed.journal_path.clear();
  resumed.resume_path = options.journal_path;
  const std::vector<PropertyResult> again = check_properties(ta, properties, resumed);
  ASSERT_EQ(again.size(), reference.size());
  std::int64_t fast = 0;
  for (std::size_t i = 0; i < again.size(); ++i) {
    SCOPED_TRACE(reference[i].property);
    EXPECT_EQ(again[i].verdict, reference[i].verdict);
    EXPECT_EQ(again[i].schemas_checked, reference[i].schemas_checked);
    EXPECT_EQ(again[i].schemas_resumed, reference[i].schemas_checked + reference[i].schemas_pruned);
    EXPECT_EQ(again[i].simplex_pivots, reference[i].simplex_pivots);
    EXPECT_EQ(again[i].rational_fast_ops, reference[i].rational_fast_ops);
    EXPECT_EQ(again[i].rational_big_ops, reference[i].rational_big_ops);
    EXPECT_EQ(again[i].retries, reference[i].retries);
    EXPECT_EQ(again[i].avg_schema_length, reference[i].avg_schema_length);
    fast += again[i].rational_fast_ops;
  }
  EXPECT_GT(fast, 0);
}

}  // namespace
}  // namespace hv::checker
