// Differential fuzzing of the parameterized checker against explicit-state
// enumeration on randomly generated threshold automata.
//
// The contract under test (the core soundness/completeness claim):
//   * verdict "violated" comes with a counterexample that replays under
//     concrete semantics (checked inside check_property already) AND whose
//     parameter valuation makes the explicit checker find a violation too;
//   * verdict "holds" means no violation exists for ANY parameters, so the
//     explicit checker must find none at every sampled valuation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hv/cert/audit.h"
#include "hv/cert/certificate.h"
#include "hv/cert/emit.h"
#include "hv/checker/explicit_checker.h"
#include "hv/checker/journal.h"
#include "hv/checker/parameterized.h"
#include "hv/spec/compile.h"
#include "hv/spec/ltl.h"
#include "hv/ta/parser.h"
#include "hv/ta/random.h"
#include "hv/util/error.h"

namespace hv::checker {
namespace {

// Random state predicates built from the automaton's vocabulary.
std::vector<std::string> candidate_predicates(const ta::ThresholdAutomaton& ta,
                                              std::mt19937_64& rng) {
  std::vector<std::string> location_atoms;
  for (const auto& location : ta.locations()) {
    location_atoms.push_back("loc" + location.name + (rng() % 2 == 0 ? " == 0" : " != 0"));
  }
  std::shuffle(location_atoms.begin(), location_atoms.end(), rng);
  return location_atoms;
}

// Builds a random property within the supported safety fragment (shapes
// 1-3); liveness shapes need persistence, which random predicates rarely
// satisfy, so liveness is fuzzed separately with <>(sink emptiness).
std::string random_safety_property(const ta::ThresholdAutomaton& ta, std::mt19937_64& rng) {
  const auto atoms = candidate_predicates(ta, rng);
  const std::string& a = atoms[0];
  const std::string& b = atoms[1 % atoms.size()];
  switch (rng() % 3) {
    case 0:
      return a + " -> [](" + b + ")";
    case 1: {
      // Shape 2 needs an emptiness conjunction premise.
      const std::string premise = "loc" + ta.location(0).name + " == 0";
      return "[](" + premise + ") -> [](" + b + ")";
    }
    default:
      return "<>(" + a + ") -> [](" + b + ")";
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, ParameterizedAgreesWithExplicit) {
  std::mt19937_64 rng(GetParam() * 7919 + 13);
  const ta::ThresholdAutomaton automaton = ta::random_automaton({}, GetParam());

  const auto v = [&](const char* name) { return *automaton.find_variable(name); };
  const std::vector<ta::ParamValuation> samples = {
      {{v("n"), 4}, {v("t"), 1}, {v("f"), 0}},
      {{v("n"), 4}, {v("t"), 1}, {v("f"), 1}},
      {{v("n"), 7}, {v("t"), 2}, {v("f"), 2}},
  };

  for (int round = 0; round < 6; ++round) {
    const std::string text = random_safety_property(automaton, rng);
    spec::Property property;
    try {
      property = spec::compile(automaton, "fuzz", text);
    } catch (const hv::InvalidArgument&) {
      continue;  // outside the supported fragment (e.g. non-emptiness premise)
    }
    CheckOptions options;
    options.enumeration.max_schemas = 200'000;
    options.timeout_seconds = 20.0;
    const PropertyResult result = check_property(automaton, property, options);
    if (result.verdict == Verdict::kUnknown) continue;

    if (result.verdict == Verdict::kViolated) {
      ASSERT_TRUE(result.counterexample.has_value()) << text;
      ExplicitOptions explicit_options;
      explicit_options.max_states = 2'000'000;
      const ExplicitResult explicit_result =
          check_explicit(automaton, property, result.counterexample->params, explicit_options);
      EXPECT_EQ(explicit_result.verdict, Verdict::kViolated)
          << "seed=" << GetParam() << " property=" << text << "\n"
          << result.counterexample->to_string(automaton);
    } else {
      for (const ta::ParamValuation& params : samples) {
        ExplicitOptions explicit_options;
        explicit_options.max_states = 500'000;
        const ExplicitResult explicit_result =
            check_explicit(automaton, property, params, explicit_options);
        if (explicit_result.verdict == Verdict::kUnknown) continue;  // state budget
        EXPECT_EQ(explicit_result.verdict, Verdict::kHolds)
            << "seed=" << GetParam() << " property=" << text;
      }
    }
  }
}

TEST_P(DifferentialFuzz, LivenessAgreesOnSinkDraining) {
  // <>(every non-sink location empties) — the generic termination shape.
  const ta::ThresholdAutomaton automaton = ta::random_automaton({}, GetParam() + 1000);
  std::vector<std::string> non_sinks;
  for (ta::LocationId id = 0; id < automaton.location_count(); ++id) {
    bool has_exit = false;
    for (const auto& rule : automaton.rules()) {
      has_exit = has_exit || (!rule.is_self_loop() && rule.from == id);
    }
    if (has_exit) non_sinks.push_back("loc" + automaton.location(id).name + " == 0");
  }
  if (non_sinks.empty()) GTEST_SKIP() << "degenerate automaton";
  std::string text = "<>(";
  for (std::size_t i = 0; i < non_sinks.size(); ++i) {
    if (i != 0) text += " && ";
    text += non_sinks[i];
  }
  text += ")";

  spec::Property property;
  try {
    property = spec::compile(automaton, "drain", text);
  } catch (const hv::InvalidArgument&) {
    GTEST_SKIP() << "goal not persistent for this automaton";
  }
  CheckOptions options;
  options.enumeration.max_schemas = 200'000;
  options.timeout_seconds = 20.0;
  const PropertyResult result = check_property(automaton, property, options);
  if (result.verdict == Verdict::kUnknown) GTEST_SKIP() << "budget";

  const auto v = [&](const char* name) { return *automaton.find_variable(name); };
  if (result.verdict == Verdict::kViolated) {
    const ExplicitResult explicit_result =
        check_explicit(automaton, property, result.counterexample->params);
    EXPECT_EQ(explicit_result.verdict, Verdict::kViolated) << text;
  } else {
    const ExplicitResult explicit_result = check_explicit(
        automaton, property, {{v("n"), 4}, {v("t"), 1}, {v("f"), 1}});
    if (explicit_result.verdict != Verdict::kUnknown) {
      EXPECT_EQ(explicit_result.verdict, Verdict::kHolds) << text;
    }
  }
}

TEST_P(DifferentialFuzz, CertificateAuditsGreen) {
  // Every verdict the certifying checker produces on a random automaton must
  // survive the independent audit: UNSAT refutations re-derive, and models
  // backing explicit-state-confirmed counterexamples evaluate true.
  std::mt19937_64 rng(GetParam() * 104729 + 7);
  const ta::ThresholdAutomaton generated = ta::random_automaton({}, GetParam() + 2000);
  // Round-trip through .ta text first: the certificate embeds the text and
  // the auditor reconstructs the automaton from it, so the certifying run
  // must see the same reconstruction.
  const std::string text = ta::to_text(ta::MultiRoundTa(generated, {}));
  const ta::ThresholdAutomaton automaton = ta::parse_ta(text).one_round_reduction();

  std::vector<spec::Property> properties;
  std::vector<PropertyResult> results;
  for (int round = 0; round < 4; ++round) {
    const std::string formula = random_safety_property(automaton, rng);
    spec::Property property;
    try {
      property = spec::compile(automaton, "fuzz" + std::to_string(round), formula);
    } catch (const hv::InvalidArgument&) {
      continue;  // outside the supported fragment
    }
    CheckOptions options;
    options.certify = true;
    options.enumeration.max_schemas = 200'000;
    options.timeout_seconds = 20.0;
    PropertyResult result = check_property(automaton, property, options);
    if (result.verdict == Verdict::kViolated) {
      // Keep only counterexamples the explicit checker confirms; the sat
      // model behind each must then audit green.
      ASSERT_TRUE(result.counterexample.has_value()) << formula;
      ExplicitOptions explicit_options;
      explicit_options.max_states = 500'000;
      const ExplicitResult confirmed = check_explicit(
          automaton, property, result.counterexample->params, explicit_options);
      if (confirmed.verdict != Verdict::kViolated) continue;
    }
    properties.push_back(property);
    results.push_back(std::move(result));
  }
  if (properties.empty()) GTEST_SKIP() << "no checkable properties for this seed";

  cert::Certificate certificate;
  certificate.components.push_back(
      cert::make_component_cert(cert::text_model_source(text), properties, results, "ltl"));
  const cert::Certificate parsed = cert::parse_certificate(cert::to_json_text(certificate));
  const cert::AuditReport report = cert::audit_certificate(parsed);
  EXPECT_TRUE(report.ok) << "seed=" << GetParam() << "\n" << report.to_string();
  const std::int64_t expected = static_cast<std::int64_t>(properties.size());
  EXPECT_EQ(report.properties_audited, expected);
}

TEST_P(DifferentialFuzz, LearningOnAndOffAgree) {
  // Cross-schema learning (Farkas lemma pool + core-based subtree cuts) must
  // be verdict-preserving on arbitrary automata: a learned fact only ever
  // skips solver work whose unsat outcome is already entailed, so the
  // verdict, and for complete runs the schema accounting, must agree with a
  // learning-free run.
  std::mt19937_64 rng(GetParam() * 31337 + 3);
  const ta::ThresholdAutomaton automaton = ta::random_automaton({}, GetParam() + 2000);
  for (int round = 0; round < 4; ++round) {
    const std::string text = random_safety_property(automaton, rng);
    spec::Property property;
    try {
      property = spec::compile(automaton, "learned", text);
    } catch (const hv::InvalidArgument&) {
      continue;
    }
    CheckOptions learning;
    learning.enumeration.max_schemas = 200'000;
    learning.timeout_seconds = 20.0;
    CheckOptions plain = learning;
    plain.lemmas = false;
    const PropertyResult on = check_property(automaton, property, learning);
    const PropertyResult off = check_property(automaton, property, plain);
    if (on.verdict == Verdict::kUnknown || off.verdict == Verdict::kUnknown) continue;
    EXPECT_EQ(on.verdict, off.verdict) << "seed=" << GetParam() << " property=" << text;
    // The learning-free run must not report learning activity.
    EXPECT_EQ(off.schemas_cut, 0) << text;
    EXPECT_EQ(off.lemma_hits, 0) << text;
    EXPECT_EQ(off.lemmas_learned, 0) << text;
    // Learning only skips solves; it can never add them.
    EXPECT_LE(on.schemas_checked, off.schemas_checked)
        << "seed=" << GetParam() << " property=" << text;
    if (on.verdict == Verdict::kHolds) {
      // Both runs enumerate the identical schema sequence to completion, so
      // every schema is either solved, cone-pruned or cut.
      EXPECT_EQ(on.schemas_checked + on.schemas_pruned + on.schemas_cut,
                off.schemas_checked + off.schemas_pruned)
          << "seed=" << GetParam() << " property=" << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range<std::uint64_t>(1, 26));

// --- mutational fuzzing of the journal reader ---------------------------------
//
// A journal is untrusted input: a resume must survive whatever a crash, a
// disk or a careless edit leaves in it. Seeded mutations of a real
// certifying journal (byte flips, truncation, dropped, duplicated and
// spliced lines) must load or be refused with hv::Error, and a certifying
// resume from a loadable mutant must not crash; its certificate must audit
// whenever every record that loaded is the original's record for its key.

std::string record_text(const JournalRecord& record) {
  return record_to_json(record, record.solve, {{"property", record.property}}).to_string();
}

bool same_records(const ResumeState& mutant, const ResumeState& original) {
  if (mutant.automaton != original.automaton || mutant.model_hash != original.model_hash ||
      mutant.hvc_version != original.hvc_version || mutant.node != original.node) {
    return false;
  }
  for (const auto& [key, record] : mutant.settled) {
    const auto it = original.settled.find(key);
    if (it == original.settled.end() || record_text(record) != record_text(it->second)) {
      return false;
    }
  }
  return true;
}

std::string mutate(std::vector<std::string> lines, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  bool truncate = false;
  const int rounds = 1 + static_cast<int>(rng() % 3);
  for (int round = 0; round < rounds && !lines.empty(); ++round) {
    std::string& line = lines[pick(lines.size())];
    switch (rng() % 5) {
      case 0:  // byte flip
        if (!line.empty()) {
          static constexpr char kBytes[] = "0123456789-\"{}[],:.aqz|";
          char& byte = line[pick(line.size())];
          byte = rng() % 2 == 0 ? static_cast<char>(byte ^ (1 << pick(7)))
                                : kBytes[pick(sizeof kBytes - 1)];
        }
        break;
      case 1:
        truncate = true;
        break;
      case 2:  // dropped line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size())));
        break;
      case 3: {  // duplicated line
        const std::string copy = line;
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)), copy);
        break;
      }
      default: {  // spliced: one line's head onto another's tail
        const std::string& other = lines[pick(lines.size())];
        line = line.substr(0, pick(line.size() + 1)) + other.substr(pick(other.size() + 1));
        break;
      }
    }
  }
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  if (truncate && !text.empty()) text.resize(pick(text.size()));
  return text;
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

TEST(JournalFuzz, MutantsLoadOrAreRefusedAndCertifiedResumesAudit) {
  // The journal of a small certifying run: unsat records with their
  // proofs, and a sat record with its model and counterexample.
  const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
  const std::vector<spec::Property> properties = {
      spec::compile(ta, "safe", "[](locB == 0) -> [](locD == 0)"),
      spec::compile(ta, "d", "locA != 0 -> [](locD == 0)")};
  CheckOptions options;
  options.certify = true;
  options.property_directed_pruning = false;
  const std::string original_path = ::testing::TempDir() + "fuzz_journal.jsonl";
  std::remove(original_path.c_str());
  CheckOptions journaled = options;
  journaled.journal_path = original_path;
  const std::vector<PropertyResult> reference = check_properties(ta, properties, journaled);
  const ResumeState original = load_journal(original_path);
  ASSERT_EQ(original.settled.size(), 4u);
  std::vector<std::string> lines;
  {
    std::ifstream file(original_path, std::ios::binary);
    for (std::string line; std::getline(file, line);) lines.push_back(line);
  }

  const std::string mutant_path = ::testing::TempDir() + "fuzz_journal_mutant.jsonl";
  std::mt19937_64 rng(20261019);
  int loadable = 0;
  int resumed = 0;
  int faithful = 0;
  for (int i = 0; i < 1000; ++i) {
    {
      std::ofstream file(mutant_path, std::ios::binary | std::ios::trunc);
      file << mutate(lines, rng);
    }
    ResumeState state;
    try {
      state = load_journal(mutant_path);
    } catch (const Error&) {
      continue;  // refused: no header, mixed identities, another version
    }
    ++loadable;
    // Every mutant whose records changed, and a sample of the rest.
    const bool same = same_records(state, original);
    if (same && faithful >= 50) continue;
    CheckOptions resume = options;
    resume.resume_path = mutant_path;
    std::vector<PropertyResult> results;
    try {
      results = check_properties(ta, properties, resume);
    } catch (const Error&) {
      continue;  // refused: a header naming another model or version
    }
    ++resumed;
    cert::Certificate certificate;
    certificate.components.push_back(cert::make_component_cert(
        cert::text_model_source(kEchoModel), properties, results, "ltl"));
    const cert::AuditReport report =
        cert::audit_certificate(cert::parse_certificate(cert::to_json_text(certificate)));
    if (!same) continue;
    ++faithful;
    for (std::size_t p = 0; p < results.size(); ++p) {
      EXPECT_EQ(results[p].verdict, reference[p].verdict) << "mutant " << i;
    }
    EXPECT_TRUE(report.ok) << "mutant " << i << "\n" << report.to_string();
  }
  EXPECT_GE(loadable, 50);
  EXPECT_GE(resumed, 50);
  EXPECT_GT(faithful, 0);
  std::remove(mutant_path.c_str());
}

}  // namespace
}  // namespace hv::checker
