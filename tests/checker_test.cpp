#include "hv/checker/parameterized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hv/checker/explicit_checker.h"
#include "hv/checker/journal.h"
#include "hv/checker/run.h"
#include "hv/util/error.h"
#include "hv/util/rational.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/schema.h"
#include "hv/spec/compile.h"
#include "hv/spec/state.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/registry.h"
#include "hv/models/simplified_consensus.h"
#include "hv/models/st_broadcast.h"
#include "hv/ta/parser.h"
#include "hv/ta/random.h"
#include "hv/util/stopwatch.h"

namespace hv::checker {
namespace {

// An echo automaton: processes either announce (A -> B, x++) or wait
// (A -> W); waiters proceed to D once x reaches t+1-f (f Byzantine echoes
// may help them).
const ta::MultiRoundTa& echo() {
  static const ta::MultiRoundTa instance = ta::parse_ta(R"(
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
  )");
  return instance;
}

TEST(GuardAnalysisTest, UniqueGuardsAndIncrementers) {
  const GuardAnalysis analysis(echo().body());
  ASSERT_EQ(analysis.guard_count(), 1);
  ASSERT_EQ(analysis.incrementers(0).size(), 1u);
  EXPECT_EQ(echo().body().rule(analysis.incrementers(0)[0]).name, "announce");
  EXPECT_FALSE(analysis.can_hold_at_zero(0));  // x >= t+1-f needs x >= 1
  EXPECT_TRUE(analysis.incrementable(0, 0));   // announce fires under empty context
}

TEST(GuardAnalysisTest, ImplicationsDetected) {
  const ta::MultiRoundTa two_thresholds = ta::parse_ta(R"(
    ta Two {
      parameters n, t, f;
      shared x;
      resilience n > 3*t;
      resilience t >= f;
      resilience f >= 0;
      processes n - f;
      initial A;
      locations B, C;
      rule low: A -> B when x >= t + 1 - f do x += 1;
      rule high: B -> C when x >= 2*t + 1 - f;
      rule seed: A -> B do x += 1;
    }
  )");
  const GuardAnalysis analysis(two_thresholds.body());
  ASSERT_EQ(analysis.guard_count(), 2);
  // x >= 2t+1-f implies x >= t+1-f under t >= 0, but not vice versa.
  int low = analysis.guard(0).expr.coefficient(*two_thresholds.body().find_variable("t")) ==
                    BigInt(-1)
                ? 0
                : 1;
  const int high = 1 - low;
  EXPECT_TRUE(analysis.implies(high, low));
  EXPECT_FALSE(analysis.implies(low, high));
}

TEST(SchemaTest, EnumeratesChainsWithCuts) {
  const GuardAnalysis analysis(echo().body());
  EnumerationOptions options;
  // One guard: chains are {} and {g}; with one cut, placements 1 + 2 = 3.
  EXPECT_EQ(count_chains(analysis, options), 2);
  std::int64_t with_cut = 0;
  enumerate_schemas(analysis, 1, options, [&](const Schema&) {
    ++with_cut;
    return true;
  });
  EXPECT_EQ(with_cut, 3);
}

TEST(SchemaTest, BudgetStopsEnumeration) {
  const GuardAnalysis analysis(echo().body());
  EnumerationOptions options;
  options.max_schemas = 1;
  const EnumerationOutcome outcome =
      enumerate_schemas(analysis, 0, options, [](const Schema&) { return true; });
  EXPECT_TRUE(outcome.budget_exhausted);
}

TEST(ParameterizedTest, SafetyViolationFoundAndValidated) {
  // "D stays empty" is false: waiters can reach D once x >= t+1-f.
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "d_empty", "locA != 0 -> [](locD == 0)");
  const PropertyResult result = check_property(ta, property);
  EXPECT_EQ(result.verdict, Verdict::kViolated);
  ASSERT_TRUE(result.counterexample.has_value());
  // Counterexamples validate by construction (option on by default); spot
  // check the replayed text mentions rule applications.
  const std::string text = result.counterexample->to_string(ta);
  EXPECT_NE(text.find("proceed"), std::string::npos);
}

TEST(ParameterizedTest, SafetyHolds) {
  // Nobody reaches D while x is still below t+1-f... expressed as: if no
  // process ever announces, D stays empty (announce frozen via premise).
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "no_announce_no_d",
                                                "[](locB == 0) -> [](locD == 0)");
  const PropertyResult result = check_property(ta, property);
  EXPECT_EQ(result.verdict, Verdict::kHolds);
  // The cone analysis may discharge every schema statically.
  EXPECT_GT(result.schemas_checked + result.schemas_pruned, 0);
  CheckOptions unpruned;
  unpruned.property_directed_pruning = false;
  const PropertyResult full = check_property(ta, property, unpruned);
  EXPECT_EQ(full.verdict, Verdict::kHolds);
  EXPECT_GT(full.schemas_checked, 0);
  EXPECT_GT(full.avg_schema_length, 0.0);
}

TEST(ParameterizedTest, LivenessViolatedWhenWaitersStarve) {
  // <>(A empty and W empty) fails: everyone may wait, so x stays 0 and W
  // never drains.
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "all_proceed",
                                                "<>(locA == 0 && locW == 0)");
  const PropertyResult result = check_property(ta, property);
  EXPECT_EQ(result.verdict, Verdict::kViolated);
  ASSERT_TRUE(result.counterexample.has_value());
}

TEST(ParameterizedTest, LivenessHolds) {
  // <>(A empty) holds: justice forces the unguarded exits from A to fire.
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "a_drains", "<>(locA == 0)");
  const PropertyResult result = check_property(ta, property);
  EXPECT_EQ(result.verdict, Verdict::kHolds);
}

TEST(ParameterizedTest, CutOrderingBothWays) {
  // <>(D != 0) -> [](B == 0) is false: both can happen in one run.
  const auto& ta = echo().body();
  const spec::Property property =
      spec::compile(ta, "cut", "<>(locD != 0) -> [](locB == 0)");
  const PropertyResult result = check_property(ta, property);
  EXPECT_EQ(result.verdict, Verdict::kViolated);
}

TEST(ParameterizedTest, BudgetExhaustionIsUnknown) {
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "a_drains", "<>(locA == 0)");
  CheckOptions options;
  options.enumeration.max_schemas = 0;
  const PropertyResult result = check_property(ta, property, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_NE(result.note.find("budget"), std::string::npos);
}

TEST(ParameterizedTest, BudgetIsPerPropertyAtEveryThreadCount) {
  // Two violation queries share one schema budget; schemas turned away by
  // the budget are neither visited nor counted, whatever the thread count.
  const ta::ThresholdAutomaton ta = hv::models::simplified_consensus_one_round();
  const spec::Property property =
      spec::compile(ta, "p", "<>(locE0 > 0) -> [](locD1 == 0)");
  ASSERT_EQ(property.queries.size(), 2U);
  for (const int workers : {1, 4}) {
    CheckOptions options;
    options.workers = workers;
    options.enumeration.max_schemas = 300;
    const PropertyResult result = check_property(ta, property, options);
    EXPECT_EQ(result.verdict, Verdict::kUnknown) << workers;
    EXPECT_LE(result.schemas_checked + result.schemas_pruned + result.schemas_cut +
                  result.schemas_unknown,
              300)
        << workers;
    EXPECT_NE(result.note.find("schema budget exhausted (300)"), std::string::npos)
        << result.note;
    EXPECT_NE(result.note.find("/300 enumerated"), std::string::npos) << result.note;
  }
}

TEST(ParameterizedTest, WorkerPoolAgreesWithInline) {
  const auto& ta = echo().body();
  for (const char* text : {"locA != 0 -> [](locD == 0)", "[](locB == 0) -> [](locD == 0)",
                           "<>(locA == 0)", "<>(locA == 0 && locW == 0)"}) {
    const spec::Property property = spec::compile(ta, "p", text);
    CheckOptions parallel;
    parallel.workers = 3;
    const PropertyResult inline_result = check_property(ta, property);
    const PropertyResult parallel_result = check_property(ta, property, parallel);
    EXPECT_EQ(inline_result.verdict, parallel_result.verdict) << text;
  }
}

// Cross-validation: the parameterized verdict must agree with explicit-state
// checking at sampled parameters (holds => holds at every sample; violated
// => the counterexample's own parameters show an explicit violation).
class CrossValidationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossValidationTest, ParameterizedAgreesWithExplicit) {
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, GetParam(), GetParam());
  const PropertyResult parameterized = check_property(ta, property);
  ASSERT_NE(parameterized.verdict, Verdict::kUnknown);

  const auto v = [&](const char* name) { return *ta.find_variable(name); };
  if (parameterized.verdict == Verdict::kViolated) {
    const ExplicitResult explicit_result =
        check_explicit(ta, property, parameterized.counterexample->params);
    EXPECT_EQ(explicit_result.verdict, Verdict::kViolated) << GetParam();
  } else {
    for (const auto& [n, t, f] : std::vector<std::tuple<int, int, int>>{
             {4, 1, 0}, {4, 1, 1}, {5, 1, 1}, {7, 2, 2}}) {
      const ta::ParamValuation params{{v("n"), n}, {v("t"), t}, {v("f"), f}};
      const ExplicitResult explicit_result = check_explicit(ta, property, params);
      EXPECT_EQ(explicit_result.verdict, Verdict::kHolds)
          << GetParam() << " at n=" << n << " t=" << t << " f=" << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Properties, CrossValidationTest,
                         ::testing::Values("locA != 0 -> [](locD == 0)",
                                           "[](locB == 0) -> [](locD == 0)",
                                           "<>(locA == 0)",
                                           "<>(locA == 0 && locW == 0)",
                                           "<>(locD != 0) -> [](locB == 0)",
                                           "[](x >= t + 1 -> <>(locA == 0))"));

TEST(MinimizeTest, CounterexamplesAreMinimal) {
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "d_empty", "locA != 0 -> [](locD == 0)");
  const PropertyResult result = check_property(ta, property);
  ASSERT_EQ(result.verdict, Verdict::kViolated);
  const Counterexample& cex = *result.counterexample;
  // Minimal witness: one announcer... actually the guard x >= t+1-f can be
  // met with f Byzantine echoes alone only if t+1-f <= 0, which resilience
  // forbids; so at least one announce plus one waiter-proceed is needed,
  // and "locA != 0" keeps one process in A. Check for tight factors.
  std::int64_t total = 0;
  for (const auto& step : cex.steps) total += step.factor;
  EXPECT_LE(total, 3);
  // Still valid for its query (re-validated here for belt and braces).
  bool valid = false;
  for (const auto& query : property.queries) {
    valid = valid || validate_counterexample(ta, cex, query).empty();
  }
  EXPECT_TRUE(valid);
}

TEST(CounterexampleTest, ReplayRejectsAShapeThatDoesNotFitTheAutomaton) {
  // A fleet coordinator replays counterexamples that arrive from workers:
  // sizes, rule ids and factors are outside input and must fail the replay,
  // never index past the automaton.
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "d_empty", "locA != 0 -> [](locD == 0)");
  const PropertyResult result = check_property(ta, property);
  ASSERT_TRUE(result.counterexample.has_value());
  const Counterexample& cex = *result.counterexample;
  const auto query = std::find_if(
      property.queries.begin(), property.queries.end(),
      [&](const spec::ReachQuery& q) { return validate_counterexample(ta, cex, q).empty(); });
  ASSERT_NE(query, property.queries.end());
  ASSERT_FALSE(cex.steps.empty());
  std::vector<Counterexample> misfits(4, cex);
  misfits[0].initial.counters.push_back(0);
  misfits[1].initial.shared.clear();
  misfits[2].steps[0].rule = ta.rule_count();
  misfits[3].steps[0].factor = -1;
  for (const Counterexample& misfit : misfits) {
    EXPECT_NE(validate_counterexample(ta, misfit, *query), "");
  }
}

// The replay one firing at a time, as validate_counterexample did before it
// fired each step in one go: the reference the accelerated replay must equal.
std::string replay_per_firing(const ta::ThresholdAutomaton& ta, const Counterexample& cex,
                              const spec::ReachQuery& query) {
  const ta::CounterSystem system(ta, cex.params);
  ta::Config config = cex.initial;
  if (!spec::evaluate(system, query.initial, config)) {
    return "initial constraint fails on the initial configuration";
  }
  std::size_t next_cut = 0;
  const auto consume_cuts = [&] {
    while (next_cut < query.cuts.size() && spec::evaluate(system, query.cuts[next_cut], config)) {
      ++next_cut;
    }
  };
  consume_cuts();
  for (const TraceStep& step : cex.steps) {
    for (const ta::RuleId zero : query.zero_rules) {
      if (step.rule == zero && step.factor > 0) {
        return "trace fires a rule the query freezes: " + ta.rule(step.rule).name;
      }
    }
    for (std::int64_t i = 0; i < step.factor; ++i) {
      if (!system.enabled(step.rule, config)) {
        return "rule " + ta.rule(step.rule).name + " fired while disabled";
      }
      config = system.successor(config, step.rule);
      consume_cuts();
    }
  }
  if (next_cut < query.cuts.size()) {
    return "not all cut constraints were witnessed along the trace";
  }
  if (!spec::evaluate(system, query.final_cnf, config)) {
    return "final constraint fails on the last configuration";
  }
  return {};
}

TEST(CounterexampleTest, AcceleratedReplayMatchesPerFiring) {
  // Random automata, random traces (mostly enabled steps, some not) and
  // random queries whose atoms mix counters, shared variables and
  // parameters under <=, >= and =, so cuts and the final constraint switch
  // on and off in the middle of steps.
  std::mt19937_64 rng(20261019);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  int valid = 0;
  int witnessed = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const ta::ThresholdAutomaton ta = ta::random_automaton({}, seed);
    std::vector<smt::VarId> vars;
    for (smt::VarId v = 0; v < ta.variable_count() + ta.location_count(); ++v) vars.push_back(v);
    const auto random_atom = [&] {
      smt::LinearExpr expr(pick(-6, 6));
      for (int terms = static_cast<int>(pick(1, 2)); terms > 0; --terms) {
        expr.add_term(vars[static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(vars.size()) - 1))],
                      BigInt(pick(-2, 2)));
      }
      const smt::Relation relations[] = {smt::Relation::kLe, smt::Relation::kGe,
                                         smt::Relation::kEq};
      return smt::LinearConstraint{expr, relations[pick(0, 2)]};
    };
    const auto random_cnf = [&] {
      spec::Cnf cnf;
      for (int c = static_cast<int>(pick(0, 2)); c > 0; --c) {
        spec::Clause& clause = cnf.clauses.emplace_back();
        for (int l = static_cast<int>(pick(1, 2)); l > 0; --l) {
          clause.literals.push_back(random_atom());
        }
      }
      return cnf;
    };
    const smt::VarId n = *ta.find_variable("n");
    const smt::VarId t = *ta.find_variable("t");
    const smt::VarId f = *ta.find_variable("f");
    for (int round = 0; round < 40; ++round) {
      Counterexample cex;
      const std::int64_t tv = pick(0, 3);
      const std::int64_t fv = pick(0, tv);
      cex.params = {{n, 3 * tv + 1 + pick(0, 4)}, {t, tv}, {f, fv}};
      const ta::CounterSystem system(ta, cex.params);
      cex.initial.counters.assign(static_cast<std::size_t>(ta.location_count()), 0);
      cex.initial.shared.assign(ta.shared_variables().size(), 0);
      const std::vector<ta::LocationId> initial = ta.initial_locations();
      for (std::int64_t p = 0; p < system.process_count(); ++p) {
        ++cex.initial.counters[static_cast<std::size_t>(
            initial[static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(initial.size()) - 1))])];
      }
      ta::Config config = cex.initial;
      for (int steps = static_cast<int>(pick(1, 6)); steps > 0; --steps) {
        TraceStep step{static_cast<ta::RuleId>(pick(0, ta.rule_count() - 1)), pick(0, 4)};
        if (pick(0, 4) > 0) {  // mostly: as many firings as stay enabled
          std::int64_t fired = 0;
          while (fired < step.factor && system.enabled(step.rule, config)) {
            config = system.successor(config, step.rule);
            ++fired;
          }
          step.factor = fired;
        }
        cex.steps.push_back(step);
      }
      spec::ReachQuery query;
      if (pick(0, 3) == 0) query.initial = random_cnf();
      if (pick(0, 4) == 0) query.zero_rules.push_back(static_cast<ta::RuleId>(pick(0, ta.rule_count() - 1)));
      for (int c = static_cast<int>(pick(0, 3)); c > 0; --c) query.cuts.push_back(random_cnf());
      query.final_cnf = random_cnf();

      const std::string expected = replay_per_firing(ta, cex, query);
      EXPECT_EQ(validate_counterexample(ta, cex, query), expected)
          << "seed " << seed << " round " << round;
      valid += expected.empty() ? 1 : 0;
      witnessed += expected.empty() && !query.cuts.empty() ? 1 : 0;
    }
  }
  EXPECT_GT(valid, 100);
  EXPECT_GT(witnessed, 10);
}

TEST(CounterexampleTest, AcceleratedReplayDecidesHugeFactors) {
  // Echo with 10^15 announcers: a per-firing replay would take days.
  const auto& ta = echo().body();
  const std::int64_t big = 1'000'000'000'000'000;
  Counterexample cex;
  cex.params = {{*ta.find_variable("n"), big + 1},
                {*ta.find_variable("t"), 1},
                {*ta.find_variable("f"), 0}};
  cex.initial.counters.assign(static_cast<std::size_t>(ta.location_count()), 0);
  cex.initial.counters[static_cast<std::size_t>(*ta.find_location("A"))] = big + 1;
  cex.initial.shared = {0};
  const auto rule = [&](const char* name) {
    ta::RuleId id = 0;
    while (ta.rule(id).name != name) ++id;
    return id;
  };
  const ta::RuleId announce = rule("announce");
  cex.steps = {{announce, big}, {rule("wait"), 1}, {rule("proceed"), 1}};
  const auto counter = [&](const char* location) {
    return smt::LinearExpr::variable(ta.variable_count() + *ta.find_location(location));
  };
  const auto x = smt::LinearExpr::variable(*ta.find_variable("x"));
  const auto unit = [](smt::LinearConstraint atom) {
    spec::Cnf cnf;
    cnf.add_unit(std::move(atom));
    return cnf;
  };
  spec::ReachQuery query;
  // Witnessed at firing 10^15 - 7 of the first step, then at its last.
  query.cuts.push_back(unit(smt::make_ge(x, smt::LinearExpr(big - 7))));
  query.cuts.push_back(unit(smt::make_eq(counter("B"), smt::LinearExpr(big))));
  query.final_cnf.add_unit(smt::make_eq(counter("D"), smt::LinearExpr(1)));
  const Stopwatch watch;
  EXPECT_EQ(validate_counterexample(ta, cex, query), "");
  EXPECT_NE(cex.to_string(ta).find("-> {B:1000000000000000"), std::string::npos)
      << cex.to_string(ta);
  // One firing too many for A's processes: disabled, not wrapped around.
  cex.steps[0].factor = big + 2;
  EXPECT_EQ(validate_counterexample(ta, cex, query), "rule announce fired while disabled");
  // A cut that only holds beyond the trace's end is never witnessed.
  cex.steps[0].factor = big;
  query.cuts[0] = unit(smt::make_ge(x, smt::LinearExpr(big + 1)));
  EXPECT_EQ(validate_counterexample(ta, cex, query),
            "not all cut constraints were witnessed along the trace");
  EXPECT_LT(watch.seconds(), 0.5);
  // A step whose configuration leaves int64 does not fit the automaton.
  cex.params[*ta.find_variable("n")] = std::numeric_limits<std::int64_t>::max();
  cex.initial.counters[static_cast<std::size_t>(*ta.find_location("A"))] =
      std::numeric_limits<std::int64_t>::max();
  cex.initial.counters[static_cast<std::size_t>(*ta.find_location("B"))] = 1;
  cex.steps = {{announce, std::numeric_limits<std::int64_t>::max()}};
  query.cuts.clear();
  EXPECT_EQ(validate_counterexample(ta, cex, query), "trace step does not fit the automaton");
}

TEST(MultiRoundTest, CheckPropertyOverloadReduces) {
  const ta::MultiRoundTa& model = echo();
  const spec::Property property =
      spec::compile(model.one_round_reduction(), "drain", "<>(locA == 0)");
  const PropertyResult result = check_property(model, property);
  EXPECT_EQ(result.verdict, Verdict::kHolds);
}

TEST(EncoderTest, ParameterOnlyGuardsAreConditional) {
  // A rule guarded by a parameter-only atom (t >= 1) is not a threshold
  // guard: the encoder must allow the rule only when the atom holds.
  const ta::MultiRoundTa model = ta::parse_ta(R"(
    ta ParamGuard {
      parameters n, t, f;
      shared x;
      resilience n > 3*t;
      resilience t >= f;
      resilience f >= 0;
      processes n - f;
      initial A;
      locations B;
      rule go: A -> B when t >= 1 do x += 1;
    }
  )");
  const auto& ta = model.body();
  // Reaching B is possible (choose t >= 1): the no-B property is violated.
  const spec::Property reach = spec::compile(ta, "reach", "locA != 0 -> [](locB == 0)");
  const PropertyResult violated = check_property(ta, reach);
  ASSERT_EQ(violated.verdict, Verdict::kViolated);
  EXPECT_GE(violated.counterexample->params.at(*ta.find_variable("t")), 1);
  // But with t forced to 0 in the premise... the fragment has no way to
  // force parameters, so instead check the liveness dual: <>(locA == 0)
  // fails because t may be 0, leaving the rule disabled forever.
  const spec::Property drain = spec::compile(ta, "drain", "<>(locA == 0)");
  const PropertyResult stuck = check_property(ta, drain);
  ASSERT_EQ(stuck.verdict, Verdict::kViolated);
  EXPECT_EQ(stuck.counterexample->params.at(*ta.find_variable("t")), 0);
}

TEST(GuardAnalysisModelTest, BvBroadcastImplicationsAndIncrementers) {
  // On the real Fig. 2 automaton: per value v, the delivery guard
  // (b_v >= 2t+1-f) implies the echo guard (b_v >= t+1-f), and no
  // cross-value implication exists.
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const GuardAnalysis analysis(bv);
  ASSERT_EQ(analysis.guard_count(), 4);
  int implication_count = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b && analysis.implies(a, b)) ++implication_count;
    }
  }
  EXPECT_EQ(implication_count, 2);  // deliver_v => echo_v, for v in {0,1}
  for (int g = 0; g < 4; ++g) {
    EXPECT_FALSE(analysis.can_hold_at_zero(g));
    EXPECT_FALSE(analysis.incrementers(g).empty());
  }
}

TEST(ParameterizedTest, WorkerPoolOnPaperModel) {
  // The worker pool must reproduce the single-threaded verdict on a real
  // Table 2 row (SRoundTerm of the simplified consensus: 2116 schemas).
  const ta::ThresholdAutomaton ta = hv::models::simplified_consensus_one_round();
  for (const auto& property : hv::models::simplified_properties(ta)) {
    if (property.name != "SRoundTerm") continue;
    CheckOptions options;
    options.workers = 3;
    const PropertyResult result = check_property(ta, property, options);
    EXPECT_EQ(result.verdict, Verdict::kHolds);
    // Cross-schema learning moves schemas from "solved" to "cut" (the split
    // varies with worker interleaving), but every one of the row's 2116
    // schemas must be accounted for.
    EXPECT_EQ(result.schemas_checked + result.schemas_cut, 2116);
    if (lemmas_enabled(options)) {
      EXPECT_GT(result.schemas_cut, 0);
    }
  }
}

// --- pruning ablation -------------------------------------------------------
//
// Every pruning is sound: switching one off changes how many schemas reach
// the solver, never the verdict. Without dead-unlock pruning the schema
// space can outgrow the enumeration budget, so "-dead" may end unknown, but
// it must never report a violation.

TEST(PruningAblationTest, SoundConfigurationsAgree) {
  struct Configuration {
    const char* name;
    bool cones;
    bool dead;
    bool implications;
    bool lemmas;
  };
  constexpr Configuration kConfigurations[] = {
      {"full", true, true, true, true},
      {"-lemma", true, true, true, false},
      {"-cone", false, true, true, true},
      {"-dead", false, false, true, true},
      {"-impl", false, true, false, true},
  };
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const ta::ThresholdAutomaton simplified = hv::models::simplified_consensus_one_round();
  std::vector<std::pair<const ta::ThresholdAutomaton*, spec::Property>> rows;
  for (spec::Property& property : hv::models::bv_properties(bv)) {
    if (property.name == "BV-Just0" || property.name == "BV-Unif0") {
      rows.emplace_back(&bv, std::move(property));
    }
  }
  for (spec::Property& property : hv::models::simplified_properties(simplified)) {
    if (property.name == "Inv2_0" || property.name == "Dec_0") {
      rows.emplace_back(&simplified, std::move(property));
    }
  }
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& [ta, property] : rows) {
    for (const Configuration& configuration : kConfigurations) {
      CheckOptions options;
      options.property_directed_pruning = configuration.cones;
      options.enumeration.prune_dead_unlocks = configuration.dead;
      options.enumeration.prune_implications = configuration.implications;
      options.lemmas = configuration.lemmas;
      options.timeout_seconds = 60.0;
      const PropertyResult result = check_property(*ta, property, options);
      const std::string context = property.name + " " + configuration.name + ": " + result.note;
      if (configuration.dead) {
        EXPECT_EQ(result.verdict, Verdict::kHolds) << context;
      } else {
        EXPECT_NE(result.verdict, Verdict::kViolated) << context;
      }
    }
  }
}


// --- incremental vs one-shot differential ----------------------------------
//
// The incremental encoder must be answer-preserving: same verdicts, same
// schema counts, same average schema length, on every bundled model and
// property. (The naive consensus model is excluded: it times out by design.)

void expect_paths_agree(const ta::ThresholdAutomaton& ta, const spec::Property& property,
                        int workers) {
  CheckOptions incremental;
  incremental.workers = workers;
  CheckOptions fresh = incremental;
  fresh.incremental = false;
  const PropertyResult a = check_property(ta, property, incremental);
  const PropertyResult b = check_property(ta, property, fresh);
  EXPECT_EQ(a.verdict, b.verdict) << property.name;
  EXPECT_EQ(a.schemas_checked, b.schemas_checked) << property.name;
  EXPECT_EQ(a.schemas_pruned, b.schemas_pruned) << property.name;
  EXPECT_EQ(a.avg_schema_length, b.avg_schema_length) << property.name;
  EXPECT_EQ(a.counterexample.has_value(), b.counterexample.has_value()) << property.name;
  EXPECT_TRUE(a.incremental.has_value()) << property.name;
  EXPECT_FALSE(b.incremental.has_value()) << property.name;
}

TEST(IncrementalTest, DifferentialOnEcho) {
  const auto& ta = echo().body();
  for (const char* text : {"locA != 0 -> [](locD == 0)", "[](locB == 0) -> [](locD == 0)",
                           "<>(locA == 0)", "<>(locA == 0 && locW == 0)",
                           "<>(locD != 0) -> [](locB == 0)"}) {
    expect_paths_agree(ta, spec::compile(ta, text, text), /*workers=*/1);
  }
}

TEST(IncrementalTest, DifferentialOnBvBroadcast) {
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  for (const spec::Property& property : hv::models::bv_properties(bv)) {
    expect_paths_agree(bv, property, /*workers=*/1);
  }
}

TEST(IncrementalTest, DifferentialOnStBroadcast) {
  const ta::ThresholdAutomaton st = hv::models::st_broadcast();
  for (const spec::Property& property : hv::models::st_properties(st)) {
    expect_paths_agree(st, property, /*workers=*/1);
  }
}

TEST(IncrementalTest, DifferentialWithWorkerPool) {
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  for (const spec::Property& property : hv::models::bv_properties(bv)) {
    expect_paths_agree(bv, property, /*workers=*/3);
  }
}

TEST(IncrementalTest, StatsExposePrefixReuse) {
  // Without cone pruning every schema reaches the solver, so the DFS order
  // guarantees consecutive schemas share chain prefixes on a multi-guard
  // model: the reuse counters must be visibly non-zero.
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const std::vector<spec::Property> properties = hv::models::bv_properties(bv);
  CheckOptions options;
  options.property_directed_pruning = false;
  const PropertyResult result = check_property(bv, properties.front(), options);
  ASSERT_TRUE(result.incremental.has_value());
  EXPECT_GT(result.incremental->schemas_encoded, 0);
  EXPECT_GT(result.incremental->segments_pushed, 0);
  EXPECT_GT(result.incremental->segments_reused, 0);
  EXPECT_GT(result.incremental->prefix_reuse_ratio(), 0.0);
  EXPECT_LE(result.incremental->prefix_reuse_ratio(), 1.0);
  EXPECT_GT(result.simplex_pivots, 0);

  CheckOptions fresh = options;
  fresh.incremental = false;
  const PropertyResult baseline = check_property(bv, properties.front(), fresh);
  EXPECT_GT(baseline.simplex_pivots, 0);
  // The prefix sharing must translate into strictly fewer simplex pivots.
  EXPECT_LT(result.simplex_pivots, baseline.simplex_pivots);
}

TEST(IncrementalTest, SubtreePartitionCoversChainTreeExactlyOnce) {
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const GuardAnalysis analysis(bv);
  const EnumerationOptions options;
  std::int64_t direct = 0;
  enumerate_schemas(analysis, /*cut_count=*/1, options, [&](const Schema&) {
    ++direct;
    return true;
  });
  for (const int depth : {1, 2, 3}) {
    std::int64_t via_tasks = 0;
    for (const SubtreeTask& task : partition_subtrees(analysis, depth, options)) {
      enumerate_schemas_under(analysis, task, /*cut_count=*/1, options, [&](const Schema&) {
        ++via_tasks;
        return true;
      });
    }
    EXPECT_EQ(via_tasks, direct) << "depth " << depth;
  }
}

// Certificates are byte-stable only if a one-thread run settles schemas in
// enumerate_schemas' DFS order (queries in order) even though it walks the
// chain tree as a list of subtree tasks.
void expect_evidence_in_enumeration_order(const ta::ThresholdAutomaton& ta,
                                          const spec::Property& property) {
  CheckOptions options;
  options.certify = true;
  const PropertyResult result = check_property(ta, property, options);
  ASSERT_TRUE(result.evidence != nullptr) << property.name;
  const GuardAnalysis analysis(ta);
  std::map<std::tuple<std::size_t, std::vector<int>, std::vector<int>>, std::size_t> rank;
  for (std::size_t q = 0; q < property.queries.size(); ++q) {
    enumerate_schemas(analysis, static_cast<int>(property.queries[q].cuts.size()),
                      options.enumeration, [&](const Schema& schema) {
                        rank.emplace(std::make_tuple(q, schema.unlock_order,
                                                     schema.cut_positions),
                                     rank.size());
                        return true;
                      });
  }
  const auto expect_dfs_order = [&](const auto& items, const char* what) {
    std::size_t last = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto it = rank.find(std::make_tuple(items[i].query_index, items[i].schema.unlock_order,
                                                items[i].schema.cut_positions));
      ASSERT_NE(it, rank.end()) << property.name << " " << what << " #" << i;
      if (i > 0) {
        EXPECT_GT(it->second, last) << property.name << " " << what << " #" << i;
      }
      last = it->second;
    }
  };
  EXPECT_FALSE(result.evidence->schemas.empty() && result.evidence->pruned.empty())
      << property.name;
  expect_dfs_order(result.evidence->schemas, "evidence");
  expect_dfs_order(result.evidence->pruned, "pruned");
}

TEST(IncrementalTest, CertifiedEvidenceFollowsEnumerationOrder) {
  const auto& echo_ta = echo().body();
  for (const char* text : {"locA != 0 -> [](locD == 0)", "[](locB == 0) -> [](locD == 0)",
                           "<>(locA == 0)"}) {
    expect_evidence_in_enumeration_order(echo_ta, spec::compile(echo_ta, "p", text));
  }
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  for (const spec::Property& property : hv::models::bv_properties(bv)) {
    expect_evidence_in_enumeration_order(bv, property);
  }
}

// --- verdict precedence ------------------------------------------------------
//
// settle_result ranks the reasons a run ended; check_property and the
// distributed coordinator both report through it, so its notes are the
// ones users see from either.

TEST(SettleResultTest, HighestRungWins) {
  struct Rung {
    const char* name;
    void (*set)(PropertyTally&, RunEnd&);
    Verdict verdict;
    std::string note;  // prefix before the progress suffix
  };
  const std::vector<Rung> ladder = {
      {"counterexample", [](PropertyTally&, RunEnd& e) { e.counterexample = Counterexample{}; },
       Verdict::kViolated, ""},
      {"error", [](PropertyTally&, RunEnd& e) { e.error_note = "internal: replay failed"; },
       Verdict::kUnknown, "internal: replay failed"},
      {"interrupted", [](PropertyTally&, RunEnd& e) { e.interrupted = true; },
       Verdict::kUnknown, "interrupted"},
      {"timeout", [](PropertyTally&, RunEnd& e) { e.timed_out = true; }, Verdict::kUnknown,
       "timeout (limit 2.50s)"},
      {"budget", [](PropertyTally&, RunEnd& e) { e.budget_exhausted = true; },
       Verdict::kUnknown, "schema budget exhausted (9)"},
      {"aborted", [](PropertyTally&, RunEnd& e) { e.workers_aborted = 2; }, Verdict::kUnknown,
       "2 worker(s) aborted"},
      {"unknown schemas",
       [](PropertyTally& t, RunEnd&) {
         t.unknown = 3;
         t.degrade_note = "schema degraded to unknown: boom";
       },
       Verdict::kUnknown, "schema degraded to unknown: boom (3 schemas unknown)"},
      {"incomplete", [](PropertyTally&, RunEnd& e) { e.covered = false; }, Verdict::kUnknown,
       "run stopped before full coverage"},
      {"holds", [](PropertyTally&, RunEnd&) {}, Verdict::kHolds, ""},
  };
  const std::size_t kInterruptedRung = 2;
  CheckOptions options;
  options.timeout_seconds = 2.5;
  options.enumeration.max_schemas = 9;
  const std::string progress = "; solved 4/9 enumerated schemas, 2 pruned";
  const auto settle = [&](std::size_t from, std::size_t to) {
    PropertyTally tally;
    tally.enumerated = 9;
    tally.checked = 4;
    tally.pruned = 2;
    RunEnd end;
    for (std::size_t k = from; k < to; ++k) ladder[k].set(tally, end);
    return settle_result("p", std::move(tally), std::move(end), 1.25, options);
  };
  const auto expected_note = [&](const Rung& rung) {
    return rung.verdict == Verdict::kUnknown ? rung.note + progress : std::string();
  };
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    const Rung& rung = ladder[k];
    // The rung alone, and the rung with every lower rung also set.
    for (const std::size_t to : {k + 1, ladder.size()}) {
      const PropertyResult result = settle(k, to);
      EXPECT_EQ(result.verdict, rung.verdict) << rung.name;
      EXPECT_EQ(result.note, expected_note(rung)) << rung.name;
      EXPECT_EQ(result.interrupted, k <= kInterruptedRung && kInterruptedRung < to) << rung.name;
    }
  }
}

// --- fault-tolerant runtime -------------------------------------------------
//
// Every degradation path is exercised deterministically: watchdogs, fault
// injection, memory budgets, cancellation and journal resume. The contract
// under test is uniform — the checker never throws and never hangs; it
// records what it could not settle and returns kUnknown.

TEST(RobustnessTest, GlobalTimeoutReportsElapsedAndProgress) {
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const spec::Property property = hv::models::bv_properties(bv).front();
  CheckOptions options;
  options.property_directed_pruning = false;  // keep the solver busy
  options.lemmas = false;                     // no shortcuts past the timeout
  options.timeout_seconds = 0.001;
  // An injected per-attempt stall guarantees the deadline passes no matter
  // how fast the machine solves the schemas themselves.
  options.fault.kind = FaultKind::kStall;
  options.fault.every = 1;
  options.fault.stall_seconds = 0.005;
  const PropertyResult result = check_property(bv, property, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  // The note names the progress made; the actual elapsed time is `seconds`,
  // never the note's free text (which must not differ from run to run).
  EXPECT_NE(result.note.find("timeout"), std::string::npos) << result.note;
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_EQ(result.note.find(" after "), std::string::npos) << result.note;
  EXPECT_NE(result.note.find("solved "), std::string::npos) << result.note;
  EXPECT_NE(result.note.find("pruned"), std::string::npos) << result.note;
}

TEST(RobustnessTest, PivotBudgetDegradesToRecordedUnknown) {
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const spec::Property property = hv::models::bv_properties(bv).front();
  CheckOptions options;
  options.property_directed_pruning = false;
  options.pivot_budget = 1;  // far below what the schemas need
  const PropertyResult result = check_property(bv, property, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_GT(result.schemas_unknown, 0);
  EXPECT_GT(result.retries, 0);  // each failure was retried on a fresh solver
  EXPECT_NE(result.note.find("schemas unknown"), std::string::npos) << result.note;
  EXPECT_NE(result.note.find("solved "), std::string::npos) << result.note;
}

TEST(RobustnessTest, SchemaWatchdogCancelsInjectedStalls) {
  const auto& ta = echo().body();
  const spec::Property property =
      spec::compile(ta, "no_announce_no_d", "[](locB == 0) -> [](locD == 0)");
  CheckOptions options;
  options.property_directed_pruning = false;  // make every schema a solve attempt
  options.schema_timeout_seconds = 0.005;
  options.fault.kind = FaultKind::kStall;
  options.fault.every = 1;  // every attempt stalls past the watchdog
  options.fault.stall_seconds = 0.02;
  const PropertyResult result = check_property(ta, property, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_GT(result.schemas_unknown, 0);
  EXPECT_NE(result.note.find("watchdog"), std::string::npos) << result.note;
}

TEST(RobustnessTest, EveryFaultClassDegradesAndCompletes) {
  const auto& ta = echo().body();
  const spec::Property property =
      spec::compile(ta, "no_announce_no_d", "[](locB == 0) -> [](locD == 0)");
  for (const FaultKind kind :
       {FaultKind::kSolverThrow, FaultKind::kBadAlloc, FaultKind::kWorkerAbort}) {
    CheckOptions options;
    options.property_directed_pruning = false;
    options.fault.kind = kind;
    options.fault.every = 1;  // fault every attempt, including retries
    const PropertyResult result = check_property(ta, property, options);
    EXPECT_EQ(result.verdict, Verdict::kUnknown) << static_cast<int>(kind);
    EXPECT_GT(result.schemas_unknown, 0) << static_cast<int>(kind);
    EXPECT_FALSE(result.note.empty()) << static_cast<int>(kind);
  }
}

TEST(RobustnessTest, WorkerAbortIsContainedByThePool) {
  // Every worker dies on its first solve attempt; a dead pool stops claiming
  // work, and the run must return with the aborts reported.
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const spec::Property property = hv::models::bv_properties(bv).front();
  CheckOptions options;
  options.property_directed_pruning = false;
  options.workers = 3;
  options.fault.kind = FaultKind::kWorkerAbort;
  options.fault.every = 1;
  const PropertyResult result = check_property(bv, property, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_NE(result.note.find("aborted"), std::string::npos) << result.note;
}

TEST(RobustnessTest, SingleFaultIsAbsorbedByTheRetryLadder) {
  const auto& ta = echo().body();
  const spec::Property property =
      spec::compile(ta, "no_announce_no_d", "[](locB == 0) -> [](locD == 0)");
  CheckOptions no_pruning;
  no_pruning.property_directed_pruning = false;
  const PropertyResult baseline = check_property(ta, property, no_pruning);
  ASSERT_EQ(baseline.verdict, Verdict::kHolds);
  ASSERT_GT(baseline.schemas_checked, 0);
  CheckOptions options = no_pruning;
  options.fault.kind = FaultKind::kSolverThrow;
  options.fault.at = 0;  // exactly the first solve attempt
  const PropertyResult result = check_property(ta, property, options);
  EXPECT_EQ(result.verdict, Verdict::kHolds);
  EXPECT_EQ(result.retries, 1);
  EXPECT_EQ(result.schemas_unknown, 0);
  EXPECT_EQ(result.schemas_checked, baseline.schemas_checked);
}

TEST(RobustnessTest, MemoryBudgetFallsBackToFreshSolving) {
  // Any running process exceeds 1 MB of RSS, so the budget trips on every
  // polled incremental attempt (the poll stride includes the very first);
  // the fresh-solver fallback must still finish the run with the unchanged
  // verdict.
  const auto& ta = echo().body();
  const spec::Property property =
      spec::compile(ta, "no_announce_no_d", "[](locB == 0) -> [](locD == 0)");
  CheckOptions no_pruning;
  no_pruning.property_directed_pruning = false;
  const PropertyResult baseline = check_property(ta, property, no_pruning);
  CheckOptions options = no_pruning;
  options.memory_budget_mb = 1;
  const PropertyResult result = check_property(ta, property, options);
  EXPECT_EQ(result.verdict, baseline.verdict);
  EXPECT_EQ(result.schemas_checked, baseline.schemas_checked);
  EXPECT_GT(result.retries, 0);
  EXPECT_EQ(result.schemas_unknown, 0);
}

TEST(RobustnessTest, CancellationFlagInterruptsTheRun) {
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const spec::Property property = hv::models::bv_properties(bv).front();
  std::atomic<bool> cancel{true};  // cancelled before the run even starts
  CheckOptions options;
  options.cancel = &cancel;
  const PropertyResult result = check_property(bv, property, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_TRUE(result.interrupted);
  EXPECT_NE(result.note.find("interrupted"), std::string::npos) << result.note;
  EXPECT_EQ(result.schemas_checked, 0);
}

TEST(RobustnessTest, ResumeMatchesUninterruptedRun) {
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const spec::Property property = hv::models::bv_properties(bv).front();
  const std::string dir = ::testing::TempDir();
  const std::string full_journal = dir + "resume_full.jsonl";
  const std::string partial_journal = dir + "resume_partial.jsonl";
  std::remove(full_journal.c_str());
  std::remove(partial_journal.c_str());

  CheckOptions options;
  options.property_directed_pruning = false;  // ensure real solve work to resume
  options.journal_path = full_journal;
  const PropertyResult uninterrupted = check_property(bv, property, options);
  ASSERT_EQ(uninterrupted.verdict, Verdict::kHolds);
  ASSERT_GT(uninterrupted.schemas_checked, 1);

  // An "interrupted" run: the schema budget stops it partway through, with
  // its progress journaled.
  CheckOptions partial = options;
  partial.journal_path = partial_journal;
  partial.enumeration.max_schemas = uninterrupted.schemas_checked / 2;
  const PropertyResult first_half = check_property(bv, property, partial);
  EXPECT_EQ(first_half.verdict, Verdict::kUnknown);
  EXPECT_GT(first_half.schemas_checked, 0);

  // Resuming from the partial journal must reproduce the uninterrupted
  // run's verdict and statistics exactly.
  CheckOptions resumed = options;
  resumed.journal_path = partial_journal;
  resumed.resume_path = partial_journal;
  const PropertyResult second_half = check_property(bv, property, resumed);
  EXPECT_EQ(second_half.verdict, uninterrupted.verdict);
  EXPECT_EQ(second_half.schemas_checked, uninterrupted.schemas_checked);
  EXPECT_EQ(second_half.schemas_pruned, uninterrupted.schemas_pruned);
  EXPECT_DOUBLE_EQ(second_half.avg_schema_length, uninterrupted.avg_schema_length);
  // Pivot counts are solver-path dependent (incremental prefix sharing sees a
  // different push/pop history after a resume), so only require real work.
  EXPECT_GT(second_half.simplex_pivots, 0);
  EXPECT_GT(second_half.schemas_resumed, 0);

  // And a third run resuming the now-complete journal settles everything
  // from the file alone.
  const PropertyResult replayed = check_property(bv, property, resumed);
  EXPECT_EQ(replayed.verdict, uninterrupted.verdict);
  EXPECT_EQ(replayed.schemas_checked, uninterrupted.schemas_checked);
  EXPECT_EQ(replayed.schemas_resumed,
            replayed.schemas_checked + replayed.schemas_pruned);
}

TEST(RobustnessTest, ResumeRefusesWrongAutomaton) {
  const std::string path = ::testing::TempDir() + "wrong_automaton.jsonl";
  std::remove(path.c_str());
  {
    ProgressJournal journal(path, "SomeOtherAutomaton");
  }
  const auto& ta = echo().body();
  const spec::Property property =
      spec::compile(ta, "no_announce_no_d", "[](locB == 0) -> [](locD == 0)");
  CheckOptions options;
  options.resume_path = path;
  EXPECT_THROW(check_property(ta, property, options), Error);
}

TEST(RobustnessTest, ResumeFromACompleteJournalKeepsEveryCounter) {
  // Every counter of a settled schema rides on its journal record, so a
  // run resumed from its own complete journal reports the journaling run's
  // totals, the lemma-pool activity included; only the encoder counters
  // (segments_*) are the resumed run's own.
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const std::vector<spec::Property> properties = hv::models::bv_properties(bv);
  CheckOptions options;
  options.journal_path = ::testing::TempDir() + "resume_every_counter.jsonl";
  std::remove(options.journal_path.c_str());
  const std::vector<PropertyResult> journaled = check_properties(bv, properties, options);

  CheckOptions resumed = options;
  resumed.journal_path.clear();
  resumed.resume_path = options.journal_path;
  const std::vector<PropertyResult> results = check_properties(bv, properties, resumed);
  ASSERT_EQ(results.size(), journaled.size());
  std::int64_t learned = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PropertyResult& got = results[i];
    const PropertyResult& want = journaled[i];
    SCOPED_TRACE(want.property);
    EXPECT_EQ(got.verdict, want.verdict);
    EXPECT_EQ(got.schemas_checked, want.schemas_checked);
    EXPECT_EQ(got.schemas_pruned, want.schemas_pruned);
    EXPECT_EQ(got.schemas_cut, want.schemas_cut);
    EXPECT_EQ(got.schemas_resumed, want.schemas_checked + want.schemas_pruned);
    EXPECT_EQ(got.simplex_pivots, want.simplex_pivots);
    EXPECT_EQ(got.rational_fast_ops, want.rational_fast_ops);
    EXPECT_EQ(got.rational_big_ops, want.rational_big_ops);
    EXPECT_EQ(got.lemma_hits, want.lemma_hits);
    EXPECT_EQ(got.lemmas_learned, want.lemmas_learned);
    EXPECT_EQ(got.retries, want.retries);
    learned += want.lemmas_learned;
  }
  if (lemmas_enabled(options)) {
    EXPECT_GT(learned, 0);
  }
  std::remove(options.journal_path.c_str());
}

TEST(RobustnessTest, ResumeRefusesAnotherSchemaSpace) {
  // A journal's pruned records and cursors hold only under the pruning
  // options it was written with: a resume under others is refused, naming
  // the option, whether or not it certifies. Certification, learning,
  // budgets and thread counts may change across a resume.
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "p", "[](locB == 0) -> [](locD == 0)");
  CheckOptions options;
  options.journal_path = ::testing::TempDir() + "resume_schema_space.jsonl";
  std::remove(options.journal_path.c_str());
  ASSERT_EQ(check_property(ta, property, options).verdict, Verdict::kHolds);

  CheckOptions resumed;
  resumed.resume_path = options.journal_path;
  const auto refused = [&](const CheckOptions& run, const char* option) {
    try {
      check_property(ta, property, run);
      ADD_FAILURE() << "resume accepted despite " << option;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find(option), std::string::npos) << error.what();
    }
  };
  CheckOptions no_cone = resumed;
  no_cone.property_directed_pruning = false;
  refused(no_cone, "property_directed_pruning");
  no_cone.certify = true;
  refused(no_cone, "property_directed_pruning");
  CheckOptions no_implications = resumed;
  no_implications.enumeration.prune_implications = false;
  refused(no_implications, "prune_implications");
  CheckOptions no_dead = resumed;
  no_dead.enumeration.prune_dead_unlocks = false;
  refused(no_dead, "prune_dead_unlocks");

  CheckOptions other = resumed;
  other.certify = true;
  other.lemmas = false;
  other.workers = 2;
  other.enumeration.max_schemas = 1'000;
  EXPECT_EQ(check_property(ta, property, other).verdict, Verdict::kHolds);
  std::remove(options.journal_path.c_str());
}

// --- the lease book ---------------------------------------------------------
//
// run.h: one grant, budget and merge path for in-process threads and the
// distributed coordinator.

TEST(LeaseBookTest, GrantsFirstFitInQueryThenTaskOrder) {
  const ta::ThresholdAutomaton ta = hv::models::simplified_consensus_one_round();
  const spec::Property property = spec::compile(ta, "p", "<>(locE0 > 0) -> [](locD1 == 0)");
  ASSERT_EQ(property.queries.size(), 2U);
  LeaseBook book(ta, std::span(&property, 1), CheckOptions{}, /*consumers=*/2);
  const std::vector<SubtreeTask> tasks = plan_tasks(book.analysis(), 2, EnumerationOptions{});
  ASSERT_EQ(book.leases.size(), 2 * tasks.size());
  std::lock_guard<std::mutex> lock(book.mutex);
  for (std::size_t i = 0; i < book.leases.size(); ++i) {
    bool work_left = false;
    const std::int64_t pick = book.pick_locked(&work_left);
    ASSERT_EQ(pick, static_cast<std::int64_t>(i));
    EXPECT_TRUE(work_left);
    const Lease& lease = book.leases[i];
    EXPECT_EQ(lease.query, i / tasks.size());
    EXPECT_EQ(lease.task.prefix, tasks[i % tasks.size()].prefix);
    book.set_state_locked(i, LeaseState::kActive);
  }
  bool work_left = false;
  EXPECT_EQ(book.pick_locked(&work_left), -1);
  EXPECT_TRUE(work_left);  // every lease is active
  EXPECT_FALSE(book.complete_locked());
}

TEST(LeaseBookTest, BudgetIsExhaustedOnlyBeyondIt) {
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "p", "[](locB == 0) -> [](locD == 0)");
  CheckOptions options;
  options.enumeration.max_schemas = 2;
  LeaseBook book(ta, std::span(&property, 1), options, 1);
  std::lock_guard<std::mutex> lock(book.mutex);
  EXPECT_TRUE(book.charge_locked(0));
  EXPECT_TRUE(book.charge_locked(0));
  EXPECT_FALSE(book.props[0].end.budget_exhausted);  // the budget is used, not exceeded
  EXPECT_FALSE(book.charge_locked(0));
  EXPECT_TRUE(book.props[0].end.budget_exhausted);
  EXPECT_EQ(book.props[0].in_flight, 2);
  for (const Lease& lease : book.leases) EXPECT_EQ(lease.state, LeaseState::kDropped);
}

TEST(LeaseBookTest, UnchargedRecordsAreChargedAsTheyMerge) {
  // Fleet and resume records are charged when they merge: a budget of two
  // takes two records, and the third exhausts it without being counted.
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "p", "[](locB == 0) -> [](locD == 0)");
  CheckOptions options;
  options.enumeration.max_schemas = 2;
  LeaseBook book(ta, std::span(&property, 1), options, 1);
  std::lock_guard<std::mutex> lock(book.mutex);
  SchemaRecord record;
  record.verdict = SchemaVerdict::kUnsat;
  EXPECT_TRUE(book.merge_locked(0, 0, Schema{}, record, {}, /*charged=*/false));
  EXPECT_TRUE(book.merge_locked(0, 0, Schema{}, record, {}, /*charged=*/false));
  EXPECT_FALSE(book.props[0].end.budget_exhausted);
  EXPECT_FALSE(book.merge_locked(0, 0, Schema{}, record, {}, /*charged=*/false));
  EXPECT_EQ(book.props[0].tally.enumerated, 2);
  EXPECT_EQ(book.props[0].tally.checked, 2);
  EXPECT_TRUE(book.props[0].end.budget_exhausted);
}

TEST(LeaseBookTest, ChargedRecordsCountAfterTheWitness) {
  // A schema visited within the budget counts even if another consumer's
  // witness settled the property meanwhile; an uncharged fleet record for a
  // settled property is dropped.
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "p", "[](locB == 0) -> [](locD == 0)");
  LeaseBook book(ta, std::span(&property, 1), CheckOptions{}, 1);
  std::lock_guard<std::mutex> lock(book.mutex);
  ASSERT_TRUE(book.charge_locked(0));
  ASSERT_TRUE(book.charge_locked(0));
  SchemaRecord sat;
  sat.verdict = SchemaVerdict::kSat;
  EXPECT_TRUE(book.merge_locked(0, 0, Schema{}, sat, {}, /*charged=*/true));
  EXPECT_FALSE(book.props[0].live());
  SchemaRecord unsat;
  unsat.verdict = SchemaVerdict::kUnsat;
  EXPECT_TRUE(book.merge_locked(0, 0, Schema{}, unsat, {}, /*charged=*/true));
  EXPECT_FALSE(book.merge_locked(0, 0, Schema{}, unsat, {}, /*charged=*/false));
  EXPECT_EQ(book.props[0].tally.enumerated, 2);
  EXPECT_EQ(book.props[0].in_flight, 0);
  bool work_left = false;
  EXPECT_EQ(book.pick_locked(&work_left), -1);  // the witness dropped every lease
  EXPECT_FALSE(work_left);
}

TEST(LeaseBookTest, ResumedCutLandsInItsOwnPropertysIndex) {
  // A resumed unsat record's cut joins the cut index of the property it
  // names and no other: a chain prefix refuted under one property says
  // nothing about another's constraint system.
  const auto& ta = echo().body();
  const std::vector<spec::Property> properties = {
      spec::compile(ta, "a", "[](locB == 0) -> [](locD == 0)"),
      spec::compile(ta, "b", "locA != 0 -> [](locD == 0)")};
  CheckOptions options;
  if (!lemmas_enabled(options)) GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  options.resume_path = ::testing::TempDir() + "lease_book_resumed_cut.jsonl";
  std::remove(options.resume_path.c_str());
  Schema schema;
  schema.unlock_order = {0};
  {
    ProgressJournal journal(options.resume_path,
                            JournalHeader(ta.name(), model_content_hash(ta)));
    JournalRecord record;
    record.property = "b";
    record.cursor = schema_cursor(0, schema);
    record.verdict = SchemaVerdict::kUnsat;
    record.cut = 1;
    journal.append(record);
  }
  LeaseBook book(ta, properties, options, 1);
  book.replay_resume();
  ASSERT_NE(book.learning(0), nullptr);
  ASSERT_NE(book.learning(1), nullptr);
  EXPECT_EQ(book.props[1].tally.resumed, 1);
  EXPECT_TRUE(book.learning(1)->queries[0].cuts.covers({0}));
  EXPECT_EQ(book.learning(1)->queries[0].cuts.size(), 1u);
  for (const QueryLearning& query : book.learning(0)->queries) {
    EXPECT_EQ(query.cuts.size(), 0u);
  }
}

TEST(LeaseBookTest, EveryCutAConsumerFindsReachesTheMergeHook) {
  // step_schema adds a consumer's fresh cut to the book's index before the
  // merge, so the merge cannot tell from the index that the cut is new; the
  // charged record's cut says so. merged_locked must hear of every cut the
  // run finds: the coordinator settles the pending leases each covers,
  // self-solved ones included.
  struct CountingBook : LeaseBook {
    using LeaseBook::LeaseBook;
    void merged_locked(std::size_t, std::size_t, const Schema&, const SchemaRecord&,
                       const std::vector<int>* new_cut) override {
      if (new_cut != nullptr) ++new_cuts;
    }
    std::size_t new_cuts = 0;
  };
  CheckOptions options;
  if (!lemmas_enabled(options)) GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  const ta::ThresholdAutomaton ta = hv::models::simplified_consensus_one_round();
  const std::vector<spec::Property> properties = hv::models::simplified_properties(ta);
  const auto named = std::find_if(properties.begin(), properties.end(),
                                  [](const spec::Property& p) { return p.name == "SRoundTerm"; });
  ASSERT_NE(named, properties.end());
  CountingBook book(ta, std::span(&*named, 1), options, 1);
  book.consume(1, nullptr);
  std::size_t cuts = 0;
  for (const QueryLearning& query : book.learning(0)->queries) cuts += query.cuts.snapshot().size();
  EXPECT_GT(cuts, 0u);
  EXPECT_EQ(book.new_cuts, cuts);
}

TEST(ParameterizedTest, PinnedSimplexArithmetic) {
  // The simplex's pivot sequence and rational arithmetic are part of the
  // checker's observable behaviour: certificates cite its Farkas
  // combinations and learning banks its conflicts. These figures pin them
  // on a few bundled properties at one thread, so any change to the pivot
  // sequence is a deliberate one. The op count is fast plus big ops; the
  // BigInt-only representation (HV_NO_FAST_RATIONAL) counts its fused and
  // normalizing steps differently, so it has its own figure.
  CheckOptions learning;
  if (!lemmas_enabled(learning)) GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  CheckOptions certify;
  certify.certify = true;
  // Neither learning nor certificates: the one mode whose solver keeps slack
  // definitions only for its slack pool.
  CheckOptions plain;
  plain.lemmas = false;
  const ta::ThresholdAutomaton simplified = hv::models::simplified_consensus_one_round();
  const ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  const auto named = [](const std::vector<spec::Property>& properties, const std::string& name) {
    for (const spec::Property& property : properties) {
      if (property.name == name) return property;
    }
    throw InvalidArgument("no property " + name);
  };
  const spec::Property inv1 = named(hv::models::simplified_table2_properties(simplified), "Inv1_0");
  struct Pin {
    const char* label;
    const ta::ThresholdAutomaton& ta;
    spec::Property property;
    const CheckOptions& options;
    std::int64_t pivots;
    std::int64_t rational_ops;
    std::int64_t bigint_only_ops;
  };
  const Pin pins[] = {
      {"simplified Inv1_0, learning", simplified, inv1, learning, 1513, 1637815, 2972225},
      {"simplified Inv1_0, certify", simplified, inv1, certify, 3058, 18607173, 31324334},
      {"simplified Inv1_0, plain", simplified, inv1, plain, 3058, 18607173, 31324334},
      {"BV-Obl0", bv, named(hv::models::bv_properties(bv), "BV-Obl0"), learning, 728, 131433,
       250854},
      {"BV-Unif1", bv, named(hv::models::bv_properties(bv), "BV-Unif1"), learning, 1053, 200258,
       383731},
  };
  for (const Pin& pin : pins) {
    const PropertyResult result = check_property(pin.ta, pin.property, pin.options);
    EXPECT_EQ(result.verdict, Verdict::kHolds) << pin.label;
    EXPECT_EQ(result.simplex_pivots, pin.pivots) << pin.label;
    EXPECT_EQ(result.rational_fast_ops + result.rational_big_ops,
              Rational::fast_path_enabled() ? pin.rational_ops : pin.bigint_only_ops)
        << pin.label;
  }
}

TEST(LearningTest, PinnedLearningCounters) {
  // Every counter cross-schema learning moves, at one thread, over the
  // bundled simplified-consensus and bv-broadcast properties. The lemma
  // pool's and cut index's lookups are pure speed: they decide the same
  // hits and cuts as a linear scan over full inequality strings would, so
  // these figures pin that they do.
  CheckOptions options;
  if (!lemmas_enabled(options)) GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  struct Pin {
    const char* name;
    std::int64_t checked, cut, pruned, lemma_hits, lemmas_learned, pivots;
  };
  const auto run = [&](const ta::ThresholdAutomaton& ta, const std::vector<Pin>& pins) {
    const std::vector<spec::Property> properties = hv::models::bundled_properties(ta);
    ASSERT_EQ(properties.size(), pins.size()) << ta.name();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      const Pin& pin = pins[i];
      ASSERT_EQ(properties[i].name, pin.name);
      const PropertyResult r = check_property(ta, properties[i], options);
      EXPECT_EQ(r.verdict, Verdict::kHolds) << pin.name;
      EXPECT_EQ(r.schemas_checked, pin.checked) << pin.name;
      EXPECT_EQ(r.schemas_cut, pin.cut) << pin.name;
      EXPECT_EQ(r.schemas_pruned, pin.pruned) << pin.name;
      EXPECT_EQ(r.lemma_hits, pin.lemma_hits) << pin.name;
      EXPECT_EQ(r.lemmas_learned, pin.lemmas_learned) << pin.name;
      EXPECT_EQ(r.simplex_pivots, pin.pivots) << pin.name;
    }
  };
  // name, checked, cut, pruned, lemma hits, lemmas learned, pivots
  run(hv::models::simplified_consensus_one_round(),
      {{"Inv1_0", 239, 16539, 3576, 118, 105, 1513},
       {"Inv2_0", 0, 0, 2116, 0, 0, 0},
       {"Inv1_1", 457, 34322, 5929, 209, 223, 4029},
       {"Inv2_1", 0, 0, 2116, 0, 0, 0},
       {"Dec_0", 0, 0, 2116, 0, 0, 0},
       {"Dec_1", 0, 0, 2116, 0, 0, 0},
       {"Good_0", 0, 0, 2116, 0, 0, 0},
       {"Good_1", 0, 0, 2116, 0, 0, 0},
       {"SRoundTerm", 199, 1917, 0, 55, 93, 5739}});
  run(hv::models::bv_broadcast(), {{"BV-Just0", 0, 0, 19, 0, 0, 0},
                                   {"BV-Just1", 0, 0, 19, 0, 0, 0},
                                   {"BV-Obl0", 19, 0, 0, 0, 4, 728},
                                   {"BV-Obl1", 19, 0, 0, 0, 4, 532},
                                   {"BV-Unif0", 10, 0, 9, 0, 0, 651},
                                   {"BV-Unif1", 10, 0, 9, 0, 0, 1053},
                                   {"BV-Term", 19, 0, 0, 0, 3, 492}});
}

TEST(CutIndexTest, TrieAgreesWithALinearScan) {
  // The old linear index, as the oracle: a vector of cuts in insertion
  // order, scanned whole on every call.
  struct LinearCuts {
    std::vector<std::vector<int>> cuts;
    static bool is_prefix(const std::vector<int>& prefix, const std::vector<int>& chain) {
      return prefix.size() <= chain.size() &&
             std::equal(prefix.begin(), prefix.end(), chain.begin());
    }
    bool add(const std::vector<int>& prefix) {
      for (const std::vector<int>& cut : cuts) {
        if (is_prefix(cut, prefix)) return false;
      }
      std::erase_if(cuts, [&](const std::vector<int>& cut) { return is_prefix(prefix, cut); });
      cuts.push_back(prefix);
      return true;
    }
    bool covers(const std::vector<int>& chain) const {
      return std::any_of(cuts.begin(), cuts.end(),
                         [&](const std::vector<int>& cut) { return is_prefix(cut, chain); });
    }
  };
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    // Few elements and short chains, so adds collide, nest and subsume; the
    // empty cut (which covers everything) is rare.
    const auto chain = [&] {
      std::vector<int> out(rng() % 100 == 0 ? 0 : 1 + rng() % 5);
      for (int& element : out) element = static_cast<int>(rng() % 3);
      return out;
    };
    CutIndex trie;
    LinearCuts oracle;
    for (int step = 0; step < 300; ++step) {
      const std::vector<int> c = chain();
      if (rng() % 3 == 0) {
        ASSERT_EQ(trie.add(c), oracle.add(c)) << "seed " << seed << " step " << step;
      } else {
        ASSERT_EQ(trie.covers(c), oracle.covers(c)) << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(trie.size(), oracle.cuts.size()) << "seed " << seed << " step " << step;
      if (step % 25 == 0) {
        ASSERT_EQ(trie.snapshot(), oracle.cuts) << "seed " << seed << " step " << step;
      }
    }
    EXPECT_EQ(trie.snapshot(), oracle.cuts) << "seed " << seed;
  }
}

TEST(ExplicitTest, StateBudget) {
  const auto& ta = echo().body();
  const spec::Property property = spec::compile(ta, "a", "locA != 0 -> [](locD == 0)");
  const auto v = [&](const char* name) { return *ta.find_variable(name); };
  ExplicitOptions options;
  options.max_states = 1;
  const ExplicitResult result =
      check_explicit(ta, property, {{v("n"), 7}, {v("t"), 2}, {v("f"), 0}}, options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
}

}  // namespace
}  // namespace hv::checker
