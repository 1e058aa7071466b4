#include "hv/ta/random.h"

#include <string>

#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::ta {

ThresholdAutomaton random_automaton(const RandomTaOptions& options, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto chance = [&rng](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };

  ThresholdAutomaton ta("Random" + std::to_string(seed));
  const VarId n = ta.add_parameter("n");
  const VarId t = ta.add_parameter("t");
  const VarId f = ta.add_parameter("f");
  std::vector<VarId> shared;
  for (int i = 0; i < options.shared_variables; ++i) {
    shared.push_back(ta.add_shared(numbered("x", i)));
  }
  ta.add_resilience(smt::make_gt(smt::LinearExpr::variable(n), smt::LinearExpr::term(t, 3)));
  ta.add_resilience(smt::make_ge(smt::LinearExpr::variable(t), smt::LinearExpr::variable(f)));
  ta.add_resilience(smt::make_ge(smt::LinearExpr::variable(f), smt::LinearExpr(0)));
  ta.set_process_count(smt::LinearExpr::variable(n) - smt::LinearExpr::variable(f));

  const int location_count = pick(options.min_locations, options.max_locations);
  for (int i = 0; i < location_count; ++i) {
    // L0 always initial; others initial with small probability so most
    // automata have a non-trivial flow.
    ta.add_location(numbered("L", i), /*initial=*/i == 0 || chance(0.2));
  }

  const int rule_count = pick(options.min_rules, options.max_rules);
  for (int i = 0; i < rule_count; ++i) {
    // DAG by construction: edges go from lower to strictly higher ids.
    const LocationId from = pick(0, location_count - 2);
    const LocationId to = pick(from + 1, location_count - 1);
    Guard guard;
    if (chance(options.guard_probability)) {
      const VarId watched = shared[static_cast<std::size_t>(pick(0, options.shared_variables - 1))];
      // x >= c*t + 1 - f with c in {0, 1, 2}: the paper's two threshold
      // shapes plus the degenerate c = 0, whose guard can hold with all
      // counters at zero whenever f >= 1 (a class that once exposed a
      // checker completeness bug; see encoder.cpp on at-zero guards).
      int scale = chance(options.high_threshold_probability) ? 2 : 1;
      if (chance(0.2)) scale = 0;
      guard.atoms.push_back(smt::make_ge(
          smt::LinearExpr::variable(watched),
          smt::LinearExpr::term(t, scale) + smt::LinearExpr(1) - smt::LinearExpr::variable(f)));
    }
    Update update;
    if (chance(options.update_probability)) {
      const VarId bumped = shared[static_cast<std::size_t>(pick(0, options.shared_variables - 1))];
      update.increments.emplace_back(bumped, BigInt(1));
    }
    ta.add_rule(numbered("g", i), from, to, std::move(guard), std::move(update));
  }
  for (LocationId location = 0; location < location_count; ++location) {
    if (chance(options.self_loop_probability)) ta.add_self_loop(location);
  }
  ta.validate();
  return ta;
}

}  // namespace hv::ta
