// Static analysis of threshold guards, feeding the schema enumerator.
//
// The schema method enumerates the orders in which the unique guard atoms of
// a TA can become true (they never become false again: all guards are rise
// guards). This analysis computes:
//   * the unique guard atoms and which rules use / can unlock them,
//   * implications between guards under the resilience condition (e.g.
//     b0 >= 2t+1-f implies b0 >= t+1-f, so the former can never unlock
//     first) — decided exactly with the SMT solver,
//   * which guards can be true with all shared variables still zero
//     (vacuous unlocks),
//   * location reachability cones under a given set of unlocked guards,
//     used to prune unlock orders whose increments could never happen.
#ifndef HV_CHECKER_GUARD_ANALYSIS_H
#define HV_CHECKER_GUARD_ANALYSIS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "hv/smt/linear.h"
#include "hv/ta/automaton.h"

namespace hv::checker {

/// Subset of guard indices as a bitmask (guard count <= 63 enforced).
using GuardSet = std::uint64_t;

class GuardAnalysis {
 public:
  explicit GuardAnalysis(const ta::ThresholdAutomaton& ta);

  const ta::ThresholdAutomaton& automaton() const noexcept { return ta_; }

  int guard_count() const noexcept { return static_cast<int>(guards_.size()); }
  const smt::LinearConstraint& guard(int index) const { return guards_[index]; }

  /// Indices of the unique guards appearing in a rule's guard conjunction.
  const std::vector<int>& rule_guards(ta::RuleId rule) const { return rule_guards_[rule]; }

  /// True iff guard `a` being true implies guard `b` is true, under the
  /// resilience condition and non-negativity (strict implications only for
  /// a != b).
  bool implies(int a, int b) const { return implies_[a][b]; }

  /// True iff the guard can hold while every shared variable is zero (for
  /// some admissible parameters): such a guard may unlock without any rule
  /// having fired.
  bool can_hold_at_zero(int index) const { return holds_at_zero_[index]; }

  /// Rules whose updates increment a shared variable with a positive
  /// coefficient in this guard (they can push the guard towards true).
  const std::vector<ta::RuleId>& incrementers(int index) const { return incrementers_[index]; }

  /// Locations reachable from the initial locations using only rules whose
  /// guards are contained in `unlocked` (memoized).
  const std::vector<bool>& reachable_locations(GuardSet unlocked) const;

  /// True iff some incrementer of the guard is fireable under `unlocked`:
  /// its guards are unlocked and its source location is reachable.
  bool incrementable(int index, GuardSet unlocked) const;

 private:
  const ta::ThresholdAutomaton& ta_;
  std::vector<smt::LinearConstraint> guards_;
  std::vector<std::vector<int>> rule_guards_;
  std::vector<std::vector<bool>> implies_;
  std::vector<bool> holds_at_zero_;
  std::vector<std::vector<ta::RuleId>> incrementers_;
  // Pool workers memoize concurrently;
  // node-based map references stay valid across other threads' inserts.
  mutable std::mutex reachability_mutex_;
  mutable std::map<GuardSet, std::vector<bool>> reachability_cache_;
};

}  // namespace hv::checker

#endif  // HV_CHECKER_GUARD_ANALYSIS_H
