// Concrete counter-system semantics of a threshold automaton for *fixed*
// parameter values (Section 2 of the paper). This powers the explicit-state
// baseline checker, counterexample replay, and cross-validation of the
// parameterized checker on small instances.
#ifndef HV_TA_COUNTER_SYSTEM_H
#define HV_TA_COUNTER_SYSTEM_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hv/ta/automaton.h"

namespace hv::ta {

/// Values of the TA parameters, by variable id.
using ParamValuation = std::map<VarId, std::int64_t>;

/// A configuration: per-location process counters plus shared-variable
/// values (parameters live in the enclosing CounterSystem).
struct Config {
  std::vector<std::int64_t> counters;  // indexed by LocationId
  std::vector<std::int64_t> shared;    // indexed densely by shared position

  friend bool operator==(const Config& lhs, const Config& rhs) = default;
  friend auto operator<=>(const Config& lhs, const Config& rhs) = default;
};

class CounterSystem {
 public:
  /// Throws InvalidArgument if a parameter is missing or the resilience
  /// condition fails under the valuation.
  CounterSystem(const ThresholdAutomaton& ta, ParamValuation params);

  const ThresholdAutomaton& automaton() const noexcept { return ta_; }
  std::int64_t parameter(VarId id) const;
  /// Number of (correct) processes executing the automaton.
  std::int64_t process_count() const noexcept { return process_count_; }

  /// Dense index of a shared variable within Config::shared.
  int shared_index(VarId id) const;
  int shared_count() const noexcept { return static_cast<int>(shared_vars_.size()); }

  /// All initial configurations: every distribution of the processes over
  /// the initial locations, shared variables at zero.
  std::vector<Config> initial_configs() const;

  /// Evaluates a guard (or any constraint over TA variables) in a config.
  bool guard_holds(const Guard& guard, const Config& config) const;
  bool constraint_holds(const smt::LinearConstraint& atom, const Config& config) const;

  /// True iff the rule can fire (source non-empty and guard holds).
  bool enabled(RuleId rule, const Config& config) const;

  /// Applies one step of `rule` (one process moves). Precondition: enabled.
  Config successor(const Config& config, RuleId rule) const;

  /// All successors over non-self-loop rules (self-loops are stutters).
  std::vector<std::pair<RuleId, Config>> successors(const Config& config) const;

  /// A configuration is justice-stable when no non-self-loop rule is
  /// enabled: every run from it only stutters, which is exactly the shape
  /// of a fair liveness counterexample for monotone TAs (cf. Appendix F).
  bool justice_stable(const Config& config) const;

  std::string config_to_string(const Config& config) const;

 private:
  std::int64_t evaluate(const smt::LinearExpr& expr, const Config& config) const;

  const ThresholdAutomaton& ta_;
  ParamValuation params_;
  std::vector<VarId> shared_vars_;
  std::int64_t process_count_ = 0;
};

}  // namespace hv::ta

#endif  // HV_TA_COUNTER_SYSTEM_H
