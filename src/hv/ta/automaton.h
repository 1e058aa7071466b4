// Threshold automata (Konnov, Veith, Widder), the modelling formalism of the
// paper: locations describe the local state of a correct process, rules are
// edges guarded by *threshold guards* (linear comparisons between shared
// message counters and parameter expressions such as "b0 >= 2t+1-f"), and
// shared variables only ever increase.
//
// A ThresholdAutomaton is a one-round automaton; MultiRoundTa adds the
// dotted round-switch rules of Figures 3 and 4 and provides the reduction
// of Appendix A back to a one-round automaton with enlarged initial
// locations.
#ifndef HV_TA_AUTOMATON_H
#define HV_TA_AUTOMATON_H

#include <optional>
#include <string>
#include <vector>

#include "hv/smt/linear.h"
#include "hv/util/bigint.h"

namespace hv::ta {

using LocationId = int;
using RuleId = int;
/// Variables of a TA (parameters and shared counters) live in one id space
/// so that guards can be plain smt::LinearExpr over these ids.
using VarId = smt::VarId;

enum class VarKind { kParameter, kShared };

/// Conjunction of linear atoms over TA variables; empty means `true`.
struct Guard {
  std::vector<smt::LinearConstraint> atoms;

  bool is_true() const noexcept { return atoms.empty(); }
  friend bool operator==(const Guard& lhs, const Guard& rhs) = default;
};

/// Shared-variable increments applied when a rule fires (the paper only
/// uses ++, but any non-negative increment is supported).
struct Update {
  std::vector<std::pair<VarId, BigInt>> increments;

  bool empty() const noexcept { return increments.empty(); }
};

struct Rule {
  std::string name;
  LocationId from = -1;
  LocationId to = -1;
  Guard guard;
  Update update;

  bool is_self_loop() const noexcept { return from == to; }
};

struct Location {
  std::string name;
  bool initial = false;
};

class ThresholdAutomaton {
 public:
  explicit ThresholdAutomaton(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  // --- construction -------------------------------------------------------
  LocationId add_location(std::string name, bool initial = false);
  VarId add_parameter(std::string name);
  VarId add_shared(std::string name);
  RuleId add_rule(std::string name, LocationId from, LocationId to, Guard guard,
                  Update update = {});
  /// Adds a guard-true, no-update self-loop (models a process idling).
  RuleId add_self_loop(LocationId location);
  /// Constraint over parameters, e.g. n > 3t; conjoined.
  void add_resilience(smt::LinearConstraint constraint);
  /// Parameter expression counting the processes that execute this TA
  /// (n - f for the paper's models: Byzantine processes are modelled by the
  /// +-f slack in the guards, not as automaton instances).
  void set_process_count(smt::LinearExpr expr) { process_count_ = std::move(expr); }

  /// Checks well-formedness: ids in range, shared variables only increase,
  /// guards monotone (threshold guards never flip back), automaton acyclic
  /// apart from self-loops. Throws InvalidArgument with a diagnostic.
  void validate() const;

  // --- accessors -----------------------------------------------------------
  int location_count() const noexcept { return static_cast<int>(locations_.size()); }
  int rule_count() const noexcept { return static_cast<int>(rules_.size()); }
  int variable_count() const noexcept { return static_cast<int>(variables_.size()); }
  const Location& location(LocationId id) const { return locations_[id]; }
  const Rule& rule(RuleId id) const { return rules_[id]; }
  const std::vector<Location>& locations() const noexcept { return locations_; }
  const std::vector<Rule>& rules() const noexcept { return rules_; }
  const std::vector<smt::LinearConstraint>& resilience() const noexcept { return resilience_; }
  const smt::LinearExpr& process_count() const noexcept { return process_count_; }

  const std::string& variable_name(VarId id) const { return variables_[id].name; }
  bool is_parameter(VarId id) const { return variables_[id].kind == VarKind::kParameter; }
  bool is_shared(VarId id) const { return variables_[id].kind == VarKind::kShared; }
  std::vector<VarId> parameters() const;
  std::vector<VarId> shared_variables() const;

  /// Finds ids by name; nullopt if absent.
  std::optional<LocationId> find_location(std::string_view name) const;
  std::optional<VarId> find_variable(std::string_view name) const;

  std::vector<LocationId> initial_locations() const;

  /// Distinct guard atoms across all rules (the paper's "unique guards"
  /// count in Table 2), excluding trivially-true guards.
  std::vector<smt::LinearConstraint> unique_guard_atoms() const;

  /// Rules in a topological order of the location DAG (self-loops excluded).
  /// Used by the schema encoder: within a fixed context any execution can be
  /// reordered into this order.
  std::vector<RuleId> rules_in_topological_order() const;

  /// Human-readable rendering of a guard/rule for traces and DOT output.
  std::string guard_to_string(const Guard& guard) const;
  std::string rule_to_string(RuleId id) const;

 private:
  struct Variable {
    std::string name;
    VarKind kind;
  };

  std::string name_;
  std::vector<Location> locations_;
  std::vector<Variable> variables_;
  std::vector<Rule> rules_;
  std::vector<smt::LinearConstraint> resilience_;
  smt::LinearExpr process_count_;
};

/// A dotted round-switch edge of a multi-round TA: at the end of a round a
/// process moves from `from` into the initial location `to` of the next
/// round.
struct RoundSwitch {
  LocationId from = -1;
  LocationId to = -1;
};

/// Multi-round TA (Figures 3 and 4): a one-round body plus round switches.
class MultiRoundTa {
 public:
  MultiRoundTa(ThresholdAutomaton body, std::vector<RoundSwitch> switches)
      : body_(std::move(body)), switches_(std::move(switches)) {}

  const ThresholdAutomaton& body() const noexcept { return body_; }
  const std::vector<RoundSwitch>& switches() const noexcept { return switches_; }

  /// Appendix A reduction: verification of round-quantified properties on
  /// the multi-round system reduces to the one-round body with an enlarged
  /// set of initial locations (every target of a round switch is a possible
  /// round-start location).
  ThresholdAutomaton one_round_reduction() const;

 private:
  ThresholdAutomaton body_;
  std::vector<RoundSwitch> switches_;
};

}  // namespace hv::ta

#endif  // HV_TA_AUTOMATON_H
