// State predicates over threshold-automaton configurations.
//
// A configuration of a counter system consists of the shared variables, the
// parameters and one counter per location. Specifications constrain all
// three, so we extend the TA's variable id space with one pseudo-variable
// per location counter: ids below ta.variable_count() are TA variables, and
// counter_state_var(ta, L) = ta.variable_count() + L is kappa[L].
//
// Predicates are kept in CNF whose literals are linear constraints; this is
// exactly the clause form the SMT solver consumes.
#ifndef HV_SPEC_STATE_H
#define HV_SPEC_STATE_H

#include <string>
#include <vector>

#include "hv/smt/linear.h"
#include "hv/ta/automaton.h"
#include "hv/ta/counter_system.h"

namespace hv::spec {

/// Id of the pseudo-variable for kappa[location] in the state space of `ta`.
inline smt::VarId counter_state_var(const ta::ThresholdAutomaton& ta, ta::LocationId location) {
  return ta.variable_count() + location;
}

/// Expression kappa[location].
inline smt::LinearExpr counter_expr(const ta::ThresholdAutomaton& ta, ta::LocationId location) {
  return smt::LinearExpr::variable(counter_state_var(ta, location));
}

/// Disjunction of linear constraints over state variables.
struct Clause {
  std::vector<smt::LinearConstraint> literals;
};

/// Conjunction of clauses (CNF); empty means `true`.
struct Cnf {
  std::vector<Clause> clauses;

  bool is_true() const noexcept { return clauses.empty(); }
  void add_unit(smt::LinearConstraint literal) { clauses.push_back({{std::move(literal)}}); }
  void append(const Cnf& other) {
    clauses.insert(clauses.end(), other.clauses.begin(), other.clauses.end());
  }
};

/// Simplifies a CNF under the ambient fact that every state variable
/// (parameters, shared counters, location counters) is non-negative:
/// literals that can never hold are dropped from their clause, and clauses
/// containing a literal that always holds are dropped entirely. An
/// impossible literal that empties its clause leaves a one-literal false
/// clause behind (the CNF stays equivalent).
Cnf simplify_cnf(Cnf cnf);

/// Renders a state variable name ("kappa[C0]" for counters).
std::string state_var_name(const ta::ThresholdAutomaton& ta, smt::VarId var);

/// Pretty-prints a CNF predicate.
std::string to_string(const ta::ThresholdAutomaton& ta, const Cnf& cnf);

/// Evaluates a CNF in a concrete configuration (for the explicit checker
/// and for counterexample replay).
bool evaluate(const ta::CounterSystem& system, const Cnf& cnf, const ta::Config& config);
bool evaluate(const ta::CounterSystem& system, const smt::LinearConstraint& literal,
              const ta::Config& config);

}  // namespace hv::spec

#endif  // HV_SPEC_STATE_H
