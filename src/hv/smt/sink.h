// What the schema encoder (hv/checker/encoder.h) writes into. smt::Solver
// is the sink that solves; the auditor's cert::Trace (hv/cert/trace.h)
// records the same calls in the same order without solving, so the atom
// and clause indices a certifying solver's proofs cite are the auditor's.
#ifndef HV_SMT_SINK_H
#define HV_SMT_SINK_H

#include <string>
#include <vector>

#include "hv/smt/linear.h"
#include "hv/util/bigint.h"

namespace hv::smt {

/// A literal in a clause: the atom with the given id, possibly negated.
struct Literal {
  int atom = -1;
  bool positive = true;
};

class ConstraintSink {
 public:
  virtual ~ConstraintSink() = default;

  /// Declares a fresh integer variable.
  virtual VarId new_variable(std::string name) = 0;

  /// Permanent conjuncts, retracted only by the pop() of their scope. The
  /// constraint is taken over, so a temporary reaches the sink without a
  /// copy.
  virtual void add(LinearConstraint constraint) = 0;
  virtual void add_lower_bound(VarId var, const BigInt& bound) = 0;

  /// Registers an atom for use in clauses; returns its id (ids count up
  /// from 0 and are reused after a pop()). Equality atoms may only appear
  /// positively. Takes the constraint over like add().
  virtual int add_atom(LinearConstraint constraint) = 0;

  /// Adds a disjunction of literals over registered atoms (an empty clause
  /// is false).
  virtual void add_clause(std::vector<Literal> literals) = 0;

  /// Opens a new assertion scope: constraints, atoms, clauses and variables
  /// created from here on are retracted by the matching pop().
  virtual void push() = 0;
  /// Closes the innermost scope. Throws hv::Error without a matching push().
  virtual void pop() = 0;
};

}  // namespace hv::smt

#endif  // HV_SMT_SINK_H
