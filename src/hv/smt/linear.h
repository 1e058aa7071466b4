// Linear expressions and constraints over integer variables.
//
// This is the term language shared by the simplex core, the DPLL solver and
// the threshold-automaton guards: an expression is an integer-coefficient
// linear combination of variables plus a constant, and a constraint compares
// such an expression against zero.
#ifndef HV_SMT_LINEAR_H
#define HV_SMT_LINEAR_H

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "hv/util/bigint.h"

namespace hv::smt {

/// Index of a variable within a Solver (or any other variable universe).
using VarId = int;

/// Sparse linear expression: sum of coeff*var terms plus a constant.
/// Terms are kept sorted by variable id with no zero coefficients, so
/// structural equality is semantic equality.
class LinearExpr {
 public:
  LinearExpr() = default;
  /// A constant expression.
  LinearExpr(BigInt constant) : constant_(std::move(constant)) {}  // NOLINT
  LinearExpr(std::int64_t constant) : constant_(constant) {}       // NOLINT

  /// The expression `1 * var`.
  static LinearExpr variable(VarId var) { return term(var, 1); }
  /// The expression `coeff * var`.
  static LinearExpr term(VarId var, BigInt coeff);

  const BigInt& constant() const noexcept { return constant_; }
  /// Coefficient of `var` (zero if absent).
  const BigInt& coefficient(VarId var) const noexcept;
  /// Sorted (var, coeff) pairs with non-zero coefficients.
  const std::vector<std::pair<VarId, BigInt>>& terms() const noexcept { return terms_; }
  bool is_constant() const noexcept { return terms_.empty(); }

  /// Moves the terms out, leaving the constant expression.
  std::vector<std::pair<VarId, BigInt>> release_terms() noexcept {
    return std::exchange(terms_, {});
  }

  /// Adds `coeff * var` in place.
  LinearExpr& add_term(VarId var, const BigInt& coeff);

  LinearExpr& operator+=(const LinearExpr& rhs);
  LinearExpr& operator-=(const LinearExpr& rhs);
  LinearExpr& operator*=(const BigInt& scalar);
  LinearExpr operator-() const;

  friend LinearExpr operator+(LinearExpr lhs, const LinearExpr& rhs) { return lhs += rhs; }
  friend LinearExpr operator-(LinearExpr lhs, const LinearExpr& rhs) { return lhs -= rhs; }
  friend LinearExpr operator*(LinearExpr lhs, const BigInt& scalar) { return lhs *= scalar; }
  friend LinearExpr operator*(const BigInt& scalar, LinearExpr rhs) { return rhs *= scalar; }

  friend bool operator==(const LinearExpr& lhs, const LinearExpr& rhs) = default;

  /// Evaluates with the given variable valuation.
  BigInt evaluate(const std::function<BigInt(VarId)>& value_of) const;

  /// Renders as e.g. "2*x3 - x7 + 5" using the given variable namer.
  std::string to_string(const std::function<std::string(VarId)>& name_of) const;

 private:
  std::vector<std::pair<VarId, BigInt>> terms_;
  BigInt constant_;
};

/// Comparison of a linear expression against zero.
enum class Relation {
  kLe,  // expr <= 0
  kGe,  // expr >= 0
  kEq,  // expr == 0
};

/// `expr rel 0` over the integers.
struct LinearConstraint {
  LinearExpr expr;
  Relation relation = Relation::kLe;

  friend bool operator==(const LinearConstraint& lhs, const LinearConstraint& rhs) = default;

  /// Integer-exact negation; throws InvalidArgument for kEq (whose negation
  /// is a disjunction and must be handled at the clause level).
  LinearConstraint negated() const;

  /// True iff the constraint holds under the valuation.
  bool holds(const std::function<BigInt(VarId)>& value_of) const;

  std::string to_string(const std::function<std::string(VarId)>& name_of) const;
};

/// Convenience builders (integer semantics).
LinearConstraint make_le(LinearExpr lhs, LinearExpr rhs);  // lhs <= rhs
LinearConstraint make_ge(LinearExpr lhs, LinearExpr rhs);  // lhs >= rhs
LinearConstraint make_lt(LinearExpr lhs, LinearExpr rhs);  // lhs <= rhs - 1
LinearConstraint make_gt(LinearExpr lhs, LinearExpr rhs);  // lhs >= rhs + 1
LinearConstraint make_eq(LinearExpr lhs, LinearExpr rhs);  // lhs == rhs

}  // namespace hv::smt

#endif  // HV_SMT_LINEAR_H
