#include "hv/smt/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::smt {
namespace {

LinearExpr var(VarId v) { return LinearExpr::variable(v); }

TEST(LinearExprTest, TermMergingAndEquality) {
  LinearExpr e = LinearExpr::term(0, 2) + LinearExpr::term(1, 3);
  e.add_term(0, -2);
  EXPECT_EQ(e, LinearExpr::term(1, 3));
  e += LinearExpr(5);
  EXPECT_EQ(e.constant(), BigInt(5));
  EXPECT_EQ(e.coefficient(1), BigInt(3));
  EXPECT_EQ(e.coefficient(0), BigInt(0));
}

TEST(LinearExprTest, Evaluate) {
  const LinearExpr e = LinearExpr::term(0, 2) - LinearExpr::term(1, 1) + LinearExpr(7);
  const auto value_of = [](VarId v) { return BigInt(v == 0 ? 10 : 3); };
  EXPECT_EQ(e.evaluate(value_of), BigInt(24));
}

TEST(LinearExprTest, ToString) {
  const LinearExpr e = LinearExpr::term(0, 1) - LinearExpr::term(1, 2) + LinearExpr(-3);
  const auto name = [](VarId v) { return numbered("x", v); };
  EXPECT_EQ(e.to_string(name), "x0 - 2*x1 - 3");
  EXPECT_EQ(LinearExpr(0).to_string(name), "0");
}

TEST(ConstraintTest, NegationIsIntegerExact) {
  const LinearConstraint le = make_le(var(0), LinearExpr(5));  // x <= 5
  const LinearConstraint negated = le.negated();               // x >= 6
  const auto at = [](std::int64_t x) {
    return [x](VarId) { return BigInt(x); };
  };
  EXPECT_TRUE(le.holds(at(5)));
  EXPECT_FALSE(negated.holds(at(5)));
  EXPECT_FALSE(le.holds(at(6)));
  EXPECT_TRUE(negated.holds(at(6)));
  EXPECT_THROW(make_eq(var(0), LinearExpr(5)).negated(), InvalidArgument);
}

TEST(SolverTest, TrivialSat) {
  Solver solver;
  EXPECT_EQ(solver.check(), CheckResult::kSat);
}

TEST(SolverTest, SingleVariableBounds) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add(make_ge(var(x), LinearExpr(3)));
  solver.add(make_le(var(x), LinearExpr(3)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model_value(x), BigInt(3));
}

TEST(SolverTest, InfeasibleConjunction) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add(make_ge(var(x), LinearExpr(4)));
  solver.add(make_le(var(x), LinearExpr(3)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(SolverTest, IntegerTighteningCutsOpenInterval) {
  // 3 < 2x < 5 has no integer solution (x=2 gives 4 -> wait, 3<4<5 holds).
  // Use 2x == 3 instead: no integer x.
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add(make_eq(LinearExpr::term(x, 2), LinearExpr(3)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(SolverTest, BranchAndBoundFindsLatticePoint) {
  // 2x + 3y == 12, x,y >= 1  ->  x=3, y=2.
  Solver solver;
  const VarId x = solver.new_variable("x");
  const VarId y = solver.new_variable("y");
  solver.add_lower_bound(x, 1);
  solver.add_lower_bound(y, 1);
  solver.add(make_eq(LinearExpr::term(x, 2) + LinearExpr::term(y, 3), LinearExpr(12)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model_value(x), BigInt(3));
  EXPECT_EQ(solver.model_value(y), BigInt(2));
}

TEST(SolverTest, IntegerInfeasibleButLpFeasible) {
  // 2x - 2y == 1 with x,y in [0, 50]: LP-feasible, no integer point.
  Solver solver;
  const VarId x = solver.new_variable("x");
  const VarId y = solver.new_variable("y");
  solver.add_lower_bound(x, 0);
  solver.add_upper_bound(x, 50);
  solver.add_lower_bound(y, 0);
  solver.add_upper_bound(y, 50);
  solver.add(make_eq(LinearExpr::term(x, 2) - LinearExpr::term(y, 2), LinearExpr(1)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(SolverTest, ClausesAndUnitPropagation) {
  // (x >= 5 or x <= 1) and x >= 2  ->  x >= 5.
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add(make_ge(var(x), LinearExpr(2)));
  solver.add(make_le(var(x), LinearExpr(100)));
  const int high = solver.add_atom(make_ge(var(x), LinearExpr(5)));
  const int low = solver.add_atom(make_le(var(x), LinearExpr(1)));
  solver.add_clause({{high, true}, {low, true}});
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_GE(solver.model_value(x), BigInt(5));
}

TEST(SolverTest, NegativeLiterals) {
  // not(x <= 3) forced by clause -> x >= 4.
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add_lower_bound(x, 0);
  solver.add_upper_bound(x, 10);
  const int small = solver.add_atom(make_le(var(x), LinearExpr(3)));
  solver.add_clause({{small, false}});
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_GE(solver.model_value(x), BigInt(4));
}

TEST(SolverTest, EqualityAtomNegativeLiteralRejected) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  const int eq = solver.add_atom(make_eq(var(x), LinearExpr(3)));
  EXPECT_THROW(solver.add_clause({{eq, false}}), InvalidArgument);
}

TEST(SolverTest, EmptyClauseIsUnsat) {
  Solver solver;
  solver.new_variable("x");
  solver.add_clause({});
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(SolverTest, MultiClauseBacktracking) {
  // (x <= 0 or y <= 0) and (x >= 5 or y >= 5) and x + y == 5, x,y >= 0.
  Solver solver;
  const VarId x = solver.new_variable("x");
  const VarId y = solver.new_variable("y");
  solver.add_lower_bound(x, 0);
  solver.add_lower_bound(y, 0);
  solver.add(make_eq(var(x) + var(y), LinearExpr(5)));
  const int x_zero = solver.add_atom(make_le(var(x), LinearExpr(0)));
  const int y_zero = solver.add_atom(make_le(var(y), LinearExpr(0)));
  const int x_big = solver.add_atom(make_ge(var(x), LinearExpr(5)));
  const int y_big = solver.add_atom(make_ge(var(y), LinearExpr(5)));
  solver.add_clause({{x_zero, true}, {y_zero, true}});
  solver.add_clause({{x_big, true}, {y_big, true}});
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  const BigInt xv = solver.model_value(x);
  const BigInt yv = solver.model_value(y);
  EXPECT_EQ(xv + yv, BigInt(5));
  EXPECT_TRUE((xv == BigInt(0) && yv == BigInt(5)) || (xv == BigInt(5) && yv == BigInt(0)));
}

TEST(SolverTest, UnsatWithClauses) {
  // x in [1,4] and (x <= 0 or x >= 5): unsat.
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add_lower_bound(x, 1);
  solver.add_upper_bound(x, 4);
  const int low = solver.add_atom(make_le(var(x), LinearExpr(0)));
  const int high = solver.add_atom(make_ge(var(x), LinearExpr(5)));
  solver.add_clause({{low, true}, {high, true}});
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(SolverTest, ParameterizedThresholdScenario) {
  // The shape the TA encoder produces: parameters plus counters.
  Solver solver;
  const VarId n = solver.new_variable("n");
  const VarId t = solver.new_variable("t");
  const VarId f = solver.new_variable("f");
  const VarId k0 = solver.new_variable("k0");
  const VarId k1 = solver.new_variable("k1");
  for (const VarId v : {n, t, f, k0, k1}) solver.add_lower_bound(v, 0);
  solver.add(make_gt(var(n), LinearExpr::term(t, 3)));       // n > 3t
  solver.add(make_le(var(f), var(t)));                       // f <= t
  solver.add(make_eq(var(k0) + var(k1), var(n) - var(f)));   // counters partition
  // Ask for both thresholds to hold simultaneously with t >= 1:
  solver.add(make_ge(var(t), LinearExpr(1)));
  solver.add(make_ge(var(k0), LinearExpr::term(t, 2) + LinearExpr(1) - var(f)));
  solver.add(make_ge(var(k1), LinearExpr::term(t, 2) + LinearExpr(1) - var(f)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  const BigInt nv = solver.model_value(n);
  const BigInt tv = solver.model_value(t);
  EXPECT_GT(nv, tv * 3);
  EXPECT_GE(solver.model_value(k0) + solver.model_value(k1), nv - solver.model_value(f));
}

// Property sweep: random small systems cross-checked against brute force.
class SolverRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverRandomTest, AgreesWithBruteForce) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> coeff_dist(-3, 3);
  std::uniform_int_distribution<int> const_dist(-6, 6);
  std::uniform_int_distribution<int> count_dist(1, 4);
  constexpr int kVars = 3;
  constexpr int kDomain = 4;  // brute force over [0, 4]^3

  for (int round = 0; round < 40; ++round) {
    Solver solver;
    std::vector<VarId> vars;
    for (int v = 0; v < kVars; ++v) {
      vars.push_back(solver.new_variable(numbered("v", v)));
      solver.add_lower_bound(vars.back(), 0);
      solver.add_upper_bound(vars.back(), kDomain);
    }
    std::vector<LinearConstraint> constraints;
    const int constraint_count = count_dist(rng);
    for (int c = 0; c < constraint_count; ++c) {
      LinearExpr expr(const_dist(rng));
      for (int v = 0; v < kVars; ++v) expr.add_term(vars[v], coeff_dist(rng));
      const int kind = static_cast<int>(rng() % 3);
      const Relation rel =
          kind == 0 ? Relation::kLe : (kind == 1 ? Relation::kGe : Relation::kEq);
      constraints.push_back({expr, rel});
      solver.add(constraints.back());
    }
    const CheckResult result = solver.check();

    bool brute_sat = false;
    for (int a = 0; a <= kDomain && !brute_sat; ++a) {
      for (int b = 0; b <= kDomain && !brute_sat; ++b) {
        for (int c = 0; c <= kDomain && !brute_sat; ++c) {
          const auto value_of = [&](VarId v) {
            if (v == vars[0]) return BigInt(a);
            if (v == vars[1]) return BigInt(b);
            return BigInt(c);
          };
          bool all = true;
          for (const auto& constraint : constraints) {
            if (!constraint.holds(value_of)) {
              all = false;
              break;
            }
          }
          brute_sat = all;
        }
      }
    }
    EXPECT_EQ(result == CheckResult::kSat, brute_sat) << "seed=" << GetParam()
                                                      << " round=" << round;
    if (result == CheckResult::kSat) {
      // The model must satisfy every constraint.
      const auto value_of = [&](VarId v) { return solver.model_value(v); };
      for (const auto& constraint : constraints) {
        EXPECT_TRUE(constraint.holds(value_of));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomTest, ::testing::Range(1, 9));

// Property sweep with clause-level disjunction: random CNF over linear
// atoms, cross-checked against brute force.
class SolverCnfRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverCnfRandomTest, AgreesWithBruteForce) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  std::uniform_int_distribution<int> coeff_dist(-2, 2);
  std::uniform_int_distribution<int> const_dist(-4, 4);
  constexpr int kVars = 3;
  constexpr int kDomain = 3;

  for (int round = 0; round < 30; ++round) {
    Solver solver;
    std::vector<VarId> vars;
    for (int v = 0; v < kVars; ++v) {
      vars.push_back(solver.new_variable(numbered("v", v)));
      solver.add_lower_bound(vars.back(), 0);
      solver.add_upper_bound(vars.back(), kDomain);
    }
    // Random atoms (Le/Ge only: clause literals must be negatable).
    std::vector<LinearConstraint> atom_constraints;
    std::vector<int> atom_ids;
    const int atom_count = 3 + static_cast<int>(rng() % 3);
    for (int a = 0; a < atom_count; ++a) {
      LinearExpr expr(const_dist(rng));
      for (int v = 0; v < kVars; ++v) expr.add_term(vars[v], coeff_dist(rng));
      const Relation rel = rng() % 2 == 0 ? Relation::kLe : Relation::kGe;
      atom_constraints.push_back({expr, rel});
      atom_ids.push_back(solver.add_atom(atom_constraints.back()));
    }
    // Random clauses over those atoms.
    std::vector<std::vector<std::pair<int, bool>>> clauses;  // (atom idx, sign)
    const int clause_count = 2 + static_cast<int>(rng() % 3);
    for (int c = 0; c < clause_count; ++c) {
      std::vector<smt::Literal> literals;
      std::vector<std::pair<int, bool>> mirror;
      const int width = 1 + static_cast<int>(rng() % 3);
      for (int l = 0; l < width; ++l) {
        const int atom = static_cast<int>(rng() % atom_constraints.size());
        const bool positive = rng() % 2 == 0;
        literals.push_back({atom_ids[atom], positive});
        mirror.emplace_back(atom, positive);
      }
      solver.add_clause(std::move(literals));
      clauses.push_back(std::move(mirror));
    }
    const CheckResult result = solver.check();

    bool brute_sat = false;
    for (int a = 0; a <= kDomain && !brute_sat; ++a) {
      for (int b = 0; b <= kDomain && !brute_sat; ++b) {
        for (int c = 0; c <= kDomain && !brute_sat; ++c) {
          const auto value_of = [&](VarId v) {
            if (v == vars[0]) return BigInt(a);
            if (v == vars[1]) return BigInt(b);
            return BigInt(c);
          };
          bool all = true;
          for (const auto& clause : clauses) {
            bool any = false;
            for (const auto& [atom, positive] : clause) {
              any = any || (atom_constraints[atom].holds(value_of) == positive);
            }
            if (!any) {
              all = false;
              break;
            }
          }
          brute_sat = all;
        }
      }
    }
    EXPECT_EQ(result == CheckResult::kSat, brute_sat)
        << "seed=" << GetParam() << " round=" << round;
    if (result == CheckResult::kSat) {
      const auto value_of = [&](VarId v) { return solver.model_value(v); };
      for (const auto& clause : clauses) {
        bool any = false;
        for (const auto& [atom, positive] : clause) {
          any = any || (atom_constraints[atom].holds(value_of) == positive);
        }
        EXPECT_TRUE(any) << "model violates a clause";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCnfRandomTest, ::testing::Range(1, 9));

TEST(SolverTest, TimeBudgetAborts) {
  // An adversarial clause pile with a tiny budget must abort with hv::Error
  // instead of an unsound unsat.
  Solver solver;
  std::vector<VarId> vars;
  for (int v = 0; v < 14; ++v) {
    vars.push_back(solver.new_variable(numbered("v", v)));
    solver.add_lower_bound(vars.back(), 0);
    solver.add_upper_bound(vars.back(), 30);
  }
  // Pigeonhole-flavoured contradictions explode the DPLL search.
  LinearExpr sum;
  for (const VarId v : vars) sum += var(v);
  solver.add(make_eq(sum, LinearExpr(14 * 30 / 2)));
  for (std::size_t i = 0; i + 1 < vars.size(); ++i) {
    const int lo = solver.add_atom(make_le(var(vars[i]) + var(vars[i + 1]), LinearExpr(7)));
    const int hi = solver.add_atom(make_ge(var(vars[i]) + var(vars[i + 1]), LinearExpr(23)));
    solver.add_clause({{lo, true}, {hi, true}});
  }
  solver.set_time_budget(0.02);
  try {
    (void)solver.check();
    // Finishing quickly is fine too; only a wrong verdict would be a bug.
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("time budget"), std::string::npos);
  }
}

TEST(SolverTest, PushPopRestoresFeasibility) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add_lower_bound(x, 0);
  solver.add_upper_bound(x, 10);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  solver.push();
  EXPECT_EQ(solver.scope_depth(), 1);
  solver.add(make_ge(var(x), LinearExpr(20)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  EXPECT_EQ(solver.scope_depth(), 0);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_LE(solver.model_value(x), BigInt(10));
}

TEST(SolverTest, NestedScopesDropVariablesAndRows) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add_lower_bound(x, 1);
  solver.push();
  const VarId y = solver.new_variable("y");
  solver.add_lower_bound(y, 1);
  solver.add(make_eq(LinearExpr::term(x, 2) + LinearExpr::term(y, 3), LinearExpr(12)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model_value(x), BigInt(3));
  solver.push();
  solver.add(make_ge(var(y), LinearExpr(3)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model_value(y), BigInt(2));
  solver.pop();
  // y and its slack row are gone: nothing may cap x any more.
  solver.add(make_ge(var(x), LinearExpr(100)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_GE(solver.model_value(x), BigInt(100));
}

TEST(SolverTest, PopRemovesClausesAndAtoms) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  solver.add_lower_bound(x, 0);
  solver.add_upper_bound(x, 10);
  solver.push();
  const int high = solver.add_atom(make_ge(var(x), LinearExpr(7)));
  const int low = solver.add_atom(make_le(var(x), LinearExpr(2)));
  solver.add_clause({{high, true}, {low, true}});
  solver.add(make_ge(var(x), LinearExpr(3)));
  solver.add(make_le(var(x), LinearExpr(6)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  // Both the window bounds and the clause died with the scope.
  ASSERT_EQ(solver.check(), CheckResult::kSat);
}

TEST(SolverTest, PopWithoutPushThrows) {
  Solver solver;
  EXPECT_THROW(solver.pop(), Error);
}

TEST(SolverTest, SlackPoolDiesWithItsScope) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  const VarId y = solver.new_variable("y");
  solver.add_lower_bound(x, 0);
  solver.add_lower_bound(y, 0);
  solver.push();
  solver.add(make_le(var(x) + var(y), LinearExpr(5)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  solver.pop();
  // The pooled slack for x+y died with the scope; re-adding the same term
  // vector must mint a fresh slack, not alias a recycled variable index.
  solver.add(make_le(var(x) + var(y), LinearExpr(7)));
  solver.add(make_ge(var(x), LinearExpr(4)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_LE(solver.model_value(x).to_int64() + solver.model_value(y).to_int64(), 7);
  EXPECT_GE(solver.model_value(x), BigInt(4));
}

TEST(SolverTest, SlackPoolSharesOnlyIdenticalTermVectorsOfLiveScopes) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  const VarId y = solver.new_variable("y");
  solver.add_lower_bound(x, 0);
  solver.add_lower_bound(y, 0);
  const int structural = solver.variable_count();
  solver.push();
  solver.add(make_le(var(x) + var(y), LinearExpr(2)));
  ASSERT_EQ(solver.variable_count(), structural + 1);  // the slack for x+y
  solver.push();
  // A nested scope reuses the outer slack, also for a scaled term vector
  // that normalizes to the same one.
  solver.add(make_ge(var(x) + var(y), LinearExpr(1)));
  solver.add(make_le(LinearExpr::term(x, 2) + LinearExpr::term(y, 2), LinearExpr(4)));
  EXPECT_EQ(solver.variable_count(), structural + 1);
  // x+2y is a different term vector and gets a slack of its own: were it to
  // alias x+y's, x+y <= 2 and x+2y >= 3 would be read as contradictory.
  solver.add(make_ge(var(x) + LinearExpr::term(y, 2), LinearExpr(3)));
  EXPECT_EQ(solver.variable_count(), structural + 2);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_LE(solver.model_value(x) + solver.model_value(y), BigInt(2));
  EXPECT_GE(solver.model_value(x) + solver.model_value(y) * BigInt(2), BigInt(3));
  solver.pop();
  EXPECT_EQ(solver.variable_count(), structural + 1);
  solver.pop();
  EXPECT_EQ(solver.variable_count(), structural);
  // After the outer pop the term vector is minted afresh.
  solver.add(make_ge(var(x) + var(y), LinearExpr(5)));
  EXPECT_EQ(solver.variable_count(), structural + 1);
  solver.add(make_le(var(x) + LinearExpr::term(y, 2), LinearExpr(6)));
  EXPECT_EQ(solver.variable_count(), structural + 2);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_GE(solver.model_value(x) + solver.model_value(y), BigInt(5));
  EXPECT_LE(solver.model_value(x) + solver.model_value(y) * BigInt(2), BigInt(6));
}

TEST(SolverTest, ModelValidAfterDeepPopSequence) {
  // Randomized differential: a persistent solver driven through push/pop
  // must agree with a fresh solver on every (cumulative) constraint set.
  std::mt19937 rng(7);
  Solver persistent;
  std::vector<VarId> vars;
  std::vector<LinearConstraint> base;
  for (int v = 0; v < 4; ++v) {
    vars.push_back(persistent.new_variable(numbered("v", v)));
    persistent.add_lower_bound(vars.back(), 0);
    persistent.add_upper_bound(vars.back(), 20);
  }
  const auto random_constraint = [&] {
    LinearExpr sum;
    for (const VarId v : vars) {
      sum += LinearExpr::term(v, static_cast<int>(rng() % 5) - 2);
    }
    const LinearExpr bound(static_cast<int>(rng() % 41) - 10);
    return (rng() % 2 == 0) ? make_le(sum, bound) : make_ge(sum, bound);
  };
  std::vector<std::vector<LinearConstraint>> stack;
  for (int round = 0; round < 40; ++round) {
    if (!stack.empty() && rng() % 3 == 0) {
      persistent.pop();
      stack.pop_back();
    } else {
      persistent.push();
      stack.push_back({random_constraint(), random_constraint()});
      for (const LinearConstraint& constraint : stack.back()) persistent.add(constraint);
    }
    Solver fresh;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const VarId fv = fresh.new_variable(numbered("v", v));
      fresh.add_lower_bound(fv, 0);
      fresh.add_upper_bound(fv, 20);
    }
    for (const auto& level : stack) {
      for (const LinearConstraint& constraint : level) fresh.add(constraint);
    }
    ASSERT_EQ(persistent.check(), fresh.check()) << "round " << round;
  }
}

TEST(SolverTest, PivotCounterAdvances) {
  Solver solver;
  const VarId x = solver.new_variable("x");
  const VarId y = solver.new_variable("y");
  solver.add_lower_bound(x, 1);
  solver.add_lower_bound(y, 1);
  solver.add(make_eq(LinearExpr::term(x, 2) + LinearExpr::term(y, 3), LinearExpr(12)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_GT(solver.pivots(), 0);
}

TEST(LemmaPoolTest, DedupCapacityAndFreshness) {
  LemmaPool pool(/*capacity=*/2);
  EXPECT_TRUE(pool.insert(Lemma{{"b>=1", "a<=0"}}));
  EXPECT_FALSE(pool.insert(Lemma{{"a<=0", "b>=1"}}));  // same set, other order
  EXPECT_TRUE(pool.insert(Lemma{{"c<=0"}}, /*fresh=*/false));  // imported
  EXPECT_FALSE(pool.insert(Lemma{{"d>=9"}}));  // over capacity: dropped
  EXPECT_FALSE(pool.insert(Lemma{}));          // empty premise set: meaningless
  EXPECT_EQ(pool.size(), 2u);
  // Only the locally derived lemma ships; a second drain is empty.
  const std::vector<Lemma> fresh = pool.take_fresh();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].premises, (std::vector<std::string>{"a<=0", "b>=1"}));
  EXPECT_TRUE(pool.take_fresh().empty());
  // The snapshot lists every stored lemma, imported ones too, in insertion
  // order.
  const std::vector<Lemma> all = pool.snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].premises, (std::vector<std::string>{"a<=0", "b>=1"}));
  EXPECT_EQ(all[1].premises, (std::vector<std::string>{"c<=0"}));
}

// A PremiseIndex over explicit (canonical string, depth) pairs, keyed as the
// pool keys strings. `collide` makes every key nominate every premise.
class ListedPremises final : public PremiseIndex {
 public:
  explicit ListedPremises(std::vector<std::pair<std::string, int>> asserted, bool collide = false)
      : asserted_(std::move(asserted)), collide_(collide) {}

  bool nominates(std::uint64_t key) const override {
    return std::any_of(asserted_.begin(), asserted_.end(),
                       [&](const auto& entry) { return keyed(entry.first, key); });
  }
  int depth_of(std::uint64_t key, std::string_view premise) const override {
    int depth = -1;
    for (const auto& [sig, d] : asserted_) {
      if (keyed(sig, key) && sig == premise && (depth < 0 || d < depth)) depth = d;
    }
    return depth;
  }

 private:
  bool keyed(const std::string& sig, std::uint64_t key) const {
    return collide_ || premise_key(sig) == key;
  }

  std::vector<std::pair<std::string, int>> asserted_;
  bool collide_;
};

// An index that nominates every key and confirms every string at depth 0.
class LyingPremises final : public PremiseIndex {
 public:
  bool nominates(std::uint64_t) const override { return true; }
  int depth_of(std::uint64_t, std::string_view) const override { return 0; }
};

TEST(LemmaPoolTest, ProbeReportsTheShallowestMatchingLemma) {
  LemmaPool pool;
  ASSERT_TRUE(pool.insert(Lemma{{"1*b+>=1", "1*a+<=0"}}));
  ASSERT_TRUE(pool.insert(Lemma{{"1*c+<=0", "1*a+<=0"}}));
  // A probe hits iff every premise of some lemma is asserted; the reported
  // depth is that lemma's deepest premise, minimized over matching lemmas,
  // and a premise asserted twice counts at its shallowest depth.
  int depth = -1;
  EXPECT_TRUE(pool.probe(ListedPremises({{"1*a+<=0", 1}, {"1*b+>=1", 3}}), &depth));
  EXPECT_EQ(depth, 3);
  EXPECT_TRUE(pool.probe(
      ListedPremises({{"1*a+<=0", 1}, {"1*b+>=1", 3}, {"1*c+<=0", 4}, {"1*c+<=0", 2}}), &depth));
  EXPECT_EQ(depth, 2);
  EXPECT_FALSE(pool.probe(ListedPremises({{"1*a+<=0", 1}, {"1*b+>=2", 3}}), &depth));
  EXPECT_FALSE(pool.probe(ListedPremises({}), &depth));
}

TEST(LemmaPoolTest, ForcedKeyCollisionHitsOnlyOnEqualStrings) {
  LemmaPool pool;
  ASSERT_TRUE(pool.insert(Lemma{{"1*x+<=0", "1*x+>=1"}}));
  int depth = -1;
  // Every key nominates every asserted premise: only equal strings match.
  EXPECT_FALSE(pool.probe(ListedPremises({{"1*y+<=0", 0}, {"1*y+>=1", 0}}, true), &depth));
  EXPECT_FALSE(pool.probe(ListedPremises({{"1*x+<=0", 0}, {"1*y+>=1", 0}}, true), &depth));
  EXPECT_TRUE(pool.probe(ListedPremises({{"1*y+<=0", 0}, {"1*x+>=1", 2}, {"1*x+<=0", 1}}, true),
                         &depth));
  EXPECT_EQ(depth, 2);
}

TEST(LemmaPoolTest, UnparseablePremiseNeverMatches) {
  for (const char* garbage : {"x<=0", "1*x<=0", "1*x+", "1*x+<0", "a*x+<=0", "1*x+<=", "",
                              "1*x+<=0 ", "1*x+<=5x"}) {
    EXPECT_EQ(premise_key(garbage), kNoPremise) << garbage;
    LemmaPool pool;
    ASSERT_TRUE(pool.insert(Lemma{{garbage, "1*y+>=1"}}));
    // Not even an index that confirms every string makes it match.
    EXPECT_FALSE(pool.probe(LyingPremises(), nullptr)) << garbage;
  }
  LemmaPool pool;
  ASSERT_TRUE(pool.insert(Lemma{{"1*x+<=0", "1*y+>=1"}}));
  EXPECT_TRUE(pool.probe(LyingPremises(), nullptr));
}

TEST(LemmaPoolTest, StringKeysAgreeWithPartKeys) {
  // A string's key is its parts' key: terms weighted by integer_key and
  // summed, so their order does not matter; big integers key by digits.
  const std::uint64_t x = name_key("x");
  const std::uint64_t y = name_key("y");
  const BigInt big = BigInt::from_string("123456789012345678901234567890");
  EXPECT_EQ(premise_key("2*x+-1*y+<=5"),
            premise_key(2 * x + static_cast<std::uint64_t>(-1) * y, Relation::kLe, 5));
  EXPECT_EQ(premise_key("-1*y+2*x+<=5"), premise_key("2*x+-1*y+<=5"));
  EXPECT_NE(premise_key("2*x+-1*y+>=5"), premise_key("2*x+-1*y+<=5"));
  EXPECT_NE(premise_key("2*x+-1*y+<=6"), premise_key("2*x+-1*y+<=5"));
  std::string equal = "1*x+==";
  equal += big.to_string();
  std::string negative = (-big).to_string();
  negative += "*x+>=-9223372036854775808";
  EXPECT_EQ(premise_key(equal), premise_key(x, Relation::kEq, integer_key(big)));
  EXPECT_EQ(premise_key(negative),
            premise_key(integer_key(-big) * x, Relation::kGe,
                        integer_key(BigInt(std::numeric_limits<std::int64_t>::min()))));
}

TEST(SolverTest, LearningFoldsConflictScopeDepth) {
  LemmaPool pool;
  Solver solver;
  solver.enable_learning(&pool);
  const VarId x = solver.new_variable("x");
  solver.add(make_ge(var(x), LinearExpr(3)));  // scope depth 0
  solver.push();
  solver.add(make_le(var(x), LinearExpr(5)));  // scope depth 1
  EXPECT_EQ(solver.check(), CheckResult::kSat);
  solver.push();
  solver.add(make_le(var(x), LinearExpr(2)));  // scope depth 2
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  // The refutation cites x>=3 (scope 0) and x<=2 (scope 2): every context
  // extending scope 2 is infeasible, nothing shallower is implicated.
  EXPECT_EQ(solver.conflict_scope_depth(), 2);
  EXPECT_GE(solver.stats().lemmas_learned, 1);
  solver.pop();
  EXPECT_EQ(solver.check(), CheckResult::kSat);
}

TEST(SolverTest, LemmaPoolShortCircuitsContentEqualConflicts) {
  // The conflict must need simplex pivoting (a direct bound clash on one
  // variable is caught eagerly at add() time, before the pool is probed):
  // x + y <= 2 against x >= 2, y >= 1.
  LemmaPool pool;
  {
    Solver first;
    first.enable_learning(&pool);
    const VarId x = first.new_variable("x");
    const VarId y = first.new_variable("y");
    first.add(make_le(var(x) + var(y), LinearExpr(2)));
    first.push();
    first.add(make_ge(var(x), LinearExpr(2)));
    first.add(make_ge(var(y), LinearExpr(1)));
    EXPECT_EQ(first.check(), CheckResult::kUnsat);
    EXPECT_EQ(first.stats().lemma_hits, 0);  // nothing pooled yet: real solve
    EXPECT_GE(first.stats().lemmas_learned, 1);
  }
  ASSERT_GE(pool.size(), 1u);
  // A different solver asserting content-equal constraints (the canonical
  // signatures are name-based, and multi-term bounds expand their slack
  // definitions) is refuted straight from the pool, with the depth the
  // premises need in *its* scope layout.
  Solver second;
  second.enable_learning(&pool);
  const VarId x = second.new_variable("x");
  const VarId y = second.new_variable("y");
  second.add(make_le(var(x) + var(y), LinearExpr(2)));  // scope depth 0
  second.push();
  second.add(make_ge(var(x), LinearExpr(2)));  // scope depth 1
  second.push();
  second.add(make_ge(var(y), LinearExpr(1)));  // scope depth 2
  EXPECT_EQ(second.check(), CheckResult::kUnsat);
  EXPECT_EQ(second.stats().lemma_hits, 1);
  EXPECT_EQ(second.pivots(), 0);  // refuted without touching the simplex
  EXPECT_EQ(second.conflict_scope_depth(), 2);
  // Popping the deepest premise removes the match: the pool no longer
  // applies and the context is satisfiable again.
  second.pop();
  EXPECT_EQ(second.check(), CheckResult::kSat);
}

TEST(SolverTest, ForcedKeyCollisionsLeaveLemmaHitsToStrings) {
  // Every premise key masked to 0: each lookup nominates every asserted
  // constraint, so only the string comparison decides. The pool refutes the
  // content-equal context, at its real depth, and nothing else.
  LemmaPool pool;
  ASSERT_TRUE(pool.insert(Lemma{{"1*x+1*y+<=2", "1*x+>=2", "1*y+>=1"}}));
  const auto solve = [&](int y_bound, std::int64_t* hits) {
    Solver solver;
    solver.mask_premise_keys_for_testing(0);
    solver.enable_learning(&pool);
    const VarId x = solver.new_variable("x");
    const VarId y = solver.new_variable("y");
    solver.add(make_le(var(x) + var(y), LinearExpr(2)));
    solver.push();
    solver.add(make_ge(var(y), LinearExpr(y_bound)));
    solver.push();
    solver.add(make_ge(var(x), LinearExpr(2)));
    const CheckResult result = solver.check();
    *hits = solver.stats().lemma_hits;
    return std::pair(result, solver.conflict_scope_depth());
  };
  std::int64_t hits = 0;
  EXPECT_EQ(solve(1, &hits), std::pair(CheckResult::kUnsat, 2));
  EXPECT_EQ(hits, 1);
  // y >= 0 collides with y >= 1 on the key but not on the string.
  EXPECT_EQ(solve(0, &hits).first, CheckResult::kSat);
  EXPECT_EQ(hits, 0);
}

}  // namespace
}  // namespace hv::smt
