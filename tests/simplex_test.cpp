#include "hv/smt/simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

namespace hv::smt {
namespace {

Rational rat(std::int64_t n, std::int64_t d = 1) { return Rational(BigInt(n), BigInt(d)); }

TEST(SimplexTest, UnconstrainedIsFeasible) {
  Simplex simplex;
  simplex.add_variable();
  EXPECT_TRUE(simplex.check());
}

TEST(SimplexTest, SimpleBoundsFeasible) {
  Simplex simplex;
  const int x = simplex.add_variable();
  ASSERT_TRUE(simplex.assert_lower(x, rat(2)));
  ASSERT_TRUE(simplex.assert_upper(x, rat(5)));
  EXPECT_TRUE(simplex.check());
  EXPECT_GE(simplex.value(x), rat(2));
  EXPECT_LE(simplex.value(x), rat(5));
}

TEST(SimplexTest, ContradictoryBoundsDetectedEagerly) {
  Simplex simplex;
  const int x = simplex.add_variable();
  ASSERT_TRUE(simplex.assert_lower(x, rat(10)));
  EXPECT_FALSE(simplex.assert_upper(x, rat(5)));
}

TEST(SimplexTest, RowFeasibility) {
  // x + y >= 4, x <= 1, y <= 2  -> infeasible.
  Simplex simplex;
  const int x = simplex.add_variable();
  const int y = simplex.add_variable();
  const int s = simplex.add_row({{x, 1}, {y, 1}});
  ASSERT_TRUE(simplex.assert_lower(s, rat(4)));
  ASSERT_TRUE(simplex.assert_upper(x, rat(1)));
  ASSERT_TRUE(simplex.assert_upper(y, rat(2)));
  EXPECT_FALSE(simplex.check());
}

TEST(SimplexTest, RowFeasibilitySatisfiable) {
  // x + y >= 3, x <= 1, y <= 2 -> x=1, y=2 feasible.
  Simplex simplex;
  const int x = simplex.add_variable();
  const int y = simplex.add_variable();
  const int s = simplex.add_row({{x, 1}, {y, 1}});
  ASSERT_TRUE(simplex.assert_lower(s, rat(3)));
  ASSERT_TRUE(simplex.assert_upper(x, rat(1)));
  ASSERT_TRUE(simplex.assert_upper(y, rat(2)));
  ASSERT_TRUE(simplex.check());
  EXPECT_EQ(simplex.value(x) + simplex.value(y), simplex.value(s));
  EXPECT_GE(simplex.value(s), rat(3));
}

TEST(SimplexTest, EqualityChains) {
  // x - y = 0, y - z = 0, x = 7 -> all equal 7.
  Simplex simplex;
  const int x = simplex.add_variable();
  const int y = simplex.add_variable();
  const int z = simplex.add_variable();
  const int d1 = simplex.add_row({{x, 1}, {y, -1}});
  const int d2 = simplex.add_row({{y, 1}, {z, -1}});
  ASSERT_TRUE(simplex.assert_lower(d1, rat(0)));
  ASSERT_TRUE(simplex.assert_upper(d1, rat(0)));
  ASSERT_TRUE(simplex.assert_lower(d2, rat(0)));
  ASSERT_TRUE(simplex.assert_upper(d2, rat(0)));
  ASSERT_TRUE(simplex.assert_lower(x, rat(7)));
  ASSERT_TRUE(simplex.assert_upper(x, rat(7)));
  ASSERT_TRUE(simplex.check());
  EXPECT_EQ(simplex.value(y), rat(7));
  EXPECT_EQ(simplex.value(z), rat(7));
}

TEST(SimplexTest, PushPopRestoresFeasibility) {
  Simplex simplex;
  const int x = simplex.add_variable();
  ASSERT_TRUE(simplex.assert_lower(x, rat(0)));
  ASSERT_TRUE(simplex.check());
  simplex.push();
  ASSERT_TRUE(simplex.assert_upper(x, rat(10)));
  ASSERT_FALSE(simplex.assert_lower(x, rat(20)));
  simplex.pop();
  ASSERT_TRUE(simplex.assert_lower(x, rat(20)));
  EXPECT_TRUE(simplex.check());
  EXPECT_GE(simplex.value(x), rat(20));
}

TEST(SimplexTest, FractionalSolutionsAreExact) {
  // 2x = 1 -> x = 1/2 exactly.
  Simplex simplex;
  const int x = simplex.add_variable();
  const int s = simplex.add_row({{x, 2}});
  ASSERT_TRUE(simplex.assert_lower(s, rat(1)));
  ASSERT_TRUE(simplex.assert_upper(s, rat(1)));
  ASSERT_TRUE(simplex.check());
  EXPECT_EQ(simplex.value(x), rat(1, 2));
}

TEST(SimplexTest, DegenerateCyclePotentialTerminates) {
  // A classic degenerate system; Bland's rule must terminate.
  Simplex simplex;
  const int x = simplex.add_variable();
  const int y = simplex.add_variable();
  const int z = simplex.add_variable();
  const int r1 = simplex.add_row({{x, 1}, {y, -1}});
  const int r2 = simplex.add_row({{y, 1}, {z, -1}});
  const int r3 = simplex.add_row({{z, 1}, {x, -1}});
  ASSERT_TRUE(simplex.assert_lower(r1, rat(0)));
  ASSERT_TRUE(simplex.assert_lower(r2, rat(0)));
  ASSERT_TRUE(simplex.assert_lower(r3, rat(0)));
  // Sum of the three rows is 0, so all three slacks must be exactly 0.
  EXPECT_TRUE(simplex.check());
  ASSERT_TRUE(simplex.assert_lower(r1, rat(1)));
  EXPECT_FALSE(simplex.check());
}

TEST(SimplexTest, ManyVariablesThresholdShape) {
  // n > 3t, f <= t, counters sum to n - f, one counter above 2t+1-f.
  Simplex simplex;
  const int n = simplex.add_variable();
  const int t = simplex.add_variable();
  const int f = simplex.add_variable();
  const int k0 = simplex.add_variable();
  const int k1 = simplex.add_variable();
  for (const int var : {n, t, f, k0, k1}) {
    ASSERT_TRUE(simplex.assert_lower(var, rat(0)));
  }
  const int resilience = simplex.add_row({{n, 1}, {t, -3}});  // n - 3t >= 1
  ASSERT_TRUE(simplex.assert_lower(resilience, rat(1)));
  const int fault_bound = simplex.add_row({{t, 1}, {f, -1}});  // t - f >= 0
  ASSERT_TRUE(simplex.assert_lower(fault_bound, rat(0)));
  const int total = simplex.add_row({{k0, 1}, {k1, 1}, {n, -1}, {f, 1}});  // k0+k1 = n-f
  ASSERT_TRUE(simplex.assert_lower(total, rat(0)));
  ASSERT_TRUE(simplex.assert_upper(total, rat(0)));
  const int guard = simplex.add_row({{k0, 1}, {t, -2}, {f, 1}});  // k0 >= 2t+1-f
  ASSERT_TRUE(simplex.assert_lower(guard, rat(1)));
  EXPECT_TRUE(simplex.check());
  // And the witness respects everything we asserted.
  EXPECT_GE(simplex.value(n), simplex.value(t) * rat(3) + rat(1));
  EXPECT_EQ(simplex.value(k0) + simplex.value(k1), simplex.value(n) - simplex.value(f));
}

// Incrementality stress: a long randomized push/assert/pop session must
// agree, after every operation, with a fresh simplex rebuilt from the
// currently-active constraints (catches trail/restore bugs).
TEST(SimplexTest, RandomizedPushPopAgreesWithFreshSolve) {
  std::mt19937_64 rng(2024);
  constexpr int kVars = 4;
  for (int session = 0; session < 20; ++session) {
    Simplex incremental;
    std::vector<int> vars;
    std::vector<std::vector<std::pair<int, BigInt>>> rows;
    for (int v = 0; v < kVars; ++v) {
      vars.push_back(incremental.add_variable());
    }
    // A couple of fixed rows tie the variables together.
    rows.push_back({{vars[0], 1}, {vars[1], 1}});
    rows.push_back({{vars[1], 2}, {vars[2], -1}});
    rows.push_back({{vars[0], 1}, {vars[2], 1}, {vars[3], -3}});
    std::vector<int> row_vars;
    for (const auto& row : rows) row_vars.push_back(incremental.add_row(row));

    // The active bound set, mirrored for the fresh rebuild: per frame, a
    // list of (var, is_lower, bound).
    std::vector<std::vector<std::tuple<int, bool, std::int64_t>>> frames(1);
    const auto fresh_feasible = [&] {
      Simplex fresh;
      std::vector<int> fresh_vars;
      for (int v = 0; v < kVars; ++v) fresh_vars.push_back(fresh.add_variable());
      std::vector<int> fresh_rows;
      for (const auto& row : rows) {
        std::vector<std::pair<int, BigInt>> remapped;
        for (const auto& [var, coeff] : row) remapped.emplace_back(fresh_vars[var], coeff);
        fresh_rows.push_back(fresh.add_row(remapped));
      }
      bool consistent = true;
      for (const auto& frame : frames) {
        for (const auto& [var, is_lower, bound] : frame) {
          // Variable ids: structural first, then row slacks in order.
          const int mapped = var < kVars ? fresh_vars[var]
                                         : fresh_rows[static_cast<std::size_t>(var) - kVars];
          consistent = consistent && (is_lower ? fresh.assert_lower(mapped, Rational(bound))
                                               : fresh.assert_upper(mapped, Rational(bound)));
        }
      }
      return consistent && fresh.check();
    };

    bool incremental_consistent = true;
    for (int step = 0; step < 60; ++step) {
      const int action = static_cast<int>(rng() % 4);
      if (action == 0) {
        incremental.push();
        frames.emplace_back();
      } else if (action == 1 && frames.size() > 1) {
        incremental.pop();
        frames.pop_back();
        incremental_consistent = true;  // bounds from popped frame are gone
      } else {
        const int var = static_cast<int>(rng() % (kVars + rows.size()));
        const bool is_lower = (rng() % 2) == 0;
        const std::int64_t bound = static_cast<std::int64_t>(rng() % 21) - 10;
        const int mapped = var < kVars ? vars[var] : row_vars[var - kVars];
        const bool ok = is_lower ? incremental.assert_lower(mapped, Rational(bound))
                                 : incremental.assert_upper(mapped, Rational(bound));
        frames.back().emplace_back(var, is_lower, bound);
        incremental_consistent = incremental_consistent && ok;
      }
      // Note: once a bound conflict is reported the incremental session's
      // frame still records the bound; the fresh rebuild reports the same
      // inconsistency, so the verdicts keep matching.
      const bool incremental_feasible = incremental_consistent && incremental.check();
      EXPECT_EQ(incremental_feasible, fresh_feasible())
          << "session=" << session << " step=" << step;
      if (!incremental_consistent) break;  // conflicting frame: stop session
    }
  }
}

// Variables and rows created inside scopes, so pop() runs the structural
// eviction pivots on a tableau that check() has already pivoted. After every
// check() the session is verified against a mirror of the live variables and
// bounds: a sat answer must satisfy every bound and every slack definition,
// and an unsat answer's Farkas explanation must cancel every variable and
// leave a contradictory constant.
TEST(SimplexTest, PopEvictsAColumnAnOlderRowStillMentions) {
  // s = x + y is permanent; the scoped slack d = x - y is pushed out of the
  // basis by its bound, which substitutes d into s's row. Deleting d must
  // pivot it back into that (surviving) row and keep s = x + y intact.
  Simplex simplex;
  const int x = simplex.add_variable();
  const int y = simplex.add_variable();
  const int s = simplex.add_row({{x, 1}, {y, 1}});
  simplex.push();
  const int d = simplex.add_row({{x, 1}, {y, -1}});
  ASSERT_TRUE(simplex.assert_lower(d, rat(1)));
  ASSERT_TRUE(simplex.check());
  EXPECT_EQ(simplex.value(d), simplex.value(x) - simplex.value(y));
  simplex.pop();
  ASSERT_EQ(simplex.variable_count(), 3);
  ASSERT_TRUE(simplex.assert_lower(s, rat(3)));
  ASSERT_TRUE(simplex.assert_upper(x, rat(1)));
  ASSERT_TRUE(simplex.check());
  EXPECT_EQ(simplex.value(s), simplex.value(x) + simplex.value(y));
  EXPECT_GE(simplex.value(y), rat(2));
  ASSERT_TRUE(simplex.assert_upper(y, rat(1)));
  EXPECT_FALSE(simplex.check());
}

TEST(SimplexTest, RandomizedStructuralSessionsStayConsistent) {
  struct Bound {
    int var;
    bool is_lower;
    std::int64_t value;
  };
  std::mt19937_64 rng(77);
  for (int session = 0; session < 200; ++session) {
    // The second hundred sessions aim half their bounds at the youngest
    // variable. A bounded young slack tends to leave the basis, which
    // substitutes it into older rows, so a later pop() deletes a nonbasic
    // column that a surviving row still mentions.
    const bool aim_young = session >= 100;
    Simplex simplex;
    simplex.set_conflict_tracking(true);
    // Mirror: per variable its defining combination (empty: structural);
    // every asserted bound by tag; the live tags; per open scope the
    // variable count and live tag count at its push().
    std::vector<std::vector<std::pair<int, BigInt>>> defs;
    std::vector<Bound> bounds;
    std::vector<int> live;
    std::vector<std::pair<std::size_t, std::size_t>> scopes;
    const auto push = [&] {
      simplex.push();
      scopes.emplace_back(defs.size(), live.size());
    };
    const auto pop = [&] {
      simplex.pop();
      defs.resize(scopes.back().first);
      live.resize(scopes.back().second);
      scopes.pop_back();
    };

    const auto expect_farkas = [&](const std::vector<std::pair<int, Rational>>& conflict,
                                   const std::string& where) {
      ASSERT_FALSE(conflict.empty()) << where;
      // Sum of multiplier * (sign*var <= sign*bound), sign = -1 for lower.
      std::vector<Rational> coeffs(defs.size());
      Rational rhs;
      for (const auto& [tag, multiplier] : conflict) {
        ASSERT_TRUE(tag >= 0 && tag < static_cast<int>(bounds.size())) << where;
        ASSERT_NE(std::find(live.begin(), live.end(), tag), live.end()) << where;
        ASSERT_TRUE(multiplier.is_positive()) << where;
        const Bound& bound = bounds[tag];
        const Rational signed_multiplier = bound.is_lower ? -multiplier : multiplier;
        coeffs[bound.var] += signed_multiplier;
        rhs += signed_multiplier * Rational(bound.value);
      }
      // Expand slacks into the variables they are defined over (always
      // older ones), youngest first.
      for (std::size_t var = defs.size(); var-- > 0;) {
        if (coeffs[var].is_zero() || defs[var].empty()) continue;
        for (const auto& [arg, k] : defs[var]) coeffs[arg] += coeffs[var] * Rational(k);
        coeffs[var] = Rational();
      }
      for (std::size_t var = 0; var < coeffs.size(); ++var) {
        EXPECT_TRUE(coeffs[var].is_zero()) << where << " leaves var " << var;
      }
      EXPECT_TRUE(rhs.is_negative()) << where << " derives 0 <= " << rhs;
    };

    // A few permanent variables; everything after the first push() lives
    // in a scope, and the base scope is never popped or bounded.
    for (int v = 0; v < 3; ++v) {
      simplex.add_variable();
      defs.emplace_back();
    }
    push();
    for (int step = 0; step < 200; ++step) {
      const std::string where =
          "session " + std::to_string(session) + " step " + std::to_string(step);
      const int action = static_cast<int>(rng() % 20);
      if (action < 2) {
        push();
      } else if (action < 4 && scopes.size() > 1) {
        pop();
      } else if (action < 6) {
        ASSERT_EQ(simplex.add_variable(), static_cast<int>(defs.size())) << where;
        defs.emplace_back();
      } else if (action < 10) {
        std::vector<std::pair<int, BigInt>> combination;
        const int width = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < width; ++i) {
          const int var = static_cast<int>(rng() % defs.size());
          const bool taken = std::any_of(combination.begin(), combination.end(),
                                         [&](const auto& term) { return term.first == var; });
          const std::int64_t coeff = static_cast<std::int64_t>(rng() % 7) - 3;
          if (!taken && coeff != 0) combination.emplace_back(var, BigInt(coeff));
        }
        if (combination.empty()) continue;
        ASSERT_EQ(simplex.add_row(combination), static_cast<int>(defs.size())) << where;
        defs.push_back(std::move(combination));
      } else {
        const int var = aim_young && rng() % 2 == 0 ? static_cast<int>(defs.size()) - 1
                                                    : static_cast<int>(rng() % defs.size());
        const Bound bound{var, rng() % 2 == 0, static_cast<std::int64_t>(rng() % 13) - 6};
        const int tag = static_cast<int>(bounds.size());
        bounds.push_back(bound);
        live.push_back(tag);
        const bool ok = bound.is_lower
                            ? simplex.assert_lower(bound.var, Rational(bound.value), tag)
                            : simplex.assert_upper(bound.var, Rational(bound.value), tag);
        if (!ok) {
          // An immediate clash records nothing; it cites the new bound and
          // the live opposite one.
          expect_farkas(simplex.last_conflict(), where + " (eager)");
          live.pop_back();
          continue;
        }
      }
      if (simplex.check()) {
        for (std::size_t var = 0; var < defs.size(); ++var) {
          const Rational& value = simplex.value(static_cast<int>(var));
          for (const int tag : live) {
            const Bound& bound = bounds[tag];
            if (bound.var != static_cast<int>(var)) continue;
            if (bound.is_lower) {
              EXPECT_GE(value, Rational(bound.value)) << where << " var " << var;
            } else {
              EXPECT_LE(value, Rational(bound.value)) << where << " var " << var;
            }
          }
          if (defs[var].empty()) continue;
          Rational sum;
          for (const auto& [arg, k] : defs[var]) sum += Rational(k) * simplex.value(arg);
          EXPECT_EQ(value, sum) << where << " slack " << var;
        }
      } else {
        expect_farkas(simplex.last_conflict(), where);
        // Back out of the infeasible scope, keeping one scope open.
        pop();
        if (scopes.empty()) push();
      }
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace hv::smt
