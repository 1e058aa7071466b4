#include "hv/smt/simplex.h"

#include <algorithm>
#include <utility>

#include "hv/util/error.h"

namespace hv::smt {

namespace {

const Rational kZeroRational;

// Folds the delta of the thread-local Rational op counters over a scope into
// Simplex::Stats. Placed on the mutating entry points (check, pop, add_row,
// assert_*), which never nest, so each op is attributed exactly once.
class ArithScope {
 public:
  explicit ArithScope(Simplex::Stats& stats) noexcept
      : stats_(stats), before_(Rational::thread_counters()) {}
  ~ArithScope() {
    const Rational::OpCounters& after = Rational::thread_counters();
    stats_.rational_fast_ops += static_cast<std::int64_t>(after.fast - before_.fast);
    stats_.rational_big_ops += static_cast<std::int64_t>(after.big - before_.big);
  }
  ArithScope(const ArithScope&) = delete;
  ArithScope& operator=(const ArithScope&) = delete;

 private:
  Simplex::Stats& stats_;
  Rational::OpCounters before_;
};

}  // namespace

const Rational& Simplex::coeff_at(const Row& row, int var) noexcept {
  if (var < static_cast<int>(row.coeffs.size())) return row.coeffs[var];
  return kZeroRational;
}

Rational& Simplex::coeff_ref(Row& row, int var) {
  if (var >= static_cast<int>(row.coeffs.size())) {
    row.coeffs.resize(static_cast<std::size_t>(var) + 1);
  }
  return row.coeffs[var];
}

int Simplex::add_variable() {
  // Existing rows keep their width: the new column is implicitly zero.
  columns_.push_back(Column{});
  trail_.push_back({TrailKind::kAddVar, static_cast<int>(columns_.size()) - 1, std::nullopt});
  return static_cast<int>(columns_.size()) - 1;
}

int Simplex::add_row(const std::vector<std::pair<int, BigInt>>& combination) {
  const ArithScope arith(stats_);
  const int slack = add_variable();
  Row row;
  row.basic_var = slack;
  // Size the row once up front instead of growing it per written column.
  std::size_t width = 0;
  for (const auto& [var, coeff] : combination) {
    HV_REQUIRE(var >= 0 && var < slack);
    width = std::max(width, is_basic(var) ? rows_[columns_[var].row].coeffs.size()
                                          : static_cast<std::size_t>(var) + 1);
  }
  row.coeffs.resize(width);
  for (const auto& [var, coeff] : combination) {
    const Rational factor{coeff};
    if (is_basic(var)) {
      // Substitute the defining row of the basic variable.
      const Row& defining = rows_[columns_[var].row];
      for (int j = 0; j < static_cast<int>(defining.coeffs.size()); ++j) {
        if (!defining.coeffs[j].is_zero()) row.coeffs[j].add_mul(factor, defining.coeffs[j]);
      }
    } else {
      row.coeffs[var] += factor;
    }
  }
  // The slack starts basic; its assignment is the row value.
  Rational value;
  for (int j = 0; j < static_cast<int>(row.coeffs.size()); ++j) {
    if (!row.coeffs[j].is_zero()) value.add_mul(row.coeffs[j], columns_[j].assignment);
  }
  columns_[slack].assignment = std::move(value);
  columns_[slack].row = static_cast<int>(rows_.size());
  rows_.push_back(std::move(row));
  return slack;
}

bool Simplex::assert_lower(int var, const Rational& bound, int tag) {
  const ArithScope arith(stats_);
  Column& column = columns_[var];
  if (column.lower && *column.lower >= bound) return true;  // not tighter
  if (column.upper && bound > *column.upper) {
    // 1*(terms >= bound) + 1*(terms <= upper) derives 0 <= upper - bound < 0.
    if (track_conflicts_) last_conflict_ = {{tag, Rational(1)}, {column.upper_tag, Rational(1)}};
    return false;
  }
  trail_.push_back({TrailKind::kLower, var, column.lower, column.lower_tag});
  column.lower = bound;
  column.lower_tag = tag;
  if (!is_basic(var) && column.assignment < bound) update_nonbasic(var, bound);
  return true;
}

bool Simplex::assert_upper(int var, const Rational& bound, int tag) {
  const ArithScope arith(stats_);
  Column& column = columns_[var];
  if (column.upper && *column.upper <= bound) return true;
  if (column.lower && bound < *column.lower) {
    if (track_conflicts_) last_conflict_ = {{tag, Rational(1)}, {column.lower_tag, Rational(1)}};
    return false;
  }
  trail_.push_back({TrailKind::kUpper, var, column.upper, column.upper_tag});
  column.upper = bound;
  column.upper_tag = tag;
  if (!is_basic(var) && column.assignment > bound) update_nonbasic(var, bound);
  return true;
}

void Simplex::push() { trail_.push_back({TrailKind::kMark, -1, std::nullopt}); }

void Simplex::pop() {
  const ArithScope arith(stats_);
  while (!trail_.empty()) {
    TrailEntry& entry = trail_.back();
    if (entry.kind == TrailKind::kMark) {
      trail_.pop_back();
      shed_column_tails();
      return;
    }
    if (entry.kind == TrailKind::kAddVar) {
      HV_REQUIRE(entry.var == static_cast<int>(columns_.size()) - 1);
      remove_last_variable();
      trail_.pop_back();
      continue;
    }
    Column& column = columns_[entry.var];
    if (entry.kind == TrailKind::kLower) {
      column.lower = std::move(entry.previous);
      column.lower_tag = entry.previous_tag;
    } else {
      column.upper = std::move(entry.previous);
      column.upper_tag = entry.previous_tag;
    }
    trail_.pop_back();
    // Assignments are left as-is: they may violate nothing anymore, and
    // check() repairs any remaining violations.
  }
  throw InternalError("Simplex::pop without matching push");
}

void Simplex::remove_row(int row_index) {
  const int last = static_cast<int>(rows_.size()) - 1;
  if (row_index != last) {
    rows_[row_index] = std::move(rows_[last]);
    columns_[rows_[row_index].basic_var].row = row_index;
  }
  rows_.pop_back();
}

// Deletes the youngest variable. Because deletion runs in reverse creation
// order, the variable's defining equality (if it is a slack) is the unique
// surviving one that mentions it, so making it basic and dropping its row
// removes exactly that equality; a non-slack variable is mentioned by no
// surviving row by the time it is processed and its column drops silently.
void Simplex::remove_last_variable() {
  const int var = static_cast<int>(columns_.size()) - 1;
  int row_index = columns_[var].row;
  if (row_index < 0) {
    // Nonbasic: pivot the variable into some row mentioning it, if any.
    for (int r = 0; r < static_cast<int>(rows_.size()); ++r) {
      if (!coeff_at(rows_[r], var).is_zero()) {
        const int evicted = rows_[r].basic_var;
        pivot(r, var);
        // The evicted variable is nonbasic now and must sit within its
        // bounds again (check() only ever repairs *basic* violations).
        if (!within_lower(evicted)) {
          update_nonbasic(evicted, *columns_[evicted].lower);
        } else if (!within_upper(evicted)) {
          update_nonbasic(evicted, *columns_[evicted].upper);
        }
        row_index = r;
        break;
      }
    }
  }
  if (row_index >= 0) remove_row(row_index);
  columns_.pop_back();
  // Surviving rows provably carry zero coefficients on the dropped column
  // (their equalities range over surviving variables only). The tail entries
  // are shed once per pop() rather than per deleted variable — coeff_at
  // already reads the not-yet-trimmed zeros correctly in the meantime.
}

void Simplex::shed_column_tails() {
  for (Row& row : rows_) {
    while (row.coeffs.size() > columns_.size()) {
      HV_REQUIRE(row.coeffs.back().is_zero());
      row.coeffs.pop_back();
    }
  }
}

void Simplex::update_nonbasic(int var, const Rational& new_value) {
  const Rational delta = new_value - columns_[var].assignment;
  if (delta.is_zero()) return;
  for (Row& row : rows_) {
    const Rational& coeff = coeff_at(row, var);
    if (!coeff.is_zero()) {
      columns_[row.basic_var].assignment.add_mul(coeff, delta);
    }
  }
  columns_[var].assignment = new_value;
}

bool Simplex::within_lower(int var) const {
  const Column& column = columns_[var];
  return !column.lower || column.assignment >= *column.lower;
}

bool Simplex::within_upper(int var) const {
  const Column& column = columns_[var];
  return !column.upper || column.assignment <= *column.upper;
}

void Simplex::pivot(int row_index, int entering_var) {
  Row& row = rows_[row_index];
  const int leaving_var = row.basic_var;
  const Rational pivot_coeff = coeff_at(row, entering_var);
  HV_REQUIRE(!pivot_coeff.is_zero());

  // Rewrite the pivot row to define the entering variable:
  //   leaving = sum a_j x_j  ==>  entering = leaving/a_e - sum_{j!=e} (a_j/a_e) x_j
  // One reciprocal replaces a division per entry (and the Rational(1)/a_e of
  // the leaving column): multiplication cross-reduces with machine-word gcds.
  const Rational recip = pivot_coeff.reciprocal();
  Rational neg_recip = recip;
  neg_recip.negate();
  coeff_ref(row, entering_var) = Rational();
  for (Rational& coeff : row.coeffs) {
    if (!coeff.is_zero()) coeff *= neg_recip;
  }
  coeff_ref(row, leaving_var) = recip;
  row.basic_var = entering_var;
  columns_[entering_var].row = row_index;
  columns_[leaving_var].row = -1;

  // Substitute the entering variable out of all other rows. The fused
  // add_mul avoids a temporary Rational per inner-loop entry, and the row is
  // widened once up front so the inner loop indexes without bounds upkeep.
  for (int r = 0; r < static_cast<int>(rows_.size()); ++r) {
    if (r == row_index) continue;
    Row& other = rows_[r];
    const Rational factor = coeff_at(other, entering_var);
    if (factor.is_zero()) continue;
    if (other.coeffs.size() < row.coeffs.size()) other.coeffs.resize(row.coeffs.size());
    other.coeffs[entering_var] = Rational();
    for (int j = 0; j < static_cast<int>(row.coeffs.size()); ++j) {
      if (!row.coeffs[j].is_zero()) other.coeffs[j].add_mul(factor, row.coeffs[j]);
    }
  }
}

void Simplex::pivot_and_update(int row_index, int entering_var, const Rational& target) {
  ++stats_.pivots;
  const int leaving_var = rows_[row_index].basic_var;
  const Rational coeff = coeff_at(rows_[row_index], entering_var);
  const Rational theta = (target - columns_[leaving_var].assignment) / coeff;
  columns_[leaving_var].assignment = target;
  columns_[entering_var].assignment += theta;
  for (int r = 0; r < static_cast<int>(rows_.size()); ++r) {
    if (r == row_index) continue;
    const Row& row = rows_[r];
    const Rational& c = coeff_at(row, entering_var);
    if (!c.is_zero()) columns_[row.basic_var].assignment.add_mul(c, theta);
  }
  pivot(row_index, entering_var);
}

bool Simplex::check() {
  const ArithScope arith(stats_);
  for (;;) {
    if (pivot_limit_ > 0 && stats_.pivots >= pivot_limit_) {
      throw Error("smt: simplex pivot budget exceeded");
    }
    // Bland's rule: the violating basic variable with the smallest index.
    int violating = -1;
    bool needs_increase = false;
    for (int var = 0; var < static_cast<int>(columns_.size()); ++var) {
      if (!is_basic(var)) continue;
      if (!within_lower(var)) {
        violating = var;
        needs_increase = true;
        break;
      }
      if (!within_upper(var)) {
        violating = var;
        needs_increase = false;
        break;
      }
    }
    if (violating == -1) return true;

    const Row& row = rows_[columns_[violating].row];
    const Rational target =
        needs_increase ? *columns_[violating].lower : *columns_[violating].upper;
    int entering = -1;
    for (int var = 0; var < static_cast<int>(columns_.size()); ++var) {
      if (is_basic(var) || var == violating) continue;
      const Rational& coeff = coeff_at(row, var);
      if (coeff.is_zero()) continue;
      const bool coeff_positive = coeff.is_positive();
      // To increase the basic value we can raise a positive-coefficient
      // variable below its upper bound or lower a negative-coefficient
      // variable above its lower bound (and symmetrically to decrease).
      const bool can_help =
          needs_increase
              ? (coeff_positive ? !columns_[var].upper || columns_[var].assignment <
                                                              *columns_[var].upper
                                : !columns_[var].lower ||
                                      columns_[var].assignment > *columns_[var].lower)
              : (coeff_positive ? !columns_[var].lower || columns_[var].assignment >
                                                              *columns_[var].lower
                                : !columns_[var].upper ||
                                      columns_[var].assignment < *columns_[var].upper);
      if (can_help) {
        entering = var;
        break;  // Bland: smallest index.
      }
    }
    if (entering == -1) {
      // No way to repair: infeasible. The row of the violating basic var v
      // reads v = sum a_j x_j with every contributing nonbasic x_j stuck at
      // the blocking bound. Combining v's violated bound (multiplier 1) with
      // each blocking bound (multiplier |a_j|) cancels all variables — the
      // row equality is itself a combination of slack definitions — and
      // leaves the contradictory constant bound(v) vs sum a_j * block_j.
      if (track_conflicts_) {
        last_conflict_.clear();
        last_conflict_.emplace_back(
            needs_increase ? columns_[violating].lower_tag : columns_[violating].upper_tag,
            Rational(1));
        for (int var = 0; var < static_cast<int>(columns_.size()); ++var) {
          if (is_basic(var) || var == violating) continue;
          const Rational& coeff = coeff_at(row, var);
          if (coeff.is_zero()) continue;
          // needs_increase: a_j > 0 blocks at upper, a_j < 0 at lower;
          // mirrored when the violated bound is the upper one.
          const bool at_upper = coeff.is_positive() == needs_increase;
          last_conflict_.emplace_back(
              at_upper ? columns_[var].upper_tag : columns_[var].lower_tag,
              coeff.is_positive() ? coeff : -coeff);
        }
      }
      return false;
    }
    pivot_and_update(columns_[violating].row, entering, target);
  }
}

const Rational& Simplex::value(int var) const { return columns_[var].assignment; }

}  // namespace hv::smt
