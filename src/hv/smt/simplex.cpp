#include "hv/smt/simplex.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "hv/util/error.h"

namespace hv::smt {

namespace {

// The entry for column `var` in a sorted row, or end() when the coefficient
// is zero; lower_entry is the insertion point.
template <typename Entries>
auto lower_entry(Entries& entries, int var) {
  return std::lower_bound(entries.begin(), entries.end(), var,
                          [](const auto& entry, int column) { return entry.first < column; });
}

template <typename Entries>
auto find_entry(Entries& entries, int var) {
  const auto it = lower_entry(entries, var);
  return it != entries.end() && it->first == var ? it : entries.end();
}

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

int Simplex::add_variable() {
  // Existing rows are untouched: the new column has no entries yet.
  columns_.push_back(Column{});
  if (columns_.size() > candidates_.size() * 64) candidates_.push_back(0);
  trail_.push_back({TrailKind::kAddVar, static_cast<int>(columns_.size()) - 1, std::nullopt});
  return static_cast<int>(columns_.size()) - 1;
}

int Simplex::add_row(const std::vector<std::pair<int, BigInt>>& combination) {
  const ArithScope arith(stats_);
  const int slack = add_variable();
  if (accumulator_.size() < columns_.size()) accumulator_.resize(columns_.size());
  touched_.clear();
  for (const auto& [var, coeff] : combination) {
    HV_REQUIRE(var >= 0 && var < slack);
    const Rational factor{coeff};
    if (is_basic(var)) {
      // Substitute the defining row of the basic variable.
      for (const auto& [column, value] : rows_[columns_[var].row].entries) {
        accumulator_[column].add_mul(factor, value);
        touched_.push_back(column);
      }
    } else {
      accumulator_[var] += factor;
      touched_.push_back(var);
    }
  }
  // Without a substituted row the columns arrive sorted already.
  if (!std::is_sorted(touched_.begin(), touched_.end())) std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  // Gather the nonzeros in column order and reset the accumulator. The slack
  // starts basic; its assignment is the row value.
  Row row;
  row.basic_var = slack;
  row.entries.reserve(touched_.size());
  Rational value;
  for (const int column : touched_) {
    Rational& coeff = accumulator_[column];
    if (!coeff.is_zero()) {
      value.add_mul(coeff, columns_[column].assignment);
      row.entries.emplace_back(column, std::move(coeff));
      ++columns_[column].occurrences;
    }
    coeff = Rational();
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
  if (is_basic(var)) {
    mark_candidate(var);
  } else if (column.assignment < bound) {
    update_nonbasic(var, bound);
  }
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
  if (is_basic(var)) {
    mark_candidate(var);
  } else if (column.assignment > bound) {
    update_nonbasic(var, bound);
  }
  return true;
}

void Simplex::push() { trail_.push_back({TrailKind::kMark, -1, std::nullopt}); }

void Simplex::pop() {
  const ArithScope arith(stats_);
  while (!trail_.empty()) {
    TrailEntry& entry = trail_.back();
    if (entry.kind == TrailKind::kMark) {
      trail_.pop_back();
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
    // Assignments are left as-is: a restored bound is looser, so it adds no
    // violation, and check() repairs any remaining ones.
  }
  throw InternalError("Simplex::pop without matching push");
}

void Simplex::remove_row(int row_index) {
  for (const Entry& entry : rows_[row_index].entries) --columns_[entry.first].occurrences;
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
// The column's occurrence count says whether any row mentions it, so only a
// nonbasic column that some row still mentions costs a scan of the rows.
void Simplex::remove_last_variable() {
  const int var = static_cast<int>(columns_.size()) - 1;
  int row_index = columns_[var].row;
  if (row_index < 0 && columns_[var].occurrences > 0) {
    // Nonbasic: pivot the variable into the first row mentioning it. It is
    // the highest column, so a row mentions it iff its last entry does.
    for (int r = 0; r < static_cast<int>(rows_.size()); ++r) {
      const std::vector<Entry>& entries = rows_[r].entries;
      if (entries.empty() || entries.back().first != var) continue;
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
  if (row_index >= 0) remove_row(row_index);
  // The surviving equalities range over surviving variables only, so no
  // row may still mention the dropped column.
  HV_REQUIRE(columns_[var].occurrences == 0);
  columns_.pop_back();
  candidates_[static_cast<std::size_t>(var) / 64] &= ~(std::uint64_t{1} << (var % 64));
  candidates_.resize((columns_.size() + 63) / 64);
}

void Simplex::update_nonbasic(int var, const Rational& new_value) {
  const Rational delta = new_value - columns_[var].assignment;
  if (delta.is_zero()) return;
  int remaining = columns_[var].occurrences;
  for (auto row = rows_.cbegin(); row != rows_.cend() && remaining > 0; ++row) {
    const auto entry = find_entry(row->entries, var);
    if (entry == row->entries.end()) continue;
    columns_[row->basic_var].assignment.add_mul(entry->second, delta);
    mark_candidate(row->basic_var);
    --remaining;
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

void Simplex::mark_candidate(int var) {
  candidates_[static_cast<std::size_t>(var) / 64] |= std::uint64_t{1} << (var % 64);
}

void Simplex::pivot(int row_index, int entering_var) {
  Row& row = rows_[row_index];
  const int leaving_var = row.basic_var;
  const auto pivot_entry = find_entry(row.entries, entering_var);
  HV_REQUIRE(pivot_entry != row.entries.end());

  // Rewrite the pivot row to define the entering variable:
  //   leaving = sum a_j x_j  ==>  entering = leaving/a_e - sum_{j!=e} (a_j/a_e) x_j
  // One reciprocal replaces a division per entry (and the Rational(1)/a_e of
  // the leaving column): multiplication cross-reduces with machine-word gcds.
  const Rational recip = pivot_entry->second.reciprocal();
  Rational neg_recip = recip;
  neg_recip.negate();
  row.entries.erase(pivot_entry);
  for (Entry& entry : row.entries) entry.second *= neg_recip;
  row.entries.insert(lower_entry(row.entries, leaving_var), Entry{leaving_var, recip});
  --columns_[entering_var].occurrences;
  ++columns_[leaving_var].occurrences;
  row.basic_var = entering_var;
  columns_[entering_var].row = row_index;
  columns_[leaving_var].row = -1;

  // Substitute the entering variable out of all other rows: a sorted merge
  // of each row with factor * (pivot row), dropping the entering entry and
  // any coefficient that cancels. The fused add_mul avoids a temporary
  // Rational per entry. Occurrence counts follow every entry the merge
  // drops or adds.
  for (int r = 0; r < static_cast<int>(rows_.size()) && columns_[entering_var].occurrences > 0;
       ++r) {
    if (r == row_index) continue;
    std::vector<Entry>& other = rows_[r].entries;
    const auto hit = find_entry(other, entering_var);
    if (hit == other.end()) continue;
    const Rational factor = std::move(hit->second);
    merged_.reserve(other.size() + row.entries.size());
    auto a = other.begin();
    auto b = row.entries.cbegin();
    while (a != other.end() || b != row.entries.cend()) {
      if (b == row.entries.cend() || (a != other.end() && a->first < b->first)) {
        if (a->first != entering_var) {
          merged_.push_back(std::move(*a));
        } else {
          --columns_[entering_var].occurrences;
        }
        ++a;
      } else if (a == other.end() || b->first < a->first) {
        Rational product;
        product.add_mul(factor, b->second);
        merged_.emplace_back(b->first, std::move(product));
        ++columns_[b->first].occurrences;
        ++b;
      } else {
        a->second.add_mul(factor, b->second);
        if (!a->second.is_zero()) {
          merged_.push_back(std::move(*a));
        } else {
          --columns_[a->first].occurrences;
        }
        ++a;
        ++b;
      }
    }
    other.swap(merged_);
    merged_.clear();
  }
}

void Simplex::pivot_and_update(int row_index, int entering_var, const Rational& target) {
  ++stats_.pivots;
  const Row& pivot_row = rows_[row_index];
  const int leaving_var = pivot_row.basic_var;
  const Rational theta = (target - columns_[leaving_var].assignment) /
                         find_entry(pivot_row.entries, entering_var)->second;
  columns_[leaving_var].assignment = target;
  columns_[entering_var].assignment += theta;
  mark_candidate(entering_var);
  // Every other row mentioning the entering variable moves with it.
  int remaining = columns_[entering_var].occurrences - 1;
  for (int r = 0; r < static_cast<int>(rows_.size()) && remaining > 0; ++r) {
    if (r == row_index) continue;
    const Row& row = rows_[r];
    const auto entry = find_entry(row.entries, entering_var);
    if (entry == row.entries.end()) continue;
    columns_[row.basic_var].assignment.add_mul(entry->second, theta);
    mark_candidate(row.basic_var);
    --remaining;
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
    // Every violating basic variable is a candidate, and candidates are
    // visited in ascending order, so the first violation found is the
    // smallest; candidates found within bounds (or nonbasic) are dropped.
    int violating = -1;
    bool needs_increase = false;
    for (std::size_t word = 0; word < candidates_.size() && violating == -1; ++word) {
      for (std::uint64_t bits = candidates_[word]; bits != 0; bits &= bits - 1) {
        const int var = static_cast<int>(word * 64) + std::countr_zero(bits);
        if (is_basic(var)) {
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
        candidates_[word] &= ~(std::uint64_t{1} << (var % 64));
      }
    }
    if (violating == -1) return true;

    const Row& row = rows_[columns_[violating].row];
    const Rational target =
        needs_increase ? *columns_[violating].lower : *columns_[violating].upper;
    // Entries are the row's nonbasic variables in ascending column order.
    int entering = -1;
    for (const auto& [var, coeff] : row.entries) {
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
        for (const auto& [var, coeff] : row.entries) {
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
