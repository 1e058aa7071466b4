// Exact-rational general simplex for linear-arithmetic feasibility.
//
// This is the theory core of the SMT solver, in the style of
// Dutertre & de Moura, "A fast linear-arithmetic solver for DPLL(T)":
// every variable carries optional lower/upper bounds; linear rows define
// slack variables; feasibility search pivots with Bland's rule (which
// guarantees termination). Asserting a constraint during search only
// tightens a bound, so backtracking restores bounds from a trail and never
// has to undo pivots.
//
// The tableau is sparse: a row stores only its nonzero coefficients, sorted
// by column, so a pivot costs the width of the rows it touches rather than
// the column count. check() does not scan every column for Bland's violated
// variable either: a candidate bitset holds every basic variable that may
// sit outside its bounds, and the scan walks it in ascending order, so the
// smallest-index choice — and with it every pivot — is the one a full scan
// would make.
//
// The trail is also *structural*: variables and rows created after a push()
// are deleted again by the matching pop(), so the solver layer can expose an
// incremental assertion stack (scoped constraints, not just scoped bounds).
// Deletion processes variables in reverse creation order; a to-be-deleted
// variable that is nonbasic but still mentioned by some row is first pivoted
// into that row (making it basic), after which its row and column can be
// dropped without touching the equalities over surviving variables. The
// surviving basis is left in place — this is the warm start that makes a
// pop()+push() sequence on a shared prefix cheap compared to refactoring
// the tableau from scratch. Every column counts the rows that mention it,
// so deletion costs only the rows it touches: a basic variable drops its
// own row, an unmentioned nonbasic one drops no row at all, and only a
// nonbasic one that some row still mentions searches the rows.
//
// All arithmetic is exact (hv::Rational over BigInt); there is no epsilon
// and no numerical drift, which matters because the checker's verdicts are
// claimed for *all* parameter values.
#ifndef HV_SMT_SIMPLEX_H
#define HV_SMT_SIMPLEX_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hv/smt/linear.h"
#include "hv/util/rational.h"

namespace hv::smt {

class Simplex {
 public:
  /// Creates a new unbounded variable and returns its index.
  int add_variable();

  int variable_count() const noexcept { return static_cast<int>(columns_.size()); }

  /// Defines a new slack variable equal to the given combination of existing
  /// variables and returns its index. The defining row is permanent.
  int add_row(const std::vector<std::pair<int, BigInt>>& combination);

  /// Tightens bounds; weaker-than-current bounds are ignored. Changes are
  /// recorded on the trail and undone by pop(). Returns false if the new
  /// bound contradicts the opposite bound (immediate conflict). `tag` is an
  /// opaque caller-side premise id stored with the bound; conflicts cite the
  /// tags of the bounds they combine (see last_conflict()).
  [[nodiscard]] bool assert_lower(int var, const Rational& bound, int tag = -1);
  [[nodiscard]] bool assert_upper(int var, const Rational& bound, int tag = -1);

  /// When enabled, every infeasibility (immediate bound conflict or a failed
  /// check()) leaves a Farkas explanation in last_conflict(): pairs of
  /// (bound tag, strictly positive multiplier) such that the nonnegative
  /// combination of the tagged bound inequalities is contradictory. The
  /// extraction itself is O(conflict row width) and only runs on conflicts.
  void set_conflict_tracking(bool enabled) noexcept { track_conflicts_ = enabled; }
  const std::vector<std::pair<int, Rational>>& last_conflict() const noexcept {
    return last_conflict_;
  }

  /// Checkpointing for DPLL, branch-and-bound and the solver's assertion
  /// stack. pop() undoes bound tightenings *and* deletes variables/rows
  /// created since the matching push().
  void push();
  void pop();

  struct Stats {
    /// Feasibility-restoring pivots performed by check().
    std::int64_t pivots = 0;
    /// Rational arithmetic performed inside this tableau, split by
    /// representation: machine-word fast-path ops vs BigInt fallbacks.
    /// Captured as deltas of the thread-local Rational counters around
    /// every mutating entry point, so concurrent tableaux on other threads
    /// don't bleed into each other.
    std::int64_t rational_fast_ops = 0;
    std::int64_t rational_big_ops = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Pivot watchdog: check() throws hv::Error once cumulative feasibility
  /// pivots reach `limit` (0 disables). The caller arms it with an absolute
  /// value (stats().pivots + its per-task budget), so enforcement spans all
  /// the simplex checks of one solver-level check. Structural pop() pivots
  /// are exempt — the watchdog cancels runaway searches, not backtracking.
  void set_pivot_limit(std::int64_t limit) noexcept { pivot_limit_ = limit; }

  /// Searches for an assignment within all bounds. Returns true iff the
  /// current constraint system is feasible over the rationals.
  [[nodiscard]] bool check();

  /// Value of a variable in the last satisfying assignment (valid after a
  /// successful check()).
  const Rational& value(int var) const;

  const std::optional<Rational>& lower_bound(int var) const { return columns_[var].lower; }
  const std::optional<Rational>& upper_bound(int var) const { return columns_[var].upper; }

 private:
  struct Column {
    std::optional<Rational> lower;
    std::optional<Rational> upper;
    // Premise ids of the active bounds, for conflict explanations.
    int lower_tag = -1;
    int upper_tag = -1;
    Rational assignment;
    // Index into rows_ if basic, -1 if nonbasic.
    int row = -1;
    // Number of rows holding an entry in this column (zero while basic).
    int occurrences = 0;
  };

  using Entry = std::pair<int, Rational>;

  struct Row {
    int basic_var = -1;
    // The row reads basic_var = sum coeff * var over its entries: the
    // nonzero coefficients of nonbasic variables, sorted by column. Basic
    // variables never appear and cancelled coefficients are dropped, so
    // adding a variable touches no row and a deleted column leaves no entry.
    // Each entry is counted in its column's occurrences, so structural
    // deletion and the scans for a column's rows stop at the rows that
    // mention it instead of visiting every row.
    std::vector<Entry> entries;
  };

  enum class TrailKind { kLower, kUpper, kAddVar, kMark };
  struct TrailEntry {
    TrailKind kind;
    int var = -1;
    std::optional<Rational> previous;
    int previous_tag = -1;
  };

  bool is_basic(int var) const noexcept { return columns_[var].row >= 0; }
  void remove_last_variable();
  void remove_row(int row_index);
  void update_nonbasic(int var, const Rational& new_value);
  void pivot(int row_index, int entering_var);
  void pivot_and_update(int row_index, int entering_var, const Rational& target);
  bool within_lower(int var) const;
  bool within_upper(int var) const;
  // Adds `var` to the violation candidates (see check()).
  void mark_candidate(int var);

  std::vector<Column> columns_;
  std::vector<Row> rows_;
  std::vector<TrailEntry> trail_;
  Stats stats_;
  std::int64_t pivot_limit_ = 0;
  bool track_conflicts_ = false;
  std::vector<std::pair<int, Rational>> last_conflict_;
  // Bitset over columns holding every basic variable outside its bounds
  // (and possibly others): set whenever a basic variable's bound tightens
  // or its assignment moves, cleared when check() finds the variable within
  // bounds or nonbasic, or when its column is deleted.
  std::vector<std::uint64_t> candidates_;
  // add_row's dense accumulator (all zero between calls) and the columns it
  // touched; pivot's merge buffer. Kept to reuse their allocations.
  std::vector<Rational> accumulator_;
  std::vector<int> touched_;
  std::vector<Entry> merged_;
};

}  // namespace hv::smt

#endif  // HV_SMT_SIMPLEX_H
