// SMT encoding of one (schema, query) pair.
//
// The encoding introduces integer variables for the parameters, the initial
// per-location counters and one acceleration factor per rule application;
// configurations along the schema are *linear expressions* over these, so
// the whole question "do some parameters and factors realize this schema
// together with the query?" is a single linear-integer-arithmetic problem.
//
// SchemaWalk writes the encoding into a constraint sink (hv/smt/sink.h),
// mirroring the enumerator's DFS over unlock chains: one sink scope per
// chain element, so the next schema re-encodes only the segments beyond
// the chain prefix it shares with the current stack, and one transient
// scope per schema for cut segments, canonicity and the final constraint.
// IncrementalSchemaEncoder walks into one persistent smt::Solver per query,
// which keeps the shared prefix's slack rows and simplex basis;
// solve_schema() runs it once on a fresh solver (the non-incremental path,
// kept for A/B comparison). The asserted constraint set is the same either
// way, so verdicts are identical by construction. The auditor walks into a
// cert::Trace (hv/cert/trace.h), which records without solving.
#ifndef HV_CHECKER_ENCODER_H
#define HV_CHECKER_ENCODER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "hv/checker/cone.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/result.h"
#include "hv/checker/schema.h"
#include "hv/smt/lemma.h"
#include "hv/smt/sink.h"
#include "hv/spec/query.h"

namespace hv::smt {
class Solver;
}  // namespace hv::smt

namespace hv::checker {

enum class EncoderMode {
  kSolve,    // plain solving, no certificate overhead
  kCertify,  // solving with proof/model emission
};

/// The schema encoding of one query, written against a sink. Not
/// thread-safe. While a schema is open, the sink's live stack holds the
/// same constraints, atoms and clauses, in the same order, as a fresh
/// walk's encoding of that schema, whatever the walk encoded before. So
/// the atom and clause indices a schema's proof cites are the same for a
/// certifying solver and for the auditor's trace.
class SchemaWalk {
 public:
  /// Declares the parameters and the initial configuration on the pristine
  /// `sink`. All four arguments (`cone` may be null) must outlive the walk.
  SchemaWalk(const GuardAnalysis& analysis, const spec::ReachQuery& query,
             const QueryCone* cone, smt::ConstraintSink& sink);

  /// Syncs the chain-element scopes with the schema's chain, keeping the
  /// prefix it shares with the previous schema, and encodes the rest into
  /// one freshly pushed transient scope, which stays open until close().
  void open(const Schema& schema);
  /// Pops the open schema's transient scope.
  void close();

  /// The open schema's rule applications (the paper's "schema length").
  std::int64_t length() const noexcept { return static_cast<std::int64_t>(steps_.size()); }
  /// Chain-element scopes below the open schema's transient scope.
  std::size_t levels() const noexcept { return levels_.size(); }
  /// The open schema's counterexample under `solver`'s model.
  Counterexample counterexample(const smt::Solver& solver) const;

  const IncrementalStats& stats() const noexcept { return stats_; }

 private:
  struct Config {
    std::vector<smt::LinearExpr> counters;  // per location
    std::vector<smt::LinearExpr> shared;    // per shared variable
  };

  struct Level {
    int guard = -1;
    Config end;  // symbolic configuration at the start of the next segment
    std::size_t steps_mark = 0;  // steps_.size() when the level was pushed
  };

  struct Step {
    ta::RuleId rule;
    smt::VarId delta;
  };

  smt::LinearConstraint substitute_state(const smt::LinearConstraint& constraint,
                                         const Config& config) const;
  void add_cnf(const spec::Cnf& cnf, const Config& config);
  const Config& top_config() const { return levels_.empty() ? base_config_ : levels_.back().end; }
  void apply_segment_rules(Config& config, GuardSet unlocked);
  void apply_rule(ta::RuleId rule_id, Config& config);
  void push_level(int guard);

  const GuardAnalysis& analysis_;
  const ta::ThresholdAutomaton& ta_;
  const spec::ReachQuery& query_;
  const QueryCone* cone_;
  smt::ConstraintSink& sink_;
  const std::vector<ta::RuleId> topo_;
  const std::set<ta::RuleId> frozen_;
  std::vector<smt::VarId> param_vars_;
  std::vector<int> shared_index_;
  std::vector<std::pair<ta::LocationId, smt::VarId>> initial_counter_vars_;
  Config base_config_;
  std::vector<Level> levels_;
  std::vector<Step> steps_;
  std::size_t transient_steps_mark_ = 0;  // steps_.size() when open() pushed
  IncrementalStats stats_;
};

/// Encodes and solves one schema against one query, returning a kSat or
/// kUnsat UnitOutcome (result.h) with this schema's counters, its raw
/// counterexample and, in certify mode, its model or proof. `branch_budget` bounds
/// the SMT branch-and-bound effort (hv::Error escapes on exhaustion). When a
/// QueryCone is supplied, rules whose source cannot be populated under the
/// segment context are omitted from the encoding (sound: such rules can
/// never fire there). `pivot_budget` (0 disables) and `cancel` mirror the
/// incremental encoder's per-schema watchdogs.
UnitOutcome solve_schema(const GuardAnalysis& analysis, const Schema& schema,
                         const spec::ReachQuery& query, std::int64_t branch_budget,
                         const QueryCone* cone = nullptr, double time_budget_seconds = 0.0,
                         EncoderMode mode = EncoderMode::kSolve,
                         std::int64_t pivot_budget = 0,
                         const std::atomic<bool>* cancel = nullptr);

/// Stateful encoder for one query, exploiting prefix sharing between the
/// schemas the enumerator emits in DFS order. Not thread-safe: each worker
/// owns its encoders. After a check() throws (branch/time budget), the
/// encoder is poisoned and must be discarded.
///
/// When `lemmas` is non-null (kSolve mode only — learning elides work a
/// certificate would have to cover), the underlying solver runs in learning
/// mode against that shared pool: pooled Farkas refutations short-circuit
/// checks, new pure-constraint refutations are banked, and unsat results
/// report UnitOutcome::cut_prefix.
class IncrementalSchemaEncoder {
 public:
  IncrementalSchemaEncoder(const GuardAnalysis& analysis, const spec::ReachQuery& query,
                           std::int64_t branch_budget, const QueryCone* cone = nullptr,
                           EncoderMode mode = EncoderMode::kSolve,
                           smt::LemmaPool* lemmas = nullptr);
  ~IncrementalSchemaEncoder();
  IncrementalSchemaEncoder(IncrementalSchemaEncoder&&) noexcept;
  IncrementalSchemaEncoder& operator=(IncrementalSchemaEncoder&&) = delete;

  /// Per-check wall-clock budget (seconds; <= 0 disables).
  void set_time_budget(double seconds) noexcept;

  /// Per-check simplex pivot budget (0 disables): a runaway schema throws
  /// hv::Error, poisoning the encoder like any other budget exhaustion.
  void set_pivot_budget(std::int64_t budget) noexcept;

  /// External cancellation flag polled inside solving (nullptr disables).
  void set_cancel_flag(const std::atomic<bool>* cancel) noexcept;

  /// Encodes and solves one schema, reusing whatever prefix of chain-element
  /// scopes is still valid from the previous call. As solve_schema, with
  /// the counters differenced over this call.
  UnitOutcome check(const Schema& schema);

  const IncrementalStats& stats() const noexcept;

 private:
  bool certify_;
  bool learn_;
  std::unique_ptr<smt::Solver> solver_;  // owned apart, so walk_'s reference survives a move
  SchemaWalk walk_;
};

}  // namespace hv::checker

#endif  // HV_CHECKER_ENCODER_H
