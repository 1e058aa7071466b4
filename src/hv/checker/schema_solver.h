// Per-consumer schema solving with the fault-tolerant retry ladder. Every
// execution engine is a lease consumer (run.h) — an in-process thread at any
// thread count, the coordinator's self-solve and a fleet worker process
// (hv/dist) — so each settles a (query, schema) unit through exactly the
// same path:
//
//   1. first attempt on the persistent incremental encoder (when enabled),
//      under the per-schema watchdogs (wall-clock, pivot budget, soft RSS);
//   2. a failed or cancelled attempt retires the poisoned encoder and is
//      retried once on a fresh non-incremental solver;
//   3. only then is the unit reported as unknown — the run continues.
//
// step_schema wraps the ladder in the full per-schema path every executor
// shares — cut cover, cone, solve, cut derivation, all against the learning
// state the solver carries (SolveHooks::learning) — and reports a
// SchemaRecord (schema.h). Executors differ only in where the record goes,
// which their lease book decides: a thread's book merges it, and a fleet
// worker's book ships it as a frame the coordinator merges into the run's
// book. Run-level interrupts (external cancellation, global timeout) are
// reported as kInterrupted, never retried and never charged against the
// schema.
#ifndef HV_CHECKER_SCHEMA_SOLVER_H
#define HV_CHECKER_SCHEMA_SOLVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hv/checker/encoder.h"
#include "hv/checker/fault.h"
#include "hv/checker/learning.h"
#include "hv/checker/parameterized.h"
#include "hv/checker/result.h"
#include "hv/checker/schema.h"
#include "hv/spec/query.h"
#include "hv/util/stopwatch.h"

namespace hv::checker {

/// Outcome of settling one (query, schema) unit through the retry ladder.
struct UnitOutcome {
  enum class Kind {
    kUnsat,        // schema infeasible: the verdict the property wants
    kSat,          // counterexample found (validated, minimized)
    kUnknown,      // retry ladder exhausted; `note` says why
    kInterrupted,  // run-level cancel or global timeout; nothing recorded
    kAborted,      // WorkerAbortFault: the executing worker must die
  };
  Kind kind = Kind::kUnknown;
  std::int64_t length = 0;
  std::int64_t pivots = 0;
  /// Rational fast-path/BigInt op split for this unit (see EncodeResult).
  std::int64_t rational_fast_ops = 0;
  std::int64_t rational_big_ops = 0;
  /// Fresh-solver retries taken while settling this unit (0 or 1).
  std::int64_t retries = 0;
  /// kUnknown: the failure that exhausted the ladder. kInterrupted: "cancelled"
  /// or "timeout".
  std::string note;
  std::optional<Counterexample> counterexample;  // kSat
  /// kSat only: non-empty iff the counterexample failed replay validation —
  /// an internal encoder bug the run must surface instead of the verdict.
  std::string validation_error;
  /// kUnsat in learning mode: EncodeResult::cut_prefix — the refutation only
  /// used the first `cut_prefix` chain elements (-1: no subtree cut).
  int cut_prefix = -1;
  /// Lemma-pool activity while settling this unit (learning mode).
  std::int64_t lemma_hits = 0;
  std::int64_t lemmas_learned = 0;
  /// Certify mode: proof tree (kUnsat) / named integer model (kSat).
  std::shared_ptr<const smt::proof::Node> proof;
  std::shared_ptr<const std::vector<std::pair<std::string, BigInt>>> model;
};

/// Run-level services shared by all SchemaSolvers of one run. All pointees
/// must outlive the solver; null members disable the corresponding feature.
struct SolveHooks {
  /// Run stopwatch backing CheckOptions::timeout_seconds classification.
  const Stopwatch* run_watch = nullptr;
  /// Deterministic fault injection (internally synchronized).
  FaultInjector* injector = nullptr;
  /// Shared attempt counter striding the soft-RSS polls across workers.
  std::atomic<std::int64_t>* memory_polls = nullptr;
  /// Cross-schema learning state of the solver's property (per-query lemma
  /// pools + cut indexes): its lease book's (run.h). Null disables
  /// learning; set it only when lemmas_enabled holds.
  PropertyLearning* learning = nullptr;
};

/// One worker's solving state: persistent incremental encoders (one per
/// query of the property) plus the retry ladder. Not thread-safe — each
/// worker owns one.
class SchemaSolver {
 public:
  /// `analysis`, `property`, `options` and `hooks` members must outlive the
  /// solver. Respects options.incremental / certify / watchdog settings
  /// whichever executor owns it.
  SchemaSolver(const GuardAnalysis& analysis, const spec::Property& property,
               const CheckOptions& options, SolveHooks hooks);
  ~SchemaSolver();
  SchemaSolver(const SchemaSolver&) = delete;
  SchemaSolver& operator=(const SchemaSolver&) = delete;

  /// Settles one unit. `cone` may be null (pruning disabled);
  /// `remaining_seconds` is the run's remaining global budget (<= 0 with an
  /// armed timeout means "already at the deadline"). On Kind::kAborted the
  /// failing encoder's stats are already folded; the caller decides whether
  /// the consumer retires (in-process) or the process exits (dist).
  UnitOutcome solve(std::size_t query_index, const Schema& schema, const QueryCone* cone,
                    double remaining_seconds);

  /// Incremental-encoding counters accumulated so far: retired encoders plus
  /// the live ones.
  IncrementalStats stats() const;

  /// The learning state it solves against (SolveHooks::learning), or null.
  PropertyLearning* learning() const { return hooks_.learning; }

 private:
  EncodeResult attempt(std::size_t query_index, const Schema& schema, const QueryCone* cone,
                       double remaining_seconds, bool incremental);
  void retire(std::size_t query_index);

  const GuardAnalysis& analysis_;
  const spec::Property& property_;
  const CheckOptions& options_;
  SolveHooks hooks_;
  EncoderMode mode_;
  std::vector<std::unique_ptr<IncrementalSchemaEncoder>> encoders_;
  IncrementalStats retired_;
};

/// What step_schema did with one schema.
struct SchemaStep {
  enum class Kind {
    kCut,          // covered by a recorded subtree cut: no record, no solve
    kSettled,      // `record` holds a pruned, unsat, sat or unknown verdict
    kInterrupted,  // run-level cancel or global timeout (outcome.note says which)
    kAborted,      // WorkerAbortFault; `record` is the unknown the worker leaves
  };
  Kind kind = Kind::kSettled;
  /// Everything but the cursor, which the caller fills in when it needs one.
  SchemaRecord record;
  /// The solve, when one ran: witness, proof, model and lemma activity.
  UnitOutcome outcome;
};

/// Settles one schema: a cut in the solver's learning state (none: no
/// learning) covers it, or the cone (null: pruning off) prunes it, or
/// `solver` solves it. An unsat refutation's new subtree cut goes into that
/// learning state and, when it is new there, into record.cut.
SchemaStep step_schema(SchemaSolver& solver, const QueryCone* cone, std::size_t q,
                       const Schema& schema, double remaining_seconds);

}  // namespace hv::checker

#endif  // HV_CHECKER_SCHEMA_SOLVER_H
