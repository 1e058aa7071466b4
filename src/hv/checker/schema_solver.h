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
// SchemaRecord (schema.h) beside the solve's UnitOutcome (result.h), which
// the encoder filled and which carries the schema's counters from there to
// the tally. Executors differ only in where the pair goes,
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

  /// Settles one unit through the retry ladder: the encoder's UnitOutcome
  /// (result.h) with the retries taken and, for kSat, the counterexample
  /// validated and minimized. `cone` may be null (pruning disabled);
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
  UnitOutcome attempt(std::size_t query_index, const Schema& schema, const QueryCone* cone,
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
  /// The verdict and the cut; the caller fills in the cursor when it needs
  /// one.
  SchemaRecord record;
  /// The solve, when one ran: its counters, note, witness, proof and model.
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
