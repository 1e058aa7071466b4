// Verdicts, counterexamples and per-property statistics.
#ifndef HV_CHECKER_RESULT_H
#define HV_CHECKER_RESULT_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hv/checker/schema.h"
#include "hv/smt/proof.h"
#include "hv/spec/query.h"
#include "hv/ta/automaton.h"
#include "hv/ta/counter_system.h"

namespace hv::checker {

enum class Verdict {
  kHolds,     // every violation query is unsatisfiable over all parameters
  kViolated,  // a concrete counterexample was found
  kUnknown,   // budget or timeout exhausted before a verdict
};

std::string to_string(Verdict verdict);

/// One accelerated step of a counterexample: `factor` processes traverse
/// `rule` back to back.
struct TraceStep {
  ta::RuleId rule = -1;
  std::int64_t factor = 0;
};

/// A concrete witness execution violating a property, for specific
/// parameter values. Replayable against the concrete counter-system
/// semantics (see validate()).
struct Counterexample {
  std::string property;
  std::string query_description;
  ta::ParamValuation params;
  ta::Config initial;
  std::vector<TraceStep> steps;

  /// Human-readable replay: parameters, initial configuration, steps and
  /// the configuration after each step (each fired in one go).
  std::string to_string(const ta::ThresholdAutomaton& ta) const;
};

/// Replays the counterexample under concrete semantics and re-checks the
/// query (initial constraint, cuts in order, final constraint). Returns an
/// empty string on success, else a diagnostic. This guards against encoder
/// bugs: every reported violation is independently validated. Each step is
/// fired in one go, so the cost does not grow with its factor; the verdict
/// is the one-firing-at-a-time replay's. A counterexample that does not
/// fit `ta` (configuration sizes, rule ids, negative factors, a step whose
/// configuration leaves int64) fails too; parameters that violate the
/// resilience condition throw InvalidArgument.
std::string validate_counterexample(const ta::ThresholdAutomaton& ta, const Counterexample& cex,
                                    const spec::ReachQuery& query);

/// Greedily shrinks a counterexample (dropping steps and reducing
/// acceleration factors from the end backwards) while it still replays
/// against the query. Returns the minimized copy; the input is untouched.
/// Deterministic, and the result always passes validate_counterexample.
Counterexample minimize_counterexample(const ta::ThresholdAutomaton& ta,
                                       const Counterexample& cex,
                                       const spec::ReachQuery& query);

/// Observability counters of the incremental (push/pop) encoding path.
/// Aggregated over all workers and queries of one property run.
struct IncrementalStats {
  /// Chain-element scopes pushed onto / popped off persistent solvers.
  std::int64_t segments_pushed = 0;
  std::int64_t segments_popped = 0;
  /// Chain-element scopes reused verbatim from the previous schema (summed
  /// per schema: its shared-prefix depth).
  std::int64_t segments_reused = 0;
  /// Schemas encoded through incremental encoders.
  std::int64_t schemas_encoded = 0;
  /// Fraction of segment encodings served from the assertion stack instead
  /// of being re-encoded; 0 when nothing was encoded.
  double prefix_reuse_ratio() const noexcept;

  IncrementalStats& operator+=(const IncrementalStats& other) noexcept;
  IncrementalStats& operator-=(const IncrementalStats& other) noexcept;
};

/// One (query, schema) solve, from the encoder that answers it through the
/// retry ladder (schema_solver.h) to PropertyTally::count: a settled
/// schema's counters and evidence live here alone, beside its SchemaRecord
/// in a journal line or a worker frame (record.h).
struct UnitOutcome {
  enum class Kind {
    kUnsat,        // schema infeasible: the verdict the property wants
    kSat,          // counterexample found (validated, minimized)
    kUnknown,      // retry ladder exhausted; `note` says why
    kInterrupted,  // run-level cancel or global timeout; nothing recorded
    kAborted,      // WorkerAbortFault: the executing worker must die
  };
  Kind kind = Kind::kUnknown;
  /// Rule applications in the encoded schema (the paper's "schema length").
  std::int64_t length = 0;
  /// Simplex pivots spent on this schema, and its rational arithmetic split
  /// by representation (machine-word fast path vs BigInt fallback): the
  /// solver's cumulative counters, differenced per check.
  std::int64_t pivots = 0;
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
  /// kUnsat in learning mode: the refutation used only the first
  /// `cut_prefix` chain elements, so every schema of this query extending
  /// that prefix is unsat too (-1: no subtree cut).
  int cut_prefix = -1;
  /// Lemma-pool activity while settling this unit (learning mode;
  /// differenced like pivots).
  std::int64_t lemma_hits = 0;
  std::int64_t lemmas_learned = 0;
  /// Certify mode: proof tree (kUnsat) / named integer model (kSat).
  std::shared_ptr<const smt::proof::Node> proof;
  std::shared_ptr<const std::vector<std::pair<std::string, BigInt>>> model;
};

/// Certificate raw material for one (query, schema) SMT verdict, collected
/// when CheckOptions::certify is set. UNSAT verdicts carry the solver's
/// proof tree; SAT verdicts the full named integer model (unlike
/// Counterexample, which drops zero-factor steps).
struct SchemaEvidence {
  std::size_t query_index = 0;
  Schema schema;
  bool sat = false;
  std::shared_ptr<const smt::proof::Node> proof;  // present iff !sat
  std::shared_ptr<const std::vector<std::pair<std::string, BigInt>>> model;  // iff sat
};

/// A schema discarded by the property-directed cone without an SMT call.
/// The auditor reproduces the (deterministic) cone decision.
struct PrunedSchema {
  std::size_t query_index = 0;
  Schema schema;
};

/// Everything a certificate needs beyond the verdict: per-schema evidence
/// plus the enumeration manifest (which schema set was covered and under
/// which options, so the auditor can re-derive its completeness).
struct PropertyEvidence {
  std::vector<SchemaEvidence> schemas;
  std::vector<PrunedSchema> pruned;
  EnumerationOptions enumeration;
  bool property_directed_pruning = false;
  /// True iff the enumeration ran to the end for every query (the holds
  /// case). Violated verdicts stop early by design; unknown verdicts
  /// certify nothing.
  bool complete = false;
};

/// Live cross-thread observability of an in-flight run, for callers that
/// stream progress while check_properties() is still solving (the service
/// daemon's status frames). Every field is monotone over the run; readers
/// see a consistent-enough snapshot with relaxed loads. The pointee must
/// outlive the call. Resumed schemas count into `resumed` *and* into the
/// counter their replayed verdict lands in, mirroring PropertyResult.
struct ProgressCounters {
  std::atomic<std::int64_t> enumerated{0};
  std::atomic<std::int64_t> solved{0};
  std::atomic<std::int64_t> pruned{0};
  std::atomic<std::int64_t> cut{0};
  std::atomic<std::int64_t> unknown{0};
  std::atomic<std::int64_t> resumed{0};
  /// Properties fully settled so far (feeds the daemon's ETA heuristic).
  std::atomic<std::int64_t> properties_done{0};
  /// Distributed runs only: workers currently connected to the coordinator.
  std::atomic<std::int64_t> workers{0};
};

/// Per-property schema accounting: the run's lease book (run.h) keeps one
/// per property and every executor's settled schemas merge into it under
/// the book's mutex, in-process and distributed alike; settle_result()
/// (parameterized.h) folds it into the PropertyResult.
struct PropertyTally {
  std::int64_t enumerated = 0;
  std::int64_t checked = 0;
  std::int64_t pruned = 0;
  std::int64_t cut = 0;
  std::int64_t lemma_hits = 0;
  std::int64_t lemmas_learned = 0;
  std::int64_t unknown = 0;
  std::int64_t resumed = 0;
  std::int64_t retries = 0;
  std::int64_t total_length = 0;
  std::int64_t pivots = 0;
  std::int64_t rational_fast_ops = 0;
  std::int64_t rational_big_ops = 0;
  IncrementalStats incremental;
  /// Diagnostic of the first schema degraded to unknown.
  std::string degrade_note;
  /// Certify mode: per-schema evidence and cone-pruned schemas.
  PropertyEvidence evidence;

  /// Counts one settled schema: enumerated, resumed, the counter its
  /// verdict lands in (mirrored into the live `progress` counters; null:
  /// nobody watching) and the solve's own counters. The first unknown
  /// schema sets the degrade note.
  void count(const SchemaRecord& record, const UnitOutcome& solve, ProgressCounters* progress,
             bool resumed);
};

/// Why a property run stopped: the inputs of the verdict precedence ladder
/// (settle_result in parameterized.h), which ranks them counterexample >
/// error > interrupted > timeout > budget > aborted workers > unknown
/// schemas > incomplete coverage > holds.
struct RunEnd {
  std::optional<Counterexample> counterexample;
  /// Fatal run error: a counterexample that failed replay validation.
  std::string error_note;
  bool interrupted = false;
  bool timed_out = false;
  bool budget_exhausted = false;
  std::int64_t workers_aborted = 0;
  /// False when coverage is known to be incomplete (a distributed run
  /// with unsettled leases); ranked below every reason above.
  bool covered = true;

  /// Folds in a sat schema's witness: a counterexample that failed replay
  /// validation becomes the error note, else the first counterexample wins.
  void witness(std::optional<Counterexample> cex, const std::string& validation_error);
};

struct PropertyResult {
  std::string property;
  Verdict verdict = Verdict::kUnknown;
  std::int64_t schemas_checked = 0;
  /// Schemas discarded by static (cone) analysis without an SMT call.
  std::int64_t schemas_pruned = 0;
  /// Schemas skipped by core-based subtree cuts: an earlier refutation of a
  /// sibling only referenced the shared chain prefix, proving the whole
  /// subtree unsat (learning mode; journaled on the refuting unsat record).
  std::int64_t schemas_cut = 0;
  /// Lemma-pool activity (learning mode): solver checks short-circuited by
  /// a pooled Farkas refutation, and refutations banked into the pool.
  std::int64_t lemma_hits = 0;
  std::int64_t lemmas_learned = 0;
  /// Schemas degraded to an inconclusive per-schema verdict (watchdog
  /// cancellation, solver failure, contained bad_alloc) after the retry
  /// ladder was exhausted. Any nonzero count makes the property kUnknown.
  std::int64_t schemas_unknown = 0;
  /// Schemas settled by a resume journal instead of a fresh solve.
  std::int64_t schemas_resumed = 0;
  /// Fresh-solver retries taken by the retry ladder.
  std::int64_t retries = 0;
  /// True iff the run was stopped by CheckOptions::cancel (SIGINT/SIGTERM).
  bool interrupted = false;
  double avg_schema_length = 0.0;
  double seconds = 0.0;
  /// Total simplex pivots spent solving schemas (both encoder paths), the
  /// currency the incremental mode saves.
  std::int64_t simplex_pivots = 0;
  /// Rational arithmetic inside the simplex, split by representation: ops
  /// that stayed on the machine-word fast path vs ops that fell back to
  /// BigInt. Resumed journal schemas contribute the counts their journaling
  /// run recorded.
  std::int64_t rational_fast_ops = 0;
  std::int64_t rational_big_ops = 0;
  /// Present iff the incremental encoder path ran.
  std::optional<IncrementalStats> incremental;
  std::optional<Counterexample> counterexample;
  std::string note;  // budget/timeout diagnostics
  /// Present iff the run was certifying (CheckOptions::certify).
  std::shared_ptr<PropertyEvidence> evidence;
};

}  // namespace hv::checker

#endif  // HV_CHECKER_RESULT_H
