// SMT encoding of one (schema, query) pair.
//
// The encoding introduces integer variables for the parameters, the initial
// per-location counters and one acceleration factor per rule application;
// configurations along the schema are *linear expressions* over these, so
// the whole question "do some parameters and factors realize this schema
// together with the query?" is a single linear-integer-arithmetic problem.
//
// Two entry points:
//   * solve_schema() — one-shot: builds a fresh solver per schema (the
//     original, non-incremental path, kept for A/B comparison);
//   * IncrementalSchemaEncoder — stateful: owns one persistent solver per
//     query and mirrors the enumerator's DFS over unlock chains. The
//     encoder keeps one solver scope per chain element; when the next
//     schema shares a k-segment prefix with the current stack, only the
//     segments beyond k are (re-)encoded — the shared prefix's constraints,
//     slack rows and simplex basis are reused verbatim. Segments containing
//     property cuts, the trailing canonicity assertions and the final
//     constraint are encoded in one transient scope per schema, popped
//     right after the check. The asserted constraint set is exactly the
//     one-shot encoder's (assertion order differs, which is irrelevant for
//     a conjunction), so verdicts are identical by construction.
#ifndef HV_CHECKER_ENCODER_H
#define HV_CHECKER_ENCODER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "hv/checker/cone.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/result.h"
#include "hv/checker/schema.h"
#include "hv/smt/lemma.h"
#include "hv/spec/query.h"

namespace hv::smt {
class TraceView;
}  // namespace hv::smt

namespace hv::checker {

struct EncodeResult {
  bool sat = false;
  /// Number of rule applications in the encoded schema (the paper's
  /// "schema length").
  std::int64_t length = 0;
  /// Simplex pivots spent on this schema (for fresh-vs-incremental
  /// accounting; cumulative counters are differenced per call).
  std::int64_t pivots = 0;
  /// Rational arithmetic spent on this schema, split by representation
  /// (machine-word fast path vs BigInt fallback), differenced like pivots.
  std::int64_t rational_fast_ops = 0;
  std::int64_t rational_big_ops = 0;
  std::optional<Counterexample> counterexample;  // present iff sat
  /// Learning mode only, on unsat: the refutation referenced nothing beyond
  /// the first `cut_prefix` chain elements, so every schema of this query
  /// whose unlock order starts with that prefix is unsat too (-1: no cut —
  /// the refutation needed schema-specific constraints).
  int cut_prefix = -1;
  /// Lemma-pool activity on this schema (learning mode; differenced like
  /// pivots).
  std::int64_t lemma_hits = 0;
  std::int64_t lemmas_learned = 0;
  /// Certificate payloads, filled in EncoderMode::kCertify only.
  std::shared_ptr<const smt::proof::Node> proof;  // iff !sat
  std::shared_ptr<const std::vector<std::pair<std::string, BigInt>>> model_values;  // iff sat
};

enum class EncoderMode {
  kSolve,    // plain solving, no certificate overhead
  kCertify,  // solving with proof/model emission
  kTrace,    // auditor's re-encoding: record assertions, never solve
};

/// Encodes and solves one schema against one query. `branch_budget` bounds
/// the SMT branch-and-bound effort (hv::Error escapes on exhaustion). When a
/// QueryCone is supplied, rules whose source cannot be populated under the
/// segment context are omitted from the encoding (sound: such rules can
/// never fire there). `pivot_budget` (0 disables) and `cancel` mirror the
/// incremental encoder's per-schema watchdogs.
EncodeResult solve_schema(const GuardAnalysis& analysis, const Schema& schema,
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
/// report EncodeResult::cut_prefix.
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
  /// scopes is still valid from the previous call. Not available in
  /// EncoderMode::kTrace.
  EncodeResult check(const Schema& schema);

  /// Encodes one schema on a trace-mode solver and hands `audit` a view of
  /// the assertions alive for it — the auditor's re-encoding. Only
  /// available in EncoderMode::kTrace. Prefix sharing works exactly as for
  /// check(), and because the encoder is deterministic the atom/clause
  /// indices of the view coincide with the ones the certifying run saw for
  /// the same schema. The view reads the solver's live stack: the schema's
  /// transient scope is popped as soon as `audit` returns, so the view
  /// must not escape the callback.
  void trace(const Schema& schema, const std::function<void(const smt::TraceView&)>& audit);

  const IncrementalStats& stats() const noexcept;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hv::checker

#endif  // HV_CHECKER_ENCODER_H
