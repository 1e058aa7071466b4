// The parameterized model checker: verifies a Property for *all* parameter
// valuations admitted by the resilience condition (any n, any t < n/3, any
// f <= t for the paper's models), by exhausting the schema space.
//
// This is our reimplementation of the role ByMC plays in the paper; Table 2
// is regenerated from PropertyResult statistics (schemas checked, average
// schema length, wall-clock time).
#ifndef HV_CHECKER_PARAMETERIZED_H
#define HV_CHECKER_PARAMETERIZED_H

#include <atomic>
#include <string>
#include <vector>

#include "hv/checker/fault.h"
#include "hv/checker/result.h"
#include "hv/checker/schema.h"
#include "hv/spec/query.h"
#include "hv/ta/automaton.h"

namespace hv::checker {

struct CheckOptions {
  EnumerationOptions enumeration;
  /// 0 disables the timeout.
  double timeout_seconds = 0.0;
  /// Threads consuming the run's leases concurrently (ByMC's MPI
  /// counterpart): each claims chain subtrees from the run's LeaseBook
  /// (run.h) first-fit, and the calling thread is one of them.
  int workers = 1;
  /// Incremental (push/pop) SMT solving: every worker keeps one persistent
  /// solver per query and re-encodes only the schema segments not shared
  /// with the previous schema's chain prefix. Answer-preserving by
  /// construction; disable to A/B against the fresh-solver-per-schema path.
  bool incremental = true;
  /// Property-directed cone pruning (static schema feasibility + encoding
  /// slicing). Sound; disabling it is only useful for ablation studies.
  bool property_directed_pruning = true;
  /// Proof-carrying mode: every schema verdict is accompanied by a Farkas
  /// proof tree (unsat) or a named integer model (sat), collected into
  /// PropertyResult::evidence together with the enumeration manifest, for
  /// certificate emission (hv/cert).
  bool certify = false;
  /// Cross-schema learning: pool Farkas refutations per query (replayed as
  /// cheap learned cuts before full solves) and skip subtrees whose shared
  /// chain prefix an earlier refutation already proved infeasible
  /// (PropertyResult::schemas_cut). Verdict-preserving; active only with
  /// incremental solving and outside certify mode (certificates need
  /// per-schema coverage). `hvc --no-lemmas` / HV_NO_LEMMAS=1 disable it.
  bool lemmas = true;

  // --- fault-tolerant runtime ------------------------------------------------

  /// Append settled schema verdicts to this crash-safe JSONL journal (empty
  /// disables). Shared across the properties of one run; records are keyed
  /// by (property, schema cursor).
  std::string journal_path;
  /// Load this journal first and skip every schema it settles, replaying
  /// the recorded verdicts and counters into the statistics (empty
  /// disables). Sat records are re-solved. In certify mode only records
  /// that carry their evidence (an unsat with its proof, a pruned schema)
  /// are replayed, and their proofs go into the certificate. A journal
  /// written under other pruning options is refused (journal.h).
  std::string resume_path;
  /// Pipeline node identity stamped into the journal header (empty for
  /// whole-run journals). Resume cross-checks it: per-node journals of the
  /// same automaton share cursor space, so feeding one node's file to
  /// another would replay wrong verdicts silently. Pure plumbing — never
  /// part of options_fingerprint(), like the journal paths themselves.
  std::string journal_node;
  /// Per-schema wall-clock watchdog (seconds; 0 disables): a schema whose
  /// solve exceeds it is cancelled and degraded to a recorded unknown; the
  /// run continues.
  double schema_timeout_seconds = 0.0;
  /// Per-schema simplex pivot watchdog (0 disables), same degradation.
  std::int64_t pivot_budget = 0;
  /// Soft memory budget (MB; 0 disables): once the resident set exceeds it,
  /// incremental encoders are dropped before each solve (falling back to
  /// fresh solving, which frees their assertion stacks). std::bad_alloc is
  /// contained per schema regardless of this setting.
  std::int64_t memory_budget_mb = 0;
  /// External cancellation (SIGINT/SIGTERM in hvc): when the flag turns
  /// true the run stops at the next cancellation point, flushes the journal
  /// and reports partial progress. The pointee must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Deterministic fault injection (tests, CI smoke); disarmed by default.
  FaultPlan fault;
  /// Live progress counters shared with an observer thread (the service
  /// daemon's status frames); null disables. Local only: the distributed
  /// wire never serializes the pointer — remote progress arrives through
  /// record frames instead.
  ProgressCounters* progress = nullptr;
  /// Journal durability batch: records per flush+fsync. The default trades
  /// throughput for at most 256 lost records on kill -9; the service daemon
  /// lowers it so a restarted job resumes close to the kill point.
  int journal_flush_batch = 256;
};

/// True iff this run learns lemmas/cuts: options.lemmas, with incremental
/// solving, outside certify mode, and HV_NO_LEMMAS unset. Shared by the
/// in-process engines and the distributed worker so every execution path
/// gates identically.
bool lemmas_enabled(const CheckOptions& options);

/// Canonical fingerprint of every option that can change a run's verdicts
/// or its reported accounting: a deterministic "key=value;" concatenation
/// covering budgets, pruning/certify switches, watchdogs, the
/// fault plan, and the *effective* state of environment-gated modes
/// (lemmas_enabled() folds HV_NO_LEMMAS; the rational fast path folds
/// HV_NO_FAST_RATIONAL). Excludes pure plumbing — journal/resume paths,
/// cancel/progress pointers, flush batching — which never changes what a
/// run computes. The service result cache keys on it: two submissions share
/// a cache entry iff their fingerprints (and model and properties) agree.
std::string options_fingerprint(const CheckOptions& options);

/// Assembles a finished run's PropertyResult: counters from `tally`, the
/// verdict and note from the RunEnd precedence ladder (result.h), and the
/// certificate evidence in certify mode. The lease book (run.h) reports
/// every property through it, in-process and distributed alike.
PropertyResult settle_result(std::string property, PropertyTally tally, RunEnd end,
                             double seconds, const CheckOptions& options);

/// Checks one property; never throws on budget/timeout (returns kUnknown
/// with a note instead).
PropertyResult check_property(const ta::ThresholdAutomaton& ta, const spec::Property& property,
                              const CheckOptions& options = {});

/// Convenience: applies the Appendix-A one-round reduction first. Note the
/// property must already be compiled against the reduced automaton's
/// variable/location ids (use MultiRoundTa::one_round_reduction()).
PropertyResult check_property(const ta::MultiRoundTa& ta, const spec::Property& property,
                              const CheckOptions& options = {});

/// Checks several properties in sequence with shared options.
std::vector<PropertyResult> check_properties(const ta::ThresholdAutomaton& ta,
                                             const std::vector<spec::Property>& properties,
                                             const CheckOptions& options = {});

}  // namespace hv::checker

#endif  // HV_CHECKER_PARAMETERIZED_H
