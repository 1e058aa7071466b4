// The lease book: the transport-free core of one verification run, shared by
// every executor that settles schemas.
//
// A run splits each property's schema space into leases, one per (query,
// chain subtree) of plan_tasks, in (property, query, DFS task) order. The
// book owns everything around step_schema that does not need a wire:
//
//   * the normalized options (certify forces incremental solving), the
//     journal and the resume file with their identity check and the choice
//     of the records a resume replays (journal.h);
//   * the leases and their states, granted first-fit (fair-shared across
//     properties, see pick_locked);
//   * per property: the tally, the RunEnd, the finish stamp, the ledger of
//     settled cursors and, iff
//     lemmas_enabled holds for the normalized options, the learning state
//     (learning.h: one cut index and lemma pool per query). Every consumer's
//     solver of a property shares it, and every merged unsat record's cut
//     joins its index, whether a thread, the resume replay or a fleet
//     worker settled the schema;
//   * the one budget rule: a schema is charged when it is visited, and the
//     budget is exhausted only when a schema beyond it would be charged;
//   * the merge of a settled schema into tally, journal, certificate
//     evidence, cut index and the witness, and the final settle_result
//     assembly.
//
// Every executor that solves a schema is a LeaseConsumer of a book: an
// in-process thread (one consumer per thread), the distributed coordinator's
// self-solve, and a fleet worker process, which keeps a book of its own over
// the leases it is granted. The ledger (PropertyRun::settled) is the run's
// one answer to "is this schema already settled?": the merge fills it, the
// resume replay through the merge, and a fleet worker's grant seeds it with
// its skip list. The coordinator (hv/dist) derives from the book and adds
// only what needs a wire or distrust through three virtual hooks
// (merged_locked, changed_locked, settle_moot_locked): skip lists, settling
// the pending leases a new cut covers, and waking parked grants. It ships
// the book's learning to workers only inside their grants. A fleet
// worker's book overrides the fourth hook, merge_locked, the other way
// round: it ships the settled schema to the coordinator instead of merging
// it.
#ifndef HV_CHECKER_RUN_H
#define HV_CHECKER_RUN_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hv/checker/cone.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/journal.h"
#include "hv/checker/learning.h"
#include "hv/checker/parameterized.h"
#include "hv/checker/schema_solver.h"
#include "hv/util/stopwatch.h"

namespace hv::checker {

enum class LeaseState { kPending, kActive, kDone, kDropped };

/// One unit of work: a chain subtree of one (property, query).
struct Lease {
  std::size_t property = 0;
  std::size_t query = 0;
  SubtreeTask task;
  LeaseState state = LeaseState::kPending;
};

/// The book's state of one property.
struct PropertyRun {
  PropertyTally tally;
  RunEnd end;
  /// A witness (or a counterexample that failed validation) settled it.
  bool stopped = false;
  /// Its last lease settled at `seconds` on the run's stopwatch.
  bool finished = false;
  double seconds = 0.0;
  /// Schemas charged to the budget whose outcome has not been counted yet.
  std::int64_t in_flight = 0;
  /// The ledger: every settled schema's verdict by cursor, whoever settled
  /// it (a consumer, a fleet record or the resume replay, all through
  /// merge_locked). A fleet worker's grant seeds it with the skip list,
  /// whose verdicts the worker is not told (kUnknown). Empty unless the
  /// book keeps cursors.
  std::unordered_map<std::string, SchemaVerdict> settled;

  /// Still taking verdicts: no witness and budget left.
  bool live() const { return !stopped && !end.budget_exhausted; }
};

class LeaseBook {
 public:
  /// `ta`, `properties` and `options` must outlive the book. Plans leases
  /// for `consumers` concurrent consumers, opens the journal and loads the
  /// resume file (checked against the model and options.journal_node).
  /// Throws InvalidArgument for a foreign journal.
  LeaseBook(const ta::ThresholdAutomaton& ta, std::span<const spec::Property> properties,
            const CheckOptions& options, int consumers);
  virtual ~LeaseBook();
  LeaseBook(const LeaseBook&) = delete;
  LeaseBook& operator=(const LeaseBook&) = delete;

  /// Merges every replayed resume record up front, with its counters and
  /// its proof, so the subtree cuts the records carry are skipped instead of
  /// re-derived. Sat records are re-solved, and so is a record a certifying
  /// run cannot replay for lack of evidence (journal.h). Then drops the
  /// loaded journal: the ledger holds what it settled. Call once, before
  /// any consumer.
  void replay_resume();

  /// Runs `threads` LeaseConsumers until no lease is left to claim; the
  /// calling thread is consumer 0, so one thread spawns none. A consumer
  /// hit by an injected worker death retires and the rest keep going.
  /// `injector` as for LeaseConsumer.
  void consume(int threads, FaultInjector* injector);

  const CheckOptions& options() const { return options_; }
  const GuardAnalysis& analysis() const { return analysis_; }
  std::span<const spec::Property> properties() const { return properties_; }
  const Stopwatch& watch() const { return watch_; }
  /// The learning state of property `p`, or null when the run does not
  /// learn. Internally synchronized: usable without `mutex`.
  PropertyLearning* learning(std::size_t p) const { return learning_[p].get(); }
  /// The pruning cone of (property, query), built on first use; null with
  /// pruning off. Takes `mutex`.
  const QueryCone* cone(std::size_t p, std::size_t q);
  /// Visits every schema of `lease`'s subtree in DFS order, without a
  /// schema cap: the book charges the budget per visited schema.
  EnumerationOutcome enumerate_lease(const Lease& lease,
                                     const std::function<bool(const Schema&)>& visit) const;

  /// Every result, assembled by settle_result after flushing the journal.
  std::vector<PropertyResult> results();
  /// The run's journal, or null.
  ProgressJournal* journal() const { return journal_.get(); }

  // --- everything below: caller holds `mutex` --------------------------------

  /// The pending lease to grant next, or -1. First-fit, fair-shared across
  /// properties: the first pending lease of a property with the fewest
  /// active leases (one property: plain first-fit). -1 once the run halted.
  /// `*work_left` is set when a lease is still pending or active.
  std::int64_t pick_locked(bool* work_left);
  /// Moves a lease to `state`, keeping the per-property counts and the
  /// finish stamp. A lease of a property that takes no more verdicts is
  /// dropped instead of going back to pending.
  void set_state_locked(std::size_t lease, LeaseState state);
  /// Drops every pending lease of `p` (its verdict is settled).
  void drop_pending_locked(std::size_t p);
  /// The budget rule: charges up to `n` visited schemas to `p` and returns
  /// how many it charged. Fewer than `n` means the rest lie beyond the
  /// budget, which is then exhausted; none when `p` takes no more verdicts.
  std::int64_t charge_locked(std::size_t p, std::int64_t n = 1);
  /// Counts `n` charged schemas of `p` that a subtree cut covered: each is
  /// enumerated and cut, in the tally and the live counters.
  void cut_locked(std::size_t p, std::int64_t n);
  /// Merges one settled schema of `p`: dedup (known_locked), the budget
  /// charge unless `charged` already took it, the ledger, tally, journal,
  /// certificate evidence, an unsat record's cut and the sat witness, then
  /// merged_locked. Returns false iff the schema was dropped: a duplicate,
  /// over budget, or an uncharged record for a property that takes no more
  /// verdicts. A fleet worker's
  /// book overrides it to ship the record instead; it may end the lease
  /// (the consumer then stops settling it).
  virtual bool merge_locked(std::size_t p, std::size_t q, const Schema& schema,
                            const SchemaRecord& record, UnitOutcome outcome, bool charged,
                            bool resumed = false);
  /// True iff the schema at `cursor` is in `p`'s ledger: settled already,
  /// it must be neither visited nor counted again.
  bool known_locked(std::size_t p, const std::string& cursor) const {
    return props[p].settled.contains(cursor);
  }
  /// No lease left pending or active.
  bool complete_locked() const;
  bool halted_locked() const { return closing || interrupted || timed_out; }

  /// Guards every member below and every subclass's shared state.
  std::mutex mutex;
  std::vector<Lease> leases;
  std::vector<PropertyRun> props;
  /// Run-level stops: no lease is granted once any is set.
  bool closing = false;
  bool interrupted = false;
  bool timed_out = false;

 protected:
  /// After a schema merged. `new_cut` is the chain prefix its record's cut
  /// added to the cut index (for a charged record: the cut step_schema
  /// added), or null when it added none.
  virtual void merged_locked(std::size_t p, std::size_t q, const Schema& schema,
                             const SchemaRecord& record, const std::vector<int>* new_cut);
  /// After a lease changed state (`lease` >= 0) or a property settled (-1).
  virtual void changed_locked(std::int64_t lease);
  /// Settles pending lease `lease` without a grant iff it is moot, counting
  /// its schemas; true iff it did.
  virtual bool settle_moot_locked(std::size_t lease);

  /// Consumers build schema cursors and the merge fills the ledger (dedup,
  /// journal or resume need them).
  bool keep_cursors = false;

 private:
  friend class LeaseConsumer;

  /// Seconds left of options().timeout_seconds (0 when there is none).
  double remaining_seconds() const;
  /// True iff a lease of `p` is still pending or active.
  bool open_locked(std::size_t p) const;
  void finish_locked(std::size_t p);

  const Stopwatch watch_;
  std::span<const spec::Property> properties_;
  CheckOptions options_;
  const GuardAnalysis analysis_;
  std::optional<ResumeState> resume_;
  std::unique_ptr<ProgressJournal> journal_;
  bool copy_resumed_ = false;
  /// Per property and query, built on first use (guarded by `mutex`).
  std::vector<std::vector<std::unique_ptr<QueryCone>>> cones_;
  /// Per property; all null when the run does not learn.
  std::vector<std::unique_ptr<PropertyLearning>> learning_;
  std::atomic<std::int64_t> memory_polls_{0};
};

/// One consumer of a LeaseBook: an executor's solvers (one per property,
/// built on first use and sharing the book's learning state) and the loop
/// that claims a lease, enumerates its subtree and settles every schema
/// through step_schema into the book. In-process threads, the coordinator's
/// self-solve and fleet workers all settle through it.
class LeaseConsumer {
 public:
  /// `injector` may be null.
  LeaseConsumer(LeaseBook& book, FaultInjector* injector);

  /// Claims the next lease and settles its schemas until its subtree is
  /// done, its property takes no more verdicts, the run halts or the lease
  /// is no longer active (the book's merge ended it). Folds the lease's
  /// incremental-encoding counters into its property's tally. Returns false
  /// when nothing is left to claim. On an injected worker death the lease is
  /// dropped, the property counts an aborted worker and WorkerAbortFault
  /// propagates: the consumer must retire.
  bool settle_one_lease();

 private:
  SchemaSolver& solver(std::size_t p);

  LeaseBook& book_;
  SolveHooks hooks_;
  std::vector<std::unique_ptr<SchemaSolver>> solvers_;
};

}  // namespace hv::checker

#endif  // HV_CHECKER_RUN_H
