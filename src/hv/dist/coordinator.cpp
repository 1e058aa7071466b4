#include "hv/dist/coordinator.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "hv/cert/certificate.h"
#include "hv/checker/fault.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/journal.h"
#include "hv/checker/schema_solver.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/stopwatch.h"
#include "hv/util/text.h"
#include "hv/util/version.h"

namespace hv::dist {

namespace {

using Clock = std::chrono::steady_clock;

// Longest a `next` parks in the long poll before answering "wait 0"; well
// under any peer's recv timeout.
constexpr std::chrono::milliseconds kParkBound{1000};
// Longest a self-hosted fleet waits for all its forked workers to join
// before the first grant (see fleet_forming).
constexpr std::chrono::milliseconds kFleetFormationBound{1000};

enum class LeaseState { kPending, kActive, kDone, kDropped };

struct Lease {
  std::size_t property = 0;
  std::size_t query = 0;
  checker::SubtreeTask task;
  LeaseState state = LeaseState::kPending;
  /// Cursors settled inside this subtree (resume replay, partial work of a
  /// previous holder), shipped as the skip list of the next grant. Dropped
  /// when the lease completes, so the coordinator holds cursors only for
  /// subtrees still in play; revoke_origin rebuilds it if a completed lease
  /// returns to the pool.
  std::vector<std::string> settled;
};

void complete_lease(Lease& lease) {
  lease.state = LeaseState::kDone;
  lease.settled = {};
}

// Merge state of one property: the tally and RunEnd the in-process checker
// keeps, so checker::settle_result assembles both results identically.
struct PropMerge {
  checker::PropertyTally tally;
  /// Counterexample, error, per-property budget and spot-check disagreement;
  /// the run-wide interrupt/timeout flags are filled in at assembly.
  checker::RunEnd end;
  bool stopped = false;  // counterexample or validation failure
  double seconds = 0.0;
  bool finished = false;
  /// Origin (connection serial) of the sat record that stopped this
  /// property, so a revocation knows whether the witness came from the
  /// revoked worker (-1: in-process / resume).
  int sat_origin = -1;
  /// Spot-check accounting.
  std::int64_t spot_checks = 0;
  std::int64_t spot_failures = 0;
};

// --- worker health ----------------------------------------------------------
//
// Per-label scores feed an escalating quarantine ladder. Points: a
// spot-check disagreement is an instant ban; hostile frames, chronic lease
// timeouts and reconnect churn accumulate toward a cool-down, and a label
// that keeps earning quarantines is banned for the run. The thresholds are
// deliberately coarse — the defense against a *wrong verdict* is the
// validation and spot-checking, not the score; the score only bounds how
// much time a misbehaving peer can waste.
constexpr double kSpotFailPenalty = 100.0;
constexpr double kHostilePenalty = 40.0;
constexpr double kTimeoutPenalty = 25.0;
constexpr double kChurnPenalty = 10.0;
constexpr std::int64_t kFreeRejoins = 3;  // reconnects before churn costs points
constexpr double kQuarantineScore = 40.0;
constexpr double kBanScore = 100.0;
constexpr int kQuarantinesBeforeBan = 3;

struct WorkerHealth {
  double score = 0.0;
  std::int64_t joins = 0;
  int quarantines = 0;
  Clock::time_point quarantined_until{};
  bool banned = false;
};

/// One applied record of an untrusted origin, remembered (only while
/// spot-checking is armed) so a later disagreement can revoke everything
/// that origin contributed.
struct AppliedRecord {
  std::size_t p = 0;
  std::size_t q = 0;
  std::string cursor;
  std::string verdict;
  std::int64_t length = 0;
  std::int64_t pivots = 0;
  std::int64_t fast_ops = 0;
  std::int64_t big_ops = 0;
  std::int64_t retries = 0;
};

// A settled verdict in one byte: 'p'runed, 'u'nsat, 's'at, or '?' for
// anything inconclusive.
char verdict_code(const std::string& verdict) {
  if (verdict == "pruned" || verdict == "unsat" || verdict == "sat") return verdict[0];
  return '?';
}

// Wakes a poll(2) loop from another thread: an eventfd counter, read and
// written without blocking. If eventfd(2) fails the fd stays -1, which poll
// ignores, and the loop falls back to its timeout step.
class WakeFd {
 public:
  WakeFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~WakeFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  int fd() const { return fd_; }
  void notify() const {
    const std::uint64_t one = 1;
    if (fd_ >= 0) (void)!::write(fd_, &one, sizeof one);
  }
  void drain() const {
    std::uint64_t count = 0;
    (void)!::read(fd_, &count, sizeof count);
  }

 private:
  int fd_;
};

// A connection the coordinator can push frames to; `learn` records whether
// both sides advertised the "learn" feature.
struct ConnInfo {
  Conn* conn = nullptr;
  bool learn = false;
};

struct Coord {
  const std::vector<spec::Property>* properties = nullptr;
  const DistOptions* options = nullptr;
  checker::CheckOptions check;  // normalized copy shipped to workers
  cert::Json welcome;
  /// Coordinator-side learning gate (checker::lemmas_enabled on the run's
  /// options): when off, learn frames are neither advertised nor folded.
  bool learn = false;

  std::mutex mutex;
  std::vector<Lease> leases;
  std::vector<PropMerge> props;
  /// Cross-schema learning facts folded from workers (and the resume
  /// journal), keyed by (property, query). Cuts are unsat chain prefixes;
  /// lemmas are premise-string lists deduplicated via lemma_keys. Both are
  /// shipped inside lease grants and broadcast as learn frames so every
  /// worker abandons subtrees another worker already refuted.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::vector<int>>> cuts_by_pq;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::vector<std::string>>>
      lemmas_by_pq;
  std::unordered_set<std::string> lemma_keys;
  /// Verdict dedup and conflict detection, per property: cursor ->
  /// verdict_code of everything settled (by resume replay, a worker record
  /// or an in-process solve). Makes reassignment replays idempotent and lets
  /// the handlers reject a definitive verdict that contradicts an
  /// already-settled one.
  std::vector<std::unordered_map<std::string, char>> settled;
  checker::ProgressJournal* journal = nullptr;
  /// Lease-state events (see lease_state_changed) bump the epoch and wake
  /// both kinds of waiter: `next` handlers parked on lease_cv and the
  /// accept loop, whose poll set holds accept_wake.
  std::uint64_t lease_epoch = 0;
  std::condition_variable lease_cv;
  WakeFd accept_wake;
  /// Self-hosted fleets only: grants wait until every forked worker joined
  /// or this time passes. Left at the epoch otherwise.
  Clock::time_point fleet_formed_by{};
  bool closing = false;
  bool timed_out = false;
  bool interrupted = false;
  DistStats stats;
  std::vector<ConnInfo> open_conns;
  const Stopwatch* watch = nullptr;

  /// Byzantine defense: per-label health, per-origin applied-record logs
  /// (spot-check mode only) and the next connection serial.
  std::unordered_map<std::string, WorkerHealth> health;
  std::unordered_map<int, std::vector<AppliedRecord>> applied_by_origin;
  int next_origin = 0;
  /// Spot checks currently running outside the mutex; run_complete waits
  /// for zero so a pending revocation can never race the run's completion.
  int spot_inflight = 0;

  /// In-process solving (spot checks and fleet-exhausted degradation).
  /// `solve_mutex` serializes all use of the lazily built solvers/cones;
  /// never acquire it while holding `mutex` from a handler thread (the
  /// self-solve path takes solve_mutex first, then mutex per schema).
  const checker::GuardAnalysis* analysis = nullptr;
  std::mutex solve_mutex;
  std::vector<std::unique_ptr<checker::SchemaSolver>> inline_solvers;
  std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<checker::QueryCone>>
      inline_cones;
  checker::FaultInjector inline_injector{checker::FaultPlan{}};  // never armed
  std::atomic<std::int64_t> inline_memory_polls{0};
};

/// Caller holds solve_mutex.
const checker::QueryCone* inline_cone_for(Coord& c, std::size_t p, std::size_t q) {
  if (!c.check.property_directed_pruning) return nullptr;
  auto& slot = c.inline_cones[{p, q}];
  if (!slot) {
    slot = std::make_unique<checker::QueryCone>(*c.analysis, (*c.properties)[p].queries[q]);
  }
  return slot.get();
}

/// Caller holds solve_mutex. The coordinator's solvers never learn: the
/// lemma pool is worker-facing state, and a spot check must reproduce an
/// honest worker's verdict, which learning cannot change, only accelerate.
checker::SchemaSolver& inline_solver_for(Coord& c, std::size_t p) {
  if (c.inline_solvers.empty()) c.inline_solvers.resize(c.properties->size());
  auto& slot = c.inline_solvers[p];
  if (!slot) {
    checker::SolveHooks hooks;
    hooks.run_watch = c.watch;
    hooks.injector = &c.inline_injector;
    hooks.memory_polls = &c.inline_memory_polls;
    slot = std::make_unique<checker::SchemaSolver>(*c.analysis, (*c.properties)[p], c.check,
                                                   hooks);
  }
  return *slot;
}

double inline_remaining(const Coord& c) {
  return c.check.timeout_seconds > 0.0 ? c.check.timeout_seconds - c.watch->seconds() : 0.0;
}

/// Raises one label's score (caller holds the mutex); crossing the ban
/// threshold is recorded immediately so a hello can be rejected even before
/// the next quarantine evaluation.
void penalize(Coord& c, const std::string& label, double points) {
  WorkerHealth& health = c.health[label];
  health.score += points;
  if (!health.banned && health.score >= kBanScore) {
    health.banned = true;
    ++c.stats.workers_banned;
  }
}

void bump(Coord& c, std::atomic<std::int64_t> checker::ProgressCounters::* counter,
          std::int64_t delta = 1) {
  if (c.check.progress != nullptr) {
    (c.check.progress->*counter).fetch_add(delta, std::memory_order_relaxed);
  }
}

// The lease-state events a waiter can act on (caller holds the mutex): a
// lease went pending or settled, a property settled, the run is closing,
// or a spot check finished. Wakes parked `next` handlers and the accept
// loop.
void lease_state_changed(Coord& c) {
  ++c.lease_epoch;
  c.lease_cv.notify_all();
  c.accept_wake.notify();
}

// Marks a property's remaining pending leases dropped (its verdict is
// settled — counterexample, validation failure or exhausted budget — so the
// unvisited subtrees are moot). Active leases drain on their own.
void drop_pending_leases(Coord& c, std::size_t property) {
  for (Lease& lease : c.leases) {
    if (lease.property == property && lease.state == LeaseState::kPending) {
      lease.state = LeaseState::kDropped;
    }
  }
  lease_state_changed(c);
}

// Stamps the property's wall-clock when its last lease settles (caller
// holds the mutex).
void check_property_finished(Coord& c, std::size_t property) {
  PropMerge& prop = c.props[property];
  if (prop.finished) return;
  for (const Lease& lease : c.leases) {
    if (lease.property != property) continue;
    if (lease.state == LeaseState::kPending || lease.state == LeaseState::kActive) return;
  }
  prop.finished = true;
  prop.seconds = c.watch->seconds();
  bump(c, &checker::ProgressCounters::properties_done);
}

bool run_complete(const Coord& c) {
  // An in-flight spot check can still revoke the record that "finished" the
  // run (a forged sat stops its property the moment it merges); declaring
  // completion under it would race the revocation and ship a lie.
  if (c.spot_inflight > 0) return false;
  for (const Lease& lease : c.leases) {
    if (lease.state == LeaseState::kPending || lease.state == LeaseState::kActive) {
      return false;
    }
  }
  return true;
}

bool task_covers(const checker::SubtreeTask& task, const std::vector<int>& unlock_order) {
  if (task.include_extensions) {
    return unlock_order.size() >= task.prefix.size() &&
           std::equal(task.prefix.begin(), task.prefix.end(), unlock_order.begin());
  }
  return unlock_order == task.prefix;
}

// True iff a recorded subtree cut proves the whole lease moot: every schema
// under the task extends task.prefix, so a cut that is a prefix of
// task.prefix refutes all of them (a *longer* cut only covers part of the
// subtree and is handled by the worker's local skip instead).
bool cut_covers_task(const std::vector<int>& cut, const checker::SubtreeTask& task) {
  return cut.size() <= task.prefix.size() &&
         std::equal(cut.begin(), cut.end(), task.prefix.begin());
}

// Folds one subtree cut into the coordinator (caller holds the mutex).
// Returns true iff the cut is new. The cut itself is not journaled here —
// it rides on the unsat record of the schema that produced it — but every
// still-pending lease it fully covers is settled without ever being
// granted: the subtree is proven unsat wholesale.
bool fold_cut(Coord& c, std::size_t p, std::size_t q, std::vector<int> prefix) {
  std::vector<std::vector<int>>& cuts = c.cuts_by_pq[{p, q}];
  for (const std::vector<int>& existing : cuts) {
    if (existing == prefix) return false;
  }
  for (Lease& lease : c.leases) {
    if (lease.property != p || lease.query != q) continue;
    if (lease.state != LeaseState::kPending) continue;
    if (!cut_covers_task(prefix, lease.task)) continue;
    complete_lease(lease);
  }
  check_property_finished(c, p);
  lease_state_changed(c);
  cuts.push_back(std::move(prefix));
  return true;
}

// Applies one settled verdict to the merge state (caller holds the mutex).
// `resumed` distinguishes journal replay from live records; `origin` is the
// reporting connection's serial (-1: resume replay or in-process solve) and
// feeds the revocation log while spot-checking is armed. Returns false iff
// the cursor was already settled (duplicate after a reassignment).
bool apply_record(Coord& c, std::size_t p, std::size_t q, const checker::Schema& schema,
                  const std::string& cursor, const std::string& verdict, std::int64_t length,
                  std::int64_t pivots, std::int64_t cut, std::int64_t fast_ops,
                  std::int64_t big_ops, std::int64_t retries, const std::string& note,
                  bool resumed, bool journal_this, int origin = -1) {
  const std::vector<spec::Property>& properties = *c.properties;
  PropMerge& prop = c.props[p];
  // A settled property wants no more verdicts: in-flight records from a
  // worker that has not yet seen its abandon frame are dropped, keeping the
  // counters identical to an in-process run that stopped enumerating there.
  if (prop.stopped || prop.end.budget_exhausted) return false;
  if (!c.settled[p].emplace(cursor, verdict_code(verdict)).second) return false;
  for (Lease& lease : c.leases) {
    if (lease.property == p && lease.query == q && task_covers(lease.task, schema.unlock_order)) {
      if (lease.state != LeaseState::kDone) lease.settled.push_back(cursor);
      break;  // subtrees are disjoint
    }
  }
  if (origin >= 0 && c.options->spot_check_rate > 0.0) {
    c.applied_by_origin[origin].push_back(
        {p, q, cursor, verdict, length, pivots, fast_ops, big_ops, retries});
  }
  ++prop.tally.enumerated;
  bump(c, &checker::ProgressCounters::enumerated);
  prop.tally.retries += retries;
  if (resumed) {
    ++prop.tally.resumed;
    bump(c, &checker::ProgressCounters::resumed);
  }
  if (verdict == "pruned") {
    ++prop.tally.pruned;
    bump(c, &checker::ProgressCounters::pruned);
    if (c.check.certify) prop.tally.pruned_schemas.push_back({q, schema});
  } else if (verdict == "unsat" || verdict == "sat") {
    ++prop.tally.checked;
    bump(c, &checker::ProgressCounters::solved);
    prop.tally.total_length += length;
    prop.tally.pivots += pivots;
    prop.tally.rational_fast_ops += fast_ops;
    prop.tally.rational_big_ops += big_ops;
  } else {  // "unknown"
    ++prop.tally.unknown;
    bump(c, &checker::ProgressCounters::unknown);
    if (prop.tally.degrade_note.empty()) {
      prop.tally.degrade_note = resumed ? "schema degraded to unknown (resumed): " + note
                                        : "schema degraded to unknown: " + note;
    }
  }
  if (journal_this) {
    checker::journal_append(c.journal, properties[p].name, cursor, verdict, length, pivots, note,
                            cut);
  }
  // The schema budget is per property, exactly like an in-process run.
  if (!prop.end.budget_exhausted && !prop.stopped &&
      prop.tally.enumerated >= c.check.enumeration.max_schemas) {
    prop.end.budget_exhausted = true;
    drop_pending_leases(c, p);
    check_property_finished(c, p);
  }
  return true;
}

// --- verdict spot-checking --------------------------------------------------

/// Deterministic content-based sampling: the same (cursor, seed) pair is
/// always sampled or never, independent of arrival order, so a lying worker
/// cannot learn which of its records escape scrutiny by replaying the run.
/// Sat claims are always re-checked — a single forged witness flips the
/// headline verdict.
bool spot_sampled(const Coord& c, const std::string& cursor, const std::string& verdict) {
  const double rate = c.options->spot_check_rate;
  if (rate <= 0.0) return false;
  if (verdict == "unknown") return false;  // inconclusive either way
  if (verdict == "sat" || rate >= 1.0) return true;
  std::uint64_t h = 1469598103934665603ull ^ c.options->spot_check_seed;
  for (const char ch : cursor) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

/// Re-solves one reported schema in-process and compares. Returns an empty
/// string on agreement (or an inconclusive re-solve — honest watchdog
/// nondeterminism must not cost anyone a connection), else a description of
/// the disagreement. Call WITHOUT the coordinator mutex: the solve can take
/// as long as any schema takes.
std::string spot_disagreement(Coord& c, std::size_t p, std::size_t q,
                              const checker::Schema& schema, const std::string& verdict) {
  std::lock_guard<std::mutex> solve_lock(c.solve_mutex);
  const checker::QueryCone* cone = inline_cone_for(c, p, q);
  if (verdict == "pruned") {
    if (cone == nullptr) return "pruned a schema with property-directed pruning disabled";
    return cone->schema_feasible(schema) ? "pruned a cone-feasible schema" : std::string();
  }
  if (cone != nullptr && !cone->schema_feasible(schema)) {
    return "solved ('" + verdict + "') a schema the coordinator's cone statically prunes";
  }
  const checker::UnitOutcome outcome =
      inline_solver_for(c, p).solve(q, schema, cone, inline_remaining(c));
  if (outcome.kind == checker::UnitOutcome::Kind::kUnsat && verdict == "sat") {
    return "reported sat where the coordinator re-solves unsat";
  }
  if (outcome.kind == checker::UnitOutcome::Kind::kSat && verdict == "unsat") {
    return "reported unsat where the coordinator re-solves sat";
  }
  return std::string();
}

/// Recomputes a lease's skip list from the settled set. Scans every settled
/// cursor, so only the rare revocation path calls it.
void rebuild_skip_list(Coord& c, Lease& lease) {
  lease.settled.clear();
  for (const auto& entry : c.settled[lease.property]) {
    std::size_t q = 0;
    checker::Schema schema;
    if (checker::parse_schema_cursor(entry.first, &q, &schema) && q == lease.query &&
        task_covers(lease.task, schema.unlock_order)) {
      lease.settled.push_back(entry.first);
    }
  }
}

/// A spot check disagreed: nothing `origin` ever reported can be trusted.
/// Bans the label, reverses every merge contribution of that origin
/// (journaling compensating "revoked" records so --resume re-solves them),
/// and re-pends every lease the connection touched so honest workers — or
/// the coordinator itself, once the fleet is exhausted — re-solve the lot.
/// Caller holds the mutex.
void revoke_origin(Coord& c, int origin, const std::string& label,
                   const std::unordered_set<std::int64_t>& lease_history, std::size_t p_hint,
                   const std::string& cursor, const std::string& why) {
  ++c.stats.spot_check_failures;
  ++c.props[p_hint].spot_failures;
  penalize(c, label, kSpotFailPenalty);
  if (c.props[p_hint].end.disagreement.empty()) {
    c.props[p_hint].end.disagreement = "worker_disagreement: worker '" + label + "' " + why +
                                       " at cursor " + cursor +
                                       "; its records were revoked and re-solved";
  }
  const std::vector<spec::Property>& properties = *c.properties;
  std::unordered_set<std::size_t> touched;
  const auto it = c.applied_by_origin.find(origin);
  if (it != c.applied_by_origin.end()) {
    for (const AppliedRecord& rec : it->second) {
      if (c.settled[rec.p].erase(rec.cursor) == 0) continue;
      PropMerge& prop = c.props[rec.p];
      --prop.tally.enumerated;
      bump(c, &checker::ProgressCounters::enumerated, -1);
      prop.tally.retries -= rec.retries;
      if (rec.verdict == "pruned") {
        --prop.tally.pruned;
        bump(c, &checker::ProgressCounters::pruned, -1);
      } else if (rec.verdict == "unsat" || rec.verdict == "sat") {
        --prop.tally.checked;
        bump(c, &checker::ProgressCounters::solved, -1);
        prop.tally.total_length -= rec.length;
        prop.tally.pivots -= rec.pivots;
        prop.tally.rational_fast_ops -= rec.fast_ops;
        prop.tally.rational_big_ops -= rec.big_ops;
      } else {
        --prop.tally.unknown;
        bump(c, &checker::ProgressCounters::unknown, -1);
      }
      if (rec.verdict == "sat" && prop.sat_origin == origin) {
        // The revoked worker's witness was what stopped this property;
        // un-stop it so coverage completes honestly.
        prop.stopped = false;
        prop.end.counterexample.reset();
        prop.end.error_note.clear();
        prop.sat_origin = -1;
      }
      checker::journal_append(c.journal, properties[rec.p].name, rec.cursor, "revoked");
      touched.insert(rec.p);
    }
    c.applied_by_origin.erase(it);
  }
  for (const std::int64_t id : lease_history) {
    Lease& lease = c.leases[static_cast<std::size_t>(id)];
    if (lease.state == LeaseState::kActive || lease.state == LeaseState::kDone) {
      lease.state = LeaseState::kPending;
      ++c.stats.leases_reassigned;
    }
    touched.insert(lease.property);
  }
  for (const std::size_t p : touched) {
    PropMerge& prop = c.props[p];
    if (prop.end.budget_exhausted && !prop.stopped &&
        prop.tally.enumerated < c.check.enumeration.max_schemas) {
      prop.end.budget_exhausted = false;
    }
    if (!prop.stopped && !prop.end.budget_exhausted) {
      for (Lease& lease : c.leases) {
        if (lease.property == p && lease.state == LeaseState::kDropped) {
          lease.state = LeaseState::kPending;
        }
      }
    }
    prop.finished = false;
    check_property_finished(c, p);
    // The revoked cursors leave the skip lists, and a completed lease that
    // returned to the pool gets its list back.
    for (Lease& lease : c.leases) {
      if (lease.property == p && lease.state == LeaseState::kPending) rebuild_skip_list(c, lease);
    }
  }
  lease_state_changed(c);
}

// True while a self-hosted fleet is still forming (caller holds the mutex).
// The first worker to join then parks instead of draining a small run
// alone while its siblings connect to a finished run and are reaped as
// stragglers.
bool fleet_forming(const Coord& c) {
  return c.stats.workers_joined < c.options->expected_workers &&
         Clock::now() < c.fleet_formed_by;
}

// Picks the pending lease to grant next, or -1 (caller holds the mutex).
// Fair share: with several live properties queued (a DAG pipeline
// multiplexing property-queries onto one fleet), first-fit would drain
// property 0's leases before touching property 1, serializing what the
// scheduler meant to interleave. The pick is the pending lease whose
// property has the fewest active leases; ties fall to the lowest lease
// index, which is exactly first-fit order within one property. A pending
// lease a recorded subtree cut covers settles here instead of being
// granted. `*work_left` is set when a lease is still pending or active.
std::int64_t pick_lease(Coord& c, bool* work_left) {
  std::vector<std::size_t> active_by_prop(c.props.size(), 0);
  for (const Lease& lease : c.leases) {
    if (lease.state == LeaseState::kActive) ++active_by_prop[lease.property];
  }
  std::int64_t grant = -1;
  std::size_t grant_active = 0;
  for (std::size_t i = 0; i < c.leases.size(); ++i) {
    Lease& lease = c.leases[i];
    if (lease.state == LeaseState::kActive) *work_left = true;
    if (lease.state != LeaseState::kPending) continue;
    const PropMerge& prop = c.props[lease.property];
    if (prop.stopped || prop.end.budget_exhausted) {
      *work_left = true;
      continue;
    }
    // A lease returned to pending (expropriation) may have been covered by a
    // subtree cut since: settle it instead of granting doomed work.
    if (c.learn) {
      const auto cit = c.cuts_by_pq.find({lease.property, lease.query});
      if (cit != c.cuts_by_pq.end() &&
          std::any_of(cit->second.begin(), cit->second.end(), [&](const std::vector<int>& cut) {
            return cut_covers_task(cut, lease.task);
          })) {
        complete_lease(lease);
        check_property_finished(c, lease.property);
        lease_state_changed(c);
        continue;
      }
    }
    *work_left = true;
    if (grant < 0 || active_by_prop[lease.property] < grant_active) {
      grant = static_cast<std::int64_t>(i);
      grant_active = active_by_prop[lease.property];
      if (grant_active == 0) break;  // an idle property: can't do better
    }
  }
  return grant;
}

// One connection's server side; runs on its own thread. `Coord` outlives
// every handler (they are joined before serve_fd returns).
void handle_connection(Coord& c, int fd) {
  Conn conn(fd, /*subject_to_chaos=*/true);
  cert::Json hello;
  if (conn.recv(&hello, 10'000) != FrameStatus::kOk) return;
  bool peer_learn = false;
  std::string label = "worker";
  try {
    if (hello.at("type").as_string() != "hello") return;
    const cert::Json* protocol = hello.find("protocol");
    if (protocol == nullptr || protocol->as_int() != kDistProtocolVersion) {
      conn.send(cert::Json::Object{
          {"type", "shutdown"},
          {"reason", "protocol mismatch (coordinator speaks " +
                         std::to_string(kDistProtocolVersion) + ")"}});
      return;
    }
    if (const cert::Json* label_field = hello.find("label")) {
      if (label_field->kind() == cert::Json::Kind::kString &&
          !label_field->as_string().empty()) {
        label = label_field->as_string();
      }
    }
    // Feature negotiation: absent/empty means a pre-upgrade worker, which
    // simply never sees a learn frame (it still solves, without lemmas).
    if (const cert::Json* features = hello.find("features")) {
      for (const cert::Json& feature : features->as_array()) {
        if (feature.kind() == cert::Json::Kind::kString &&
            feature.as_string() == "learn") {
          peer_learn = true;
        }
      }
    }
  } catch (const std::exception&) {
    return;  // mistyped hello fields: not a worker
  }
  {
    // Health gate: a banned or cooling-down label is refused before any
    // lease; a label whose score crossed the quarantine threshold starts
    // (or escalates) its cool-down here. Rejections carry a reason so the
    // worker exits with a message instead of reconnect-spinning.
    std::lock_guard<std::mutex> lock(c.mutex);
    WorkerHealth& health = c.health[label];
    ++health.joins;
    if (health.joins > kFreeRejoins) penalize(c, label, kChurnPenalty);
    std::string reason;
    if (health.banned) {
      reason = "worker '" + label + "' is banned for this run (health score " +
               format_seconds(health.score) + ")";
    } else if (Clock::now() < health.quarantined_until) {
      reason = "worker '" + label + "' is quarantined; retry after the cool-down";
    } else if (health.score >= kQuarantineScore) {
      ++health.quarantines;
      if (health.quarantines >= kQuarantinesBeforeBan) {
        health.banned = true;
        ++c.stats.workers_banned;
        reason = "worker '" + label + "' is banned for this run (quarantine ladder exhausted)";
      } else {
        ++c.stats.workers_quarantined;
        const double cool_seconds =
            c.options->lease_timeout_seconds * static_cast<double>(1 << (health.quarantines - 1));
        health.quarantined_until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cool_seconds));
        // Residual suspicion: the label may return after the cool-down, but
        // the next offense re-quarantines (longer), and the ladder ends in
        // a ban.
        health.score = kQuarantineScore / 2;
        reason = "worker '" + label + "' is quarantined for " + format_seconds(cool_seconds) +
                 "s (health score crossed " + format_seconds(kQuarantineScore) + ")";
      }
    }
    if (!reason.empty()) {
      conn.send(cert::Json::Object{{"type", "shutdown"}, {"reason", reason}});
      return;
    }
  }
  if (!conn.send(c.welcome)) return;
  const bool learn = c.learn && peer_learn;
  int origin = -1;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    origin = c.next_origin++;
    ++c.stats.workers_joined;
    c.open_conns.push_back({&conn, learn});
    bump(c, &checker::ProgressCounters::workers);
    lease_state_changed(c);  // a parked sibling may be waiting for the fleet
  }
  const std::vector<spec::Property>& properties = *c.properties;

  std::int64_t current = -1;  // lease index held by this worker
  /// Every lease ever granted on THIS connection: the trust set a record or
  /// sat frame must cite from. A late record for an expropriated lease of
  /// our own is honest (and deduplicated); a record citing anyone else's
  /// lease is hostile.
  std::unordered_set<std::int64_t> lease_history;
  // Lease id the last "abandon" frame named (one per lease is enough — the
  // worker reacts after its next streamed record).
  std::int64_t abandon_sent_for = -2;
  auto last_activity = Clock::now();
  bool clean = false;

  const auto release_current = [&] {
    if (current < 0) return;
    Lease& lease = c.leases[static_cast<std::size_t>(current)];
    if (lease.state == LeaseState::kActive) {
      lease.state = LeaseState::kPending;
      ++c.stats.leases_reassigned;
      lease_state_changed(c);
    }
    current = -1;
  };

  // A protocol violation (hostile or malformed frame) costs health points on
  // top of the connection; EOFs, torn frames and timeouts are deaths, not
  // hostility. Inline under the mutex, wrapped for the unlocked break paths.
  const auto mark_hostile_locked = [&] {
    ++c.stats.hostile_frames;
    penalize(c, label, kHostilePenalty);
  };
  const auto punish_violation = [&] {
    std::lock_guard<std::mutex> lock(c.mutex);
    mark_hostile_locked();
  };

  // The frame codec rejects garbage bytes, but a syntactically valid JSON
  // frame can still carry missing or mistyped fields (worker bug, version
  // skew, hostile peer); the throwing Json accessors below must never
  // escape this thread — that would std::terminate the whole coordinator.
  // A throw is a protocol violation: drop the connection, release the
  // lease, exactly like the explicit `break` paths.
  try {
    for (;;) {
      cert::Json msg;
      const FrameStatus status = conn.recv(&msg, 250);
      if (status == FrameStatus::kTimeout) {
        const double silent =
            std::chrono::duration<double>(Clock::now() - last_activity).count();
        std::lock_guard<std::mutex> lock(c.mutex);
        if (silent > c.options->lease_timeout_seconds) {
          // Dead or wedged worker. Expropriating a lease feeds the label's
          // health: a chronically timing-out worker ends up quarantined.
          if (current >= 0) {
            ++c.stats.lease_timeouts;
            penalize(c, label, kTimeoutPenalty);
          }
          break;
        }
        if (c.closing && current < 0) {
          conn.send(cert::Json::Object{{"type", "shutdown"}, {"reason", "run over"}});
          clean = true;
          break;
        }
        continue;
      }
      if (status == FrameStatus::kBadMagic || status == FrameStatus::kOversized ||
          status == FrameStatus::kError) {
        punish_violation();  // malformed frame, not a death
        break;
      }
      if (status != FrameStatus::kOk) break;  // EOF or torn frame
      last_activity = Clock::now();
      const cert::Json* type_field = msg.find("type");
      if (type_field == nullptr) {
        punish_violation();
        break;
      }
      const std::string& type = type_field->as_string();

      if (type == "heartbeat") continue;

      if (type == "next") {
        cert::Json reply;
        {
          std::unique_lock<std::mutex> lock(c.mutex);
          release_current();  // a worker asking again abandoned any holdover
          // Long poll: with work left but nothing grantable, park until a
          // lease-state event or the bound, then answer "wait 0" so the
          // worker re-asks at once. The bound stays well under every peer's
          // recv timeout.
          const auto park_until = Clock::now() + kParkBound;
          std::int64_t grant = -1;
          bool work_left = false;
          for (;;) {
            work_left = false;
            grant = c.closing ? -1 : pick_lease(c, &work_left);
            const bool forming = grant >= 0 && fleet_forming(c);
            if (forming) grant = -1;
            if (grant >= 0 || !work_left) break;
            const std::uint64_t seen = c.lease_epoch;
            if (!c.lease_cv.wait_until(lock,
                                       forming ? std::min(park_until, c.fleet_formed_by)
                                               : park_until,
                                       [&] { return c.lease_epoch != seen; }) &&
                Clock::now() >= park_until) {
              break;
            }
          }
          // The worker could not speak while parked; silence counts from now.
          last_activity = Clock::now();
          if (grant >= 0) {
            Lease& lease = c.leases[static_cast<std::size_t>(grant)];
            lease.state = LeaseState::kActive;
            ++c.stats.leases_granted;
            current = grant;
            lease_history.insert(grant);
            abandon_sent_for = -2;  // a regranted lease may need its own abandon
            cert::Json::Array prefix;
            for (const int g : lease.task.prefix) prefix.push_back(g);
            // Skip list: every settled cursor inside this subtree (resume
            // replay and partial work of a previous holder).
            cert::Json::Array skip(lease.settled.begin(), lease.settled.end());
            reply = cert::Json::Object{{"type", "lease"},
                                       {"lease", grant},
                                       {"property", static_cast<std::int64_t>(lease.property)},
                                       {"query", static_cast<std::int64_t>(lease.query)},
                                       {"prefix", std::move(prefix)},
                                       {"extensions", lease.task.include_extensions},
                                       {"skip", std::move(skip)}};
            // Learning payload: everything known about this (property, query)
            // rides along so a late-joining worker starts with the fleet's
            // accumulated cuts and lemmas.
            if (learn) {
              const std::pair<std::size_t, std::size_t> pq{lease.property, lease.query};
              cert::Json::Array cuts;
              if (const auto cit = c.cuts_by_pq.find(pq); cit != c.cuts_by_pq.end()) {
                for (const std::vector<int>& cut : cit->second) {
                  cert::Json::Array cut_prefix;
                  for (const int g : cut) cut_prefix.push_back(g);
                  cuts.push_back(cert::Json::Object{
                      {"q", static_cast<std::int64_t>(lease.query)},
                      {"prefix", std::move(cut_prefix)}});
                }
              }
              cert::Json::Array lemmas;
              if (const auto lit = c.lemmas_by_pq.find(pq); lit != c.lemmas_by_pq.end()) {
                for (const std::vector<std::string>& premises : lit->second) {
                  cert::Json::Array strings;
                  for (const std::string& premise : premises) strings.push_back(premise);
                  lemmas.push_back(cert::Json::Object{
                      {"q", static_cast<std::int64_t>(lease.query)},
                      {"premises", std::move(strings)}});
                }
              }
              if (!cuts.empty()) reply.set("cuts", std::move(cuts));
              if (!lemmas.empty()) reply.set("lemmas", std::move(lemmas));
            }
          } else if (work_left) {
            reply = cert::Json::Object{{"type", "wait"}, {"ms", 0}};
          } else {
            reply = cert::Json::Object{{"type", "shutdown"}, {"reason", "run over"}};
            clean = true;
          }
        }
        if (!conn.send(reply)) break;
        if (clean) break;
        continue;
      }

      if (type == "record") {
        std::size_t q = 0;
        checker::Schema schema;
        const std::string& cursor = msg.at("cursor").as_string();
        const auto p = static_cast<std::size_t>(msg.at("property").as_int());
        if (p >= c.props.size() || !checker::parse_schema_cursor(cursor, &q, &schema) ||
            q >= properties[p].queries.size()) {
          punish_violation();
          break;
        }
        const std::int64_t cited = msg.at("lease").as_int();
        const std::string verdict = msg.at("verdict").as_string();
        bool abandon = false;
        bool hostile = false;
        bool applied = false;
        {
          std::lock_guard<std::mutex> lock(c.mutex);
          // Trust gate: the frame must carry a known verdict, cite a lease
          // granted on THIS connection whose (property, query) match and
          // whose subtree covers the cursor, and must not contradict an
          // already-settled definitive verdict. (A late record for our own
          // expropriated lease is honest — dedup absorbs it.)
          const Lease* cited_lease =
              cited >= 0 && cited < static_cast<std::int64_t>(c.leases.size()) &&
                      lease_history.count(cited) > 0
                  ? &c.leases[static_cast<std::size_t>(cited)]
                  : nullptr;
          if (verdict != "pruned" && verdict != "unsat" && verdict != "unknown") {
            hostile = true;
          } else if (cited_lease == nullptr || cited_lease->property != p ||
                     cited_lease->query != q ||
                     !task_covers(cited_lease->task, schema.unlock_order)) {
            hostile = true;
          } else if (const auto settled_it = c.settled[p].find(cursor);
                     settled_it != c.settled[p].end() && verdict_code(verdict) != '?' &&
                     settled_it->second != '?' && settled_it->second != verdict_code(verdict)) {
            hostile = true;  // conflicting duplicate: someone is lying
          }
          if (hostile) {
            mark_hostile_locked();
          } else {
            // "fast"/"big" are read tolerantly: pruned/unknown records (and
            // records from pre-upgrade workers) simply omit them.
            const cert::Json* fast_field = msg.find("fast");
            const cert::Json* big_field = msg.find("big");
            const cert::Json* cut_field = msg.find("cut");
            const std::int64_t cut = cut_field != nullptr ? cut_field->as_int() : -1;
            applied = apply_record(c, p, q, schema, cursor, verdict, msg.at("length").as_int(),
                                   msg.at("pivots").as_int(), cut,
                                   fast_field != nullptr ? fast_field->as_int() : 0,
                                   big_field != nullptr ? big_field->as_int() : 0,
                                   msg.at("retries").as_int(), msg.at("note").as_string(),
                                   /*resumed=*/false,
                                   /*journal_this=*/true, origin);
            if (applied && c.check.certify && verdict == "unsat") {
              checker::SchemaEvidence item;
              item.query_index = q;
              item.schema = schema;
              item.sat = false;
              if (const cert::Json* proof = msg.find("proof")) {
                item.proof = std::shared_ptr<const smt::proof::Node>(
                    cert::proof_from_json(*proof).release());
              }
              c.props[p].tally.evidence.push_back(std::move(item));
            }
            // A record carrying a subtree cut proves every schema extending
            // the chain prefix unsat: fold it (settling covered pending
            // leases) and broadcast a fresh cut to the other learn-capable
            // workers so they skip the doomed subtrees too.
            if (learn && verdict == "unsat" && cut >= 0 &&
                cut <= static_cast<std::int64_t>(schema.unlock_order.size())) {
              std::vector<int> prefix(schema.unlock_order.begin(),
                                      schema.unlock_order.begin() + cut);
              if (fold_cut(c, p, q, prefix)) {
                cert::Json::Array prefix_json;
                for (int g : prefix) prefix_json.push_back(static_cast<std::int64_t>(g));
                const cert::Json frame = cert::Json::Object{
                    {"type", "learn"},
                    {"p", static_cast<std::int64_t>(p)},
                    {"cuts",
                     cert::Json::Array{cert::Json::Object{
                         {"q", static_cast<std::int64_t>(q)},
                         {"prefix", std::move(prefix_json)}}}}};
                for (const ConnInfo& info : c.open_conns) {
                  if (info.learn && info.conn != &conn) info.conn->send(frame);
                }
              }
            }
            // Tell the worker to stop solving a subtree nobody wants: its
            // lease was expropriated, or the property is already settled
            // (first witness, exhausted budget).
            abandon = cited != current || c.props[p].stopped || c.props[p].end.budget_exhausted;
          }
        }
        if (hostile) break;
        if (applied && spot_sampled(c, cursor, verdict)) {
          {
            std::lock_guard<std::mutex> lock(c.mutex);
            ++c.stats.spot_checks;
            ++c.props[p].spot_checks;
            ++c.spot_inflight;  // holds run_complete open until the verdict
          }
          // Re-solve WITHOUT the coordinator mutex — the run keeps merging
          // other workers' records while this one is audited.
          const std::string why = spot_disagreement(c, p, q, schema, verdict);
          bool lying = false;
          {
            std::lock_guard<std::mutex> lock(c.mutex);
            --c.spot_inflight;
            lease_state_changed(c);  // run_complete waits for spot checks
            lying = !why.empty();
            if (lying) revoke_origin(c, origin, label, lease_history, p, cursor, why);
          }
          if (lying) break;  // the lying connection dies with its records
        }
        if (abandon && abandon_sent_for != cited) {
          abandon_sent_for = cited;
          if (!conn.send(cert::Json::Object{{"type", "abandon"}, {"lease", cited}})) break;
        }
        continue;
      }

      if (type == "sat") {
        std::size_t q = 0;
        checker::Schema schema;
        const std::string& cursor = msg.at("cursor").as_string();
        const auto p = static_cast<std::size_t>(msg.at("property").as_int());
        if (p >= c.props.size() || !checker::parse_schema_cursor(cursor, &q, &schema) ||
            q >= properties[p].queries.size()) {
          punish_violation();
          break;
        }
        const std::int64_t cited = msg.at("lease").as_int();
        bool hostile = false;
        bool applied = false;
        {
          std::lock_guard<std::mutex> lock(c.mutex);
          // Same trust gate as record frames. A sat frame is the single
          // highest-leverage lie a worker can tell — it used to be applied
          // unconditionally; now a forged witness for a never-granted or
          // foreign lease costs the connection instead of the verdict.
          const Lease* cited_lease =
              cited >= 0 && cited < static_cast<std::int64_t>(c.leases.size()) &&
                      lease_history.count(cited) > 0
                  ? &c.leases[static_cast<std::size_t>(cited)]
                  : nullptr;
          if (cited_lease == nullptr || cited_lease->property != p ||
              cited_lease->query != q ||
              !task_covers(cited_lease->task, schema.unlock_order)) {
            hostile = true;
          } else if (const auto settled_it = c.settled[p].find(cursor);
                     settled_it != c.settled[p].end() && settled_it->second != 's' &&
                     settled_it->second != '?') {
            hostile = true;  // this cursor already settled definitively non-sat
          }
          if (hostile) {
            mark_hostile_locked();
          } else {
            const cert::Json* sat_fast = msg.find("fast");
            const cert::Json* sat_big = msg.find("big");
            applied = apply_record(c, p, q, schema, cursor, "sat", msg.at("length").as_int(),
                                   msg.at("pivots").as_int(), /*cut=*/-1,
                                   sat_fast != nullptr ? sat_fast->as_int() : 0,
                                   sat_big != nullptr ? sat_big->as_int() : 0,
                                   msg.at("retries").as_int(), std::string(),
                                   /*resumed=*/false, /*journal_this=*/true, origin);
            if (applied) {
              PropMerge& prop = c.props[p];
              prop.sat_origin = origin;
              if (c.check.certify) {
                checker::SchemaEvidence item;
                item.query_index = q;
                item.schema = schema;
                item.sat = true;
                if (const cert::Json* model = msg.find("model")) {
                  item.model =
                      std::make_shared<const std::vector<std::pair<std::string, BigInt>>>(
                          model_values_from_json(*model));
                }
                prop.tally.evidence.push_back(std::move(item));
              }
              const std::string& validation_error = msg.at("validation_error").as_string();
              if (!validation_error.empty()) {
                if (prop.end.error_note.empty()) {
                  prop.end.error_note =
                      "internal: counterexample failed replay validation: " + validation_error;
                }
              } else if (const cert::Json* cex = msg.find("counterexample");
                         cex != nullptr && !prop.end.counterexample) {
                prop.end.counterexample = counterexample_from_json(*cex);
              }
              prop.stopped = true;  // first witness wins; stop leasing this property
              drop_pending_leases(c, p);
              check_property_finished(c, p);
            }
          }
        }
        if (hostile) break;
        if (applied && spot_sampled(c, cursor, "sat")) {
          {
            std::lock_guard<std::mutex> lock(c.mutex);
            ++c.stats.spot_checks;
            ++c.props[p].spot_checks;
            ++c.spot_inflight;  // a forged sat must not win the completion race
          }
          const std::string why = spot_disagreement(c, p, q, schema, "sat");
          bool lying = false;
          {
            std::lock_guard<std::mutex> lock(c.mutex);
            --c.spot_inflight;
            lease_state_changed(c);  // run_complete waits for spot checks
            lying = !why.empty();
            if (lying) revoke_origin(c, origin, label, lease_history, p, cursor, why);
          }
          if (lying) break;
        }
        continue;
      }

      if (type == "learn") {
        // Cross-schema learning facts from this worker. Fold them (deduped)
        // into the coordinator's pools, journal new cuts, settle pending
        // leases a cut fully covers, and broadcast fresh facts to every
        // other learn-capable worker so the whole fleet abandons doomed
        // subtrees. Silently ignored when this run does not learn.
        if (!learn) continue;
        const auto p = static_cast<std::size_t>(msg.at("p").as_int());
        if (p >= c.props.size()) {
          punish_violation();
          break;
        }
        cert::Json::Array fresh_cuts;
        cert::Json::Array fresh_lemmas;
        std::lock_guard<std::mutex> lock(c.mutex);
        if (const cert::Json* cuts = msg.find("cuts")) {
          for (const cert::Json& entry : cuts->as_array()) {
            const auto q = static_cast<std::size_t>(entry.at("q").as_int());
            if (q >= properties[p].queries.size()) continue;
            std::vector<int> prefix;
            for (const cert::Json& g : entry.at("prefix").as_array()) {
              prefix.push_back(static_cast<int>(g.as_int()));
            }
            if (fold_cut(c, p, q, prefix)) fresh_cuts.push_back(entry);
          }
        }
        if (const cert::Json* lemmas = msg.find("lemmas")) {
          for (const cert::Json& entry : lemmas->as_array()) {
            const auto q = static_cast<std::size_t>(entry.at("q").as_int());
            if (q >= properties[p].queries.size()) continue;
            std::vector<std::string> premises;
            std::string key = std::to_string(p) + '|' + std::to_string(q);
            for (const cert::Json& premise : entry.at("premises").as_array()) {
              premises.push_back(premise.as_string());
              key += '\x1f';
              key += premises.back();
            }
            if (premises.empty() || !c.lemma_keys.insert(key).second) continue;
            c.lemmas_by_pq[{p, q}].push_back(std::move(premises));
            fresh_lemmas.push_back(entry);
          }
        }
        if (!fresh_cuts.empty() || !fresh_lemmas.empty()) {
          cert::Json frame = cert::Json::Object{
              {"type", "learn"}, {"p", static_cast<std::int64_t>(p)}};
          if (!fresh_cuts.empty()) frame.set("cuts", std::move(fresh_cuts));
          if (!fresh_lemmas.empty()) frame.set("lemmas", std::move(fresh_lemmas));
          for (const ConnInfo& info : c.open_conns) {
            if (info.learn && info.conn != &conn) info.conn->send(frame);
          }
        }
        continue;
      }

      if (type == "lease_done") {
        const std::int64_t id = msg.at("lease").as_int();
        std::lock_guard<std::mutex> lock(c.mutex);
        if (id == current && id >= 0) {
          Lease& lease = c.leases[static_cast<std::size_t>(id)];
          if (lease.state == LeaseState::kActive) complete_lease(lease);
          if (const cert::Json* stats = msg.find("stats")) {
            checker::IncrementalStats delta;
            delta.segments_pushed = stats->at("segments_pushed").as_int();
            delta.segments_popped = stats->at("segments_popped").as_int();
            delta.segments_reused = stats->at("segments_reused").as_int();
            delta.schemas_encoded = stats->at("schemas_encoded").as_int();
            c.props[lease.property].tally.incremental += delta;
          }
          // Learning counters, read tolerantly (pre-upgrade workers omit
          // them). Cut counts only cover subtrees a worker enumerated past —
          // subtrees never granted thanks to a cut are not enumerated at
          // all, so the distributed count is a documented undercount.
          PropMerge& prop = c.props[lease.property];
          if (const cert::Json* cut = msg.find("cut")) {
            prop.tally.cut += cut->as_int();
            bump(c, &checker::ProgressCounters::cut, cut->as_int());
          }
          if (const cert::Json* hits = msg.find("hits")) prop.tally.lemma_hits += hits->as_int();
          if (const cert::Json* learned = msg.find("learned")) {
            prop.tally.lemmas_learned += learned->as_int();
          }
          current = -1;
          check_property_finished(c, lease.property);
          lease_state_changed(c);
        }
        continue;
      }

      punish_violation();
      break;  // unknown message: protocol violation, drop the connection
    }
  } catch (const std::exception&) {
    // Malformed message from a peer that passed the handshake; fall through
    // to the cleanup below — this worker costs only its lease (plus health
    // points: malformed frames feed the quarantine ladder).
    punish_violation();
  }

  {
    std::lock_guard<std::mutex> lock(c.mutex);
    release_current();
    if (!clean) ++c.stats.workers_lost;
    const auto it = std::find_if(c.open_conns.begin(), c.open_conns.end(),
                                 [&](const ConnInfo& info) { return info.conn == &conn; });
    if (it != c.open_conns.end()) {
      c.open_conns.erase(it);
      bump(c, &checker::ProgressCounters::workers, -1);
    }
  }
  conn.close();
}

// Graceful degradation: claims ONE pending lease and solves it on the
// accept-loop thread, exactly like a worker would (same enumeration, cone
// pruning, solver and budget merging — apply_record dedups against anything
// already settled). Called only when the fleet is exhausted; one lease at a
// time so the loop re-checks for fresh connections, cancellation and the
// global timeout between subtrees. Returns false when nothing is grantable.
bool self_solve_one_lease(Coord& c) {
  std::int64_t grant = -1;
  std::size_t p = 0;
  std::size_t q = 0;
  checker::SubtreeTask task;
  {
    // With no connection open no lease is active, so the fair-share pick is
    // plain first-fit here.
    std::lock_guard<std::mutex> lock(c.mutex);
    bool work_left = false;
    grant = pick_lease(c, &work_left);
    if (grant < 0) return false;
    Lease& lease = c.leases[static_cast<std::size_t>(grant)];
    lease.state = LeaseState::kActive;
    ++c.stats.leases_granted;
    ++c.stats.leases_self_solved;
    p = lease.property;
    q = lease.query;
    task = lease.task;
  }
  const std::vector<spec::Property>& properties = *c.properties;
  bool bail = false;  // cancel/timeout/abort: the lease goes back to pending
  {
    std::lock_guard<std::mutex> solve_lock(c.solve_mutex);
    const checker::QueryCone* cone = inline_cone_for(c, p, q);
    checker::SchemaSolver& solver = inline_solver_for(c, p);
    const int cut_count = static_cast<int>(properties[p].queries[q].cuts.size());
    // The global schema budget is enforced as records merge, like workers.
    checker::EnumerationOptions enumeration = c.check.enumeration;
    enumeration.max_schemas = std::numeric_limits<std::int64_t>::max();
    enumerate_schemas_under(
        *c.analysis, task, cut_count, enumeration, [&](const checker::Schema& schema) {
          {
            std::lock_guard<std::mutex> lock(c.mutex);
            if (c.props[p].stopped || c.props[p].end.budget_exhausted) return false;
          }
          if (c.check.cancel != nullptr && c.check.cancel->load(std::memory_order_relaxed)) {
            bail = true;
            return false;
          }
          if (c.check.timeout_seconds > 0.0 && c.watch->seconds() > c.check.timeout_seconds) {
            bail = true;
            return false;
          }
          const std::string cursor = checker::schema_cursor(q, schema);
          if (cone != nullptr && !cone->schema_feasible(schema)) {
            std::lock_guard<std::mutex> lock(c.mutex);
            apply_record(c, p, q, schema, cursor, "pruned", 0, 0, /*cut=*/-1, 0, 0, 0,
                         std::string(), /*resumed=*/false, /*journal_this=*/true);
            return true;
          }
          {
            // Skip without counting anything a worker already settled.
            std::lock_guard<std::mutex> lock(c.mutex);
            if (c.settled[p].count(cursor) > 0) {
              return true;
            }
          }
          checker::UnitOutcome outcome = solver.solve(q, schema, cone, inline_remaining(c));
          std::lock_guard<std::mutex> lock(c.mutex);
          switch (outcome.kind) {
            case checker::UnitOutcome::Kind::kAborted:
            case checker::UnitOutcome::Kind::kInterrupted:
              bail = true;
              return false;
            case checker::UnitOutcome::Kind::kUnknown:
              apply_record(c, p, q, schema, cursor, "unknown", 0, 0, /*cut=*/-1, 0, 0,
                           outcome.retries, outcome.note, /*resumed=*/false,
                           /*journal_this=*/true);
              return true;
            case checker::UnitOutcome::Kind::kUnsat:
              if (apply_record(c, p, q, schema, cursor, "unsat", outcome.length,
                               outcome.pivots, /*cut=*/-1, outcome.rational_fast_ops,
                               outcome.rational_big_ops, outcome.retries, std::string(),
                               /*resumed=*/false, /*journal_this=*/true) &&
                  c.check.certify) {
                checker::SchemaEvidence item;
                item.query_index = q;
                item.schema = schema;
                item.sat = false;
                item.proof = outcome.proof;
                c.props[p].tally.evidence.push_back(std::move(item));
              }
              return true;
            case checker::UnitOutcome::Kind::kSat:
              if (apply_record(c, p, q, schema, cursor, "sat", outcome.length, outcome.pivots,
                               /*cut=*/-1, outcome.rational_fast_ops, outcome.rational_big_ops,
                               outcome.retries, std::string(), /*resumed=*/false,
                               /*journal_this=*/true)) {
                PropMerge& prop = c.props[p];
                prop.sat_origin = -1;
                if (c.check.certify) {
                  checker::SchemaEvidence item;
                  item.query_index = q;
                  item.schema = schema;
                  item.sat = true;
                  item.model = outcome.model;
                  prop.tally.evidence.push_back(std::move(item));
                }
                if (!outcome.validation_error.empty()) {
                  if (prop.end.error_note.empty()) {
                    prop.end.error_note = "internal: counterexample failed replay validation: " +
                                          outcome.validation_error;
                  }
                } else if (outcome.counterexample && !prop.end.counterexample) {
                  prop.end.counterexample = std::move(outcome.counterexample);
                }
                prop.stopped = true;
                drop_pending_leases(c, p);
                check_property_finished(c, p);
              }
              return false;  // the property is settled (or a dup raced us)
          }
          return true;
        });
  }
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    Lease& lease = c.leases[static_cast<std::size_t>(grant)];
    if (lease.state == LeaseState::kActive) {
      if (bail) {
        lease.state = LeaseState::kPending;
      } else {
        complete_lease(lease);
      }
    }
    check_property_finished(c, lease.property);
    lease_state_changed(c);
  }
  return true;
}

}  // namespace

std::vector<checker::PropertyResult> serve_fd(int listen_fd, const std::string& model_text,
                                              const std::vector<PropertySpec>& specs,
                                              const DistOptions& options, DistStats* stats) {
  const Stopwatch watch;
  Coord c;
  c.options = &options;
  c.watch = &watch;
  c.check = options.check;
  if (c.check.certify) c.check.incremental = true;
  if (c.check.certify && !c.check.resume_path.empty()) {
    ::close(listen_fd);
    throw InvalidArgument(
        "checker: resume is incompatible with certify (resumed schemas carry no proofs)");
  }
  if (c.check.certify && options.spot_check_rate > 0.0) {
    ::close(listen_fd);
    throw InvalidArgument(
        "dist: --spot-check-rate is redundant under --certify (the audit re-validates every "
        "verdict offline); drop one of the two");
  }

  const ta::ThresholdAutomaton ta = ta::parse_ta(model_text).one_round_reduction();
  const std::vector<spec::Property> properties = resolve_properties(ta, specs);
  c.properties = &properties;
  const std::string model_hash = checker::model_content_hash(ta);

  std::optional<checker::ResumeState> resume;
  if (!c.check.resume_path.empty()) {
    resume = checker::load_journal(c.check.resume_path);
    checker::require_resume_compatible(*resume, ta.name(), model_hash);
  }
  std::unique_ptr<checker::ProgressJournal> journal;
  if (!c.check.journal_path.empty()) {
    journal = std::make_unique<checker::ProgressJournal>(c.check.journal_path,
                                                         checker::JournalHeader(ta.name(), model_hash),
                                                         c.check.journal_flush_batch);
  }
  c.journal = journal.get();
  const bool copy_resumed =
      journal != nullptr && c.check.journal_path != c.check.resume_path;

  // Workers enumerate their subtrees without a schema cap — the budget is
  // global, enforced here as records merge (exactly like the in-process
  // pool, which strips max_schemas from per-task enumeration).
  checker::CheckOptions wire = c.check;
  wire.enumeration.max_schemas = std::numeric_limits<std::int64_t>::max();
  // Spot-checking disables cross-schema learning: a forged lemma or subtree
  // cut from an untrusted worker would poison honest workers in ways no
  // per-record re-solve can detect.
  c.learn = checker::lemmas_enabled(c.check) && options.spot_check_rate <= 0.0;
  c.welcome = cert::Json::Object{{"type", "welcome"},
                                 {"protocol", kDistProtocolVersion},
                                 {"model_hash", model_hash},
                                 {"model_text", model_text},
                                 {"properties", specs_to_json(specs)},
                                 {"options", options_to_json(wire)},
                                 {"lease_timeout", options.lease_timeout_seconds}};
  if (c.learn) c.welcome.set("features", cert::Json::Array{"learn"});

  // Lease planning: the same DFS chain-subtree partition the in-process
  // pool uses, deep enough that the expected fleet load-balances.
  const checker::GuardAnalysis analysis(ta);
  c.analysis = &analysis;
  const std::vector<checker::SubtreeTask> tasks =
      checker::plan_tasks(analysis, options.expected_workers, c.check.enumeration);
  c.props.resize(properties.size());
  c.settled.resize(properties.size());
  if (options.self_hosted_fleet) c.fleet_formed_by = Clock::now() + kFleetFormationBound;
  for (std::size_t p = 0; p < properties.size(); ++p) {
    for (std::size_t q = 0; q < properties[p].queries.size(); ++q) {
      for (const checker::SubtreeTask& task : tasks) {
        c.leases.push_back({p, q, task, LeaseState::kPending, {}});
      }
    }
  }
  {
    // A budget of zero (or below) is exhausted before any schema settles.
    std::lock_guard<std::mutex> lock(c.mutex);
    for (std::size_t p = 0; p < properties.size(); ++p) {
      if (c.props[p].tally.enumerated >= c.check.enumeration.max_schemas) {
        c.props[p].end.budget_exhausted = true;
        drop_pending_leases(c, p);
        check_property_finished(c, p);
      }
    }
  }

  // Resume replay: settle everything the journal already decided, so leases
  // ship it as skip lists and the statistics replay exactly like the
  // in-process resume path. Sat records are re-solved (no counterexample is
  // journaled), as in-process.
  if (resume) {
    std::unordered_map<std::string, std::size_t> by_name;
    for (std::size_t p = 0; p < properties.size(); ++p) by_name[properties[p].name] = p;
    std::lock_guard<std::mutex> lock(c.mutex);
    for (const auto& [key, record] : resume->settled) {
      if (record.verdict == "sat") continue;
      const auto it = by_name.find(record.property);
      if (it == by_name.end()) continue;
      std::size_t q = 0;
      checker::Schema schema;
      if (!checker::parse_schema_cursor(record.cursor, &q, &schema)) continue;
      if (q >= properties[it->second].queries.size()) continue;
      // Journal records carry no arithmetic counters; resumed schemas
      // contribute zero to the fast/big split (documented in result.h).
      apply_record(c, it->second, q, schema, record.cursor, record.verdict, record.length,
                   record.pivots, record.cut, /*fast_ops=*/0, /*big_ops=*/0, /*retries=*/0,
                   record.note, /*resumed=*/true, /*journal_this=*/copy_resumed);
      // A cut riding on a replayed unsat record re-enters the coordinator's
      // pool: covered leases settle before ever being granted, and the cut
      // ships inside lease grants like a live one.
      if (c.learn && record.verdict == "unsat" && record.cut >= 0 &&
          record.cut <= static_cast<std::int64_t>(schema.unlock_order.size())) {
        std::vector<int> prefix(schema.unlock_order.begin(),
                                schema.unlock_order.begin() + record.cut);
        fold_cut(c, it->second, q, std::move(prefix));
      }
    }
    for (std::size_t p = 0; p < properties.size(); ++p) check_property_finished(c, p);
  }

  // Accept loop: hand every connection to its own handler thread; watch for
  // completion, cancellation and the global timeout.
  std::vector<std::thread> handlers;
  bool force_close = false;
  bool fleet_was_missing = false;
  double fleet_missing_since = 0.0;
  for (;;) {
    bool degrade = false;
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      const bool complete = run_complete(c);
      if (!complete && options.check.cancel != nullptr &&
          options.check.cancel->load(std::memory_order_relaxed)) {
        c.interrupted = true;
      } else if (!complete && options.check.timeout_seconds > 0.0 &&
                 watch.seconds() > options.check.timeout_seconds) {
        c.timed_out = true;
      }
      if (complete || c.interrupted || c.timed_out) {
        c.closing = true;
        force_close = !complete;
        lease_state_changed(c);  // parked `next` handlers answer shutdown
        break;
      }
      // Graceful degradation: once the fleet has existed and then vanished
      // (banned, quarantined, crashed, partitioned away) for longer than a
      // lease timeout, start solving pending leases in-process. One lease
      // per pass, so a worker that comes back mid-degradation is handed the
      // remainder immediately. A self-hosted (fork-local) fleet degrades
      // even with zero joins: the coordinator forked every worker it will
      // ever have, so if none survived long enough to join, waiting is a
      // hang, not patience.
      if ((c.stats.workers_joined > 0 || options.self_hosted_fleet) && c.open_conns.empty()) {
        if (!fleet_was_missing) {
          fleet_was_missing = true;
          fleet_missing_since = watch.seconds();
        } else if (watch.seconds() - fleet_missing_since > options.lease_timeout_seconds) {
          degrade = true;
        }
      } else {
        fleet_was_missing = false;
      }
    }
    if (degrade && self_solve_one_lease(c)) continue;
    // Lease-state events wake the poll through the eventfd, so completion
    // is seen at once; the 100-ms step only paces external cancellation,
    // the global timeout and the degradation clock.
    struct pollfd pfds[2] = {{listen_fd, POLLIN, 0}, {c.accept_wake.fd(), POLLIN, 0}};
    const int ready = ::poll(pfds, 2, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    if (pfds[1].revents != 0) c.accept_wake.drain();
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) continue;
    handlers.emplace_back([&c, cfd] { handle_connection(c, cfd); });
  }
  if (force_close) {
    // Cancellation/timeout: cut every worker loose; their reads fail, the
    // handlers release the leases and exit.
    std::lock_guard<std::mutex> lock(c.mutex);
    for (const ConnInfo& info : c.open_conns) info.conn->shutdown();
  }
  for (std::thread& handler : handlers) handler.join();
  ::close(listen_fd);
  if (journal) journal->flush();
  {
    // Completion stamps for properties finished by the final lease (or never
    // finished at all on a forced stop).
    std::lock_guard<std::mutex> lock(c.mutex);
    for (std::size_t p = 0; p < properties.size(); ++p) check_property_finished(c, p);
  }

  // Assemble PropertyResults exactly like the in-process checker.
  std::vector<checker::PropertyResult> results;
  results.reserve(properties.size());
  for (std::size_t p = 0; p < properties.size(); ++p) {
    PropMerge& prop = c.props[p];
    prop.end.interrupted = c.interrupted;
    prop.end.timed_out = c.timed_out;
    prop.end.covered = std::all_of(c.leases.begin(), c.leases.end(), [&](const Lease& lease) {
      return lease.property != p || lease.state == LeaseState::kDone;
    });
    results.push_back(checker::settle_result(properties[p].name, std::move(prop.tally),
                                             std::move(prop.end),
                                             prop.finished ? prop.seconds : watch.seconds(),
                                             c.check));
    results.back().schemas_spot_checked = prop.spot_checks;
    results.back().spot_check_disagreements = prop.spot_failures;
  }
  if (stats != nullptr) {
    std::lock_guard<std::mutex> lock(c.mutex);
    *stats = c.stats;
  }
  return results;
}

std::vector<checker::PropertyResult> serve(const std::string& model_text,
                                           const std::vector<PropertySpec>& specs,
                                           const std::string& listen_address,
                                           const DistOptions& options, DistStats* stats) {
  const Address address = parse_address(listen_address);
  const int listen_fd = listen_on(address);
  std::vector<checker::PropertyResult> results;
  try {
    results = serve_fd(listen_fd, model_text, specs, options, stats);
  } catch (...) {
    if (address.unix_domain) ::unlink(address.path.c_str());
    throw;
  }
  if (address.unix_domain) ::unlink(address.path.c_str());
  return results;
}

}  // namespace hv::dist
