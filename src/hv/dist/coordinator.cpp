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
  /// Re-journal resumed records (the resume file is not the one written).
  bool copy_resumed = false;
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
  std::unordered_map<int, std::vector<std::pair<std::size_t, checker::SchemaRecord>>>
      applied_by_origin;
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

// Where a settled schema comes from: a worker connection (`origin` is its
// serial, `conn` its socket), the coordinator's own solver (origin -1), or
// the resume journal.
struct Source {
  int origin = -1;
  const Conn* conn = nullptr;
  bool resumed = false;
};

// Merges one settled schema (caller holds the mutex), whoever settled it:
// dedup, tally, journal, certificate evidence, the sat witness and a subtree
// cut riding on an unsat record. `solve` carries the witness, proof and
// model. Returns false iff the schema was dropped: a duplicate after a
// reassignment, or a property that is already settled.
bool merge_schema(Coord& c, std::size_t p, std::size_t q, const checker::Schema& schema,
                  const checker::SchemaRecord& record, checker::UnitOutcome solve,
                  const Source& from) {
  PropMerge& prop = c.props[p];
  // A settled property wants no more verdicts: in-flight records from a
  // worker that has not yet seen its abandon frame are dropped, keeping the
  // counters identical to an in-process run that stopped enumerating there.
  if (prop.stopped || prop.end.budget_exhausted) return false;
  if (!c.settled[p].emplace(record.cursor, verdict_code(record.verdict)).second) return false;
  for (Lease& lease : c.leases) {
    if (lease.property == p && lease.query == q && task_covers(lease.task, schema.unlock_order)) {
      if (lease.state != LeaseState::kDone) lease.settled.push_back(record.cursor);
      break;  // subtrees are disjoint
    }
  }
  prop.tally.count(record, c.check.progress, from.resumed);
  if (!from.resumed || c.copy_resumed) {
    checker::journal_append(c.journal, (*c.properties)[p].name, record);
  }
  const bool sat = record.verdict == "sat";
  if (c.check.certify && record.verdict == "pruned") {
    prop.tally.pruned_schemas.push_back({q, schema});
  }
  if (c.check.certify && (sat || record.verdict == "unsat")) {
    prop.tally.evidence.push_back({q, schema, sat, solve.proof, solve.model});
  }
  // The schema budget is per property, exactly like an in-process run.
  if (!prop.end.budget_exhausted && prop.tally.enumerated >= c.check.enumeration.max_schemas) {
    prop.end.budget_exhausted = true;
    drop_pending_leases(c, p);
    check_property_finished(c, p);
  }
  if (sat) {
    prop.sat_origin = from.origin;
    prop.end.witness(std::move(solve.counterexample), solve.validation_error);
    prop.stopped = true;  // first witness wins; stop leasing this property
    drop_pending_leases(c, p);
    check_property_finished(c, p);
  }
  // A cut proves every schema extending the chain prefix unsat: fold it
  // (settling covered pending leases) and broadcast it to the other
  // learn-capable workers so they skip the doomed subtrees too.
  if (c.learn && record.verdict == "unsat") {
    const auto prefix = checker::cut_prefix(schema.unlock_order, record.cut);
    if (prefix && fold_cut(c, p, q, *prefix)) {
      cert::Json::Array prefix_json(prefix->begin(), prefix->end());
      const cert::Json frame = cert::Json::Object{
          {"type", "learn"},
          {"p", static_cast<std::int64_t>(p)},
          {"cuts", cert::Json::Array{cert::Json::Object{{"q", static_cast<std::int64_t>(q)},
                                                        {"prefix", std::move(prefix_json)}}}}};
      for (const ConnInfo& info : c.open_conns) {
        if (info.learn && info.conn != from.conn) info.conn->send(frame);
      }
    }
  }
  if (from.origin >= 0 && c.options->spot_check_rate > 0.0) {
    c.applied_by_origin[from.origin].emplace_back(p, record);
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

/// Re-settles one reported schema in-process (step_schema, no learning) and
/// compares. Returns an empty string on agreement (or an inconclusive
/// re-solve — honest watchdog nondeterminism must not cost anyone a
/// connection), else a description of the disagreement. Call WITHOUT the
/// coordinator mutex: the solve can take as long as any schema takes.
std::string spot_disagreement(Coord& c, std::size_t p, std::size_t q,
                              const checker::Schema& schema, const std::string& verdict) {
  std::lock_guard<std::mutex> solve_lock(c.solve_mutex);
  const checker::SchemaStep step =
      checker::step_schema(inline_solver_for(c, p), /*learning=*/nullptr,
                           inline_cone_for(c, p, q), q, schema, inline_remaining(c));
  const std::string& own = step.record.verdict;
  if (step.kind != checker::SchemaStep::Kind::kSettled || own == "unknown" || own == verdict) {
    return std::string();
  }
  return "reported '" + verdict + "' where the coordinator settles '" + own + "'";
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
    for (const auto& [p, record] : it->second) {
      if (c.settled[p].erase(record.cursor) == 0) continue;
      PropMerge& prop = c.props[p];
      prop.tally.count(record, c.check.progress, /*resumed=*/false, /*sign=*/-1);
      if (record.verdict == "sat" && prop.sat_origin == origin) {
        // The revoked worker's witness was what stopped this property;
        // un-stop it so coverage completes honestly.
        prop.stopped = false;
        prop.end.counterexample.reset();
        prop.end.error_note.clear();
        prop.sat_origin = -1;
      }
      checker::SchemaRecord revoked;
      revoked.cursor = record.cursor;
      revoked.verdict = "revoked";
      checker::journal_append(c.journal, properties[p].name, revoked);
      touched.insert(p);
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

// Server side of one worker connection; runs on its own thread. `Coord`
// outlives every session (handlers are joined before serve_fd returns).
// serve() reads frames and hands each to the handler of its type; a handler
// returns false to drop the connection.
struct Session {
  Session(Coord& coord, int fd) : c(coord), conn(fd, /*subject_to_chaos=*/true) {}

  void serve();
  bool admit();
  bool on_silence();
  bool on_next();
  bool on_verdict(const cert::Json& msg);
  bool on_learn(const cert::Json& msg);
  void on_lease_done(const cert::Json& msg);
  void release_current();
  void mark_hostile_locked();
  void punish_violation();

  Coord& c;
  Conn conn;
  std::string label = "worker";
  bool learn = false;  // both sides advertised "learn"
  int origin = -1;     // connection serial: the key of revoke_origin
  std::int64_t current = -1;  // lease index held by this worker
  /// Every lease ever granted on THIS connection: the trust set a record or
  /// sat frame must cite from. A late record for an expropriated lease of
  /// our own is honest (and deduplicated); a record citing anyone else's
  /// lease is hostile.
  std::unordered_set<std::int64_t> lease_history;
  // Lease id the last "abandon" frame named (one per lease is enough — the
  // worker reacts after its next streamed record).
  std::int64_t abandon_sent_for = -2;
  Clock::time_point last_activity = Clock::now();
  bool clean = false;
};

void Session::serve() {
  if (!admit()) return;
  // The frame codec rejects garbage bytes, but a syntactically valid JSON
  // frame can still carry missing or mistyped fields (worker bug, version
  // skew, hostile peer); the throwing Json accessors in the handlers must
  // never escape this thread — that would std::terminate the whole
  // coordinator. A throw is a protocol violation: drop the connection,
  // release the lease, exactly like a handler returning false.
  try {
    for (;;) {
      cert::Json msg;
      const FrameStatus status = conn.recv(&msg, 250);
      if (status == FrameStatus::kTimeout) {
        if (on_silence()) continue;
        break;
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
      bool keep = true;
      if (type == "next") {
        keep = on_next();
      } else if (type == "record" || type == "sat") {
        keep = on_verdict(msg);
      } else if (type == "learn") {
        keep = on_learn(msg);
      } else if (type == "lease_done") {
        on_lease_done(msg);
      } else if (type != "heartbeat") {
        punish_violation();  // unknown message: protocol violation
        keep = false;
      }
      if (!keep) break;
    }
  } catch (const std::exception&) {
    // Malformed message from a peer that passed the handshake: this worker
    // costs only its lease (plus health points: malformed frames feed the
    // quarantine ladder).
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

// The hello frame: protocol check, feature negotiation and the health gate.
// On success sends the welcome and joins the fleet; false means not a
// worker, or refused.
bool Session::admit() {
  cert::Json hello;
  if (conn.recv(&hello, 10'000) != FrameStatus::kOk) return false;
  bool peer_learn = false;
  try {
    if (hello.at("type").as_string() != "hello") return false;
    const cert::Json* protocol = hello.find("protocol");
    if (protocol == nullptr || protocol->as_int() != kDistProtocolVersion) {
      conn.send(cert::Json::Object{
          {"type", "shutdown"},
          {"reason", "protocol mismatch (coordinator speaks " +
                         std::to_string(kDistProtocolVersion) + ")"}});
      return false;
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
    return false;  // mistyped hello fields: not a worker
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
      return false;
    }
  }
  if (!conn.send(c.welcome)) return false;
  learn = c.learn && peer_learn;
  std::lock_guard<std::mutex> lock(c.mutex);
  origin = c.next_origin++;
  ++c.stats.workers_joined;
  c.open_conns.push_back({&conn, learn});
  bump(c, &checker::ProgressCounters::workers);
  lease_state_changed(c);  // a parked sibling may be waiting for the fleet
  return true;
}

// A recv timed out. False once the worker counts as dead or wedged, or the
// run is over and it holds no lease.
bool Session::on_silence() {
  const double silent = std::chrono::duration<double>(Clock::now() - last_activity).count();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (silent > c.options->lease_timeout_seconds) {
    // Expropriating a lease feeds the label's health: a chronically
    // timing-out worker ends up quarantined.
    if (current >= 0) {
      ++c.stats.lease_timeouts;
      penalize(c, label, kTimeoutPenalty);
    }
    return false;
  }
  if (c.closing && current < 0) {
    conn.send(cert::Json::Object{{"type", "shutdown"}, {"reason", "run over"}});
    clean = true;
    return false;
  }
  return true;
}

// The `next` frame: grant a lease, or answer wait / shutdown.
bool Session::on_next() {
  cert::Json reply;
  {
    std::unique_lock<std::mutex> lock(c.mutex);
    release_current();  // a worker asking again abandoned any holdover
    // Long poll: with work left but nothing grantable, park until a
    // lease-state event or the bound, then answer "wait 0" so the worker
    // re-asks at once. The bound stays well under every peer's recv
    // timeout.
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
                                 forming ? std::min(park_until, c.fleet_formed_by) : park_until,
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
      // Skip list: every settled cursor inside this subtree (resume replay
      // and partial work of a previous holder).
      reply = cert::Json::Object{
          {"type", "lease"},
          {"lease", grant},
          {"property", static_cast<std::int64_t>(lease.property)},
          {"query", static_cast<std::int64_t>(lease.query)},
          {"prefix", cert::Json::Array(lease.task.prefix.begin(), lease.task.prefix.end())},
          {"extensions", lease.task.include_extensions},
          {"skip", cert::Json::Array(lease.settled.begin(), lease.settled.end())}};
      // Learning payload: everything known about this (property, query)
      // rides along so a late-joining worker starts with the fleet's
      // accumulated cuts and lemmas.
      if (learn) {
        const std::pair<std::size_t, std::size_t> pq{lease.property, lease.query};
        cert::Json::Array cuts;
        if (const auto cit = c.cuts_by_pq.find(pq); cit != c.cuts_by_pq.end()) {
          for (const std::vector<int>& cut : cit->second) {
            cuts.push_back(
                cert::Json::Object{{"q", static_cast<std::int64_t>(lease.query)},
                                   {"prefix", cert::Json::Array(cut.begin(), cut.end())}});
          }
        }
        cert::Json::Array lemmas;
        if (const auto lit = c.lemmas_by_pq.find(pq); lit != c.lemmas_by_pq.end()) {
          for (const std::vector<std::string>& premises : lit->second) {
            lemmas.push_back(cert::Json::Object{
                {"q", static_cast<std::int64_t>(lease.query)},
                {"premises", cert::Json::Array(premises.begin(), premises.end())}});
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
  return conn.send(reply) && !clean;
}

// A `record` or `sat` frame: one schema this worker settled. It passes the
// trust gate, merges like any other settled schema, and may be spot-checked.
bool Session::on_verdict(const cert::Json& msg) {
  const bool sat = msg.at("type").as_string() == "sat";
  checker::UnitOutcome solve;
  checker::SchemaRecord record = record_from_json(msg, &solve);
  std::size_t q = 0;
  checker::Schema schema;
  const auto p = static_cast<std::size_t>(msg.at("property").as_int());
  if (p >= c.props.size() || !checker::parse_schema_cursor(record.cursor, &q, &schema) ||
      q >= (*c.properties)[p].queries.size()) {
    punish_violation();
    return false;
  }
  const std::int64_t cited = msg.at("lease").as_int();
  // Cuts count only from peers that negotiated learning.
  if (!learn) record.cut = -1;
  bool abandon = false;
  bool applied = false;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    // Trust gate: the frame must carry a known verdict, cite a lease granted
    // on THIS connection whose (property, query) match and whose subtree
    // covers the cursor, and must not contradict an already-settled
    // definitive verdict. (A late record for our own expropriated lease is
    // honest — dedup absorbs it.) A forged sat for a never-granted or
    // foreign lease thus costs the connection instead of the verdict.
    const Lease* cited_lease = cited >= 0 && cited < static_cast<std::int64_t>(c.leases.size()) &&
                                       lease_history.count(cited) > 0
                                   ? &c.leases[static_cast<std::size_t>(cited)]
                                   : nullptr;
    const char code = verdict_code(record.verdict);
    const auto settled_it = c.settled[p].find(record.cursor);
    const bool hostile =
        (!sat && record.verdict != "pruned" && record.verdict != "unsat" &&
         record.verdict != "unknown") ||
        cited_lease == nullptr || cited_lease->property != p || cited_lease->query != q ||
        !task_covers(cited_lease->task, schema.unlock_order) ||
        // conflicting duplicate: someone is lying
        (settled_it != c.settled[p].end() && code != '?' && settled_it->second != '?' &&
         settled_it->second != code);
    if (hostile) {
      mark_hostile_locked();
      return false;
    }
    applied = merge_schema(c, p, q, schema, record, std::move(solve), {origin, &conn});
    // Tell the worker to stop solving a subtree nobody wants: its lease was
    // expropriated, or the property is already settled (first witness,
    // exhausted budget). A worker stops a lease on its own after a sat.
    abandon = !sat && (cited != current || c.props[p].stopped || c.props[p].end.budget_exhausted);
  }
  if (applied && spot_sampled(c, record.cursor, record.verdict)) {
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      ++c.stats.spot_checks;
      ++c.props[p].spot_checks;
      ++c.spot_inflight;  // holds run_complete open until the verdict
    }
    // Re-solve WITHOUT the coordinator mutex — the run keeps merging other
    // workers' records while this one is audited.
    const std::string why = spot_disagreement(c, p, q, schema, record.verdict);
    std::lock_guard<std::mutex> lock(c.mutex);
    --c.spot_inflight;
    lease_state_changed(c);  // run_complete waits for spot checks
    if (!why.empty()) {
      revoke_origin(c, origin, label, lease_history, p, record.cursor, why);
      return false;  // the lying connection dies with its records
    }
  }
  if (abandon && abandon_sent_for != cited) {
    abandon_sent_for = cited;
    return conn.send(cert::Json::Object{{"type", "abandon"}, {"lease", cited}});
  }
  return true;
}

// A `learn` frame: freshly pooled Farkas lemmas from this worker. Folds them
// (deduped) into the pools shipped with grants and broadcasts the new ones
// to every other learn-capable worker. Cuts are taken only from unsat
// records, which cite a granted lease; a cuts[] field here is ignored.
// Silently ignored when this run does not learn.
bool Session::on_learn(const cert::Json& msg) {
  if (!learn) return true;
  const auto p = static_cast<std::size_t>(msg.at("p").as_int());
  if (p >= c.props.size()) {
    punish_violation();
    return false;
  }
  const cert::Json* lemmas = msg.find("lemmas");
  if (lemmas == nullptr) return true;
  cert::Json::Array fresh;
  std::lock_guard<std::mutex> lock(c.mutex);
  for (const cert::Json& entry : lemmas->as_array()) {
    const auto q = static_cast<std::size_t>(entry.at("q").as_int());
    if (q >= (*c.properties)[p].queries.size()) continue;
    std::vector<std::string> premises;
    std::string key = std::to_string(p) + '|' + std::to_string(q);
    for (const cert::Json& premise : entry.at("premises").as_array()) {
      premises.push_back(premise.as_string());
      key += '\x1f';
      key += premises.back();
    }
    if (premises.empty() || !c.lemma_keys.insert(key).second) continue;
    c.lemmas_by_pq[{p, q}].push_back(std::move(premises));
    fresh.push_back(entry);
  }
  if (!fresh.empty()) {
    const cert::Json frame = cert::Json::Object{
        {"type", "learn"}, {"p", static_cast<std::int64_t>(p)}, {"lemmas", std::move(fresh)}};
    for (const ConnInfo& info : c.open_conns) {
      if (info.learn && info.conn != &conn) info.conn->send(frame);
    }
  }
  return true;
}

// A `lease_done` frame: the worker finished (or abandoned) its lease.
void Session::on_lease_done(const cert::Json& msg) {
  const std::int64_t id = msg.at("lease").as_int();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (id != current || id < 0) return;
  Lease& lease = c.leases[static_cast<std::size_t>(id)];
  if (lease.state == LeaseState::kActive) complete_lease(lease);
  PropMerge& prop = c.props[lease.property];
  if (const cert::Json* stats = msg.find("stats")) {
    checker::IncrementalStats delta;
    delta.segments_pushed = stats->at("segments_pushed").as_int();
    delta.segments_popped = stats->at("segments_popped").as_int();
    delta.segments_reused = stats->at("segments_reused").as_int();
    delta.schemas_encoded = stats->at("schemas_encoded").as_int();
    prop.tally.incremental += delta;
  }
  // Learning counters, read tolerantly (pre-upgrade workers omit them). Cut
  // counts only cover subtrees a worker enumerated past — subtrees never
  // granted thanks to a cut are not enumerated at all, so the distributed
  // count is a documented undercount.
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

// Caller holds the mutex.
void Session::release_current() {
  if (current < 0) return;
  Lease& lease = c.leases[static_cast<std::size_t>(current)];
  if (lease.state == LeaseState::kActive) {
    lease.state = LeaseState::kPending;
    ++c.stats.leases_reassigned;
    lease_state_changed(c);
  }
  current = -1;
}

// A protocol violation (hostile or malformed frame) costs health points on
// top of the connection; EOFs, torn frames and timeouts are deaths, not
// hostility.
void Session::mark_hostile_locked() {
  ++c.stats.hostile_frames;
  penalize(c, label, kHostilePenalty);
}

void Session::punish_violation() {
  std::lock_guard<std::mutex> lock(c.mutex);
  mark_hostile_locked();
}

// Graceful degradation: claims ONE pending lease and solves it on the
// accept-loop thread through the workers' step_schema and the merge a worker
// frame takes, minus the trust gate and the spot check; its solver never
// learns. Called only when the fleet is exhausted; one lease at a time so
// the loop re-checks for fresh connections, cancellation and the global
// timeout between subtrees. Returns false when nothing is grantable.
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
  bool bail = false;  // cancel/timeout/abort: the lease goes back to pending
  {
    std::lock_guard<std::mutex> solve_lock(c.solve_mutex);
    const checker::QueryCone* cone = inline_cone_for(c, p, q);
    checker::SchemaSolver& solver = inline_solver_for(c, p);
    const int cut_count = static_cast<int>((*c.properties)[p].queries[q].cuts.size());
    // The global schema budget is enforced as records merge, like workers.
    checker::EnumerationOptions enumeration = c.check.enumeration;
    enumeration.max_schemas = std::numeric_limits<std::int64_t>::max();
    enumerate_schemas_under(
        *c.analysis, task, cut_count, enumeration, [&](const checker::Schema& schema) {
          std::string cursor = checker::schema_cursor(q, schema);
          {
            // Skip without counting anything a worker already settled.
            std::lock_guard<std::mutex> lock(c.mutex);
            if (c.props[p].stopped || c.props[p].end.budget_exhausted) return false;
            if (c.settled[p].count(cursor) > 0) return true;
          }
          if ((c.check.cancel != nullptr && c.check.cancel->load(std::memory_order_relaxed)) ||
              (c.check.timeout_seconds > 0.0 && c.watch->seconds() > c.check.timeout_seconds)) {
            bail = true;
            return false;
          }
          checker::SchemaStep step = checker::step_schema(solver, /*learning=*/nullptr, cone, q,
                                                          schema, inline_remaining(c));
          if (step.kind != checker::SchemaStep::Kind::kSettled) {
            bail = true;  // interrupted or aborted
            return false;
          }
          step.record.cursor = std::move(cursor);
          std::lock_guard<std::mutex> lock(c.mutex);
          merge_schema(c, p, q, schema, step.record, std::move(step.outcome), {});
          return step.record.verdict != "sat";  // a witness settles the property
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
  c.copy_resumed = journal != nullptr && c.check.journal_path != c.check.resume_path;

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
      // contribute zero to the fast/big split (documented in result.h). A
      // cut riding on a replayed unsat record re-enters the coordinator's
      // pool like a live one.
      merge_schema(c, it->second, q, schema, record, {}, {.resumed = true});
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
    handlers.emplace_back([&c, cfd] { Session(c, cfd).serve(); });
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
