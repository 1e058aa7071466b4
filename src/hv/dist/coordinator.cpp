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
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "hv/cert/audit.h"
#include "hv/checker/run.h"
#include "hv/checker/schema_solver.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/stopwatch.h"
#include "hv/util/text.h"
#include "hv/util/version.h"

namespace hv::dist {

namespace {

using Clock = std::chrono::steady_clock;

// Longest a `next` parks in the long poll before answering "wait"; well
// under any peer's recv timeout.
constexpr std::chrono::milliseconds kParkBound{1000};
// Longest a self-hosted fleet waits for all its forked workers to join
// before the first grant (see fleet_forming).
constexpr std::chrono::milliseconds kFleetFormationBound{1000};

using checker::Lease;
using checker::LeaseState;
using checker::SchemaVerdict;

// --- worker health ----------------------------------------------------------
//
// Per-label scores feed an escalating quarantine ladder. Points: a forged
// frame (one the merge check refutes) is an instant ban; other hostile
// frames, chronic lease timeouts and reconnect churn accumulate toward a
// cool-down, and a label that keeps earning quarantines is banned for the
// run. The thresholds are deliberately coarse — the defense against a
// *wrong verdict* is the trust gate and the merge check, not the score;
// the score only bounds how much time a misbehaving peer can waste.
constexpr double kForgeryPenalty = 100.0;
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

bool task_covers(const checker::SubtreeTask& task, const std::vector<int>& unlock_order) {
  if (task.include_extensions) {
    return unlock_order.size() >= task.prefix.size() &&
           std::equal(task.prefix.begin(), task.prefix.end(), unlock_order.begin());
  }
  return unlock_order == task.prefix;
}

// The run's lease book plus what only a fleet needs: sessions, skip lists,
// shipping the book's learning and health. The book's ledger dedups the
// records. The book's mutex guards all of it.
struct Coord : checker::LeaseBook {
  Coord(const ta::ThresholdAutomaton& ta, std::span<const spec::Property> properties,
        const DistOptions& dist_options)
      : LeaseBook(ta, properties, dist_options.check, dist_options.expected_workers),
        dist(dist_options),
        skip(leases.size()) {
    keep_cursors = true;  // the ledger dedups records by cursor
    if (dist.self_hosted_fleet) fleet_formed_by = Clock::now() + kFleetFormationBound;
  }

  /// True iff the run learns: the book then holds every property's cut
  /// index and lemma pool and ships them inside lease grants.
  bool learns() const { return checker::lemmas_enabled(options()); }

  const DistOptions& dist;
  Json welcome;
  /// Per lease: cursors settled inside its subtree (resume replay, partial
  /// work of a previous holder), shipped as the skip list of the next
  /// grant. Emptied when the lease completes, so the coordinator holds
  /// cursors only for subtrees still in play.
  std::vector<std::vector<std::string>> skip;
  /// Lease-state events (see changed_locked) bump the epoch and wake both
  /// kinds of waiter: `next` handlers parked on lease_cv and the accept
  /// loop, whose poll set holds accept_wake.
  std::uint64_t lease_epoch = 0;
  std::condition_variable lease_cv;
  WakeFd accept_wake;
  /// Self-hosted fleets only: grants wait until every forked worker joined
  /// or this time passes. Left at the epoch otherwise.
  Clock::time_point fleet_formed_by{};
  DistStats stats;
  /// The connections that passed the handshake, shut down on a forced
  /// close.
  std::vector<Conn*> open_conns;

  /// Byzantine defense: per-label health.
  std::unordered_map<std::string, WorkerHealth> health;

  /// In-process solving once the fleet is exhausted (graceful degradation)
  /// on one lease consumer, which learns like every other consumer of the
  /// book. Only the accept loop drives it.
  checker::LeaseConsumer inline_consumer{*this, /*injector=*/nullptr};

 protected:
  void merged_locked(std::size_t p, std::size_t q, const checker::Schema& schema,
                     const checker::SchemaRecord& record,
                     const std::vector<int>* new_cut) override;
  // A pending lease a recorded subtree cut covers settles instead of being
  // granted (it may have returned to pending before the cut arrived). Every
  // schema under the task extends task.prefix, so a cut that is a prefix of
  // task.prefix refutes all of them; a *longer* cut covers only part of the
  // subtree and is left to the worker's local skip. The schemas it settles,
  // all but those its skip list names, are charged as cut, as a thread that
  // enumerated them would.
  bool settle_moot_locked(std::size_t i) override {
    const Lease& lease = leases[i];
    const checker::PropertyLearning* learning = this->learning(lease.property);
    if (learning == nullptr || !learning->queries[lease.query].cuts.covers(lease.task.prefix)) {
      return false;
    }
    const std::int64_t unsettled =
        enumerate_lease(lease, [](const checker::Schema&) { return true; }).schemas -
        static_cast<std::int64_t>(skip[i].size());
    cut_locked(lease.property, charge_locked(lease.property, unsettled));
    set_state_locked(i, LeaseState::kDone);
    return true;
  }

 public:
  // The lease-state events a waiter can act on: a lease went pending or
  // settled, a property settled or the run is closing (-1: no lease).
  // Wakes parked `next` handlers and the accept loop.
  void changed_locked(std::int64_t lease) override {
    if (lease >= 0 && leases[static_cast<std::size_t>(lease)].state == LeaseState::kDone) {
      skip[static_cast<std::size_t>(lease)] = {};
    }
    ++lease_epoch;
    lease_cv.notify_all();
    accept_wake.notify();
  }
};

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
  if (c.options().progress != nullptr) {
    (c.options().progress->*counter).fetch_add(delta, std::memory_order_relaxed);
  }
}

// The fleet's share of a merge: the covering lease's skip list and a new
// subtree cut.
void Coord::merged_locked(std::size_t p, std::size_t q, const checker::Schema& schema,
                          const checker::SchemaRecord& record,
                          const std::vector<int>* new_cut) {
  for (std::size_t i = 0; i < leases.size(); ++i) {
    const Lease& lease = leases[i];
    if (lease.property == p && lease.query == q && task_covers(lease.task, schema.unlock_order)) {
      if (lease.state != LeaseState::kDone) skip[i].push_back(record.cursor);
      break;  // subtrees are disjoint
    }
  }
  // A new cut proves every schema extending its chain prefix unsat. The cut
  // itself is not journaled here (it rides on the record), but every
  // still-pending lease it covers settles without ever being granted; the
  // other workers receive it with their next grant.
  if (new_cut != nullptr) {
    for (std::size_t i = 0; i < leases.size(); ++i) {
      const Lease& lease = leases[i];
      if (lease.property == p && lease.query == q && lease.state == LeaseState::kPending) {
        settle_moot_locked(i);
      }
    }
  }
}

// True while a self-hosted fleet is still forming (caller holds the mutex).
// The first worker to join then parks instead of draining a small run
// alone while its siblings connect to a finished run and are reaped as
// stragglers.
bool fleet_forming(const Coord& c) {
  return c.stats.workers_joined < c.dist.expected_workers && Clock::now() < c.fleet_formed_by;
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
  bool on_verdict(const Json& msg);
  bool on_lease_done(const Json& msg);
  bool forged(std::size_t p, std::size_t q, const checker::Schema& schema,
              const checker::SchemaRecord& record, const checker::UnitOutcome& solve);
  bool settles_subtree(const Lease& lease);
  void release_current();
  void mark_hostile_locked(double penalty = kHostilePenalty);
  void punish_violation();

  Coord& c;
  Conn conn;
  std::string label = "worker";
  /// Lease index held by this worker. Only this session's thread writes it
  /// (under the mutex), so the thread reads it without one.
  std::int64_t current = -1;
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
  /// Certifying runs: this connection's per-schema checks, one per
  /// (property, query), built on first use. Each follows this worker's DFS
  /// order, so consecutive records reuse their chain prefix's encoding.
  std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<cert::SchemaCheck>> checks;
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
      Json msg;
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
      const Json* type_field = msg.find("type");
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
      } else if (type == "lease_done") {
        keep = on_lease_done(msg);
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
    const auto it = std::find(c.open_conns.begin(), c.open_conns.end(), &conn);
    if (it != c.open_conns.end()) {
      c.open_conns.erase(it);
      bump(c, &checker::ProgressCounters::workers, -1);
    }
  }
  conn.close();
}

// The hello frame: the protocol revision and the health gate. On success
// sends the welcome and joins the fleet; false means not a worker, or
// refused.
bool Session::admit() {
  Json hello;
  if (conn.recv(&hello, 10'000) != FrameStatus::kOk) return false;
  try {
    if (hello.at("type").as_string() != "hello") return false;
    const Json* protocol = hello.find("protocol");
    const std::int64_t revision = protocol == nullptr ? 0 : protocol->as_int();
    if (revision != kDistProtocolVersion) {
      conn.send(Json::Object{{"type", "shutdown"},
                             {"reason", "protocol mismatch (worker speaks " +
                                            std::to_string(revision) + ", coordinator speaks " +
                                            std::to_string(kDistProtocolVersion) + ")"}});
      return false;
    }
    if (const Json* label_field = hello.find("label")) {
      if (label_field->kind() == Json::Kind::kString &&
          !label_field->as_string().empty()) {
        label = label_field->as_string();
      }
    }
  } catch (const std::exception&) {
    return false;  // mistyped hello fields: not a worker
  }
  std::string reason;
  {
    // Health gate: a banned or cooling-down label is refused before any
    // lease; a label whose score crossed the quarantine threshold starts
    // (or escalates) its cool-down here. Rejections carry a reason so the
    // worker exits with a message instead of reconnect-spinning.
    std::lock_guard<std::mutex> lock(c.mutex);
    WorkerHealth& health = c.health[label];
    ++health.joins;
    if (health.joins > kFreeRejoins) penalize(c, label, kChurnPenalty);
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
            c.dist.lease_timeout_seconds * static_cast<double>(1 << (health.quarantines - 1));
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
  }
  if (!reason.empty()) {
    conn.send(Json::Object{{"type", "shutdown"}, {"reason", reason}});
    return false;
  }
  if (!conn.send(c.welcome)) return false;
  std::lock_guard<std::mutex> lock(c.mutex);
  ++c.stats.workers_joined;
  c.open_conns.push_back(&conn);
  bump(c, &checker::ProgressCounters::workers);
  c.changed_locked(-1);  // a parked sibling may be waiting for the fleet
  return true;
}

// A recv timed out. False once the worker counts as dead or wedged, or the
// run is over and it holds no lease.
bool Session::on_silence() {
  const double silent = std::chrono::duration<double>(Clock::now() - last_activity).count();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    if (silent > c.dist.lease_timeout_seconds) {
      // Expropriating a lease feeds the label's health: a chronically
      // timing-out worker ends up quarantined.
      if (current >= 0) {
        ++c.stats.lease_timeouts;
        penalize(c, label, kTimeoutPenalty);
      }
      return false;
    }
    if (!c.closing || current >= 0) return true;
  }
  conn.send(Json::Object{{"type", "shutdown"}, {"reason", "run over"}});
  clean = true;
  return false;
}

// The `next` frame: grant a lease, or answer wait / shutdown.
bool Session::on_next() {
  Json reply;
  {
    std::unique_lock<std::mutex> lock(c.mutex);
    release_current();  // a worker asking again abandoned any holdover
    // Long poll: with work left but nothing grantable, park until a
    // lease-state event or the bound, then answer "wait" so the worker
    // re-asks at once. The bound stays well under every peer's recv
    // timeout.
    const auto park_until = Clock::now() + kParkBound;
    std::int64_t grant = -1;
    bool work_left = false;
    for (;;) {
      work_left = false;
      grant = c.pick_locked(&work_left);
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
      const auto id = static_cast<std::size_t>(grant);
      c.set_state_locked(id, LeaseState::kActive);
      const Lease& lease = c.leases[id];
      ++c.stats.leases_granted;
      current = grant;
      lease_history.insert(grant);
      abandon_sent_for = -2;  // a regranted lease may need its own abandon
      // Skip list: every settled cursor inside this subtree (resume replay
      // and partial work of a previous holder).
      reply = Json::Object{
          {"type", "lease"},
          {"lease", grant},
          {"property", static_cast<std::int64_t>(lease.property)},
          {"query", static_cast<std::int64_t>(lease.query)},
          {"prefix", Json::Array(lease.task.prefix.begin(), lease.task.prefix.end())},
          {"extensions", lease.task.include_extensions},
          {"skip", Json::Array(c.skip[id].begin(), c.skip[id].end())}};
      // Learning payload: everything the book knows about this (property,
      // query) rides along so a late-joining worker starts with the fleet's
      // accumulated cuts and lemmas.
      if (c.learns()) {
        const std::size_t q = lease.query;
        const checker::QueryLearning& known = c.learning(lease.property)->queries[q];
        LearnPayload payload;
        for (const std::vector<int>& cut : known.cuts.snapshot()) payload.add_cut(q, cut);
        for (const smt::Lemma& lemma : known.lemmas.snapshot()) payload.add_lemma(q, lemma);
        payload.put(reply);
      }
    } else if (work_left) {
      reply = Json::Object{{"type", "wait"}};
    } else {
      reply = Json::Object{{"type", "shutdown"}, {"reason", "run over"}};
      clean = true;
    }
  }
  return conn.send(reply) && !clean;
}

// A `record` or `sat` frame: one schema this worker settled. It passes the
// merge check and the trust gate, then merges like any other settled
// schema.
bool Session::on_verdict(const Json& msg) {
  checker::UnitOutcome solve;
  const checker::SchemaRecord record = checker::record_from_json(msg, &solve);
  const bool sat = record.verdict == SchemaVerdict::kSat;
  std::size_t q = 0;
  checker::Schema schema;
  const auto p = static_cast<std::size_t>(msg.at("property").as_int());
  if (p >= c.props.size() || !checker::parse_schema_cursor(record.cursor, &q, &schema) ||
      q >= c.properties()[p].queries.size()) {
    punish_violation();
    return false;
  }
  // Checked outside the mutex, so every worker's records are checked in
  // parallel. Nothing merges unchecked, so a forgery costs the connection
  // and the label, never a revocation.
  if (forged(p, q, schema, record, solve)) {
    std::lock_guard<std::mutex> lock(c.mutex);
    mark_hostile_locked(kForgeryPenalty);
    return false;
  }
  const std::int64_t cited = msg.at("lease").as_int();
  bool abandon = false;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    // Trust gate: the frame must cite a lease granted on THIS connection
    // whose (property, query) match and whose subtree covers the cursor,
    // and must not contradict a definitive verdict in the ledger. (A late
    // record for our own expropriated lease is honest — dedup absorbs it.)
    // A forged sat for a never-granted or foreign lease thus costs the
    // connection instead of the verdict.
    const Lease* cited_lease = cited >= 0 && cited < static_cast<std::int64_t>(c.leases.size()) &&
                                       lease_history.count(cited) > 0
                                   ? &c.leases[static_cast<std::size_t>(cited)]
                                   : nullptr;
    const auto known = c.props[p].settled.find(record.cursor);
    const bool hostile =
        cited_lease == nullptr || cited_lease->property != p || cited_lease->query != q ||
        !task_covers(cited_lease->task, schema.unlock_order) ||
        // conflicting duplicate: someone is lying
        (known != c.props[p].settled.end() && record.verdict != SchemaVerdict::kUnknown &&
         known->second != SchemaVerdict::kUnknown && known->second != record.verdict);
    if (hostile) {
      mark_hostile_locked();
      return false;
    }
    c.merge_locked(p, q, schema, record, std::move(solve), /*charged=*/false);
    // Tell the worker to stop solving a subtree nobody wants: its lease was
    // expropriated, or the property is already settled (first witness,
    // exhausted budget). A worker stops a lease on its own after a sat.
    abandon = !sat && (cited != current || !c.props[p].live());
  }
  if (abandon && abandon_sent_for != cited) {
    abandon_sent_for = cited;
    return conn.send(Json::Object{{"type", "abandon"}, {"lease", cited}});
  }
  return true;
}

// The merge check of one record, run outside the mutex. In every mode a sat
// whose worker reports no replay failure must carry a counterexample that
// replays under the coordinator's own validate_counterexample. A certifying
// run also checks the rest of the record's evidence with the auditor's own
// per-schema check: an unsat proof or a sat model against this session's
// trace re-encoding, and a pruned claim against the query cone. True iff
// the record is forged.
bool Session::forged(std::size_t p, std::size_t q, const checker::Schema& schema,
                     const checker::SchemaRecord& record, const checker::UnitOutcome& solve) {
  const bool sat = record.verdict == SchemaVerdict::kSat;
  if (sat && solve.validation_error.empty()) {
    if (!solve.counterexample) return true;
    try {
      if (!checker::validate_counterexample(c.analysis().automaton(), *solve.counterexample,
                                            c.properties()[p].queries[q])
               .empty()) {
        return true;
      }
    } catch (const Error&) {
      return true;  // e.g. parameters that violate the resilience condition
    }
  }
  if (!c.options().certify) return false;
  if (record.verdict == SchemaVerdict::kPruned) {
    const checker::QueryCone* cone = c.cone(p, q);
    return cone == nullptr || cone->schema_feasible(schema);
  }
  if (record.verdict == SchemaVerdict::kUnknown) return false;  // claims nothing
  std::unique_ptr<cert::SchemaCheck>& check = checks[{p, q}];
  if (!check) {
    check = std::make_unique<cert::SchemaCheck>(c.analysis(), c.properties()[p].queries[q],
                                                c.cone(p, q));
  }
  cert::AuditReport report;
  return !check->check(schema, sat, solve.proof.get(), solve.model.get(), report, record.cursor);
}

// A `lease_done` frame: the worker finished (or abandoned) its lease. A
// negative counter is hostile; a certifying run also requires the lease's
// whole subtree to be settled while its property is still live. When the
// run learns, the frame's lemmas[] join the book's pools for the named
// lease's property, whoever holds that lease now, and later grants ship
// them. Cuts are taken only from unsat records, which cite a granted lease;
// a cuts[] field here is ignored.
bool Session::on_lease_done(const Json& msg) {
  const std::int64_t id = msg.at("lease").as_int();
  checker::IncrementalStats delta;
  if (const Json* stats = msg.find("stats")) {
    delta.segments_pushed = stats->at("segments_pushed").as_int();
    delta.segments_popped = stats->at("segments_popped").as_int();
    delta.segments_reused = stats->at("segments_reused").as_int();
    delta.schemas_encoded = stats->at("schemas_encoded").as_int();
  }
  // Schemas the worker's cuts skipped; a worker that does not learn omits it.
  const Json* cut_field = msg.find("cut");
  const std::int64_t cut = cut_field == nullptr ? 0 : cut_field->as_int();
  if (std::min({cut, delta.segments_pushed, delta.segments_popped, delta.segments_reused,
                delta.schemas_encoded}) < 0) {
    punish_violation();
    return false;
  }
  if (c.learns() && id >= 0 && id < static_cast<std::int64_t>(c.leases.size())) {
    std::lock_guard<std::mutex> lock(c.mutex);
    fold_learn(msg, *c.learning(c.leases[static_cast<std::size_t>(id)].property),
               /*with_cuts=*/false);
  }
  if (id != current || id < 0) return true;
  const auto index = static_cast<std::size_t>(id);
  if (c.options().certify && !settles_subtree(c.leases[index])) {
    std::lock_guard<std::mutex> lock(c.mutex);
    mark_hostile_locked(kForgeryPenalty);
    return false;
  }
  std::lock_guard<std::mutex> lock(c.mutex);
  const std::size_t p = c.leases[index].property;
  // The schemas the worker's cuts skipped are charged like a thread's: each
  // counts as enumerated and cut, and one beyond the budget exhausts it.
  // Cuts count only when the run learns.
  if (c.learns()) c.cut_locked(p, c.charge_locked(p, cut));
  if (c.leases[index].state == LeaseState::kActive) c.set_state_locked(index, LeaseState::kDone);
  c.props[p].tally.incremental += delta;
  current = -1;
  return true;
}

// True iff every schema of `lease`'s subtree is settled, or its property
// takes no more verdicts (a witness or the budget ended it, and the worker
// was told to abandon). A certifying run does not learn, so no cut skips a
// schema. The subtree is enumerated outside the mutex.
bool Session::settles_subtree(const Lease& lease) {
  std::vector<std::string> cursors;
  c.enumerate_lease(lease, [&](const checker::Schema& schema) {
    cursors.push_back(checker::schema_cursor(lease.query, schema));
    return true;
  });
  std::lock_guard<std::mutex> lock(c.mutex);
  return !c.props[lease.property].live() ||
         std::all_of(cursors.begin(), cursors.end(), [&](const std::string& cursor) {
           return c.known_locked(lease.property, cursor);
         });
}

// Caller holds the mutex.
void Session::release_current() {
  if (current < 0) return;
  const auto index = static_cast<std::size_t>(current);
  if (c.leases[index].state == LeaseState::kActive) {
    c.set_state_locked(index, LeaseState::kPending);
    ++c.stats.leases_reassigned;
  }
  current = -1;
}

// A protocol violation (hostile, malformed or forged frame) costs health
// points on top of the connection; EOFs, torn frames and timeouts are
// deaths, not hostility.
void Session::mark_hostile_locked(double penalty) {
  ++c.stats.hostile_frames;
  penalize(c, label, penalty);
}

void Session::punish_violation() {
  std::lock_guard<std::mutex> lock(c.mutex);
  mark_hostile_locked();
}

}  // namespace

std::vector<checker::PropertyResult> serve_fd(int listen_fd, const std::string& model_text,
                                              const std::vector<PropertySpec>& specs,
                                              const DistOptions& options, DistStats* stats) {
  // Closes the listening socket however this returns.
  const std::unique_ptr<int, void (*)(int*)> listening(&listen_fd, [](int* fd) { ::close(*fd); });
  const ta::ThresholdAutomaton ta = ta::parse_ta(model_text).one_round_reduction();
  const std::vector<spec::Property> properties = resolve_properties(ta, specs);
  // The lease book plans the leases for the expected fleet, opens the
  // journal and the resume file, and replays the resume records, so leases
  // ship them as skip lists and the statistics replay exactly like an
  // in-process resume.
  Coord c(ta, properties, options);
  c.replay_resume();

  // Workers enumerate their subtrees without a schema cap: the budget is
  // charged here as records merge. They learn iff this run does; each
  // worker's book still folds in its own HV_NO_LEMMAS.
  checker::CheckOptions wire = c.options();
  wire.enumeration.max_schemas = std::numeric_limits<std::int64_t>::max();
  wire.lemmas = c.learns();
  c.welcome = Json::Object{{"type", "welcome"},
                           {"protocol", kDistProtocolVersion},
                           {"model_hash", checker::model_content_hash(ta)},
                           {"model_text", model_text},
                           {"properties", specs_to_json(specs)},
                           {"options", options_to_json(wire)},
                           {"lease_timeout", options.lease_timeout_seconds}};

  // Accept loop: hand every connection to its own handler thread; watch for
  // completion, cancellation and the global timeout.
  std::vector<std::thread> handlers;
  bool force_close = false;
  bool fleet_was_missing = false;
  double fleet_missing_since = 0.0;
  const Stopwatch& watch = c.watch();
  for (;;) {
    bool degrade = false;
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      const bool complete = c.complete_locked();
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
        c.changed_locked(-1);  // parked `next` handlers answer shutdown
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
    if (degrade) {
      // The coordinator is then one more lease consumer, settling through
      // the same loop as an in-process thread (cancellation and the global
      // timeout send its lease back to the pool).
      if (c.inline_consumer.settle_one_lease()) {
        std::lock_guard<std::mutex> lock(c.mutex);
        ++c.stats.leases_granted;
        ++c.stats.leases_self_solved;
        continue;
      }
    }
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
    for (Conn* conn : c.open_conns) conn->shutdown();
  }
  for (std::thread& handler : handlers) handler.join();

  std::vector<checker::PropertyResult> results = c.results();
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
