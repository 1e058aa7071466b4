#include "hv/dist/worker.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "hv/checker/journal.h"
#include "hv/checker/run.h"
#include "hv/dist/protocol.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/hash.h"
#include "hv/util/stopwatch.h"
#include "hv/util/version.h"

namespace hv::dist {

namespace {

// The worker's lease book over the welcome's automaton, properties and
// options, holding the one lease granted last. A LeaseConsumer settles it
// exactly like an in-process thread; only the wire lives here: the grant's
// skip list seeds the property's ledger, and where a thread merges a
// settled schema, merge_locked ships it to the coordinator, runs the test
// hooks and polls for an abandon. It keeps no record, witness or evidence:
// those live in the coordinator's book.
class WorkerBook : public checker::LeaseBook {
 public:
  WorkerBook(const ta::ThresholdAutomaton& ta, std::span<const spec::Property> properties,
             const checker::CheckOptions& check, Conn& conn, const WorkerOptions& options,
             WorkerReport& report)
      : LeaseBook(ta, properties, check, /*consumers=*/1),
        conn_(conn),
        options_(options),
        report_(report) {
    keep_cursors = true;  // skip lists and record frames name schemas by cursor
  }

  // Makes a grant the book's one pending lease, with a fresh tally for its
  // property: after the settle, that tally holds the lease's own counters.
  // Its ledger is the skip list: the schemas settled before this grant.
  void grant(std::int64_t id, checker::Lease lease, const Json::Array& skip) {
    std::lock_guard<std::mutex> lock(mutex);
    lease_id_ = id;
    checker::PropertyRun& prop = props[lease.property];
    prop.tally = {};
    prop.settled.clear();
    for (const Json& cursor : skip) {
      prop.settled.emplace(cursor.as_string(), checker::SchemaVerdict::kUnknown);
    }
    leases.assign(1, std::move(lease));
  }

  // Folds the cuts and lemmas of a lease grant for property `p`. Tolerant of
  // malformed entries: learning facts are advisory, a bad one is dropped
  // rather than dropping the coordinator, and the entries before it stand
  // on their own.
  void learn(const Json& grant, std::size_t p) {
    try {
      if (checker::PropertyLearning* learning = this->learning(p)) {
        fold_learn(grant, *learning, /*with_cuts=*/true);
      }
    } catch (const std::exception&) {
    }
  }

 protected:
  // Ships the schema instead of merging it. The lease ends on a lost
  // connection, on the drop test hook (dying mid-lease like a SIGKILL'd
  // process: no lease_done, no goodbye), on a witness, which settles the
  // property, and on an abandon; report_.note says which ends the worker.
  bool merge_locked(std::size_t p, std::size_t, const checker::Schema&,
                    const checker::SchemaRecord& record, checker::UnitOutcome outcome,
                    bool charged, bool) override {
    if (charged) --props[p].in_flight;
    // An injected abort dies without a word: the coordinator re-pends the
    // lease when the connection goes.
    if (outcome.kind == checker::UnitOutcome::Kind::kAborted) return false;
    // Byzantine test hook: forge a counterexample-free "sat" for a schema
    // the solver just refuted. The coordinator's merge check must catch it.
    checker::SchemaRecord shipped = record;
    if (options_.lie_about_verdicts && record.verdict == checker::SchemaVerdict::kUnsat) {
      shipped.verdict = checker::SchemaVerdict::kSat;
    }
    if (!conn_.send(record_frame(shipped, outcome, lease_id_, p))) {
      report_.note = "connection lost";
    } else if (++report_.records == options_.drop_after_records) {
      report_.note = "dropped connection (test hook)";
    } else if (shipped.verdict != checker::SchemaVerdict::kSat && !abandoned()) {
      return true;
    }
    set_state_locked(0, checker::LeaseState::kDone);
    return true;
  }

 private:
  // The coordinator cuts a lease short mid-stream with an "abandon" frame:
  // the property settled under another worker (first witness, exhausted
  // budget) or this lease was reassigned. Polled after every record so the
  // worker never keeps solving a subtree nobody wants.
  bool abandoned() {
    while (conn_.readable()) {
      Json note;
      if (conn_.recv(&note, options_.recv_timeout_ms) != FrameStatus::kOk) {
        report_.note = "connection lost";
        return true;
      }
      const Json* type = note.find("type");
      if (type != nullptr && type->kind() == Json::Kind::kString &&
          type->as_string() == "abandon") {
        return true;
      }
    }
    return false;
  }

  Conn& conn_;
  const WorkerOptions& options_;
  WorkerReport& report_;
  std::int64_t lease_id_ = -1;
};

// One full worker lifecycle: connect, handshake, lease loop. run_worker
// layers the reconnect policy on top.
WorkerReport run_worker_attempt(const WorkerOptions& options) {
  WorkerReport report;
  const Address address = parse_address(options.connect);

  // The coordinator may still be binding its socket: retry the connect with
  // a short backoff until the window closes.
  int fd = -1;
  const Stopwatch connect_watch;
  for (;;) {
    fd = connect_to(address);
    if (fd >= 0) break;
    if (connect_watch.seconds() >= options.connect_retry_seconds) {
      report.note = "cannot connect to " + options.connect;
      return report;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Conn conn(fd, /*subject_to_chaos=*/true);

  if (!conn.send(Json::Object{{"type", "hello"},
                              {"protocol", kDistProtocolVersion},
                              {"label", options.label}})) {
    report.note = "handshake send failed";
    return report;
  }
  Json welcome;
  if (conn.recv(&welcome, options.recv_timeout_ms) != FrameStatus::kOk) {
    report.note = "no welcome from coordinator";
    return report;
  }

  // Reconstruct the run from the welcome message and verify, via the model
  // content hash, that this worker's parse numbered the automaton exactly
  // like the coordinator's (ids travel raw on the wire). Missing/mistyped
  // fields, unparseable model text or uncompilable properties all throw —
  // per the header contract they become a diagnostic note, never an
  // exception escaping into the hosting process.
  checker::CheckOptions check;
  std::optional<ta::ThresholdAutomaton> parsed;
  std::vector<spec::Property> properties;
  try {
    if (welcome.at("type").as_string() == "shutdown") {
      // The coordinator refused this label before granting anything
      // (quarantined or banned for the run). A semantic stop: reconnecting
      // under the same label would only be refused again.
      const Json* reason = welcome.find("reason");
      report.note = "coordinator refused: " +
                    (reason != nullptr && reason->kind() == Json::Kind::kString
                         ? reason->as_string()
                         : std::string("(no reason given)"));
      return report;
    }
    if (welcome.at("type").as_string() != "welcome") {
      report.note = "no welcome from coordinator";
      return report;
    }
    if (welcome.at("protocol").as_int() != kDistProtocolVersion) {
      report.note = "coordinator speaks protocol " +
                    std::to_string(welcome.at("protocol").as_int()) +
                    ", this worker speaks " + std::to_string(kDistProtocolVersion);
      return report;
    }
    check = options_from_json(welcome.at("options"));
    parsed.emplace(ta::parse_ta(welcome.at("model_text").as_string()).one_round_reduction());
    const std::string model_hash = checker::model_content_hash(*parsed);
    if (model_hash != welcome.at("model_hash").as_string()) {
      report.note = "model hash mismatch: coordinator " +
                    welcome.at("model_hash").as_string() + ", local parse " + model_hash;
      return report;
    }
    properties = resolve_properties(*parsed, specs_from_json(welcome.at("properties")));
    // Refuse a heartbeat period the coordinator would mistake for death. A
    // period above half the lease timeout leaves no slack for a slow schema
    // between beats; the stop is semantic (reconnecting cannot fix a
    // misconfiguration).
    const double lease_ms = welcome.at("lease_timeout").as_double() * 1000.0;
    if (static_cast<double>(options.heartbeat_ms) > lease_ms / 2.0) {
      report.note = "heartbeat period " + std::to_string(options.heartbeat_ms) +
                    "ms exceeds half the coordinator's lease timeout (" +
                    std::to_string(static_cast<std::int64_t>(lease_ms)) +
                    "ms): the coordinator would expropriate this worker's leases "
                    "mid-solve; lower --heartbeat-ms or raise --lease-timeout";
      return report;
    }
  } catch (const std::exception& e) {
    report.note = std::string("malformed welcome from coordinator: ") + e.what();
    return report;
  }
  check.cancel = options.cancel;
  // The welcome's options say whether the run learns; the book folds in
  // this process's HV_NO_LEMMAS. A learning book keeps one cut index and
  // lemma pool per property, fed by local refutations and by the facts each
  // grant carries.
  WorkerBook book(*parsed, properties, check, conn, options, report);
  checker::FaultInjector injector(options.fault);
  checker::LeaseConsumer consumer(book, &injector);

  // Liveness heartbeats: the coordinator renews the lease deadline on any
  // frame, so a long single-schema solve must not look like a dead worker.
  // The beat waits on a condition variable, so stopping it is immediate
  // instead of costing up to a full period at every exit.
  std::mutex heartbeat_mutex;
  std::condition_variable heartbeat_wake;
  bool heartbeat_stop = false;
  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lock(heartbeat_mutex);
    while (!heartbeat_wake.wait_for(lock, std::chrono::milliseconds(options.heartbeat_ms),
                                    [&] { return heartbeat_stop; })) {
      lock.unlock();
      const bool sent = conn.send(Json::Object{{"type", "heartbeat"}});
      lock.lock();
      if (!sent) break;
    }
  });
  const auto stop_heartbeat = [&] {
    {
      std::lock_guard<std::mutex> lock(heartbeat_mutex);
      heartbeat_stop = true;
    }
    heartbeat_wake.notify_all();
    if (heartbeat.joinable()) heartbeat.join();
  };

  for (;;) {
    if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
      report.note = "cancelled";
      break;
    }
    if (!conn.send(Json::Object{{"type", "next"}})) {
      // The coordinator may have sent shutdown and closed its end after the
      // last reply; the frame is still in our receive buffer, possibly
      // behind a late abandon. Missing it would turn a clean end into a
      // reconnect loop.
      Json last;
      while (!report.completed && conn.recv(&last, 100) == FrameStatus::kOk) {
        const Json* last_type = last.find("type");
        report.completed = last_type != nullptr &&
                           last_type->kind() == Json::Kind::kString &&
                           last_type->as_string() == "shutdown";
      }
      if (!report.completed) report.note = "connection lost";
      break;
    }
    // Decode the reply inside try/catch: a missing or mistyped field is a
    // malformed coordinator message, reported in the note per the header
    // contract (run-as-a-thread hosts must never see an escaping throw).
    std::int64_t lease_id = -1;
    std::size_t p = 0;
    try {
      Json reply;
      FrameStatus status = conn.recv(&reply, options.recv_timeout_ms);
      // A late "abandon" for a lease that already closed can sit ahead of
      // the real reply in the byte stream; skip past it. A duplicated
      // "welcome" (the chaos layer can double any frame) is equally benign:
      // the handshake already ran, skip the echo.
      while (status == FrameStatus::kOk && reply.find("type") != nullptr &&
             (reply.at("type").as_string() == "abandon" ||
              reply.at("type").as_string() == "welcome")) {
        status = conn.recv(&reply, options.recv_timeout_ms);
      }
      if (status != FrameStatus::kOk) {
        report.note = "coordinator connection " + std::string(to_string(status));
        break;
      }
      const std::string& type = reply.at("type").as_string();
      if (type == "shutdown") {
        report.completed = true;
        break;
      }
      // The coordinator's long poll ran out its bound: ask again at once.
      if (type == "wait") continue;
      if (type != "lease") {
        report.note = "unexpected message '" + type + "'";
        break;
      }
      // --- decode one lease ------------------------------------------------
      lease_id = reply.at("lease").as_int();
      p = static_cast<std::size_t>(reply.at("property").as_int());
      const auto q = static_cast<std::size_t>(reply.at("query").as_int());
      if (p >= properties.size() || q >= properties[p].queries.size()) {
        report.note = "lease names an unknown property/query";
        break;
      }
      checker::Lease lease{p, q, {}};
      for (const Json& g : reply.at("prefix").as_array()) {
        lease.task.prefix.push_back(static_cast<int>(g.as_int()));
      }
      lease.task.include_extensions = reply.at("extensions").as_bool();
      book.grant(lease_id, std::move(lease), reply.at("skip").as_array());
      // Learning payload of the grant: the fleet's accumulated cuts and
      // lemmas for this (property, query).
      book.learn(reply, p);
    } catch (const std::exception& e) {
      report.note = std::string("malformed coordinator message: ") + e.what();
      break;
    }
    ++report.leases;
    try {
      consumer.settle_one_lease();
    } catch (const checker::WorkerAbortFault&) {
      report.aborted = true;
      report.note = "worker aborted mid-schema";
      break;
    }
    if (book.interrupted || book.timed_out) report.note = book.interrupted ? "cancelled" : "timeout";
    if (!report.note.empty()) break;  // the lease ended the worker
    // The grant started the property's tally afresh: its cut and encoder
    // counters now count this lease alone. (Every other counter rode on the
    // lease's record frames.)
    const checker::PropertyTally& tally = book.props[p].tally;
    Json done = Json::Object{
        {"type", "lease_done"},
        {"lease", lease_id},
        {"stats", Json::Object{
                      {"segments_pushed", tally.incremental.segments_pushed},
                      {"segments_popped", tally.incremental.segments_popped},
                      {"segments_reused", tally.incremental.segments_reused},
                      {"schemas_encoded", tally.incremental.schemas_encoded},
                  }}};
    // A learning worker also ships the lemmas it banked, so the coordinator
    // folds them into later grants. take_fresh() returns only locally
    // learned lemmas: the grants' were inserted fresh=false and are not
    // echoed. (Cuts already travelled on their unsat record frames.)
    if (checker::PropertyLearning* learning = book.learning(p)) {
      done.set("cut", tally.cut);
      LearnPayload fresh;
      for (std::size_t lq = 0; lq < learning->queries.size(); ++lq) {
        for (const smt::Lemma& lemma : learning->queries[lq].lemmas.take_fresh()) {
          fresh.add_lemma(lq, lemma);
        }
      }
      fresh.put(done);
    }
    if (!conn.send(done)) {
      report.note = "connection lost";
      break;
    }
  }

  stop_heartbeat();
  conn.close();
  return report;
}

// True iff the attempt ended at the connection layer (the coordinator was
// unreachable or went away), the only failures a reconnect can cure.
// Semantic stops — protocol/model mismatch, malformed frames, abort,
// cancellation, a clean shutdown — are deterministic and terminal.
bool connection_level_failure(const WorkerReport& report) {
  if (report.completed || report.aborted) return false;
  return report.note.rfind("cannot connect", 0) == 0 ||
         report.note == "connection lost" ||
         report.note == "handshake send failed" ||
         report.note == "no welcome from coordinator" ||
         report.note.rfind("coordinator connection", 0) == 0;
}

}  // namespace

std::int64_t jittered_backoff_ms(std::int64_t base_ms, std::uint64_t seed, int attempt) {
  // splitmix64 over (seed, attempt): stateless, so the test can recompute
  // any draw. The jitter stays within ±25% of the base by construction.
  const double unit = unit_interval(
      splitmix64_mix(seed + kGoldenGamma * static_cast<std::uint64_t>(attempt + 1)));
  const double factor = 0.75 + 0.5 * unit;  // [0.75, 1.25)
  const auto jittered =
      static_cast<std::int64_t>(static_cast<double>(base_ms) * factor);
  return std::max<std::int64_t>(1, jittered);
}

WorkerReport run_worker(const WorkerOptions& options) {
  if (options.reconnect_seconds <= 0.0) return run_worker_attempt(options);

  const auto cancelled = [&] {
    return options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
  };
  // Jitter seed from the label (FNV-1a): deterministic per worker, different
  // across a fleet of distinctly labelled workers, so a coordinator restart
  // does not see the whole fleet reconnect in lockstep.
  const std::uint64_t jitter_seed = fnv1a(options.label);
  WorkerReport total;
  Stopwatch window;  // time since the last successful attempt start
  std::int64_t backoff_ms = 50;
  int attempt_index = 0;
  for (;;) {
    WorkerOptions attempt = options;
    // The inner connect-retry loop must not outlive the reconnect budget.
    attempt.connect_retry_seconds =
        std::min(options.connect_retry_seconds,
                 std::max(0.0, options.reconnect_seconds - window.seconds()));
    WorkerReport report = run_worker_attempt(attempt);
    total.leases += report.leases;
    total.records += report.records;
    total.completed = report.completed;
    total.aborted = report.aborted;
    total.note = report.note;
    if (!connection_level_failure(report) || cancelled()) return total;
    // An attempt that made it onto the coordinator resets the budget (and
    // the backoff): only *consecutive* unreachable time counts against it.
    if (report.leases > 0 || report.records > 0) {
      window.reset();
      backoff_ms = 50;
    }
    if (window.seconds() >= options.reconnect_seconds) return total;
    // Bounded jitter (±25%), clamped to the remaining budget so the total
    // sleep can never push the worker past its own reconnect window.
    const double remaining_budget_ms =
        (options.reconnect_seconds - window.seconds()) * 1000.0;
    const std::int64_t sleep_ms = std::min<std::int64_t>(
        jittered_backoff_ms(backoff_ms, jitter_seed, attempt_index++),
        std::max<std::int64_t>(1, static_cast<std::int64_t>(remaining_budget_ms)));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min<std::int64_t>(backoff_ms * 2, 2000);
  }
}

}  // namespace hv::dist
