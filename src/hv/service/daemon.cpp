#include "hv/service/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "hv/checker/journal.h"
#include "hv/dist/frame.h"
#include "hv/dist/local.h"
#include "hv/service/cache.h"
#include "hv/service/persist.h"
#include "hv/service/response.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/json.h"
#include "hv/util/stopwatch.h"
#include "hv/util/version.h"

namespace hv::service {

namespace {

bool file_exists(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0;
}

std::string job_journal_path(const std::string& state_dir, std::int64_t id) {
  return state_dir + "/job-" + std::to_string(id) + ".jsonl";
}

Json error_frame(const std::string& message) {
  return Json::Object{{"type", "error"}, {"message", message}};
}

/// Everything the daemon's threads share. The mutex guards the queue, the
/// cache, the event log sequencing and every non-atomic Job field; the two
/// condition variables split wakeups by audience (executors wait for
/// dispatchable jobs, result-waiters for terminal transitions).
struct Daemon {
  Daemon(const DaemonOptions& opts, std::ostream& log_stream)
      : options(opts), log(log_stream), queue(opts.limits), cache(opts.cache_bytes) {}

  const DaemonOptions& options;
  std::ostream& log;
  DaemonStats stats;
  Stopwatch clock;

  std::mutex mutex;
  std::condition_variable job_event;       // new/finished jobs: executors
  std::condition_variable progress_event;  // terminal transitions: waiters
  JobQueue queue;
  ResultCache cache;
  std::unique_ptr<EventLog> events;
  std::int64_t next_id = 1;
  bool closing = false;
};

// --- persistence ------------------------------------------------------------

Json submit_event(const Job& job) {
  return Json::Object{{"event", "submit"},
                      {"job", job.id},
                      {"tenant", job.tenant},
                      {"priority", job.priority},
                      {"model_text", job.model_text},
                      {"properties", dist::specs_to_json(job.specs)},
                      {"options", dist::options_to_json(job.options)},
                      {"threads", job.options.workers},
                      {"key", job.key}};
}

Json done_event(const Job& job) {
  return Json::Object{{"event", "done"},
                      {"job", job.id},
                      {"code", job.code},
                      {"cached", job.cached},
                      {"response", job.response}};
}

/// Rebuilds the queue from the event log: jobs with a terminal event land
/// in that state (done ones re-seed the cache), the rest go back to queued
/// and will resume from their per-job schema journal.
void replay(Daemon& d, const std::string& log_path) {
  const std::vector<Json> events = EventLog::load(log_path);
  for (const Json& event : events) {
    const std::string kind = event.at("event").as_string();
    if (kind == "submit") {
      auto job = std::make_unique<Job>();
      job->id = event.at("job").as_int();
      job->tenant = event.at("tenant").as_string();
      job->priority = static_cast<int>(event.at("priority").as_int());
      job->model_text = event.at("model_text").as_string();
      job->specs = dist::specs_from_json(event.at("properties"));
      job->options = dist::options_from_json(event.at("options"));
      if (const Json* threads = event.find("threads")) {
        job->options.workers = static_cast<int>(threads->as_int());
      }
      job->key = event.at("key").as_string();
      job->properties = job->specs.size();
      if (job->id >= d.next_id) d.next_id = job->id + 1;
      d.queue.enqueue(std::move(job));
      continue;
    }
    Job* job = d.queue.find(event.at("job").as_int());
    if (job == nullptr) continue;  // terminal event for an unknown job
    if (kind == "done") {
      job->state = JobState::kDone;
      job->code = static_cast<int>(event.at("code").as_int());
      job->cached = event.at("cached").as_bool();
      job->response = event.at("response").as_string();
      if (job->code == 0 || job->code == 1) {
        d.cache.insert(job->key, job->code, job->response);
      }
    } else if (kind == "failed") {
      job->state = JobState::kFailed;
      job->error = event.at("error").as_string();
    } else if (kind == "cancelled") {
      job->state = JobState::kCancelled;
      job->cancel.store(true);
    }
  }
  for (const auto& job : d.queue.jobs()) {
    if (job->state == JobState::kQueued) ++d.stats.jobs_recovered;
  }
}

// --- job execution ----------------------------------------------------------

/// Runs one dispatched job to completion. Called without the lock held; the
/// terminal transition (state, event append, cache insert) happens under it.
void run_job(Daemon& d, Job& job) {
  std::vector<checker::PropertyResult> results;
  std::string response;
  int code = -1;
  std::string failure;
  try {
    const ta::ThresholdAutomaton ta = ta::parse_ta(job.model_text).one_round_reduction();
    checker::CheckOptions options = job.options;
    options.progress = &job.progress;
    options.cancel = &job.cancel;
    options.journal_flush_batch = d.options.journal_flush_batch;
    options.journal_path = job_journal_path(d.options.state_dir, job.id);
    // A journal left by a killed daemon lets the re-run skip everything the
    // first attempt settled.
    if (file_exists(options.journal_path)) {
      options.resume_path = options.journal_path;
    }
    if (d.options.job_workers >= 2) {
      dist::DistOptions dist_options;
      dist_options.check = options;
      dist_options.expected_workers = d.options.job_workers;
      results = dist::check_distributed_local(job.model_text, job.specs, d.options.job_workers,
                                              dist_options);
    } else {
      const std::vector<spec::Property> properties = dist::resolve_properties(ta, job.specs);
      results = checker::check_properties(ta, properties, options);
    }
    response = render_results_json(ta, results);
    code = exit_code(results);
  } catch (const std::exception& error) {
    failure = error.what();
  }

  std::lock_guard<std::mutex> lock(d.mutex);
  job.finished_seconds = d.clock.seconds();
  if (job.cancel.load()) {
    // Either a client cancel (its event is already on disk — handle_cancel
    // wrote it when it flipped the flag) or daemon shutdown (no event: the
    // job replays as queued next start and resumes from its journal).
    job.state = JobState::kCancelled;
    ++d.stats.jobs_cancelled;
  } else if (!failure.empty()) {
    job.state = JobState::kFailed;
    job.error = failure;
    ++d.stats.jobs_failed;
    d.events->append(Json::Object{{"event", "failed"}, {"job", job.id},
                                  {"error", job.error}});
    std::remove(job_journal_path(d.options.state_dir, job.id).c_str());
  } else {
    job.state = JobState::kDone;
    job.code = code;
    job.response = std::move(response);
    ++d.stats.jobs_done;
    // Trust boundary: only definitive verdicts enter the cache (see
    // cache.h); an inconclusive exit 3 is recorded but never re-served.
    if (job.code == 0 || job.code == 1) {
      d.cache.insert(job.key, job.code, job.response);
    }
    d.events->append(done_event(job));
    std::remove(job_journal_path(d.options.state_dir, job.id).c_str());
  }
  d.queue.finished(job);
}

void executor_loop(Daemon& d) {
  std::unique_lock<std::mutex> lock(d.mutex);
  for (;;) {
    if (d.closing) return;
    Job* job = d.queue.dispatch(d.clock.seconds());
    if (job == nullptr) {
      d.job_event.wait(lock);
      continue;
    }
    lock.unlock();
    run_job(d, *job);
    lock.lock();
    d.job_event.notify_all();  // a slot freed: more work may be dispatchable
    d.progress_event.notify_all();
  }
}

// --- request handlers -------------------------------------------------------

void handle_submit(Daemon& d, dist::Conn& conn, const Json& msg) {
  const Json* protocol = msg.find("protocol");
  if (protocol == nullptr || protocol->as_int() != kServiceProtocolVersion) {
    conn.send(error_frame("service protocol mismatch (daemon speaks " +
                          std::to_string(kServiceProtocolVersion) + ")"));
    return;
  }
  auto job = std::make_unique<Job>();
  try {
    job->tenant = msg.at("tenant").as_string();
    if (const Json* priority = msg.find("priority")) {
      job->priority = static_cast<int>(priority->as_int());
    }
    job->model_text = msg.at("model_text").as_string();
    job->specs = dist::specs_from_json(msg.at("properties"));
    job->options = dist::options_from_json(msg.at("options"));
    if (const Json* threads = msg.find("threads")) {
      job->options.workers = static_cast<int>(threads->as_int());
    }
    // Validate the submission up front — parse the model and resolve every
    // property — so a bad job is an immediate error frame, not a queued
    // failure discovered minutes later.
    const ta::ThresholdAutomaton ta =
        ta::parse_ta(job->model_text).one_round_reduction();
    dist::resolve_properties(ta, job->specs);
    // Mirror check_property's normalization before fingerprinting, so a
    // certify submission and a certify CLI run share one cache identity.
    if (job->options.certify) job->options.incremental = true;
    job->properties = job->specs.size();
    job->key = job_key(checker::model_content_hash(ta), job->specs,
                       checker::options_fingerprint(job->options), d.options.job_workers);
  } catch (const Error& error) {
    conn.send(error_frame(std::string("bad submission: ") + error.what()));
    return;
  }

  Json reply;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    if (d.closing) {
      conn.send(error_frame("daemon is shutting down"));
      return;
    }
    job->id = d.next_id++;
    job->submitted_seconds = d.clock.seconds();
    ++d.stats.jobs_submitted;
    if (const ResultCache::Entry* hit = d.cache.find(job->key)) {
      // Content-addressed hit: the job is born terminal and serves the
      // original run's bytes with zero schemas solved. Both events go to
      // the log so a restarted daemon re-serves it the same way.
      job->state = JobState::kDone;
      job->cached = true;
      job->code = hit->code;
      job->response = hit->response;
      job->started_seconds = job->submitted_seconds;
      job->finished_seconds = job->submitted_seconds;
      ++d.stats.cache_hits;
      ++d.stats.jobs_done;
      Job* stored = d.queue.enqueue(std::move(job));
      d.events->append(submit_event(*stored));
      d.events->append(done_event(*stored));
      reply = Json::Object{{"type", "submitted"},
                           {"job", stored->id},
                           {"state", to_string(stored->state)},
                           {"cached", true}};
    } else {
      const std::string rejection =
          d.queue.admit(job->tenant, job->options.enumeration.max_schemas);
      if (!rejection.empty()) {
        conn.send(error_frame(rejection));
        return;
      }
      Job* stored = d.queue.enqueue(std::move(job));
      d.events->append(submit_event(*stored));
      d.job_event.notify_all();
      reply = Json::Object{{"type", "submitted"},
                           {"job", stored->id},
                           {"state", to_string(stored->state)},
                           {"cached", false}};
    }
  }
  conn.send(reply);
}

/// One job's status row / progress frame body. Caller holds the lock (the
/// counters themselves are atomics, but state/stamps are lock-guarded).
Json job_status(const Daemon& d, const Job& job) {
  const double now = d.clock.seconds();
  double elapsed = 0.0;
  if (job.state == JobState::kRunning) {
    elapsed = now - job.started_seconds;
  } else if (job.state != JobState::kQueued) {
    elapsed = job.finished_seconds - job.started_seconds;
  }
  const std::int64_t done_properties =
      job.progress.properties_done.load(std::memory_order_relaxed);
  double eta = -1.0;
  if (job.state == JobState::kRunning && done_properties > 0 &&
      job.properties > static_cast<std::size_t>(done_properties)) {
    eta = elapsed / static_cast<double>(done_properties) *
          static_cast<double>(job.properties - static_cast<std::size_t>(done_properties));
  } else if (job.state != JobState::kQueued && job.state != JobState::kRunning) {
    eta = 0.0;
  }
  Json row = Json::Object{
      {"job", job.id},
      {"tenant", job.tenant},
      {"state", to_string(job.state)},
      {"priority", job.priority},
      {"cached", job.cached},
      {"properties", static_cast<std::int64_t>(job.properties)},
      {"properties_done", done_properties},
      {"enumerated", job.progress.enumerated.load(std::memory_order_relaxed)},
      {"solved", job.progress.solved.load(std::memory_order_relaxed)},
      {"pruned", job.progress.pruned.load(std::memory_order_relaxed)},
      {"cut", job.progress.cut.load(std::memory_order_relaxed)},
      {"unknown", job.progress.unknown.load(std::memory_order_relaxed)},
      {"resumed", job.progress.resumed.load(std::memory_order_relaxed)},
      {"workers", job.progress.workers.load(std::memory_order_relaxed)},
      {"elapsed", elapsed},
      {"eta_seconds", eta}};
  if (job.state == JobState::kDone) row.set("code", job.code);
  if (job.state == JobState::kFailed) row.set("error", job.error);
  return row;
}

void handle_status(Daemon& d, dist::Conn& conn, const Json& msg) {
  Json reply;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    Json::Array rows;
    const Json* filter = msg.find("job");
    for (const auto& job : d.queue.jobs()) {
      if (filter != nullptr && job->id != filter->as_int()) continue;
      rows.push_back(job_status(d, *job));
    }
    reply = Json::Object{
        {"type", "status"},
        {"now", d.clock.seconds()},
        {"running", d.queue.running()},
        {"queued", d.queue.queued()},
        {"cache", Json::Object{{"entries", d.cache.entries()},
                               {"bytes", d.cache.bytes()},
                               {"hits", d.cache.hits()},
                               {"misses", d.cache.misses()},
                               {"evictions", d.cache.evictions()}}},
        {"jobs", std::move(rows)}};
  }
  conn.send(reply);
}

void handle_result(Daemon& d, dist::Conn& conn, const Json& msg) {
  const Json* id_field = msg.find("job");
  if (id_field == nullptr) {
    conn.send(error_frame("result: missing job id"));
    return;
  }
  const std::int64_t id = id_field->as_int();
  const Json* wait_field = msg.find("wait");
  const bool wait = wait_field != nullptr && wait_field->as_bool();
  for (;;) {
    Json frame;
    bool terminal = false;
    {
      std::unique_lock<std::mutex> lock(d.mutex);
      Job* job = d.queue.find(id);
      if (job == nullptr) {
        frame = error_frame("unknown job " + std::to_string(id));
        terminal = true;
      } else if (job->state == JobState::kDone) {
        frame = Json::Object{{"type", "result"},
                             {"job", job->id},
                             {"state", to_string(job->state)},
                             {"code", job->code},
                             {"cached", job->cached},
                             {"response", job->response}};
        terminal = true;
      } else if (job->state == JobState::kFailed || job->state == JobState::kCancelled) {
        frame = Json::Object{{"type", "result"},
                             {"job", job->id},
                             {"state", to_string(job->state)},
                             {"code", job->state == JobState::kFailed ? 2 : 3},
                             {"cached", false},
                             {"response", job->error}};
        terminal = true;
      } else if (d.closing) {
        frame = error_frame("daemon is shutting down");
        terminal = true;
      } else {
        frame = job_status(d, *job);
        // Rewrite the row as a progress frame (same fields, typed).
        frame.set("type", "progress");  // appended; readers use find()
        if (wait) {
          // Throttle the stream: wake on terminal transitions, else tick.
          d.progress_event.wait_for(lock, std::chrono::milliseconds(200));
        }
      }
    }
    if (!conn.send(frame)) return;  // client went away; stop streaming
    if (terminal || !wait) return;
  }
}

void handle_cancel(Daemon& d, dist::Conn& conn, const Json& msg) {
  const Json* id_field = msg.find("job");
  if (id_field == nullptr) {
    conn.send(error_frame("cancel: missing job id"));
    return;
  }
  Json reply;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    Job* job = d.queue.find(id_field->as_int());
    if (job == nullptr) {
      conn.send(error_frame("unknown job " + id_field->to_string()));
      return;
    }
    if (job->state == JobState::kQueued) {
      job->state = JobState::kCancelled;
      job->finished_seconds = d.clock.seconds();
      ++d.stats.jobs_cancelled;
      d.events->append(Json::Object{{"event", "cancelled"}, {"job", job->id}});
      d.progress_event.notify_all();
    } else if (job->state == JobState::kRunning && !job->cancel.load()) {
      // Durable intent first, then the flag: if the daemon dies between the
      // two, the restart honors the cancellation instead of re-running.
      d.events->append(Json::Object{{"event", "cancelled"}, {"job", job->id}});
      job->cancel.store(true);
    }
    // Terminal states: cancel is an idempotent no-op.
    reply = Json::Object{{"type", "ok"}, {"job", job->id},
                         {"state", to_string(job->state)}};
  }
  conn.send(reply);
}

void handle_connection(Daemon& d, int fd) {
  dist::Conn conn(fd);
  Json msg;
  for (;;) {
    const dist::FrameStatus status = conn.recv(&msg, 500);
    if (status == dist::FrameStatus::kTimeout) {
      std::lock_guard<std::mutex> lock(d.mutex);
      if (d.closing) return;
      continue;
    }
    if (status != dist::FrameStatus::kOk) return;
    const Json* type = msg.find("type");
    if (type == nullptr) {
      conn.send(error_frame("frame has no type"));
      return;
    }
    const std::string& kind = type->as_string();
    if (kind == "submit") {
      handle_submit(d, conn, msg);
    } else if (kind == "status") {
      handle_status(d, conn, msg);
    } else if (kind == "result") {
      handle_result(d, conn, msg);
    } else if (kind == "cancel") {
      handle_cancel(d, conn, msg);
    } else {
      conn.send(error_frame("unknown request type '" + kind + "'"));
      return;
    }
  }
}

}  // namespace

std::string job_key(const std::string& model_hash, const std::vector<dist::PropertySpec>& specs,
                    const std::string& options_fingerprint, int job_workers) {
  std::string key = "model=" + model_hash + "|props=";
  key += dist::specs_to_json(specs).to_string();
  key += "|opts=" + options_fingerprint;
  key += "|job_workers=" + std::to_string(job_workers >= 2 ? job_workers : 0);
  return key;
}

int run_daemon_fd(int listen_fd, const DaemonOptions& options, std::ostream& log,
                  DaemonStats* stats) {
  if (options.state_dir.empty()) {
    ::close(listen_fd);
    throw InvalidArgument("daemon: a state directory is required");
  }
  ::mkdir(options.state_dir.c_str(), 0755);  // EEXIST is fine
  {
    struct stat st = {};
    if (::stat(options.state_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
      ::close(listen_fd);
      throw Error("daemon: cannot create state directory: " + options.state_dir);
    }
  }

  Daemon daemon(options, log);
  const std::string log_path = options.state_dir + "/queue.jsonl";
  replay(daemon, log_path);  // read the old log before opening for append
  daemon.events = std::make_unique<EventLog>(log_path);
  // Flushed eagerly: the daemon may never exit cleanly (kill -9 is part of
  // its contract), and operators tail this line to confirm a replay.
  log << "daemon: " << daemon.queue.jobs().size() << " jobs replayed ("
      << daemon.stats.jobs_recovered << " re-queued), cache " << daemon.cache.entries()
      << " entries / " << daemon.cache.bytes() << " bytes" << std::endl;

  std::vector<std::thread> executors;
  const int executor_count = options.limits.max_running > 0 ? options.limits.max_running : 1;
  executors.reserve(static_cast<std::size_t>(executor_count));
  for (int i = 0; i < executor_count; ++i) {
    executors.emplace_back([&daemon] { executor_loop(daemon); });
  }
  {
    std::lock_guard<std::mutex> lock(daemon.mutex);
    daemon.job_event.notify_all();  // replayed queue may be dispatchable
  }

  std::vector<std::thread> handlers;
  for (;;) {
    if (options.stop != nullptr && options.stop->load()) break;
    struct pollfd pfd = {};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    handlers.emplace_back([&daemon, fd] { handle_connection(daemon, fd); });
  }

  // Graceful shutdown: stop dispatching, interrupt running jobs at their
  // next cancellation point, and let every thread drain. Queued jobs (and
  // the interrupted ones, which get no terminal event) stay in the event
  // log and re-run on the next start.
  {
    std::lock_guard<std::mutex> lock(daemon.mutex);
    daemon.closing = true;
    for (const auto& job : daemon.queue.jobs()) {
      if (job->state == JobState::kRunning) job->cancel.store(true);
    }
    daemon.job_event.notify_all();
    daemon.progress_event.notify_all();
  }
  for (std::thread& thread : executors) thread.join();
  for (std::thread& thread : handlers) thread.join();
  ::close(listen_fd);

  log << "daemon: shut down (" << daemon.stats.jobs_submitted << " submitted, "
      << daemon.stats.jobs_done << " done, " << daemon.stats.cache_hits << " cache hits, "
      << daemon.stats.jobs_failed << " failed, " << daemon.stats.jobs_cancelled
      << " cancelled)\n";
  if (stats != nullptr) *stats = daemon.stats;
  return 0;
}

int run_daemon(const std::string& listen_address, const DaemonOptions& options,
               std::ostream& log, DaemonStats* stats) {
  const dist::Address address = dist::parse_address(listen_address);
  const int listen_fd = dist::listen_on(address);
  log << "daemon: listening on " << listen_address << "\n";
  const int code = run_daemon_fd(listen_fd, options, log, stats);
  if (address.unix_domain) ::unlink(address.path.c_str());
  return code;
}

}  // namespace hv::service
