// The multi-tenant verification daemon (`hvc daemon --listen <addr>`).
//
// A persistent server accepting many concurrent check/certify submissions
// over the same HVF1 frame protocol the distributed checker speaks
// (frame.h / dist::Conn), answering each with the byte-identical JSON an
// in-process `hvc check --json` run would print. Four cooperating pieces:
//
//   admission + queue   per-tenant quotas and fair-share dispatch
//                       (queue.h); jobs execute in-process or, with
//                       job_workers >= 2, on a fork-local PR-5 lease fleet
//                       per job (dist::check_distributed_local)
//   result cache        content-addressed LRU over (model hash, property
//                       set, canonical options fingerprint); identical
//                       resubmissions answer instantly with zero schemas
//                       solved (cache.h)
//   crash-safe state    an fsync-per-event queue log plus one checker
//                       schema journal per job (persist.h): SIGKILL +
//                       restart re-queues unfinished jobs (which resume
//                       from their journals) and re-serves finished ones
//                       from the re-seeded cache
//   progress streaming  `hvc status`/`hvc result --wait` read live
//                       ProgressCounters (schemas enumerated/solved/cut,
//                       lease fleet size, an ETA extrapolated from settled
//                       properties)
//
// Client frames (one JSON object per frame, "type"-tagged):
//   client -> daemon
//     submit  {protocol, tenant, priority?, model_text, properties[],
//              options{}, threads?}
//     status  {job?}
//     result  {job, wait?}
//     cancel  {job}
//   daemon -> client
//     submitted {job, state, cached}
//     status    {now, running, queued, cache{}, jobs[]}
//     progress  {job, state, tenant, enumerated, solved, pruned, cut,
//                unknown, resumed, properties_done, properties, workers,
//                elapsed, eta_seconds}   (streamed while result waits)
//     result    {job, state, code, cached, response}
//     ok        {}                        (cancel acknowledged)
//     error     {message}                 (admission/quota/protocol)
#ifndef HV_SERVICE_DAEMON_H
#define HV_SERVICE_DAEMON_H

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "hv/dist/protocol.h"
#include "hv/service/queue.h"

namespace hv::service {

struct DaemonOptions {
  /// Queue persistence root: the event log (queue.jsonl) and one schema
  /// journal per job (job-<id>.jsonl) live here. Created if missing.
  std::string state_dir;
  /// Result-cache byte budget; <= 0 disables caching.
  std::int64_t cache_bytes = 64ll * 1024 * 1024;
  QueueLimits limits;
  /// >= 2: execute each job on that many fork-local worker processes
  /// (dist::check_distributed_local) instead of in-process threads. The
  /// fleet shares the daemon's binary; a certifying job's coordinator
  /// still checks every worker record before it merges.
  int job_workers = 0;
  /// Schema-journal durability batch for jobs (checker journal records per
  /// fsync). Smaller than the CLI default so a killed daemon resumes close
  /// to the kill point.
  int journal_flush_batch = 32;
  /// Cooperative shutdown: when the pointee turns true the daemon stops
  /// accepting, cancels running jobs, and returns. Queued jobs stay in the
  /// event log and re-run on the next start.
  const std::atomic<bool>* stop = nullptr;
};

/// Daemon-lifetime counters, for logs/bench.
struct DaemonStats {
  std::int64_t jobs_submitted = 0;
  std::int64_t jobs_done = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t jobs_cancelled = 0;
  std::int64_t cache_hits = 0;
  std::int64_t jobs_recovered = 0;  // re-queued by event-log replay
};

/// Content-addressed identity of one submission: what the result cache and
/// the event log key on. Deterministic in (model content hash, resolved
/// property specs, checker::options_fingerprint, the daemon's per-job
/// worker mode).
std::string job_key(const std::string& model_hash, const std::vector<dist::PropertySpec>& specs,
                    const std::string& options_fingerprint, int job_workers);

/// Binds `listen_address` ("unix:/path" or "tcp:host:port") and serves
/// until `options.stop`. Returns 0 on a clean shutdown. Throws hv::Error
/// for startup failures (bad address, unopenable state dir).
int run_daemon(const std::string& listen_address, const DaemonOptions& options,
               std::ostream& log, DaemonStats* stats = nullptr);

/// Same over an already-listening fd (tests, bench); takes ownership.
int run_daemon_fd(int listen_fd, const DaemonOptions& options, std::ostream& log,
                  DaemonStats* stats = nullptr);

}  // namespace hv::service

#endif  // HV_SERVICE_DAEMON_H
