// Distributed verification worker: connects to a coordinator, reconstructs
// the automaton and properties from the welcome message, then pulls schema
// subtree leases and streams back one verdict record per schema. It is a
// lease consumer (checker/run.h) like an in-process thread: each grant
// becomes the lease of a worker-side lease book, settled by the same
// LeaseConsumer, whose book ships every settled schema instead of merging
// it. Runs equally as a process (`hvc work`) or as a plain thread (tests
// drive coordinator and workers in one process over a unix socket).
#ifndef HV_DIST_WORKER_H
#define HV_DIST_WORKER_H

#include <atomic>
#include <cstdint>
#include <string>

#include "hv/checker/fault.h"

namespace hv::dist {

struct WorkerOptions {
  /// Coordinator address ("unix:/path" or "tcp:host:port").
  std::string connect;
  /// Reported in the hello message; shows up in coordinator diagnostics.
  std::string label = "worker";
  /// Keep retrying the initial connect for this long (the coordinator may
  /// still be binding when the worker starts).
  double connect_retry_seconds = 10.0;
  /// Reconnect budget (seconds; 0 disables): after a *connection-level*
  /// failure — connect refused, lost mid-run, handshake that never arrived —
  /// keep re-running the whole worker lifecycle (connect, handshake, lease
  /// loop) with exponential backoff (50ms doubling, capped at 2s) until this
  /// much time passes without a successful connection, so a restarting
  /// coordinator (the service daemon bouncing between jobs) never strands
  /// its fleet. Semantic stops — clean shutdown, cancellation, an injected
  /// abort, protocol or model-hash mismatch — never reconnect. Lease/record
  /// totals accumulate across attempts.
  double reconnect_seconds = 0.0;
  /// Liveness heartbeat period (`hvc work --heartbeat-ms`); must stay well
  /// under the coordinator's lease timeout or a long single-schema solve
  /// looks like a dead worker. The welcome message carries the
  /// coordinator's lease timeout, and the worker refuses to run when the
  /// period exceeds half of it (a semantic stop — reconnecting cannot fix
  /// a misconfiguration).
  int heartbeat_ms = 1000;
  /// Give up when the coordinator goes silent for this long.
  int recv_timeout_ms = 120'000;
  /// Deterministic fault injection inside the solving loop (hvc work arms
  /// it from HV_FAULT_* like hvc check does).
  checker::FaultPlan fault;
  /// External cancellation (SIGINT in hvc work); the worker drops the
  /// connection and returns, and the coordinator reassigns its lease.
  const std::atomic<bool>* cancel = nullptr;
  /// Test hook: after streaming this many records, drop the connection
  /// abruptly mid-lease (simulates a crashed worker; 0 disables).
  std::int64_t drop_after_records = 0;
  /// Test hook (HV_LIE_VERDICTS=1 under `hvc work`): report every unsat
  /// schema as a forged counterexample-free "sat" — a Byzantine worker the
  /// coordinator's merge check catches on its first forged frame, plain or
  /// certifying. Never enable outside adversarial testing.
  bool lie_about_verdicts = false;
};

struct WorkerReport {
  /// True iff the coordinator sent a clean shutdown (run complete).
  bool completed = false;
  /// True iff an injected WorkerAbortFault killed the solving loop; the
  /// hosting process should exit nonzero.
  bool aborted = false;
  std::int64_t leases = 0;
  std::int64_t records = 0;
  std::string note;  // why the worker stopped, when not `completed`
};

/// Runs the worker loop until shutdown, cancellation, connection loss or an
/// injected abort. Throws hv::Error only for local misconfiguration (bad
/// address); everything network-side is reported in the returned note.
WorkerReport run_worker(const WorkerOptions& options);

/// Reconnect backoff with deterministic bounded jitter: `base_ms` ±25%,
/// drawn from (seed, attempt) so a restarted fleet of identically
/// configured workers spreads its reconnect storm instead of hammering the
/// coordinator in lockstep. Exposed for tests (the bound is asserted).
std::int64_t jittered_backoff_ms(std::int64_t base_ms, std::uint64_t seed, int attempt);

}  // namespace hv::dist

#endif  // HV_DIST_WORKER_H
