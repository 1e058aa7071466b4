// Distributed verification coordinator: a lease book (checker/run.h) whose
// consumers are remote. The book shards the schema space of every property
// into chain-subtree leases, exactly as for in-process threads, and owns the
// budget, the journal and the merge into PropertyResult / certificate
// evidence, and its ledger of settled cursors dedups every record; the
// coordinator hands its leases to workers over the frame protocol and adds
// what needs a wire or distrust: sessions, skip lists, health, the trust
// gate and the merge check. Learned facts travel with the work: a worker's
// lease_done carries the lemmas it banked, its unsat records carry their
// cuts, the book folds both, and every grant carries the book's facts for
// its (property, query). Each worker settles its grants as a
// LeaseConsumer of a worker-side book (worker.h),
// so a fleet visits and counts schemas as in-process threads do: the
// schemas a worker's cuts skipped arrive as lease_done's `cut` count, and a
// pending lease a cut covers settles ungranted; both are charged to the
// budget as cut schemas, as a thread's would be. With
// several live properties, grants are fair-shared: a "next" request gets
// the pending lease whose property currently has the fewest active leases
// (ties to the lowest index, which preserves the single-property first-fit
// order exactly), so one fleet multiplexes all properties instead of
// draining them one at a time.
//
// Fault model, in one place:
//   * a peer that stops reading: the coordinator sends a peer only replies
//     to that peer's own frames, and never while holding the book's mutex,
//     so such a peer blocks at most its own session's handler thread; no
//     other session and no lock waits on it. Sends have no deadline, so a
//     grant blocked that way keeps its lease active until the run's
//     timeout;
//   * worker death (EOF, torn frame, SIGKILL) or silence beyond the lease
//     timeout: its active lease returns to the pending pool and is granted
//     to the next worker that asks;
//   * duplicated work after a reassignment (the dead worker had already
//     streamed part of the subtree): the book's ledger holds every settled
//     (property, cursor), so replays are idempotent — and the reassigned
//     lease ships the already-settled cursors as a skip list, so the new
//     worker does not even re-solve them;
//   * coordinator death: every merged record was appended to the crash-safe
//     journal; restarting with --resume replays the journal and leases only
//     the remainder (sat records are re-solved, as in-process resume does);
//   * a worker that lies about the model is impossible by construction: the
//     welcome handshake compares model content hashes before any lease;
//   * a peer of another protocol revision never pairs: the hello is
//     answered with a shutdown naming both revisions, and a worker stops on
//     a welcome of another revision. There is no feature negotiation; a
//     fleet whose workers differ in HV_NO_LEMMAS still agrees, since a
//     worker that does not learn just solves every schema it is granted;
//   * a worker that lies about *verdicts* (or speaks garbage) is a
//     Byzantine peer. The record codec refuses any verdict outside
//     pruned/unsat/unknown on a record frame (only a sat frame claims sat);
//     every record/sat frame must cite a lease granted on its own
//     connection whose subtree covers the reported cursor, and a definitive
//     verdict conflicting with one in the ledger is rejected. Violations cost the connection and feed a per-label health
//     score (forged frames, other hostile frames, chronic lease timeouts,
//     reconnect churn) that escalates from cool-down quarantine to a
//     permanent ban for the run. Before any record merges, the merge check
//     replays a sat's counterexample in every mode; a certifying run
//     (--certify) also checks every record with the auditor's own
//     per-schema check (cert::SchemaCheck): an unsat proof or a sat model
//     against the coordinator's trace re-encoding, a pruned claim against
//     the query cone, and a lease_done against the lease's subtree, every
//     schema of which must have settled. A forged frame bans its label at
//     once and its lease re-pends; nothing merged unchecked, so nothing is
//     revoked. A plain fleet trusts its workers' unsat, pruned and
//     lease_done claims; untrusted workers call for --certify. There a
//     worker can still turn a property `unknown` by reporting unknown
//     schemas or cut counts past the budget, but never make it wrong. When
//     the fleet is exhausted — everyone banned, quarantined or gone — the
//     coordinator becomes a lease consumer itself, like an in-process
//     thread: the run slows down, it never wrongs.
#ifndef HV_DIST_COORDINATOR_H
#define HV_DIST_COORDINATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "hv/checker/parameterized.h"
#include "hv/checker/result.h"
#include "hv/dist/protocol.h"

namespace hv::dist {

struct DistOptions {
  /// Solver settings shipped to every worker (the `workers` field is
  /// ignored: parallelism is the number of connected worker processes).
  checker::CheckOptions check;
  /// A worker whose connection stays silent this long loses its lease
  /// (heartbeats count as activity, so only dead or wedged workers hit it).
  double lease_timeout_seconds = 30.0;
  /// Partition granularity hint: aim for at least 4 leases per expected
  /// worker so the fleet load-balances.
  int expected_workers = 2;
  /// The coordinator forked its own fleet (fork-local mode): nobody else
  /// will ever connect, so graceful degradation arms even if no worker
  /// managed to join at all (e.g. every child lost its handshake to
  /// injected network chaos). A serve-mode coordinator keeps waiting
  /// instead — its workers may legitimately arrive much later.
  bool self_hosted_fleet = false;
};

struct DistStats {
  std::int64_t workers_joined = 0;
  std::int64_t workers_lost = 0;
  std::int64_t leases_granted = 0;
  /// Leases returned to the pool after their worker died or timed out.
  std::int64_t leases_reassigned = 0;
  /// Frames that violated the lease/verdict trust rules or failed the merge
  /// check (each costs its connection).
  std::int64_t hostile_frames = 0;
  /// Lease expropriations caused by silence beyond the lease timeout.
  std::int64_t lease_timeouts = 0;
  /// Quarantine cool-downs imposed / permanent bans issued (per label).
  std::int64_t workers_quarantined = 0;
  std::int64_t workers_banned = 0;
  /// Leases the coordinator solved in-process after the fleet was
  /// exhausted (graceful degradation).
  std::int64_t leases_self_solved = 0;
};

/// Serves one verification run at `listen_address` ("unix:/path" or
/// "tcp:host:port") until every lease of every property is settled (or the
/// run stops: counterexamples, timeout, cancellation, schema budget).
/// Returns one PropertyResult per spec, byte-compatible with
/// checker::check_properties on the same model and options. Blocks until
/// workers finish; with no workers it waits until timeout or cancellation
/// (once at least one worker has joined, an exhausted fleet degrades to
/// in-process solving instead of waiting forever).
std::vector<checker::PropertyResult> serve(const std::string& model_text,
                                           const std::vector<PropertySpec>& specs,
                                           const std::string& listen_address,
                                           const DistOptions& options,
                                           DistStats* stats = nullptr);

/// Same, on an already-listening socket (fork-local mode binds before
/// forking its workers so no child can win the race). Takes ownership of
/// `listen_fd`.
std::vector<checker::PropertyResult> serve_fd(int listen_fd, const std::string& model_text,
                                              const std::vector<PropertySpec>& specs,
                                              const DistOptions& options,
                                              DistStats* stats = nullptr);

}  // namespace hv::dist

#endif  // HV_DIST_COORDINATOR_H
