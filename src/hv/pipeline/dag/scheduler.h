// Runs a dag::Graph on a fixed number of concurrent lanes.
//
// Dispatch is deterministic: among ready nodes the lowest NodeId goes
// first, so a single-lane run executes nodes exactly in insertion order.
// One lane is the default schedule of the holistic pipeline and of the
// certificate audit, which have no other code path.
//
// Cancellation has two sources and one meaning. A *failed* node (run()
// returned false or threw; Node::error keeps the message) cancels its gated
// transitive dependents without running them; an *external* cancel flag
// (SIGINT/SIGTERM) stops dispatch and cancels everything still pending.
// Running nodes are never killed — they are expected to watch the same flag
// through their own options (the checker's CheckOptions::cancel), so both
// layers of cancellation compose through one mechanism.
#ifndef HV_PIPELINE_DAG_SCHEDULER_H
#define HV_PIPELINE_DAG_SCHEDULER_H

#include <atomic>
#include <functional>

#include "hv/pipeline/dag/graph.h"

namespace hv::pipeline::dag {

/// Aggregate view of an in-flight run, recomputed for every observer call.
struct Progress {
  int total = 0;
  int settled = 0;  // done + failed + cancelled
  int running = 0;
  int failed = 0;
  int cancelled = 0;
  double elapsed_seconds = 0.0;
  /// Whole-DAG estimate: elapsed / settled * unsettled. Negative until the
  /// first node settles (no basis for an estimate yet).
  double eta_seconds = -1.0;
};

enum class Event {
  kStart,   // a lane picked the node up
  kSettle,  // the node reached kDone / kFailed / kCancelled
};

struct RunOptions {
  /// Concurrent lanes (worker threads); clamped to >= 1.
  int lanes = 1;
  /// External cancellation; may be null. Checked at every dispatch point.
  const std::atomic<bool>* cancel = nullptr;
  /// Node lifecycle observer; may be null. Called under the scheduler lock
  /// (events are totally ordered and Progress is consistent), possibly from
  /// several lanes — it must be quick and must not re-enter the scheduler.
  std::function<void(Event event, const Node& node, const Progress& progress)> observer;
};

struct RunStats {
  /// End-to-end wall-clock of the run.
  double wall_seconds = 0.0;
  /// Sum of per-node run() times — the work a concurrent run's wall-clock
  /// under-reports.
  double cpu_seconds = 0.0;
  int nodes_done = 0;
  int nodes_failed = 0;
  int nodes_cancelled = 0;
  /// True iff the external cancel flag stopped dispatch.
  bool interrupted = false;
};

/// Executes every node of `graph` (statuses and timings are written back
/// into the nodes) and returns the aggregate accounting. Reentrant per
/// graph: a graph is meant to be run once.
RunStats run(Graph& graph, const RunOptions& options = {});

}  // namespace hv::pipeline::dag

#endif  // HV_PIPELINE_DAG_SCHEDULER_H
