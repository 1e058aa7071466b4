#include "hv/pipeline/dag/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hv/util/stopwatch.h"

namespace hv::pipeline::dag {

namespace {

/// All mutable scheduling state, guarded by one mutex: node statuses live
/// in the graph itself; everything else is the bookkeeping to decide what
/// is ready.
struct SchedState {
  std::mutex mutex;
  std::condition_variable work;
  /// Ready nodes ordered by id — deterministic dispatch, and insertion
  /// order on one lane.
  std::set<NodeId> ready;
  /// Unsatisfied dependency counts; a node enters `ready` (or is cancelled)
  /// when its count reaches zero.
  std::vector<int> pending_deps;
  /// Dependents adjacency (forward edges), built once from Node::deps.
  std::vector<std::vector<NodeId>> dependents;
  /// A gated node is poisoned when any dependency settled != kDone; it is
  /// cancelled instead of dispatched once its deps are all settled.
  std::vector<bool> poisoned;
  int unsettled = 0;
  int running = 0;
  bool aborted = false;  // external cancel observed
};

}  // namespace

RunStats run(Graph& graph, const RunOptions& options) {
  const Stopwatch stopwatch;
  RunStats stats;
  std::vector<Node>& nodes = graph.nodes_;
  const int total = static_cast<int>(nodes.size());
  if (total == 0) return stats;
  const int lanes = std::max(1, std::min(options.lanes, total));

  SchedState state;
  state.pending_deps.resize(nodes.size(), 0);
  state.dependents.resize(nodes.size());
  state.poisoned.resize(nodes.size(), false);
  state.unsettled = total;
  for (NodeId id = 0; id < total; ++id) {
    const Node& node = nodes[static_cast<std::size_t>(id)];
    state.pending_deps[static_cast<std::size_t>(id)] = static_cast<int>(node.deps.size());
    for (const NodeId dep : node.deps) {
      state.dependents[static_cast<std::size_t>(dep)].push_back(id);
    }
    if (node.deps.empty()) state.ready.insert(id);
  }

  const auto progress_snapshot = [&]() {
    Progress p;
    p.total = total;
    p.settled = total - state.unsettled;
    p.running = state.running;
    p.failed = stats.nodes_failed;
    p.cancelled = stats.nodes_cancelled;
    p.elapsed_seconds = stopwatch.seconds();
    if (p.settled > 0 && p.settled < total) {
      p.eta_seconds = p.elapsed_seconds / p.settled * (total - p.settled);
    } else if (p.settled == total) {
      p.eta_seconds = 0.0;
    }
    return p;
  };

  const auto observe = [&](Event event, NodeId id) {
    if (options.observer) {
      options.observer(event, nodes[static_cast<std::size_t>(id)], progress_snapshot());
    }
  };

  // Settles one node (caller holds the lock) and walks the consequences:
  // dependents' counts drop, gated dependents of a non-done node are
  // poisoned, and fully-satisfied poisoned nodes cascade into cancellation
  // without ever being dispatched.
  const auto settle = [&](NodeId first, NodeStatus first_status) {
    std::deque<std::pair<NodeId, NodeStatus>> queue{{first, first_status}};
    while (!queue.empty()) {
      const auto [id, status] = queue.front();
      queue.pop_front();
      Node& node = nodes[static_cast<std::size_t>(id)];
      node.status = status;
      --state.unsettled;
      if (status == NodeStatus::kDone) {
        ++stats.nodes_done;
      } else if (status == NodeStatus::kFailed) {
        ++stats.nodes_failed;
      } else {
        ++stats.nodes_cancelled;
      }
      for (const NodeId dep_id : state.dependents[static_cast<std::size_t>(id)]) {
        Node& dependent = nodes[static_cast<std::size_t>(dep_id)];
        if (status != NodeStatus::kDone && dependent.gated) {
          state.poisoned[static_cast<std::size_t>(dep_id)] = true;
        }
        if (--state.pending_deps[static_cast<std::size_t>(dep_id)] > 0) continue;
        if (state.poisoned[static_cast<std::size_t>(dep_id)]) {
          queue.emplace_back(dep_id, NodeStatus::kCancelled);
        } else {
          state.ready.insert(dep_id);
        }
      }
      observe(Event::kSettle, id);
    }
  };

  const auto externally_cancelled = [&] {
    return options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
  };

  const auto lane = [&] {
    std::unique_lock<std::mutex> lock(state.mutex);
    while (true) {
      state.work.wait(lock, [&] {
        return !state.ready.empty() || state.unsettled == 0 || state.aborted;
      });
      if (state.aborted || state.unsettled == 0) return;
      if (externally_cancelled()) {
        state.aborted = true;
        stats.interrupted = true;
        state.work.notify_all();
        return;
      }
      const NodeId id = *state.ready.begin();
      state.ready.erase(state.ready.begin());
      Node& node = nodes[static_cast<std::size_t>(id)];
      node.status = NodeStatus::kRunning;
      ++state.running;
      observe(Event::kStart, id);
      lock.unlock();

      const Stopwatch node_watch;
      bool ok = false;
      std::string error;
      try {
        ok = node.run();
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
      const double seconds = node_watch.seconds();

      lock.lock();
      node.seconds = seconds;
      node.error = std::move(error);
      stats.cpu_seconds += seconds;
      --state.running;
      settle(id, ok ? NodeStatus::kDone : NodeStatus::kFailed);
      state.work.notify_all();
    }
  };

  if (lanes == 1) {
    lane();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; ++i) threads.emplace_back(lane);
    for (std::thread& thread : threads) thread.join();
  }

  // An aborted run leaves pending nodes behind; they settle as cancelled so
  // every node has a final status and observers see a complete event log.
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (NodeId id = 0; id < total; ++id) {
      if (nodes[static_cast<std::size_t>(id)].status == NodeStatus::kPending) {
        Node& node = nodes[static_cast<std::size_t>(id)];
        node.status = NodeStatus::kCancelled;
        --state.unsettled;
        ++stats.nodes_cancelled;
        observe(Event::kSettle, id);
      }
    }
    // A cancel that lands while the last running nodes wind down may empty
    // the DAG through the settle cascade before any lane re-checks the
    // flag; a run that cancelled nodes under an armed flag was interrupted.
    if (externally_cancelled() && stats.nodes_cancelled > 0) stats.interrupted = true;
  }

  stats.wall_seconds = stopwatch.seconds();
  return stats;
}

}  // namespace hv::pipeline::dag
