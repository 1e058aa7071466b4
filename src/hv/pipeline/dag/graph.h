// The pipeline's dependency DAG: every schedulable unit of the holistic
// method is a node — a property-query (one automaton, one property, one
// options fingerprint) or a composition step — and every edge is a real
// dependency of the paper:
//
//   * the bv-broadcast property nodes gate the justification of the
//     gadget inside the simplified consensus TA, so every consensus node
//     depends on all of them;
//   * the consensus nodes (Inv1/Inv2/Dec/Good/SRoundTerm, both values)
//     gate the Theorem-6 recomposition node;
//   * the naive composite attempt is a free-floating node: nothing
//     depends on it, it depends on nothing.
//
// Dependencies come in two strengths. A *gating* dependency propagates
// failure: when it fails (or is itself cancelled), the dependent is
// cancelled without running — this is how a refuted bv property cancels
// the whole consensus stage early. An *ordering-only* dependency merely
// sequences: the dependent waits for the dependency to settle but runs
// whatever the outcome — this is the composition step, which must report
// verdicts (unknown included) even for a partially failed pipeline.
//
// The same graph shape carries the certificate audit: component nodes
// (model reconstruction) gate per-property shard nodes, which gate the
// per-property coverage walk.
#ifndef HV_PIPELINE_DAG_GRAPH_H
#define HV_PIPELINE_DAG_GRAPH_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace hv::pipeline::dag {

using NodeId = int;

enum class NodeStatus {
  kPending,    // not dispatched yet
  kRunning,    // a lane is executing run()
  kDone,       // run() returned true
  kFailed,     // run() returned false or threw (see Node::error)
  kCancelled,  // never ran: a gating dependency failed, or the run aborted
};

std::string to_string(NodeStatus status);

struct Node {
  /// Stable identity: "<stage>.<property>#<options-fingerprint-hash>" for
  /// property-query nodes. Unique within a graph; journal headers record it
  /// so a per-node journal is never resumed into a different node.
  std::string key;
  /// The work item; returns success. A false return or any exception fails
  /// the node and cancels every gated transitive dependent.
  std::function<bool()> run;
  /// Nodes that must settle before this one is dispatched. Must reference
  /// already-added nodes, so a Graph is acyclic by construction.
  std::vector<NodeId> deps;
  /// Gating (true): cancelled when any dependency does not finish kDone.
  /// Ordering-only (false): waits for its deps but runs regardless.
  bool gated = true;

  // Filled in by the scheduler.
  NodeStatus status = NodeStatus::kPending;
  /// Wall-clock spent inside run(); the node's contribution to the DAG's
  /// aggregate CPU seconds.
  double seconds = 0.0;
  /// What run() threw (its what(), or "unknown exception"); empty when it
  /// returned. Callers turn it into a verdict or an issue, so a thrown
  /// node never passes for a quiet failure.
  std::string error;
};

struct RunOptions;
struct RunStats;

/// Append-only node container. Throws hv::InvalidArgument on a duplicate
/// key, an empty key, a missing run callable or an out-of-range dependency.
class Graph {
 public:
  NodeId add(Node node);
  NodeId add(std::string key, std::function<bool()> run, std::vector<NodeId> deps = {},
             bool gated = true);

  const Node& node(NodeId id) const;
  std::size_t size() const noexcept { return nodes_.size(); }
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

 private:
  friend RunStats run(Graph& graph, const RunOptions& options);

  std::vector<Node> nodes_;
};

}  // namespace hv::pipeline::dag

#endif  // HV_PIPELINE_DAG_GRAPH_H
