// Unit tests of the pipeline DAG scheduler: graph construction invariants,
// deterministic single-lane order, gating vs ordering-only edges, failure
// cascades, external cancellation, multi-lane overlap and the accounting /
// observer contract.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hv/pipeline/dag/scheduler.h"
#include "hv/util/error.h"
#include "hv/util/text.h"

namespace dag = hv::pipeline::dag;

namespace {

TEST(DagGraphTest, RejectsMalformedNodes) {
  dag::Graph graph;
  const auto ok = [] { return true; };
  EXPECT_THROW(graph.add("", ok), hv::InvalidArgument);
  EXPECT_THROW(graph.add("a", nullptr), hv::InvalidArgument);
  const dag::NodeId a = graph.add("a", ok);
  EXPECT_THROW(graph.add("a", ok), hv::InvalidArgument);  // duplicate key
  EXPECT_THROW(graph.add("b", ok, {a, a}), hv::InvalidArgument);  // duplicate dep
  EXPECT_THROW(graph.add("c", ok, {7}), hv::InvalidArgument);     // unknown dep
  // A dep may only reference an earlier node, so cycles cannot be built.
  EXPECT_THROW(graph.add("d", ok, {2}), hv::InvalidArgument);
  EXPECT_EQ(graph.size(), 1u);
}

TEST(DagSchedulerTest, SingleLaneRunsInInsertionOrder) {
  dag::Graph graph;
  std::vector<std::string> order;
  // Diamond plus a free-floating node, inserted out of dependency order
  // relative to nothing — insertion order is a valid topological order by
  // construction, and one lane must follow it exactly.
  graph.add("a", [&] { order.push_back("a"); return true; });
  const dag::NodeId b = graph.add("b", [&] { order.push_back("b"); return true; }, {0});
  const dag::NodeId c = graph.add("c", [&] { order.push_back("c"); return true; }, {0});
  graph.add("d", [&] { order.push_back("d"); return true; }, {b, c});
  graph.add("naive", [&] { order.push_back("naive"); return true; });

  const dag::RunStats stats = dag::run(graph);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "d", "naive"}));
  EXPECT_EQ(stats.nodes_done, 5);
  EXPECT_EQ(stats.nodes_failed, 0);
  EXPECT_EQ(stats.nodes_cancelled, 0);
  EXPECT_FALSE(stats.interrupted);
  for (const dag::Node& node : graph.nodes()) {
    EXPECT_EQ(node.status, dag::NodeStatus::kDone) << node.key;
  }
}

TEST(DagSchedulerTest, FailureCancelsGatedTransitiveDependents) {
  dag::Graph graph;
  std::vector<std::string> ran;
  const dag::NodeId bad = graph.add("bad", [&] { ran.push_back("bad"); return false; });
  const dag::NodeId mid = graph.add("mid", [&] { ran.push_back("mid"); return true; }, {bad});
  graph.add("leaf", [&] { ran.push_back("leaf"); return true; }, {mid});
  graph.add("other", [&] { ran.push_back("other"); return true; });

  const dag::RunStats stats = dag::run(graph);
  EXPECT_EQ(ran, (std::vector<std::string>{"bad", "other"}));
  EXPECT_EQ(graph.node(0).status, dag::NodeStatus::kFailed);
  EXPECT_EQ(graph.node(1).status, dag::NodeStatus::kCancelled);
  EXPECT_EQ(graph.node(2).status, dag::NodeStatus::kCancelled);
  EXPECT_EQ(graph.node(3).status, dag::NodeStatus::kDone);
  EXPECT_EQ(stats.nodes_failed, 1);
  EXPECT_EQ(stats.nodes_cancelled, 2);
  EXPECT_EQ(stats.nodes_done, 1);
  EXPECT_FALSE(stats.interrupted);  // internal failure is not an interrupt
}

TEST(DagSchedulerTest, ThrowingNodeFails) {
  dag::Graph graph;
  graph.add("boom", [&]() -> bool { throw hv::InternalError("exploded"); });
  graph.add("gated", [&] { return true; }, {0});
  const dag::RunStats stats = dag::run(graph);
  EXPECT_EQ(graph.node(0).status, dag::NodeStatus::kFailed);
  EXPECT_EQ(graph.node(1).status, dag::NodeStatus::kCancelled);
  EXPECT_EQ(stats.nodes_failed, 1);
  // The message is kept, so callers can report the failure instead of
  // mistaking it for a quiet one.
  EXPECT_NE(graph.node(0).error.find("exploded"), std::string::npos);
  EXPECT_TRUE(graph.node(1).error.empty());
}

TEST(DagSchedulerTest, OrderingOnlyDependentRunsAfterFailure) {
  // The Theorem-6 composition node: waits for everything, runs regardless.
  dag::Graph graph;
  std::vector<std::string> ran;
  const dag::NodeId bad = graph.add("bad", [&] { ran.push_back("bad"); return false; });
  const dag::NodeId gated =
      graph.add("gated", [&] { ran.push_back("gated"); return true; }, {bad});
  graph.add(
      "compose", [&] { ran.push_back("compose"); return true; }, {bad, gated},
      /*gated=*/false);

  const dag::RunStats stats = dag::run(graph);
  EXPECT_EQ(ran, (std::vector<std::string>{"bad", "compose"}));
  EXPECT_EQ(graph.node(2).status, dag::NodeStatus::kDone);
  EXPECT_EQ(stats.nodes_done, 1);
  EXPECT_EQ(stats.nodes_failed, 1);
  EXPECT_EQ(stats.nodes_cancelled, 1);
}

TEST(DagSchedulerTest, ExternalCancelBeforeDispatchCancelsEverything) {
  dag::Graph graph;
  std::vector<std::string> ran;
  graph.add("a", [&] { ran.push_back("a"); return true; });
  graph.add("b", [&] { ran.push_back("b"); return true; });
  std::atomic<bool> cancel{true};
  dag::RunOptions options;
  options.cancel = &cancel;
  const dag::RunStats stats = dag::run(graph, options);
  EXPECT_TRUE(ran.empty());
  EXPECT_EQ(stats.nodes_cancelled, 2);
  EXPECT_TRUE(stats.interrupted);
}

TEST(DagSchedulerTest, ExternalCancelMidRunStopsFurtherDispatch) {
  dag::Graph graph;
  std::atomic<bool> cancel{false};
  std::vector<std::string> ran;
  graph.add("first", [&] {
    ran.push_back("first");
    cancel.store(true);  // the running node observes the signal source
    return true;
  });
  graph.add("second", [&] { ran.push_back("second"); return true; });
  dag::RunOptions options;
  options.cancel = &cancel;
  const dag::RunStats stats = dag::run(graph, options);
  EXPECT_EQ(ran, (std::vector<std::string>{"first"}));
  EXPECT_EQ(graph.node(0).status, dag::NodeStatus::kDone);
  EXPECT_EQ(graph.node(1).status, dag::NodeStatus::kCancelled);
  EXPECT_TRUE(stats.interrupted);
}

TEST(DagSchedulerTest, TwoLanesActuallyOverlap) {
  // Two independent nodes, each waiting (bounded) for the other to start:
  // only a genuinely concurrent schedule finishes without tripping the
  // bound. One lane would deadlock here, hence the generous timeout acting
  // as the failure detector.
  dag::Graph graph;
  std::atomic<int> started{0};
  const auto rendezvous = [&]() -> bool {
    started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  graph.add("left", rendezvous);
  graph.add("right", rendezvous);
  dag::RunOptions options;
  options.lanes = 2;
  const dag::RunStats stats = dag::run(graph, options);
  EXPECT_EQ(stats.nodes_done, 2);
  EXPECT_EQ(stats.nodes_failed, 0);
}

TEST(DagSchedulerTest, ManyLanesDrainAWideGraph) {
  dag::Graph graph;
  std::atomic<int> ran{0};
  std::vector<dag::NodeId> layer;
  for (int i = 0; i < 24; ++i) {
    layer.push_back(graph.add(hv::numbered("n", i), [&] {
      ran.fetch_add(1);
      return true;
    }));
  }
  graph.add("join", [&] { return ran.load() == 24; }, layer);
  dag::RunOptions options;
  options.lanes = 8;
  const dag::RunStats stats = dag::run(graph, options);
  EXPECT_EQ(stats.nodes_done, 25);
  EXPECT_EQ(graph.node(24).status, dag::NodeStatus::kDone);
}

TEST(DagSchedulerTest, ObserverSeesOrderedEventsAndEta) {
  dag::Graph graph;
  graph.add("a", [] { return true; });
  graph.add("b", [] { return true; }, {0});
  int starts = 0;
  int settles = 0;
  int last_settled = 0;
  double last_eta = -1.0;
  dag::RunOptions options;
  options.observer = [&](dag::Event event, const dag::Node& node, const dag::Progress& p) {
    EXPECT_EQ(p.total, 2);
    EXPECT_FALSE(node.key.empty());
    if (event == dag::Event::kStart) {
      ++starts;
      return;
    }
    ++settles;
    EXPECT_GE(p.settled, last_settled);  // settles are monotone
    last_settled = p.settled;
    last_eta = p.eta_seconds;
  };
  dag::run(graph, options);
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(settles, 2);
  EXPECT_EQ(last_settled, 2);
  EXPECT_EQ(last_eta, 0.0);  // nothing unsettled at the last event
}

TEST(DagSchedulerTest, StatsSeparateWallFromCpuSeconds) {
  dag::Graph graph;
  const auto nap = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return true;
  };
  graph.add("a", nap);
  graph.add("b", nap);
  dag::RunOptions options;
  options.lanes = 2;
  const dag::RunStats stats = dag::run(graph, options);
  double summed = 0.0;
  for (const dag::Node& node : graph.nodes()) summed += node.seconds;
  EXPECT_NEAR(stats.cpu_seconds, summed, 1e-9);
  EXPECT_GE(stats.cpu_seconds, 0.04);
  // Sleep-bound nodes overlap even on one core: the whole point of
  // reporting both numbers is that wall < sum under concurrency.
  EXPECT_LT(stats.wall_seconds, stats.cpu_seconds);
}

}  // namespace
