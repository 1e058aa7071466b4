// Unit tests of the lane pool (hv/util/lanes.h): index order on one lane,
// exception capture, every index exactly once, and real overlap.
#include "hv/util/lanes.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hv {
namespace {

TEST(LanePoolTest, OneLaneRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool same_thread = true;
  const std::vector<std::string> errors = run_lanes(5, 1, [&](std::size_t i) {
    order.push_back(i);
    same_thread = same_thread && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(errors, std::vector<std::string>(5));
}

TEST(LanePoolTest, ThrowingTaskKeepsItsMessageAndTheOthersStillRun) {
  for (const int lanes : {1, 3}) {
    std::atomic<int> ran{0};
    const std::vector<std::string> errors = run_lanes(4, lanes, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 1) throw std::runtime_error("exploded");
      if (i == 2) throw 7;  // not a std::exception
      if (i == 3) throw std::runtime_error("");
    });
    EXPECT_EQ(ran.load(), 4) << lanes;
    ASSERT_EQ(errors.size(), 4u);
    EXPECT_TRUE(errors[0].empty());
    EXPECT_EQ(errors[1], "exploded");
    EXPECT_EQ(errors[2], "unknown exception");
    // An empty what() still reads as a throw, never as success.
    EXPECT_EQ(errors[3], "unknown exception");
  }
}

TEST(LanePoolTest, EveryIndexRunsOnceWhenLanesExceedTasks) {
  std::vector<std::atomic<int>> runs(3);
  const std::vector<std::string> errors =
      run_lanes(runs.size(), 8, [&](std::size_t i) { runs[i].fetch_add(1); });
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(run_lanes(0, 4, [](std::size_t) { FAIL(); }).empty());
}

TEST(LanePoolTest, ManyLanesDrainManyTasks) {
  std::vector<std::atomic<int>> runs(64);
  run_lanes(runs.size(), 4, [&](std::size_t i) { runs[i].fetch_add(1); });
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
}

TEST(LanePoolTest, TwoLanesActuallyOverlap) {
  // Two tasks, each waiting (bounded) for the other to start: only a
  // genuinely concurrent schedule finishes without tripping the bound. One
  // lane would wait out the deadline here, hence the generous timeout acting
  // as the failure detector.
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  run_lanes(2, 2, [&](std::size_t) {
    started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 2);
}

}  // namespace
}  // namespace hv
