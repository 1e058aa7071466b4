// Orchestration of a DBFT execution: correct processes, the network, a
// pluggable Byzantine adversary, and invariant monitors (agreement,
// validity) evaluated as the run unfolds.
#ifndef HV_SIM_RUNNER_H
#define HV_SIM_RUNNER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "hv/algo/dbft.h"
#include "hv/sim/message.h"
#include "hv/sim/network.h"

namespace hv::sim {

class Runner;

/// Picks the next pending message to deliver. The only non-determinism of a
/// run besides Byzantine injections.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Index into runner.network().pending(); called only when non-empty.
  virtual std::size_t pick(const Runner& runner, std::mt19937_64& rng) = 0;
};

/// Controls the Byzantine processes: inspects the runner before every
/// delivery and may inject arbitrary messages on their behalf.
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual void before_step(Runner& runner) { (void)runner; }
};

struct RunnerConfig {
  int n = 4;
  int t = 1;
  std::vector<ProcessId> byzantine;  // ids in [0, n)
  std::vector<int> inputs;           // one per process; ignored for Byzantine ids
  algo::DbftConfig dbft;             // n and t are overwritten from this config
  std::uint64_t seed = 1;
};

/// Rejects a malformed runner configuration with a message naming the bad
/// field: n must be positive, `input_field` (inputs/proposals) must list
/// exactly n values, byzantine ids must be unique, in [0, n) and at most t
/// many. Shared by Runner and algo::VectorRunner; throws InvalidArgument.
void validate_runner_config(int n, int t, const std::vector<ProcessId>& byzantine,
                            std::size_t input_count, const char* input_field);

class Runner {
 public:
  explicit Runner(RunnerConfig config, std::unique_ptr<Adversary> adversary = nullptr);

  /// Starts every correct process (propose).
  void start();

  /// Adversary hook + one delivery chosen by the scheduler. Returns false
  /// when no message is pending.
  bool step(Scheduler& scheduler);

  /// Runs until quiescence, everyone decided+halted, or `max_steps`.
  /// Returns the number of deliveries performed.
  std::int64_t run(Scheduler& scheduler, std::int64_t max_steps);

  // --- scripted control (Lemma 7 replay, targeted tests) --------------------
  /// Delivers the first pending message matching the predicate; false if
  /// none matches.
  bool deliver_first(const std::function<bool(const Message&)>& predicate);
  /// Injects a message on behalf of a Byzantine process.
  void inject(Message message);

  // --- observers -------------------------------------------------------------
  const Network& network() const noexcept { return network_; }
  bool is_byzantine(ProcessId id) const { return byzantine_.contains(id); }
  const std::vector<ProcessId>& correct_ids() const noexcept { return correct_ids_; }
  const algo::DbftProcess& process(ProcessId id) const;
  algo::DbftProcess& process(ProcessId id);
  const RunnerConfig& config() const noexcept { return config_; }

  bool all_correct_decided() const;
  /// "" if agreement holds so far, else a diagnostic.
  std::string agreement_violation() const;
  /// "" if every decision equals some correct input, else a diagnostic.
  std::string validity_violation() const;

 private:
  RunnerConfig config_;
  std::set<ProcessId> byzantine_;
  std::vector<ProcessId> correct_ids_;
  Network network_;
  std::vector<std::unique_ptr<algo::DbftProcess>> processes_;  // null for Byzantine
  std::unique_ptr<Adversary> adversary_;
  std::mt19937_64 rng_;
};

// --- schedulers ----------------------------------------------------------------

/// Uniformly random delivery (a fair-in-the-limit asynchronous adversary).
class RandomScheduler : public Scheduler {
 public:
  std::size_t pick(const Runner& runner, std::mt19937_64& rng) override;
};

/// FIFO delivery (synchronous-looking executions).
class FifoScheduler : public Scheduler {
 public:
  std::size_t pick(const Runner& runner, std::mt19937_64& rng) override;
};

/// Realizes the fairness assumption of Definition 3: in every round it
/// prioritizes BV messages carrying (round mod 2) from correct senders, so
/// all correct processes bv-deliver the round's parity first, making the
/// round good and forcing a decision (Lemma 4 / Theorem 6).
class GoodRoundScheduler : public Scheduler {
 public:
  std::size_t pick(const Runner& runner, std::mt19937_64& rng) override;
};

// --- adversaries ----------------------------------------------------------------

/// Byzantine processes crash silently (f actual faults, no messages).
class SilentAdversary : public Adversary {};

/// Byzantine processes equivocate: per round, each sends BV(0) and BV(1)
/// and conflicting aux sets to different correct processes (seeded).
class EquivocatingAdversary : public Adversary {
 public:
  void before_step(Runner& runner) override;

 private:
  std::set<std::pair<ProcessId, int>> injected_;  // (byz id, round) once
};

}  // namespace hv::sim

#endif  // HV_SIM_RUNNER_H
