#include "hv/sim/runner.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::sim {

void validate_runner_config(int n, int t, const std::vector<ProcessId>& byzantine,
                            std::size_t input_count, const char* input_field) {
  if (n <= 0) {
    throw InvalidArgument("runner: n must be positive, got " + std::to_string(n));
  }
  if (t < 0) {
    throw InvalidArgument("runner: t must be non-negative, got " + std::to_string(t));
  }
  if (static_cast<int>(input_count) != n) {
    throw InvalidArgument("runner: " + std::string(input_field) + " must list exactly n=" +
                          std::to_string(n) + " values, got " + std::to_string(input_count));
  }
  if (static_cast<int>(byzantine.size()) > t) {
    throw InvalidArgument("runner: " + std::to_string(byzantine.size()) +
                          " byzantine ids exceed t=" + std::to_string(t));
  }
  std::unordered_set<ProcessId> seen;
  for (const ProcessId id : byzantine) {
    if (id < 0 || id >= n) {
      throw InvalidArgument("runner: byzantine id " + std::to_string(id) +
                            " out of range [0, " + std::to_string(n) + ")");
    }
    if (!seen.insert(id).second) {
      throw InvalidArgument("runner: duplicate byzantine id " + std::to_string(id));
    }
  }
}

Runner::Runner(RunnerConfig config, std::unique_ptr<Adversary> adversary)
    : config_(std::move(config)),
      byzantine_(config_.byzantine.begin(), config_.byzantine.end()),
      adversary_(std::move(adversary)),
      rng_(config_.seed) {
  validate_runner_config(config_.n, config_.t, config_.byzantine, config_.inputs.size(),
                         "inputs");
  config_.dbft.n = config_.n;
  config_.dbft.t = config_.t;
  processes_.resize(config_.n);
  for (ProcessId id = 0; id < config_.n; ++id) {
    if (byzantine_.contains(id)) continue;
    correct_ids_.push_back(id);
    processes_[id] = std::make_unique<algo::DbftProcess>(
        id, config_.inputs[id], config_.dbft, [this](Message message) {
          network_.count_send();
          network_.send(message);
        });
  }
}

void Runner::start() {
  for (const ProcessId id : correct_ids_) processes_[id]->start();
}

bool Runner::step(Scheduler& scheduler) {
  if (adversary_) adversary_->before_step(*this);
  if (network_.idle()) return false;
  const std::size_t index = scheduler.pick(*this, rng_);
  const Message message = network_.take(index);
  network_.count_delivery();
  if (!byzantine_.contains(message.to)) processes_[message.to]->on_message(message);
  return true;
}

std::int64_t Runner::run(Scheduler& scheduler, std::int64_t max_steps) {
  std::int64_t steps = 0;
  while (steps < max_steps) {
    const bool all_halted = std::all_of(correct_ids_.begin(), correct_ids_.end(),
                                        [&](ProcessId id) { return processes_[id]->halted(); });
    if (all_halted) break;
    if (!step(scheduler)) break;
    ++steps;
  }
  return steps;
}

bool Runner::deliver_first(const std::function<bool(const Message&)>& predicate) {
  const std::optional<Message> message = network_.take_first(predicate);
  if (!message) return false;
  network_.count_delivery();
  if (!byzantine_.contains(message->to)) processes_[message->to]->on_message(*message);
  return true;
}

void Runner::inject(Message message) {
  HV_REQUIRE(byzantine_.contains(message.from));
  network_.count_send();
  network_.send(message);
}

const algo::DbftProcess& Runner::process(ProcessId id) const {
  HV_REQUIRE(processes_[id] != nullptr);
  return *processes_[id];
}

algo::DbftProcess& Runner::process(ProcessId id) {
  HV_REQUIRE(processes_[id] != nullptr);
  return *processes_[id];
}

bool Runner::all_correct_decided() const {
  return std::all_of(correct_ids_.begin(), correct_ids_.end(),
                     [&](ProcessId id) { return processes_[id]->decision().has_value(); });
}

std::string Runner::agreement_violation() const {
  std::optional<int> seen;
  for (const ProcessId id : correct_ids_) {
    const std::optional<int> decision = processes_[id]->decision();
    if (!decision) continue;
    if (seen && *seen != *decision) {
      return numbered("p", id) + " decided " + std::to_string(*decision) +
             " while another process decided " + std::to_string(*seen);
    }
    seen = decision;
  }
  return {};
}

std::string Runner::validity_violation() const {
  std::set<int> proposed;
  for (const ProcessId id : correct_ids_) proposed.insert(config_.inputs[id]);
  for (const ProcessId id : correct_ids_) {
    const std::optional<int> decision = processes_[id]->decision();
    if (decision && !proposed.contains(*decision)) {
      return numbered("p", id) + " decided the unproposed value " +
             std::to_string(*decision);
    }
  }
  return {};
}

// --- schedulers ----------------------------------------------------------------

std::size_t RandomScheduler::pick(const Runner& runner, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> dist(0, runner.network().pending_count() - 1);
  return dist(rng);
}

std::size_t FifoScheduler::pick(const Runner& runner, std::mt19937_64& rng) {
  (void)runner;
  (void)rng;
  return 0;
}

std::size_t GoodRoundScheduler::pick(const Runner& runner, std::mt19937_64& rng) {
  (void)rng;
  const auto& pending = runner.network().pending();
  // Rank: lower rounds first; within a round, BV carrying the round's
  // parity from correct senders, then other correct traffic, then
  // Byzantine messages. This makes every round (r mod 2)-good whenever the
  // parity value is in play, realizing Definition 3.
  std::size_t best = 0;
  auto rank = [&](const Message& message) {
    const int parity = message.round % 2;
    int klass = 3;
    if (!runner.is_byzantine(message.from)) {
      klass = (message.type == MsgType::kBv &&
               message.payload == BitSet2::single(parity))
                  ? 0
                  : 1;
    }
    return std::pair<int, int>(message.round, klass);
  };
  for (std::size_t i = 1; i < pending.size(); ++i) {
    if (rank(pending[i]) < rank(pending[best])) best = i;
  }
  return best;
}

// --- adversaries ----------------------------------------------------------------

void EquivocatingAdversary::before_step(Runner& runner) {
  // Once any correct process reaches round r, every Byzantine process
  // equivocates in r: BV(0) to the first half of the correct processes,
  // BV(1) to the rest, and conflicting aux singletons likewise.
  int max_round = 1;
  for (const ProcessId id : runner.correct_ids()) {
    max_round = std::max(max_round, runner.process(id).current_round());
  }
  for (const ProcessId byz : runner.config().byzantine) {
    for (int round = 1; round <= max_round; ++round) {
      if (!injected_.insert({byz, round}).second) continue;
      const auto& correct = runner.correct_ids();
      for (std::size_t i = 0; i < correct.size(); ++i) {
        const int value = i < correct.size() / 2 ? 0 : 1;
        runner.inject({byz, correct[i], round, MsgType::kBv, BitSet2::single(value)});
        runner.inject({byz, correct[i], round, MsgType::kAux, BitSet2::single(1 - value)});
      }
    }
  }
}

}  // namespace hv::sim
