#include "hv/sim/vector_runner.h"

#include <algorithm>
#include <tuple>

#include "hv/sim/runner.h"
#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::algo {

// --- VectorRunner ----------------------------------------------------------------

VectorRunner::VectorRunner(Config config) : config_(std::move(config)), rng_(config_.seed) {
  sim::validate_runner_config(config_.n, config_.t, config_.byzantine,
                              config_.proposals.size(), "proposals");
  config_.dbft.n = config_.n;
  config_.dbft.t = config_.t;
  processes_.resize(static_cast<std::size_t>(config_.n));
  for (sim::ProcessId id = 0; id < config_.n; ++id) {
    if (std::find(config_.byzantine.begin(), config_.byzantine.end(), id) !=
        config_.byzantine.end()) {
      continue;  // silent faulty process
    }
    correct_ids_.push_back(id);
    processes_[id] = std::make_unique<VectorConsensusProcess>(
        id, config_.proposals[id], config_.dbft,
        [this](sim::Message message) { network_.send(message); });
  }
}

void VectorRunner::start() {
  for (const sim::ProcessId id : correct_ids_) processes_[id]->start();
  if (config_.equivocate_proposals) {
    // Byzantine proposers send conflicting INITs: value v to one half of
    // the correct processes, v+1 to the other half.
    for (const sim::ProcessId byz : config_.byzantine) {
      for (std::size_t i = 0; i < correct_ids_.size(); ++i) {
        sim::Message message;
        message.from = byz;
        message.to = correct_ids_[i];
        message.type = sim::MsgType::kRbcInit;
        message.instance = byz;
        message.subject = byz;
        message.data = config_.proposals[byz] + (i < correct_ids_.size() / 2 ? 0 : 1);
        network_.send(message);
      }
    }
  }
}

std::int64_t VectorRunner::run(std::int64_t max_steps, bool fair) {
  std::int64_t steps = 0;
  while (steps < max_steps && !network_.idle() && !all_decided()) {
    std::size_t index = 0;
    if (fair) {
      // Per instance and round, prefer BV messages carrying the round's
      // parity (Definition 3 per binary instance); RBC traffic first so
      // proposals spread before votes settle.
      const auto& pending = network_.pending();
      const auto rank = [](const sim::Message& m) {
        if (m.type == sim::MsgType::kRbcInit || m.type == sim::MsgType::kRbcEcho ||
            m.type == sim::MsgType::kRbcReady) {
          return std::tuple<int, int, int>(0, 0, 0);
        }
        const int parity = m.round % 2;
        const int klass =
            (m.type == sim::MsgType::kBv && m.payload == sim::BitSet2::single(parity)) ? 0 : 1;
        return std::tuple<int, int, int>(1, m.round, klass);
      };
      for (std::size_t i = 1; i < pending.size(); ++i) {
        if (rank(pending[i]) < rank(pending[index])) index = i;
      }
    } else {
      index = std::uniform_int_distribution<std::size_t>(0, network_.pending_count() - 1)(rng_);
    }
    const sim::Message message = network_.take(index);
    if (processes_[message.to] != nullptr) processes_[message.to]->on_message(message);
    ++steps;
  }
  return steps;
}

std::int64_t VectorRunner::run_random(std::int64_t max_steps) { return run(max_steps, false); }

std::int64_t VectorRunner::run_fair(std::int64_t max_steps) { return run(max_steps, true); }

const VectorConsensusProcess& VectorRunner::process(sim::ProcessId id) const {
  HV_REQUIRE(processes_[id] != nullptr);
  return *processes_[id];
}

bool VectorRunner::all_decided() const {
  return std::all_of(correct_ids_.begin(), correct_ids_.end(), [&](sim::ProcessId id) {
    return processes_[id]->decision().has_value();
  });
}

std::string VectorRunner::agreement_violation() const {
  std::optional<std::map<sim::ProcessId, std::int32_t>> reference;
  sim::ProcessId reference_id = -1;
  for (const sim::ProcessId id : correct_ids_) {
    const auto decision = processes_[id]->decision();
    if (!decision) continue;
    if (reference && *reference != *decision) {
      return numbered("p", id) + " and p" + std::to_string(reference_id) +
             " decided different vectors";
    }
    reference = decision;
    reference_id = id;
  }
  return {};
}

}  // namespace hv::algo
