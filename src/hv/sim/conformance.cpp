#include "hv/sim/conformance.h"

#include <vector>

#include "hv/models/bv_broadcast.h"
#include "hv/models/simplified_consensus.h"
#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::sim {

// --- the reusable projection checker ------------------------------------------

TaProjectionChecker::TaProjectionChecker(const ta::ThresholdAutomaton& ta,
                                         const ta::ParamValuation& params)
    : ta_(ta), system_(ta_, params) {}

bool TaProjectionChecker::validate_transition(const ta::Config& before, const ta::Config& after,
                                              std::string* diagnostic) const {
  if (before == after) return true;
  // Identify the moving process's source and destination.
  ta::LocationId from = -1;
  ta::LocationId to = -1;
  for (ta::LocationId location = 0; location < ta_.location_count(); ++location) {
    const std::int64_t delta = after.counters[location] - before.counters[location];
    if (delta == -1 && from == -1) {
      from = location;
    } else if (delta == 1 && to == -1) {
      to = location;
    } else if (delta != 0) {
      *diagnostic = "more than one process moved in a single delivery: " +
                    system_.config_to_string(before) + " -> " + system_.config_to_string(after);
      return false;
    }
  }
  if (from == -1 && to == -1) {
    *diagnostic = "shared counters changed without a location change";
    return false;
  }
  if (from == -1 || to == -1) {
    *diagnostic = "unbalanced counter change (a process appeared or vanished)";
    return false;
  }
  if (search_path(before, after, from, to)) return true;
  *diagnostic = "no enabled rule path explains " + ta_.location(from).name + " -> " +
                ta_.location(to).name + " with the observed counter updates (" +
                system_.config_to_string(before) + " -> " + system_.config_to_string(after) +
                ")";
  return false;
}

bool TaProjectionChecker::search_path(const ta::Config& current, const ta::Config& target,
                                      ta::LocationId at, ta::LocationId goal) const {
  if (at == goal && current == target) return true;
  for (ta::RuleId rule = 0; rule < ta_.rule_count(); ++rule) {
    const ta::Rule& r = ta_.rule(rule);
    if (r.is_self_loop() || r.from != at) continue;
    if (!system_.enabled(rule, current)) continue;
    // Overshooting a shared counter can never be repaired (monotone).
    const ta::Config next = system_.successor(current, rule);
    bool overshoot = false;
    for (int i = 0; i < system_.shared_count(); ++i) {
      overshoot = overshoot || next.shared[i] > target.shared[i];
    }
    if (overshoot) continue;
    if (search_path(next, target, r.to, goal)) return true;
  }
  return false;
}

namespace {

// Shared driving loop: start the runner, project after each delivery,
// validate each projected transition. The Projector supplies the model,
// the per-step projection, and the expected post-start configuration.
template <typename Projector>
ConformanceResult drive(Runner& runner, Scheduler& scheduler, std::int64_t max_steps,
                        Projector& projector) {
  ConformanceResult result;
  runner.start();
  std::optional<ta::Config> previous = projector.project(&result.diagnostic);
  if (!previous) return result;
  if (!projector.validate_start(*previous, &result.diagnostic)) return result;
  while (result.deliveries < max_steps) {
    if (!runner.step(scheduler)) break;
    ++result.deliveries;
    std::optional<ta::Config> current = projector.project(&result.diagnostic);
    if (!current) return result;
    if (!projector.checker().validate_transition(*previous, *current, &result.diagnostic)) {
      return result;
    }
    if (*current != *previous) ++result.transitions;
    previous = std::move(current);
  }
  result.ok = true;
  return result;
}

ta::ParamValuation params_for(const ta::ThresholdAutomaton& ta, const Runner& runner) {
  const RunnerConfig& config = runner.config();
  return {{*ta.find_variable("n"), config.n},
          {*ta.find_variable("t"), config.t},
          {*ta.find_variable("f"), static_cast<std::int64_t>(config.byzantine.size())}};
}

// --- Fig. 4 projection -----------------------------------------------------------

class SimplifiedProjector {
 public:
  explicit SimplifiedProjector(Runner& runner)
      : runner_(runner),
        ta_(models::simplified_consensus_one_round()),
        checker_(ta_, params_for(ta_, runner)) {}

  const TaProjectionChecker& checker() const noexcept { return checker_; }

  std::optional<ta::Config> project(std::string* diagnostic) const {
    ta::Config config;
    config.counters.assign(ta_.location_count(), 0);
    config.shared.assign(checker_.system().shared_count(), 0);
    for (const ProcessId id : runner_.correct_ids()) {
      const algo::DbftProcess& process = runner_.process(id);
      const auto location = project_process(process, diagnostic);
      if (!location) return std::nullopt;
      ++config.counters[*location];

      const auto round1 = process.round_view(1);
      const auto& estimates = process.estimate_history();
      if (!estimates.empty()) {
        ++config.shared[shared_pos(estimates[0] == 0 ? "bvb0" : "bvb1")];
      }
      if (round1.aux_sent) {
        if (!round1.aux_payload.is_singleton()) {
          *diagnostic = numbered("p", id) + ": non-singleton first aux payload";
          return std::nullopt;
        }
        ++config.shared[shared_pos(round1.aux_payload.singleton_value() == 0 ? "aux0" : "aux1")];
      }
      const auto round2 = process.round_view(2);
      if (round2.entered && estimates.size() >= 2) {
        ++config.shared[shared_pos(estimates[1] == 0 ? "bvb0x" : "bvb1x")];
      }
      if (round2.aux_sent) {
        ++config.shared[
            shared_pos(round2.aux_payload.singleton_value() == 0 ? "aux0x" : "aux1x")];
      }
    }
    return config;
  }

  // The first projection must be the TA's initial configuration after
  // everyone's round-1 broadcast (a * s1 + b * s2 from the V-split).
  bool validate_start(const ta::Config& first, std::string* diagnostic) const {
    ta::Config config;
    config.counters.assign(ta_.location_count(), 0);
    config.shared.assign(checker_.system().shared_count(), 0);
    for (const ProcessId id : runner_.correct_ids()) {
      ++config.counters[loc(runner_.config().inputs[id] == 0 ? "V0" : "V1")];
    }
    for (const char* rule_name : {"s1", "s2"}) {
      for (ta::RuleId rule = 0; rule < ta_.rule_count(); ++rule) {
        if (ta_.rule(rule).name != rule_name) continue;
        while (checker_.system().enabled(rule, config)) {
          config = checker_.system().successor(config, rule);
        }
      }
    }
    if (config != first) {
      *diagnostic = "initial projection is not the post-broadcast configuration: " +
                    checker_.system().config_to_string(first);
      return false;
    }
    return true;
  }

 private:
  ta::LocationId loc(const char* name) const { return *ta_.find_location(name); }
  int shared_pos(const char* name) const {
    return checker_.system().shared_index(*ta_.find_variable(name));
  }

  std::optional<ta::LocationId> project_process(const algo::DbftProcess& process,
                                                std::string* diagnostic) const {
    const auto fail = [&](const std::string& what) {
      *diagnostic = numbered("p", process.id()) + ": " + what;
      return std::nullopt;
    };
    const auto by_contestants = [&](const BitSet2 contestants, const char* m0, const char* m1,
                                    const char* m01) -> std::optional<ta::LocationId> {
      if (contestants == BitSet2::single(0)) return loc(m0);
      if (contestants == BitSet2::single(1)) return loc(m1);
      if (contestants == BitSet2(3)) return loc(m01);
      return fail("aux sent with empty contestants");
    };
    const auto round1 = process.round_view(1);
    if (!round1.entered) return fail("never entered round 1");
    if (!round1.advanced) {
      if (!round1.aux_sent) return loc("M");
      return by_contestants(round1.contestants, "M0", "M1", "M01");
    }
    const auto round2 = process.round_view(2);
    if (!round2.entered) return fail("advanced round 1 but never entered round 2");
    if (!round2.advanced) {
      if (!round2.aux_sent) return loc("Mx");
      return by_contestants(round2.contestants, "M0x", "M1x", "M01x");
    }
    // Superround finished: the round-2 outcome picks the final location.
    if (round2.qualifiers == BitSet2::single(0)) return loc("D0");
    if (round2.qualifiers == BitSet2::single(1)) return loc("E1x");
    if (round2.qualifiers == BitSet2(3)) return loc("E0x");
    return fail("advanced round 2 with empty qualifiers");
  }

  Runner& runner_;
  ta::ThresholdAutomaton ta_;
  TaProjectionChecker checker_;
};

// --- Fig. 2 projection (Table 1 semantics) ---------------------------------------

class BvBroadcastProjector {
 public:
  explicit BvBroadcastProjector(Runner& runner)
      : runner_(runner),
        ta_(models::bv_broadcast()),
        checker_(ta_, params_for(ta_, runner)) {}

  const TaProjectionChecker& checker() const noexcept { return checker_; }

  std::optional<ta::Config> project(std::string* diagnostic) const {
    ta::Config config;
    config.counters.assign(ta_.location_count(), 0);
    config.shared.assign(checker_.system().shared_count(), 0);
    for (const ProcessId id : runner_.correct_ids()) {
      const auto round1 = runner_.process(id).round_view(1);
      const auto location = table1_location(round1.bv_broadcast, round1.contestants);
      if (!location) {
        *diagnostic = numbered("p", id) + ": broadcast " +
                      round1.bv_broadcast.to_string() + " / delivered " +
                      round1.contestants.to_string() + " matches no Table 1 location";
        return std::nullopt;
      }
      ++config.counters[*location];
      // b_v counts the BV(v) messages sent by correct processes; every
      // correct process broadcasts each value at most once.
      for (const int value : {0, 1}) {
        if (round1.bv_broadcast.contains(value)) {
          ++config.shared[shared_pos(value == 0 ? "b0" : "b1")];
        }
      }
    }
    return config;
  }

  bool validate_start(const ta::Config& first, std::string* diagnostic) const {
    ta::Config config;
    config.counters.assign(ta_.location_count(), 0);
    config.shared.assign(checker_.system().shared_count(), 0);
    for (const ProcessId id : runner_.correct_ids()) {
      ++config.counters[loc(runner_.config().inputs[id] == 0 ? "V0" : "V1")];
    }
    for (const char* rule_name : {"r1", "r2"}) {
      for (ta::RuleId rule = 0; rule < ta_.rule_count(); ++rule) {
        if (ta_.rule(rule).name != rule_name) continue;
        while (checker_.system().enabled(rule, config)) {
          config = checker_.system().successor(config, rule);
        }
      }
    }
    if (config != first) {
      *diagnostic = "initial projection is not the post-broadcast configuration";
      return false;
    }
    return true;
  }

 private:
  ta::LocationId loc(const char* name) const { return *ta_.find_location(name); }
  int shared_pos(const char* name) const {
    return checker_.system().shared_index(*ta_.find_variable(name));
  }

  // Table 1: (values broadcast, values delivered) -> location.
  std::optional<ta::LocationId> table1_location(BitSet2 broadcast, BitSet2 delivered) const {
    const unsigned key = broadcast.mask() | (delivered.mask() << 2);
    switch (key) {
      case 0b0001:  // broadcast {0}, delivered {}
        return loc("B0");
      case 0b0010:
        return loc("B1");
      case 0b0011:
        return loc("B01");
      case 0b0101:  // broadcast {0}, delivered {0}
        return loc("C0");
      case 0b0111:  // broadcast {0,1}, delivered {0}
        return loc("CB0");
      case 0b1010:
        return loc("C1");
      case 0b1011:
        return loc("CB1");
      case 0b1111:
        return loc("C01");
      default:
        return std::nullopt;
    }
  }

  Runner& runner_;
  ta::ThresholdAutomaton ta_;
  TaProjectionChecker checker_;
};

// Only deliveries that stay within round 1 keep the Fig. 2 projection
// meaningful; a scheduler wrapper refuses everything else.
class Round1Scheduler : public Scheduler {
 public:
  explicit Round1Scheduler(Scheduler& inner) : inner_(inner) {}

  std::size_t pick(const Runner& runner, std::mt19937_64& rng) override {
    // Prefer whatever the inner scheduler picks when it is a round-1 BV
    // message; otherwise the first round-1 BV message; otherwise give up by
    // returning the inner pick (the harness stops on advance anyway).
    const auto& pending = runner.network().pending();
    const std::size_t chosen = inner_.pick(runner, rng);
    const auto is_round1_bv = [](const Message& m) {
      return m.round == 1 && m.type == MsgType::kBv;
    };
    if (is_round1_bv(pending[chosen])) return chosen;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (is_round1_bv(pending[i])) return i;
    }
    return chosen;
  }

 private:
  Scheduler& inner_;
};

}  // namespace

ConformanceResult check_simplified_ta_conformance(Runner& runner, Scheduler& scheduler,
                                                  std::int64_t max_steps) {
  SimplifiedProjector projector(runner);
  return drive(runner, scheduler, max_steps, projector);
}

ConformanceResult check_bv_broadcast_conformance(Runner& runner, Scheduler& scheduler,
                                                 std::int64_t max_steps) {
  BvBroadcastProjector projector(runner);
  Round1Scheduler round1(scheduler);
  // Stop before any process leaves round 1: drive until the network holds
  // only non-round-1-BV traffic.
  ConformanceResult result;
  runner.start();
  std::optional<ta::Config> previous = projector.project(&result.diagnostic);
  if (!previous) return result;
  if (!projector.validate_start(*previous, &result.diagnostic)) return result;
  std::mt19937_64 rng(runner.config().seed ^ 0x9e3779b97f4a7c15ull);
  while (result.deliveries < max_steps) {
    const auto& pending = runner.network().pending();
    bool any_round1_bv = false;
    for (const Message& message : pending) {
      any_round1_bv = any_round1_bv || (message.round == 1 && message.type == MsgType::kBv);
    }
    if (!any_round1_bv) break;  // round 1's broadcast phase has quiesced
    const std::size_t index = round1.pick(runner, rng);
    if (runner.network().pending()[index].round != 1) break;
    // Deliver through the runner's scripted interface to keep counters.
    const Message message = runner.network().pending()[index];
    if (!runner.deliver_first([&](const Message& m) {
          return m.from == message.from && m.to == message.to && m.round == message.round &&
                 m.type == message.type && m.payload == message.payload;
        })) {
      break;
    }
    ++result.deliveries;
    std::optional<ta::Config> current = projector.project(&result.diagnostic);
    if (!current) return result;
    if (!projector.checker().validate_transition(*previous, *current, &result.diagnostic)) {
      return result;
    }
    if (*current != *previous) ++result.transitions;
    previous = std::move(current);
  }
  result.ok = true;
  return result;
}

}  // namespace hv::sim
