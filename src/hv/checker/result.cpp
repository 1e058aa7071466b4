#include "hv/checker/result.h"

#include <sstream>

#include "hv/spec/state.h"
#include "hv/util/error.h"

namespace hv::checker {

std::string to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kHolds:
      return "holds";
    case Verdict::kViolated:
      return "violated";
    case Verdict::kUnknown:
      return "unknown";
  }
  throw InternalError("unreachable verdict");
}

double IncrementalStats::prefix_reuse_ratio() const noexcept {
  const std::int64_t total = segments_reused + segments_pushed;
  if (total == 0) return 0.0;
  return static_cast<double>(segments_reused) / static_cast<double>(total);
}

IncrementalStats& IncrementalStats::operator+=(const IncrementalStats& other) noexcept {
  segments_pushed += other.segments_pushed;
  segments_popped += other.segments_popped;
  segments_reused += other.segments_reused;
  schemas_encoded += other.schemas_encoded;
  return *this;
}

void PropertyTally::count(const SchemaRecord& record, ProgressCounters* progress, bool resumed) {
  const auto add = [&](std::int64_t& field, std::atomic<std::int64_t> ProgressCounters::* live) {
    ++field;
    if (progress != nullptr) (progress->*live).fetch_add(1, std::memory_order_relaxed);
  };
  add(enumerated, &ProgressCounters::enumerated);
  retries += record.retries;
  if (resumed) add(this->resumed, &ProgressCounters::resumed);
  if (record.verdict == "pruned") {
    add(pruned, &ProgressCounters::pruned);
  } else if (record.verdict == "unsat" || record.verdict == "sat") {
    add(checked, &ProgressCounters::solved);
    total_length += record.length;
    pivots += record.pivots;
    rational_fast_ops += record.fast;
    rational_big_ops += record.big;
  } else {
    add(unknown, &ProgressCounters::unknown);
    if (degrade_note.empty()) {
      degrade_note = (resumed ? "schema degraded to unknown (resumed): "
                              : "schema degraded to unknown: ") +
                     record.note;
    }
  }
}

void RunEnd::witness(std::optional<Counterexample> cex, const std::string& validation_error) {
  if (!validation_error.empty()) {
    if (error_note.empty()) {
      error_note = "internal: counterexample failed replay validation: " + validation_error;
    }
  } else if (cex && !counterexample) {
    counterexample = std::move(cex);
  }
}

std::string Counterexample::to_string(const ta::ThresholdAutomaton& ta) const {
  std::ostringstream os;
  os << "counterexample to " << property << " (" << query_description << ")\n";
  os << "  parameters:";
  for (const auto& [var, value] : params) {
    os << " " << ta.variable_name(var) << "=" << value;
  }
  os << "\n";
  const ta::CounterSystem system(ta, params);
  ta::Config config = initial;
  os << "  initial:  " << system.config_to_string(config) << "\n";
  for (const TraceStep& step : steps) {
    if (step.factor == 0) continue;
    for (std::int64_t i = 0; i < step.factor; ++i) {
      if (!system.enabled(step.rule, config)) {
        os << "  !! step " << ta.rule(step.rule).name << " not enabled (invalid trace)\n";
        return os.str();
      }
      config = system.successor(config, step.rule);
    }
    os << "  " << step.factor << "x " << ta.rule_to_string(step.rule) << "\n";
    os << "    -> " << system.config_to_string(config) << "\n";
  }
  return os.str();
}

std::string validate_counterexample(const ta::ThresholdAutomaton& ta, const Counterexample& cex,
                                    const spec::ReachQuery& query) {
  if (cex.initial.counters.size() != static_cast<std::size_t>(ta.location_count()) ||
      cex.initial.shared.size() != ta.shared_variables().size()) {
    return "initial configuration does not fit the automaton";
  }
  for (const TraceStep& step : cex.steps) {
    if (step.rule < 0 || step.rule >= ta.rule_count() || step.factor < 0) {
      return "trace step does not fit the automaton";
    }
  }
  const ta::CounterSystem system(ta, cex.params);
  ta::Config config = cex.initial;
  if (!spec::evaluate(system, query.initial, config)) {
    return "initial constraint fails on the initial configuration";
  }
  std::size_t next_cut = 0;
  const auto consume_cuts = [&] {
    while (next_cut < query.cuts.size() &&
           spec::evaluate(system, query.cuts[next_cut], config)) {
      ++next_cut;
    }
  };
  consume_cuts();
  for (const TraceStep& step : cex.steps) {
    for (const ta::RuleId zero : query.zero_rules) {
      if (step.rule == zero && step.factor > 0) {
        return "trace fires a rule the query freezes: " + ta.rule(step.rule).name;
      }
    }
    for (std::int64_t i = 0; i < step.factor; ++i) {
      if (!system.enabled(step.rule, config)) {
        return "rule " + ta.rule(step.rule).name + " fired while disabled";
      }
      config = system.successor(config, step.rule);
      consume_cuts();
    }
  }
  if (next_cut < query.cuts.size()) {
    return "not all cut constraints were witnessed along the trace";
  }
  if (!spec::evaluate(system, query.final_cnf, config)) {
    return "final constraint fails on the last configuration";
  }
  return {};
}

Counterexample minimize_counterexample(const ta::ThresholdAutomaton& ta,
                                       const Counterexample& cex,
                                       const spec::ReachQuery& query) {
  Counterexample best = cex;
  HV_REQUIRE(validate_counterexample(ta, best, query).empty());
  const auto try_candidate = [&](Counterexample candidate) {
    if (validate_counterexample(ta, candidate, query).empty()) {
      best = std::move(candidate);
      return true;
    }
    return false;
  };
  // Drop whole steps, from the end backwards (later steps are the most
  // likely to be slack added by segment copies).
  for (std::size_t i = best.steps.size(); i-- > 0;) {
    Counterexample candidate = best;
    candidate.steps.erase(candidate.steps.begin() + static_cast<std::ptrdiff_t>(i));
    try_candidate(std::move(candidate));
  }
  // Shrink surviving factors by halving towards 1.
  for (std::size_t i = 0; i < best.steps.size(); ++i) {
    while (best.steps[i].factor > 1) {
      Counterexample candidate = best;
      candidate.steps[i].factor /= 2;
      if (!try_candidate(std::move(candidate))) break;
    }
    while (best.steps[i].factor > 1) {
      Counterexample candidate = best;
      --candidate.steps[i].factor;
      if (!try_candidate(std::move(candidate))) break;
    }
  }
  return best;
}

}  // namespace hv::checker
