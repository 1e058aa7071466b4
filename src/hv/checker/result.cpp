#include "hv/checker/result.h"

#include <algorithm>
#include <sstream>

#include "hv/spec/state.h"
#include "hv/util/error.h"

namespace hv::checker {

namespace {

// The configurations along one step of a trace: after i firings of `rule`
// from `start` it is start + i * delta, so counters and shared variables are
// affine in i and every guard, cut or final atom holds on an interval of i.
// That replays a step of any factor in one go.
struct StepLine {
  const ta::CounterSystem& system;
  const ta::Config& start;
  const ta::Rule& rule;

  /// Whether `atom` holds after i firings; exact, so no i overflows.
  bool holds(const smt::LinearConstraint& atom, std::int64_t i) const {
    const ta::ThresholdAutomaton& ta = system.automaton();
    return atom.holds([&](smt::VarId var) -> BigInt {
      if (var >= ta.variable_count()) {
        const ta::LocationId at = var - ta.variable_count();
        return BigInt(start.counters[at]) + BigInt((at == rule.to) - (at == rule.from)) * i;
      }
      if (ta.is_parameter(var)) return BigInt(system.parameter(var));
      BigInt value(start.shared[system.shared_index(var)]);
      for (const auto& [increment, coeff] : rule.update.increments) {
        if (increment == var) value += coeff * i;
      }
      return value;
    });
  }

  /// True iff the rule fires k >= 1 times in a row: the source holds a
  /// process for every firing (one for a self-loop), and the guard, convex
  /// along the line, holds before the first and before the last firing.
  bool enabled_for(std::int64_t k) const {
    return start.counters[rule.from] >= (rule.is_self_loop() ? 1 : k) &&
           std::all_of(rule.guard.atoms.begin(), rule.guard.atoms.end(), [&](const auto& atom) {
             return holds(atom, 0) && holds(atom, k - 1);
           });
  }

  /// The configuration after i firings, or nullopt when a value leaves
  /// int64 (the step does not fit the automaton).
  std::optional<ta::Config> at(std::int64_t i) const {
    ta::Config config = start;
    const auto add = [i](std::int64_t& value, const BigInt& per_firing) {
      std::int64_t delta = 0;
      return per_firing.fits_int64() && !__builtin_mul_overflow(per_firing.to_int64(), i, &delta) &&
             !__builtin_add_overflow(value, delta, &value);
    };
    bool fits = add(config.counters[rule.from], -1) && add(config.counters[rule.to], 1);
    for (const auto& [var, coeff] : rule.update.increments) {
      fits = fits && add(config.shared[system.shared_index(var)], coeff);
    }
    return fits ? std::optional(std::move(config)) : std::nullopt;
  }

  /// The first i in [lo, hi] at which `cnf` holds, or nullopt. The CNF gets
  /// only truer as more atoms hold, so it first holds at lo or where an
  /// atom starts to: a <= or >= atom holds on a prefix or a suffix of the
  /// range, whose start a binary search finds, and an equation where the
  /// later of its halves starts. Those points are tried in order.
  std::optional<std::int64_t> first_holding(const spec::Cnf& cnf, std::int64_t lo,
                                            std::int64_t hi) const {
    std::vector<std::int64_t> points{lo};
    for (const spec::Clause& clause : cnf.clauses) {
      for (smt::LinearConstraint half : clause.literals) {
        const smt::Relation relation = half.relation;
        for (const smt::Relation side : {smt::Relation::kLe, smt::Relation::kGe}) {
          half.relation = side;
          if (relation != smt::Relation::kEq && relation != side) continue;
          if (holds(half, lo) || !holds(half, hi)) continue;
          std::int64_t fails = lo;
          std::int64_t first = hi;
          while (first - fails > 1) {
            const std::int64_t mid = fails + (first - fails) / 2;
            (holds(half, mid) ? first : fails) = mid;
          }
          points.push_back(first);
        }
      }
    }
    std::sort(points.begin(), points.end());
    for (const std::int64_t i : points) {
      if (std::all_of(cnf.clauses.begin(), cnf.clauses.end(), [&](const spec::Clause& clause) {
            return std::any_of(clause.literals.begin(), clause.literals.end(),
                               [&](const auto& atom) { return holds(atom, i); });
          })) {
        return i;
      }
    }
    return std::nullopt;
  }
};

}  // namespace

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

IncrementalStats& IncrementalStats::operator-=(const IncrementalStats& other) noexcept {
  segments_pushed -= other.segments_pushed;
  segments_popped -= other.segments_popped;
  segments_reused -= other.segments_reused;
  schemas_encoded -= other.schemas_encoded;
  return *this;
}

void PropertyTally::count(const SchemaRecord& record, const UnitOutcome& solve,
                          ProgressCounters* progress, bool resumed) {
  const auto add = [&](std::int64_t& field, std::atomic<std::int64_t> ProgressCounters::* live) {
    ++field;
    if (progress != nullptr) (progress->*live).fetch_add(1, std::memory_order_relaxed);
  };
  add(enumerated, &ProgressCounters::enumerated);
  retries += solve.retries;
  lemma_hits += solve.lemma_hits;
  lemmas_learned += solve.lemmas_learned;
  if (resumed) add(this->resumed, &ProgressCounters::resumed);
  if (record.verdict == SchemaVerdict::kPruned) {
    add(pruned, &ProgressCounters::pruned);
  } else if (record.verdict == SchemaVerdict::kUnsat || record.verdict == SchemaVerdict::kSat) {
    add(checked, &ProgressCounters::solved);
    total_length += solve.length;
    pivots += solve.pivots;
    rational_fast_ops += solve.rational_fast_ops;
    rational_big_ops += solve.rational_big_ops;
  } else {
    add(unknown, &ProgressCounters::unknown);
    if (degrade_note.empty()) {
      degrade_note = (resumed ? "schema degraded to unknown (resumed): "
                              : "schema degraded to unknown: ") +
                     solve.note;
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
    const StepLine line{system, config, ta.rule(step.rule)};
    std::optional<ta::Config> next;
    if (line.enabled_for(step.factor)) next = line.at(step.factor);
    if (!next) {
      os << "  !! step " << ta.rule(step.rule).name << " not enabled (invalid trace)\n";
      return os.str();
    }
    config = std::move(*next);
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
  while (next_cut < query.cuts.size() && spec::evaluate(system, query.cuts[next_cut], config)) {
    ++next_cut;
  }
  for (const TraceStep& step : cex.steps) {
    for (const ta::RuleId zero : query.zero_rules) {
      if (step.rule == zero && step.factor > 0) {
        return "trace fires a rule the query freezes: " + ta.rule(step.rule).name;
      }
    }
    if (step.factor == 0) continue;
    const StepLine line{system, config, ta.rule(step.rule)};
    if (!line.enabled_for(step.factor)) {
      return "rule " + ta.rule(step.rule).name + " fired while disabled";
    }
    std::optional<ta::Config> next = line.at(step.factor);
    if (!next) return "trace step does not fit the automaton";
    // Cuts are witnessed in order after any firing of the step, several at
    // one configuration too.
    for (std::int64_t from = 1; next_cut < query.cuts.size(); ++next_cut) {
      const std::optional<std::int64_t> at =
          line.first_holding(query.cuts[next_cut], from, step.factor);
      if (!at) break;
      from = *at;
    }
    config = std::move(*next);
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
