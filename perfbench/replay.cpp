#include "replay.h"

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "hv/checker/cone.h"
#include "hv/checker/fault.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/journal.h"
#include "hv/checker/learning.h"
#include "hv/checker/schema.h"
#include "hv/checker/schema_solver.h"
#include "hv/util/stopwatch.h"

namespace perfbench {

namespace checker = hv::checker;

checker::PropertyResult replay_property(const hv::ta::ThresholdAutomaton& ta,
                                        const hv::spec::Property& property,
                                        const checker::CheckOptions& options_in,
                                        Tracer& tracer, ReplayLayers& layers, bool record_cuts) {
  checker::CheckOptions options = options_in;
  // check_property rides the incremental encoders whenever it certifies.
  if (options.certify) options.incremental = true;
  const hv::Stopwatch stopwatch;
  const ScopedSpan property_span(tracer, Layer::kProperty, -1, property.name);

  std::unique_ptr<checker::GuardAnalysis> analysis;
  std::deque<checker::QueryCone> cones;  // immovable: QueryCone owns a mutex
  {
    const ScopedSpan span(tracer, Layer::kAnalysis, property_span.index());
    analysis = std::make_unique<checker::GuardAnalysis>(ta);
    for (const hv::spec::ReachQuery& query : property.queries) cones.emplace_back(*analysis, query);
  }

  checker::FaultInjector injector(options.fault);
  std::atomic<std::int64_t> memory_polls{0};
  std::optional<checker::PropertyLearning> learning;
  if (checker::lemmas_enabled(options)) learning.emplace(property.queries.size());
  checker::PropertyLearning* learn = learning ? &*learning : nullptr;
  checker::SolveHooks hooks;
  hooks.run_watch = &stopwatch;
  hooks.injector = &injector;
  hooks.memory_polls = &memory_polls;
  hooks.learning = learn;
  checker::SchemaSolver solver(*analysis, property, options, hooks);

  checker::PropertyResult result;
  result.property = property.name;
  std::int64_t total_length = 0;
  bool stop = false;
  bool budget_exhausted = false;
  bool aborted = false;
  std::string error_note;
  std::string degrade_note;
  std::optional<checker::Counterexample> counterexample;
  std::vector<checker::SchemaEvidence> evidence;
  std::vector<checker::PrunedSchema> pruned;

  for (std::size_t q = 0; q < property.queries.size() && !stop; ++q) {
    const int cut_count = static_cast<int>(property.queries[q].cuts.size());
    checker::EnumerationOptions enumeration = options.enumeration;
    enumeration.max_schemas = options.enumeration.max_schemas - result.schemas_checked;
    const checker::QueryCone* cone = options.property_directed_pruning ? &cones[q] : nullptr;
    std::int64_t callback_ns = 0;
    const int enumerate_span = tracer.open(Layer::kEnumerate, property_span.index());
    const checker::EnumerationOutcome outcome = checker::enumerate_schemas(
        *analysis, cut_count, enumeration, [&](const checker::Schema& schema) {
          const std::int64_t start = now_ns();
          ++layers.schemas_enumerated;
          if (learn != nullptr) {
            const bool covered = learn->queries[q].cuts.covers(schema.unlock_order);
            const std::int64_t end = now_ns();
            tracer.fold(Layer::kCut, end - start);
            if (covered) {
              ++result.schemas_cut;
              callback_ns += end - start;
              return true;
            }
          }
          if (cone != nullptr) {
            const std::int64_t cone_start = now_ns();
            const bool feasible = cone->schema_feasible(schema);
            const std::int64_t end = now_ns();
            tracer.fold(Layer::kCone, end - cone_start);
            if (!feasible) {
              ++result.schemas_pruned;
              if (options.certify) pruned.push_back({q, schema});
              callback_ns += end - start;
              return true;
            }
          }
          const std::int64_t solve_start = now_ns();
          checker::UnitOutcome unit = solver.solve(q, schema, cone, 0.0);
          const std::int64_t solve_end = now_ns();
          const double solve_ms = static_cast<double>(solve_end - solve_start) * 1e-6;
          layers.solve_ms.push_back(solve_ms);
          std::string cursor = checker::schema_cursor(q, schema);
          if (solve_ms > layers.slowest_solve_ms) {
            layers.slowest_solve_ms = solve_ms;
            layers.slowest_cursor = property.name + "/" + cursor;
          }
          tracer.record(Layer::kSolve, enumerate_span, solve_start, solve_end, std::move(cursor));

          result.retries += unit.retries;
          result.lemma_hits += unit.lemma_hits;
          result.lemmas_learned += unit.lemmas_learned;
          switch (unit.kind) {
            case checker::UnitOutcome::Kind::kAborted:
              ++result.schemas_unknown;
              aborted = true;
              stop = true;
              break;
            case checker::UnitOutcome::Kind::kInterrupted:
              // No cancel flag and no timeout are armed: cannot happen.
              stop = true;
              break;
            case checker::UnitOutcome::Kind::kUnknown:
              ++result.schemas_unknown;
              if (degrade_note.empty()) degrade_note = "schema degraded to unknown: " + unit.note;
              break;
            case checker::UnitOutcome::Kind::kUnsat:
            case checker::UnitOutcome::Kind::kSat: {
              const bool sat = unit.kind == checker::UnitOutcome::Kind::kSat;
              ++result.schemas_checked;
              total_length += unit.length;
              result.simplex_pivots += unit.pivots;
              result.rational_fast_ops += unit.rational_fast_ops;
              result.rational_big_ops += unit.rational_big_ops;
              if (!sat && learn != nullptr && record_cuts && unit.cut_prefix >= 0 &&
                  unit.cut_prefix <= static_cast<int>(schema.unlock_order.size())) {
                const std::int64_t add_start = now_ns();
                learn->queries[q].cuts.add(std::vector<int>(
                    schema.unlock_order.begin(), schema.unlock_order.begin() + unit.cut_prefix));
                tracer.fold(Layer::kCut, now_ns() - add_start);
              }
              if (options.certify) {
                evidence.push_back({q, schema, sat, unit.proof, unit.model});
              }
              if (sat) {
                if (!unit.validation_error.empty()) {
                  error_note = "internal: counterexample failed replay validation: " +
                               unit.validation_error;
                } else {
                  counterexample = std::move(*unit.counterexample);
                }
                stop = true;
              }
              break;
            }
          }
          callback_ns += now_ns() - start;
          return !stop;
        });
    tracer.close(enumerate_span);
    const Span& span = tracer.spans()[static_cast<std::size_t>(enumerate_span)];
    layers.enumerate_self_s +=
        static_cast<double>(span.end_ns - span.start_ns - callback_ns) * 1e-9;
    budget_exhausted = budget_exhausted || outcome.budget_exhausted;
  }
  if (options.incremental) result.incremental = solver.stats();

  result.avg_schema_length = result.schemas_checked == 0
                                 ? 0.0
                                 : static_cast<double>(total_length) /
                                       static_cast<double>(result.schemas_checked);
  result.seconds = stopwatch.seconds();
  // check_property's verdict precedence, minus the cancel and timeout cases
  // the replay never arms.
  if (counterexample) {
    result.verdict = checker::Verdict::kViolated;
    result.counterexample = std::move(counterexample);
  } else if (!error_note.empty()) {
    result.note = error_note;
  } else if (budget_exhausted) {
    result.note = "schema budget exhausted";
  } else if (aborted) {
    result.note = "worker aborted";
  } else if (result.schemas_unknown > 0) {
    result.note = degrade_note;
  } else {
    result.verdict = checker::Verdict::kHolds;
  }
  if (options.certify) {
    auto property_evidence = std::make_shared<checker::PropertyEvidence>();
    property_evidence->schemas = std::move(evidence);
    property_evidence->pruned = std::move(pruned);
    property_evidence->enumeration = options.enumeration;
    property_evidence->property_directed_pruning = options.property_directed_pruning;
    property_evidence->complete = result.verdict == checker::Verdict::kHolds;
    result.evidence = std::move(property_evidence);
  }
  return result;
}

std::string parity_mismatch(const checker::PropertyResult& replay,
                            const checker::PropertyResult& reference) {
  const auto differs = [](const char* field, std::int64_t got, std::int64_t want) {
    return std::string(field) + " " + std::to_string(got) + " != " + std::to_string(want);
  };
  if (replay.verdict != reference.verdict) {
    return "verdict " + checker::to_string(replay.verdict) +
           " != " + checker::to_string(reference.verdict);
  }
  const checker::IncrementalStats none;
  const checker::IncrementalStats& got = replay.incremental ? *replay.incremental : none;
  const checker::IncrementalStats& want = reference.incremental ? *reference.incremental : none;
  const std::pair<const char*, std::pair<std::int64_t, std::int64_t>> fields[] = {
      {"solved", {replay.schemas_checked, reference.schemas_checked}},
      {"pruned", {replay.schemas_pruned, reference.schemas_pruned}},
      {"cut", {replay.schemas_cut, reference.schemas_cut}},
      {"unknown", {replay.schemas_unknown, reference.schemas_unknown}},
      {"pivots", {replay.simplex_pivots, reference.simplex_pivots}},
      {"rational_fast_ops", {replay.rational_fast_ops, reference.rational_fast_ops}},
      {"rational_big_ops", {replay.rational_big_ops, reference.rational_big_ops}},
      {"lemma_hits", {replay.lemma_hits, reference.lemma_hits}},
      {"lemmas_learned", {replay.lemmas_learned, reference.lemmas_learned}},
      {"retries", {replay.retries, reference.retries}},
      {"segments_pushed", {got.segments_pushed, want.segments_pushed}},
      {"segments_popped", {got.segments_popped, want.segments_popped}},
  };
  for (const auto& [field, values] : fields) {
    if (values.first != values.second) return differs(field, values.first, values.second);
  }
  return {};
}

}  // namespace perfbench
