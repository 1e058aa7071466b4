#include "hv/checker/schema_solver.h"

#include <algorithm>

#include "hv/checker/cone.h"
#include "hv/util/error.h"

namespace hv::checker {

namespace {

// SMT branch-and-bound node budget per schema.
constexpr std::int64_t kBranchBudget = 1'000'000;

}  // namespace

SchemaSolver::SchemaSolver(const GuardAnalysis& analysis, const spec::Property& property,
                           const CheckOptions& options, SolveHooks hooks)
    : analysis_(analysis),
      property_(property),
      options_(options),
      hooks_(hooks),
      mode_(options.certify ? EncoderMode::kCertify : EncoderMode::kSolve),
      encoders_(property.queries.size()) {}

SchemaSolver::~SchemaSolver() = default;

UnitOutcome SchemaSolver::attempt(std::size_t query_index, const Schema& schema,
                                  const QueryCone* cone, double remaining_seconds,
                                  bool incremental) {
  const spec::ReachQuery& query = property_.queries[query_index];
  const Stopwatch schema_watch;
  if (hooks_.injector != nullptr) hooks_.injector->before_solve();
  // Schema wall-clock watchdog: an attempt that stalls before reaching the
  // solver (injected stall, pathological setup) is caught here; once
  // solving, the solver's own deadline polling enforces the rest.
  if (options_.schema_timeout_seconds > 0.0 &&
      schema_watch.seconds() > options_.schema_timeout_seconds) {
    throw Error("checker: schema watchdog cancelled a stalled attempt");
  }
  double budget = remaining_seconds;
  if (options_.schema_timeout_seconds > 0.0) {
    double left = options_.schema_timeout_seconds - schema_watch.seconds();
    left = std::max(left, 0.001);
    budget = budget > 0.0 ? std::min(budget, left) : left;
  }
  if (incremental) {
    // Poll the soft RSS budget on a stride: the first attempt always, then
    // every 16th. A trip can lag by at most 15 schemas, which a *soft*
    // budget tolerates.
    if (options_.memory_budget_mb > 0 && hooks_.memory_polls != nullptr &&
        hooks_.memory_polls->fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
      const std::int64_t rss = current_rss_bytes();
      if (rss > options_.memory_budget_mb * 1024 * 1024) {
        throw Error("checker: memory budget exceeded (rss " +
                    std::to_string(rss / (1024 * 1024)) + " MB > " +
                    std::to_string(options_.memory_budget_mb) + " MB)");
      }
    }
    auto& slot = encoders_[query_index];
    if (!slot) {
      smt::LemmaPool* lemmas =
          hooks_.learning != nullptr ? &hooks_.learning->queries[query_index].lemmas : nullptr;
      slot = std::make_unique<IncrementalSchemaEncoder>(
          analysis_, query, kBranchBudget, cone, mode_, lemmas);
    }
    slot->set_time_budget(budget);
    slot->set_pivot_budget(options_.pivot_budget);
    slot->set_cancel_flag(options_.cancel);
    return slot->check(schema);
  }
  return solve_schema(analysis_, schema, query, kBranchBudget, cone, budget, mode_,
                      options_.pivot_budget, options_.cancel);
}

void SchemaSolver::retire(std::size_t query_index) {
  auto& slot = encoders_[query_index];
  if (!slot) return;
  retired_ += slot->stats();
  slot.reset();
}

UnitOutcome SchemaSolver::solve(std::size_t query_index, const Schema& schema,
                                const QueryCone* cone, double remaining_seconds) {
  // A non-positive remaining budget would disable the solver deadline;
  // clamp it so a unit started at the deadline still aborts promptly.
  if (options_.timeout_seconds > 0.0 && remaining_seconds <= 0.0) {
    remaining_seconds = 0.01;
  }
  UnitOutcome outcome;

  // True iff the failure is a run-level event (cancel, global timeout) that
  // must not be retried or recorded against the schema.
  const auto fatal_interrupt = [&]() -> bool {
    if (options_.cancel != nullptr && options_.cancel->load(std::memory_order_relaxed)) {
      outcome.kind = UnitOutcome::Kind::kInterrupted;
      outcome.note = "cancelled";
      return true;
    }
    if (options_.timeout_seconds > 0.0 && hooks_.run_watch != nullptr &&
        hooks_.run_watch->seconds() > options_.timeout_seconds) {
      outcome.kind = UnitOutcome::Kind::kInterrupted;
      outcome.note = "timeout";
      return true;
    }
    return false;
  };

  std::string failure;
  bool aborted = false;
  // One rung of the ladder: true iff it solved, into `outcome` (keeping the
  // retries taken so far).
  const auto rung = [&](bool incremental) {
    try {
      UnitOutcome solved = attempt(query_index, schema, cone, remaining_seconds, incremental);
      solved.retries = outcome.retries;
      outcome = std::move(solved);
      return true;
    } catch (const WorkerAbortFault&) {
      aborted = true;
    } catch (const Error& error) {
      failure = error.what();
    } catch (const std::bad_alloc&) {
      failure = "allocation failure (std::bad_alloc)";
    }
    // The throw poisoned any incremental encoder; fold its stats and drop it
    // (also the release valve of the memory budget).
    retire(query_index);
    return false;
  };

  bool solved = rung(options_.incremental);
  if (!solved && !aborted) {
    if (fatal_interrupt()) return outcome;
    outcome.retries = 1;
    solved = rung(false);
    if (!solved && !aborted && fatal_interrupt()) return outcome;
  }
  if (aborted) {
    outcome.kind = UnitOutcome::Kind::kAborted;
    outcome.note = "worker aborted mid-schema";
    return outcome;
  }
  if (!solved) {
    // Retry ladder exhausted: the unit degrades to a recorded unknown.
    outcome.kind = UnitOutcome::Kind::kUnknown;
    outcome.note = failure;
    return outcome;
  }
  if (outcome.kind == UnitOutcome::Kind::kUnsat) return outcome;

  const spec::ReachQuery& query = property_.queries[query_index];
  Counterexample& cex = *outcome.counterexample;
  cex.property = property_.name;
  // Every counterexample is replayed against concrete semantics (a guard
  // against encoder bugs), then shrunk while it still replays.
  outcome.validation_error = validate_counterexample(analysis_.automaton(), cex, query);
  if (outcome.validation_error.empty()) {
    cex = minimize_counterexample(analysis_.automaton(), cex, query);
  }
  return outcome;
}

SchemaStep step_schema(SchemaSolver& solver, const QueryCone* cone, std::size_t q,
                       const Schema& schema, double remaining_seconds) {
  PropertyLearning* learning = solver.learning();
  SchemaStep step;
  SchemaRecord& record = step.record;
  if (learning != nullptr && learning->queries[q].cuts.covers(schema.unlock_order)) {
    step.kind = SchemaStep::Kind::kCut;
    return step;
  }
  if (cone != nullptr && !cone->schema_feasible(schema)) {
    record.verdict = SchemaVerdict::kPruned;
    return step;
  }
  UnitOutcome& outcome = step.outcome;
  outcome = solver.solve(q, schema, cone, remaining_seconds);
  switch (outcome.kind) {
    case UnitOutcome::Kind::kInterrupted:
      step.kind = SchemaStep::Kind::kInterrupted;
      return step;
    case UnitOutcome::Kind::kAborted:
      step.kind = SchemaStep::Kind::kAborted;
      [[fallthrough]];
    case UnitOutcome::Kind::kUnknown:
      record.verdict = SchemaVerdict::kUnknown;
      return step;
    case UnitOutcome::Kind::kUnsat:
    case UnitOutcome::Kind::kSat:
      break;
  }
  const bool sat = outcome.kind == UnitOutcome::Kind::kSat;
  record.verdict = sat ? SchemaVerdict::kSat : SchemaVerdict::kUnsat;
  // Core-based subtree cut: every schema whose unlock order extends the
  // refuted prefix (any cut placement) is unsat too. It rides on the unsat
  // record so a journal or a frame never carries the verdict without it.
  if (!sat && learning != nullptr) {
    const auto prefix = cut_prefix(schema.unlock_order, outcome.cut_prefix);
    if (prefix && learning->queries[q].cuts.add(*prefix)) record.cut = outcome.cut_prefix;
  }
  return step;
}

IncrementalStats SchemaSolver::stats() const {
  IncrementalStats total = retired_;
  for (const auto& encoder : encoders_) {
    if (encoder) total += encoder->stats();
  }
  return total;
}

}  // namespace hv::checker
