#include "hv/checker/parameterized.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "hv/checker/cone.h"
#include "hv/checker/encoder.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/journal.h"
#include "hv/checker/learning.h"
#include "hv/checker/schema_solver.h"
#include "hv/util/error.h"
#include "hv/util/rational.h"
#include "hv/util/stopwatch.h"
#include "hv/util/text.h"

namespace hv::checker {

namespace {

// Cross-worker state of one property run. Workers keep their counters in a
// local PropertyTally and fold it into `total` when they retire.
struct RunState {
  /// Set once the run must end (verdict found, cancel, timeout, budget);
  /// every worker stops at its next schema and claims no further work.
  std::atomic<bool> stop{false};
  /// Schemas visited so far, across queries and workers: the schema budget.
  std::atomic<std::int64_t> enumerated{0};
  // Counts incremental attempts so the soft memory budget can poll RSS on a
  // stride (reading /proc per attempt is measurable on schema-heavy runs).
  std::atomic<std::int64_t> memory_polls{0};

  std::mutex mutex;
  RunEnd end;           // guarded by mutex; first counterexample/error wins
  PropertyTally total;  // guarded by mutex
};

// Records why the run ends and stops every worker.
void halt(RunState& state, bool RunEnd::* reason) {
  std::lock_guard<std::mutex> lock(state.mutex);
  state.end.*reason = true;
  state.stop.store(true);
}

// Run-wide fault-tolerance plumbing, shared read-only across workers
// (the journal is internally synchronized).
struct RunContext {
  ProgressJournal* journal = nullptr;
  const ResumeState* resume = nullptr;
  // Re-append resumed records iff they come from a different file than the
  // one being written (same-file resume already holds them).
  bool copy_resumed = false;
  // Live observer counters (CheckOptions::progress); null when nobody is
  // watching.
  ProgressCounters* progress = nullptr;
};

void bump(std::atomic<std::int64_t> ProgressCounters::* counter, const RunContext& ctx) {
  if (ctx.progress != nullptr) (ctx.progress->*counter).fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

bool lemmas_enabled(const CheckOptions& options) {
  if (!options.lemmas || !options.incremental || options.certify) return false;
  const char* value = std::getenv("HV_NO_LEMMAS");
  return value == nullptr || value[0] == '\0' || std::string_view(value) == "0";
}

PropertyResult settle_result(std::string property, PropertyTally tally, RunEnd end,
                             double seconds, const CheckOptions& options) {
  PropertyResult result;
  result.property = std::move(property);
  result.schemas_checked = tally.checked;
  result.schemas_pruned = tally.pruned;
  result.schemas_cut = tally.cut;
  result.lemma_hits = tally.lemma_hits;
  result.lemmas_learned = tally.lemmas_learned;
  result.schemas_unknown = tally.unknown;
  result.schemas_resumed = tally.resumed;
  result.retries = tally.retries;
  result.interrupted = end.interrupted;
  result.avg_schema_length =
      tally.checked == 0
          ? 0.0
          : static_cast<double>(tally.total_length) / static_cast<double>(tally.checked);
  result.seconds = seconds;
  result.simplex_pivots = tally.pivots;
  result.rational_fast_ops = tally.rational_fast_ops;
  result.rational_big_ops = tally.rational_big_ops;
  if (options.incremental) result.incremental = tally.incremental;

  // Every kUnknown note carries the actual elapsed time and how far the run
  // got, so a stalled campaign is diagnosable from the Table-2 row alone.
  const std::string progress = " after " + format_seconds(seconds) + "s; solved " +
                               std::to_string(tally.checked) + "/" +
                               std::to_string(tally.enumerated) + " enumerated schemas, " +
                               std::to_string(tally.pruned) + " pruned";
  result.verdict = Verdict::kUnknown;
  if (end.counterexample) {
    result.verdict = Verdict::kViolated;
    result.counterexample = std::move(end.counterexample);
  } else if (!end.error_note.empty()) {
    result.note = end.error_note + progress;
  } else if (end.interrupted) {
    result.note = "interrupted" + progress;
  } else if (end.timed_out) {
    result.note = "timeout (limit " + format_seconds(options.timeout_seconds) + "s)" + progress;
  } else if (end.budget_exhausted) {
    result.note = "schema budget exhausted (" +
                  std::to_string(options.enumeration.max_schemas) + ")" + progress;
  } else if (end.workers_aborted > 0) {
    result.note = std::to_string(end.workers_aborted) + " worker(s) aborted" + progress;
  } else if (tally.unknown > 0) {
    result.note = tally.degrade_note + " (" + std::to_string(tally.unknown) +
                  " schemas unknown)" + progress;
  } else if (!end.covered) {
    result.note = "run stopped before full coverage" + progress;
  } else {
    result.verdict = Verdict::kHolds;
  }
  if (!end.disagreement.empty()) {
    result.note = result.note.empty() ? end.disagreement : result.note + "; " + end.disagreement;
  }
  if (options.certify) {
    auto evidence = std::make_shared<PropertyEvidence>();
    evidence->schemas = std::move(tally.evidence);
    evidence->pruned = std::move(tally.pruned_schemas);
    evidence->enumeration = options.enumeration;
    evidence->property_directed_pruning = options.property_directed_pruning;
    // Only a holds verdict claims exhaustive coverage; violated stops at the
    // first witness and unknown certifies nothing.
    evidence->complete = result.verdict == Verdict::kHolds;
    result.evidence = std::move(evidence);
  }
  return result;
}

PropertyResult check_property(const ta::ThresholdAutomaton& ta, const spec::Property& property,
                              const CheckOptions& options_in) {
  CheckOptions options = options_in;
  // Proofs cite atoms/clauses by index in the incremental encoding; the
  // one-shot path asserts the same set in a different order, so certifying
  // runs always ride the incremental encoders (verdict-identical either
  // way, and the auditor re-encodes incrementally).
  if (options.certify) options.incremental = true;
  if (options.certify && !options.resume_path.empty()) {
    throw InvalidArgument(
        "checker: resume is incompatible with certify (resumed schemas carry no proofs)");
  }
  const Stopwatch stopwatch;

  FaultInjector injector(options.fault);
  const bool need_identity = !options.resume_path.empty() || !options.journal_path.empty();
  const std::string model_hash = need_identity ? model_content_hash(ta) : std::string();
  std::optional<ResumeState> resume;
  if (!options.resume_path.empty()) {
    resume = load_journal(options.resume_path);
    require_resume_compatible(*resume, ta.name(), model_hash, options.journal_node);
  }
  std::unique_ptr<ProgressJournal> journal;
  if (!options.journal_path.empty()) {
    JournalHeader header(ta.name(), model_hash);
    header.node = options.journal_node;
    journal = std::make_unique<ProgressJournal>(options.journal_path, header,
                                                options.journal_flush_batch);
  }
  RunContext ctx;
  ctx.journal = journal.get();
  ctx.resume = resume ? &*resume : nullptr;
  ctx.copy_resumed = journal != nullptr && options.journal_path != options.resume_path;
  ctx.progress = options.progress;
  const bool need_cursor = ctx.journal != nullptr || ctx.resume != nullptr;

  const GuardAnalysis analysis(ta);
  // deque: QueryCone is immovable (it owns a mutex) and references must
  // stay stable while workers use them.
  std::deque<QueryCone> cones;
  for (const spec::ReachQuery& query : property.queries) cones.emplace_back(analysis, query);
  const auto cone_for = [&](std::size_t query) -> const QueryCone* {
    return options.property_directed_pruning ? &cones[query] : nullptr;
  };
  RunState state;

  const auto out_of_time = [&] {
    return options.timeout_seconds > 0.0 && stopwatch.seconds() > options.timeout_seconds;
  };
  const auto remaining_time = [&] {
    return options.timeout_seconds > 0.0 ? options.timeout_seconds - stopwatch.seconds() : 0.0;
  };
  const auto cancelled = [&] {
    return options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
  };

  SolveHooks hooks;
  hooks.run_watch = &stopwatch;
  hooks.injector = &injector;
  hooks.memory_polls = &state.memory_polls;

  // Cross-schema learning state shared by every worker of this run: one
  // lemma pool and one subtree-cut index per query.
  std::optional<PropertyLearning> learning;
  if (lemmas_enabled(options)) learning.emplace(property.queries.size());
  PropertyLearning* learn = learning ? &*learning : nullptr;
  hooks.learning = learn;

  // Replay journaled subtree cuts before solving anything: a resumed run
  // skips the same subtrees the interrupted run proved infeasible instead of
  // re-deriving the refutations.
  if (learn != nullptr && ctx.resume != nullptr) {
    for (const auto& [key, record] : ctx.resume->settled) {
      std::size_t q = 0;
      Schema schema;
      if (record.verdict != "unsat" || record.property != property.name ||
          !parse_schema_cursor(record.cursor, &q, &schema) || q >= property.queries.size()) {
        continue;
      }
      if (const auto prefix = cut_prefix(schema.unlock_order, record.cut)) {
        learn->queries[q].cuts.add(*prefix);
      }
    }
  }

  // The resume -> step_schema -> count path of one schema, shared by every
  // worker. Returns false to stop the worker's current subtree; throws
  // WorkerAbortFault on an injected worker death, and the worker retires.
  const auto visit_schema = [&](SchemaSolver& solver, PropertyTally& tally, std::size_t q,
                                const Schema& schema) {
    if (state.stop.load()) return false;
    if (cancelled()) {
      halt(state, &RunEnd::interrupted);
      return false;
    }
    if (out_of_time()) {
      halt(state, &RunEnd::timed_out);
      return false;
    }
    // The budget counts visited schemas per property, across queries and
    // workers; the schema that would exceed it is not visited or counted.
    if (state.enumerated.fetch_add(1) >= options.enumeration.max_schemas) {
      state.enumerated.fetch_sub(1);
      halt(state, &RunEnd::budget_exhausted);
      return false;
    }
    std::string cursor = need_cursor ? schema_cursor(q, schema) : std::string();
    // Resume fast path: replay the journaled verdict instead of solving. Sat
    // records are re-solved (the counterexample itself is not journaled).
    if (ctx.resume != nullptr) {
      const JournalRecord* record = ctx.resume->find(property.name, cursor);
      if (record != nullptr && record->verdict != "sat") {
        tally.count(*record, ctx.progress, /*resumed=*/true);
        if (ctx.copy_resumed) ctx.journal->append(*record);
        return true;
      }
    }
    SchemaStep step = step_schema(solver, learn, cone_for(q), q, schema, remaining_time());
    tally.lemma_hits += step.outcome.lemma_hits;
    tally.lemmas_learned += step.outcome.lemmas_learned;
    switch (step.kind) {
      case SchemaStep::Kind::kCut:
        ++tally.cut;
        bump(&ProgressCounters::enumerated, ctx);
        bump(&ProgressCounters::cut, ctx);
        return true;
      case SchemaStep::Kind::kInterrupted:
        halt(state, step.outcome.note == "cancelled" ? &RunEnd::interrupted : &RunEnd::timed_out);
        return false;
      case SchemaStep::Kind::kSettled:
      case SchemaStep::Kind::kAborted:
        break;
    }
    SchemaRecord& record = step.record;
    record.cursor = std::move(cursor);
    tally.count(record, ctx.progress, /*resumed=*/false);
    journal_append(ctx.journal, property.name, record);
    const bool sat = record.verdict == "sat";
    if (options.certify && record.verdict == "pruned") tally.pruned_schemas.push_back({q, schema});
    if (options.certify && (sat || record.verdict == "unsat")) {
      tally.evidence.push_back({q, schema, sat, step.outcome.proof, step.outcome.model});
    }
    if (step.kind == SchemaStep::Kind::kAborted) throw WorkerAbortFault{};
    if (sat) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.end.witness(std::move(step.outcome.counterexample), step.outcome.validation_error);
      state.stop.store(true);
    }
    return !state.stop.load();
  };

  // Work list: every (query, chain subtree) pair, queries in order and each
  // query's subtrees in DFS order, so a lone worker visits exactly the
  // schema sequence of enumerate_schemas. Handing out subtrees (not single
  // schemas) keeps a worker's consecutive schemas prefix-related, so its
  // persistent encoders mostly pop and re-push only the deepest scopes.
  const int workers = std::max(1, options.workers);
  const std::vector<SubtreeTask> tasks = plan_tasks(analysis, workers, options.enumeration);
  const std::size_t item_count = property.queries.size() * tasks.size();
  std::atomic<std::size_t> next_item{0};
  EnumerationOptions per_task = options.enumeration;
  per_task.max_schemas = std::numeric_limits<std::int64_t>::max();  // visit_schema budgets
  const auto work = [&] {
    SchemaSolver solver(analysis, property, options, hooks);
    PropertyTally tally;
    try {
      for (std::size_t i = next_item++; i < item_count && !state.stop.load(); i = next_item++) {
        const std::size_t q = i / tasks.size();
        enumerate_schemas_under(analysis, tasks[i % tasks.size()],
                                static_cast<int>(property.queries[q].cuts.size()), per_task,
                                [&](const Schema& schema) {
                                  return visit_schema(solver, tally, q, schema);
                                });
      }
    } catch (const WorkerAbortFault&) {
      // Contained: this worker stops claiming work; the rest keep going.
      std::lock_guard<std::mutex> lock(state.mutex);
      ++state.end.workers_aborted;
    }
    tally.incremental = solver.stats();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.total += std::move(tally);
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) helpers.emplace_back(work);
    try {
      work();  // the calling thread is worker 0
    } catch (...) {
      state.stop.store(true);  // so the join during unwinding returns promptly
      throw;
    }
  }
  if (cancelled()) state.end.interrupted = true;
  if (journal) journal->flush();

  state.total.enumerated = state.enumerated.load();
  return settle_result(property.name, std::move(state.total), std::move(state.end),
                       stopwatch.seconds(), options);
}

PropertyResult check_property(const ta::MultiRoundTa& ta, const spec::Property& property,
                              const CheckOptions& options) {
  return check_property(ta.one_round_reduction(), property, options);
}

std::vector<PropertyResult> check_properties(const ta::ThresholdAutomaton& ta,
                                             const std::vector<spec::Property>& properties,
                                             const CheckOptions& options) {
  std::vector<PropertyResult> results;
  results.reserve(properties.size());
  for (const spec::Property& property : properties) {
    results.push_back(check_property(ta, property, options));
    if (options.progress != nullptr) {
      options.progress->properties_done.fetch_add(1, std::memory_order_relaxed);
    }
    // A SIGINT/SIGTERM'd run reports what it has instead of starting the
    // next property.
    if (results.back().interrupted) break;
  }
  return results;
}

std::string options_fingerprint(const CheckOptions& options) {
  std::string fp;
  const auto field = [&](const char* key, const std::string& value) {
    fp += key;
    fp += '=';
    fp += value;
    fp += ';';
  };
  const auto num = [&](const char* key, std::int64_t value) {
    field(key, std::to_string(value));
  };
  const auto flag = [&](const char* key, bool value) { field(key, value ? "1" : "0"); };
  num("max_schemas", options.enumeration.max_schemas);
  flag("prune_implications", options.enumeration.prune_implications);
  flag("prune_dead_unlocks", options.enumeration.prune_dead_unlocks);
  field("timeout", std::to_string(options.timeout_seconds));
  num("workers", options.workers);
  num("branch_budget", options.branch_budget);
  flag("incremental", options.incremental);
  flag("pdp", options.property_directed_pruning);
  flag("validate", options.validate_counterexamples);
  flag("minimize", options.minimize_counterexamples);
  flag("certify", options.certify);
  // The *effective* mode, not the raw switch: folds incremental/certify
  // interactions and HV_NO_LEMMAS, so env-only changes get their own key.
  flag("lemmas", lemmas_enabled(options));
  field("schema_timeout", std::to_string(options.schema_timeout_seconds));
  num("pivot_budget", options.pivot_budget);
  num("memory_budget_mb", options.memory_budget_mb);
  flag("retry_fresh", options.retry_fresh);
  flag("fast_rational", Rational::fast_path_enabled());
  if (options.fault.armed()) {
    num("fault_kind", static_cast<std::int64_t>(options.fault.kind));
    num("fault_at", options.fault.at);
    num("fault_every", options.fault.every);
    field("fault_stall", std::to_string(options.fault.stall_seconds));
  }
  return fp;
}

}  // namespace hv::checker
