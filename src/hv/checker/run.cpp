#include "hv/checker/run.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::checker {

namespace {

CheckOptions normalized(const CheckOptions& options) {
  CheckOptions out = options;
  // Proofs cite atoms/clauses by index in the incremental encoding; the
  // one-shot path asserts the same set in a different order, so certifying
  // runs always ride the incremental encoders (verdict-identical either
  // way, and the auditor re-encodes incrementally).
  if (out.certify) out.incremental = true;
  return out;
}

SchemaSpace schema_space(const CheckOptions& options) {
  return {options.enumeration.prune_implications, options.enumeration.prune_dead_unlocks,
          options.property_directed_pruning};
}

void bump(ProgressCounters* progress, std::atomic<std::int64_t> ProgressCounters::* counter,
          std::int64_t n = 1) {
  if (progress != nullptr) (progress->*counter).fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

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

  // Every kUnknown note says how far the run got, so a stalled campaign is
  // diagnosable from the Table-2 row alone. The elapsed time is `seconds`;
  // left out of the note, it keeps two runs' reports comparable.
  const std::string progress = "; solved " + std::to_string(tally.checked) + "/" +
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
  if (options.certify) {
    auto evidence = std::make_shared<PropertyEvidence>(std::move(tally.evidence));
    evidence->enumeration = options.enumeration;
    evidence->property_directed_pruning = options.property_directed_pruning;
    // Only a holds verdict claims exhaustive coverage; violated stops at the
    // first witness and unknown certifies nothing.
    evidence->complete = result.verdict == Verdict::kHolds;
    result.evidence = std::move(evidence);
  }
  return result;
}

LeaseBook::LeaseBook(const ta::ThresholdAutomaton& ta, std::span<const spec::Property> properties,
                     const CheckOptions& options, int consumers)
    : properties_(properties), options_(normalized(options)), analysis_(ta) {
  const bool need_identity = !options_.resume_path.empty() || !options_.journal_path.empty();
  const std::string model_hash = need_identity ? model_content_hash(ta) : std::string();
  if (!options_.resume_path.empty()) {
    resume_ = load_journal(options_.resume_path);
    require_resume_compatible(*resume_, ta.name(), model_hash, options_.journal_node,
                              schema_space(options_));
  }
  if (!options_.journal_path.empty()) {
    JournalHeader header(ta.name(), model_hash);
    header.node = options_.journal_node;
    header.space = schema_space(options_);
    journal_ = std::make_unique<ProgressJournal>(options_.journal_path, header,
                                                 options_.journal_flush_batch);
  }
  copy_resumed_ = journal_ != nullptr && options_.journal_path != options_.resume_path;
  keep_cursors = need_identity;

  // Leases in (property, query, DFS task) order, so a lone consumer visits
  // exactly the schema sequence of enumerate_schemas. A lease is a subtree,
  // not a single schema, so a consumer's consecutive schemas share chain
  // prefixes and its persistent encoders mostly pop and re-push only the
  // deepest scopes.
  const std::vector<SubtreeTask> tasks =
      plan_tasks(analysis_, std::max(1, consumers), options_.enumeration);
  props = std::vector<PropertyRun>(properties_.size());
  cones_.resize(properties_.size());
  learning_.resize(properties_.size());
  const bool learn = lemmas_enabled(options_);
  for (std::size_t p = 0; p < properties_.size(); ++p) {
    cones_[p].resize(properties_[p].queries.size());
    if (learn) learning_[p] = std::make_unique<PropertyLearning>(properties_[p].queries.size());
    for (std::size_t q = 0; q < properties_[p].queries.size(); ++q) {
      for (const SubtreeTask& task : tasks) leases.push_back({p, q, task, LeaseState::kPending});
    }
  }
}

LeaseBook::~LeaseBook() = default;

void LeaseBook::replay_resume() {
  if (!resume_) return;
  // The records replayed; the rest are re-solved: sat records always, and
  // in a certifying run every record that lacks its evidence (an unsat
  // without its proof, an unknown).
  const auto replayed = [&](const JournalRecord& record) {
    switch (record.verdict) {
      case SchemaVerdict::kPruned:
        return true;
      case SchemaVerdict::kUnsat:
        return !options_.certify || record.solve.proof != nullptr;
      case SchemaVerdict::kUnknown:
        return !options_.certify;
      case SchemaVerdict::kSat:
        break;
    }
    return false;
  };
  std::lock_guard<std::mutex> lock(mutex);
  for (const std::string& key : resume_->order) {
    const JournalRecord& record = resume_->settled.at(key);
    if (!replayed(record)) continue;
    const auto named =
        std::find_if(properties_.begin(), properties_.end(),
                     [&](const spec::Property& p) { return p.name == record.property; });
    if (named == properties_.end()) continue;
    const auto p = static_cast<std::size_t>(named - properties_.begin());
    std::size_t q = 0;
    Schema schema;
    if (!parse_schema_cursor(record.cursor, &q, &schema) || q >= named->queries.size()) continue;
    merge_locked(p, q, schema, record, record.solve, /*charged=*/false, /*resumed=*/true);
  }
  resume_.reset();
}

void LeaseBook::consume(int threads, FaultInjector* injector) {
  const auto run = [&] {
    LeaseConsumer consumer(*this, injector);
    try {
      while (consumer.settle_one_lease()) {
      }
    } catch (const WorkerAbortFault&) {
      // Contained: this consumer retires; the rest keep going.
    }
  };
  std::vector<std::jthread> helpers;
  for (int i = 1; i < threads; ++i) helpers.emplace_back(run);
  try {
    run();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex);
    closing = true;  // so the join during unwinding returns promptly
    throw;
  }
}

double LeaseBook::remaining_seconds() const {
  return options_.timeout_seconds > 0.0 ? options_.timeout_seconds - watch_.seconds() : 0.0;
}

const QueryCone* LeaseBook::cone(std::size_t p, std::size_t q) {
  if (!options_.property_directed_pruning) return nullptr;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<QueryCone>& slot = cones_[p][q];
  if (!slot) slot = std::make_unique<QueryCone>(analysis_, properties_[p].queries[q]);
  return slot.get();
}

EnumerationOutcome LeaseBook::enumerate_lease(
    const Lease& lease, const std::function<bool(const Schema&)>& visit) const {
  EnumerationOptions unbounded = options_.enumeration;
  unbounded.max_schemas = std::numeric_limits<std::int64_t>::max();
  return enumerate_schemas_under(
      analysis_, lease.task,
      static_cast<int>(properties_[lease.property].queries[lease.query].cuts.size()), unbounded,
      visit);
}

std::int64_t LeaseBook::pick_locked(bool* work_left) {
  if (halted_locked()) return -1;
  std::vector<std::size_t> active(props.size(), 0);
  for (const Lease& lease : leases) {
    if (lease.state == LeaseState::kActive) ++active[lease.property];
  }
  std::int64_t grant = -1;
  for (std::size_t i = 0; i < leases.size(); ++i) {
    const Lease& lease = leases[i];
    if (lease.state == LeaseState::kActive) *work_left = true;
    if (lease.state != LeaseState::kPending || settle_moot_locked(i)) continue;
    *work_left = true;
    if (grant < 0 ||
        active[lease.property] < active[leases[static_cast<std::size_t>(grant)].property]) {
      grant = static_cast<std::int64_t>(i);
      if (active[lease.property] == 0) break;  // an idle property: can't do better
    }
  }
  return grant;
}

void LeaseBook::set_state_locked(std::size_t id, LeaseState state) {
  Lease& lease = leases[id];
  if (state == LeaseState::kPending && !props[lease.property].live()) state = LeaseState::kDropped;
  lease.state = state;
  if (state == LeaseState::kPending || state == LeaseState::kActive) {
    props[lease.property].finished = false;
  }
  finish_locked(lease.property);
  changed_locked(static_cast<std::int64_t>(id));
}

void LeaseBook::drop_pending_locked(std::size_t p) {
  for (std::size_t i = 0; i < leases.size(); ++i) {
    if (leases[i].property == p && leases[i].state == LeaseState::kPending) {
      set_state_locked(i, LeaseState::kDropped);
    }
  }
  changed_locked(-1);
}

std::int64_t LeaseBook::charge_locked(std::size_t p, std::int64_t n) {
  PropertyRun& prop = props[p];
  if (!prop.live()) return 0;
  const std::int64_t room = std::max<std::int64_t>(
      0, options_.enumeration.max_schemas - prop.tally.enumerated - prop.in_flight);
  const std::int64_t charged = std::min(n, room);
  if (charged < n) {
    prop.end.budget_exhausted = true;
    drop_pending_locked(p);
  }
  prop.in_flight += charged;
  return charged;
}

void LeaseBook::cut_locked(std::size_t p, std::int64_t n) {
  PropertyTally& tally = props[p].tally;
  props[p].in_flight -= n;
  tally.enumerated += n;
  tally.cut += n;
  bump(options_.progress, &ProgressCounters::enumerated, n);
  bump(options_.progress, &ProgressCounters::cut, n);
}

bool LeaseBook::merge_locked(std::size_t p, std::size_t q, const Schema& schema,
                             const SchemaRecord& record, UnitOutcome outcome, bool charged,
                             bool resumed) {
  PropertyRun& prop = props[p];
  // A charged schema was visited within the budget and is counted whatever
  // happened since. An uncharged record (fleet, resume) is charged as it
  // merges; once the property is settled it is dropped, as in-flight records
  // from a worker that has not yet seen its abandon frame must be, keeping
  // the counters identical to a single consumer that stopped there.
  if (charged) --prop.in_flight;
  if (known_locked(p, record.cursor)) return false;
  if (!charged) {
    if (!charge_locked(p)) return false;
    --prop.in_flight;  // counted right below
  }
  if (keep_cursors) prop.settled.emplace(record.cursor, record.verdict);
  prop.tally.count(record, outcome, options_.progress, resumed);
  if (journal_ && (!resumed || copy_resumed_)) {
    journal_->append(properties_[p].name, record, outcome);
  }
  const bool sat = record.verdict == SchemaVerdict::kSat;
  const bool unsat = record.verdict == SchemaVerdict::kUnsat;
  if (options_.certify && record.verdict == SchemaVerdict::kPruned) {
    prop.tally.evidence.pruned.push_back({q, schema});
  }
  if (options_.certify && (sat || unsat)) {
    prop.tally.evidence.schemas.push_back({q, schema, sat, outcome.proof, outcome.model});
  }
  if (sat) {
    // The first witness wins and settles the property.
    prop.end.witness(std::move(outcome.counterexample), outcome.validation_error);
    prop.stopped = true;
    drop_pending_locked(p);
  }
  // A resumed run skips the subtrees the interrupted run proved infeasible,
  // and a fleet's cuts reach every later grant. A consumer's cut is already
  // in the index: step_schema put it there and set record.cut only because
  // it was new there, so a charged record's cut is new.
  std::optional<std::vector<int>> cut;
  if (learning_[p] && unsat) {
    cut = cut_prefix(schema.unlock_order, record.cut);
    if (cut && !charged && !learning_[p]->queries[q].cuts.add(*cut)) cut.reset();
  }
  merged_locked(p, q, schema, record, cut ? &*cut : nullptr);
  return true;
}

bool LeaseBook::complete_locked() const {
  for (std::size_t p = 0; p < props.size(); ++p) {
    if (open_locked(p)) return false;
  }
  return true;
}

bool LeaseBook::open_locked(std::size_t p) const {
  return std::any_of(leases.begin(), leases.end(), [&](const Lease& lease) {
    return lease.property == p &&
           (lease.state == LeaseState::kPending || lease.state == LeaseState::kActive);
  });
}

void LeaseBook::finish_locked(std::size_t p) {
  PropertyRun& prop = props[p];
  if (prop.finished || open_locked(p)) return;
  prop.finished = true;
  prop.seconds = watch_.seconds();
  bump(options_.progress, &ProgressCounters::properties_done);
}

std::vector<PropertyResult> LeaseBook::results() {
  if (journal_) journal_->flush();
  std::lock_guard<std::mutex> lock(mutex);
  if (options_.cancel != nullptr && options_.cancel->load(std::memory_order_relaxed)) {
    interrupted = true;
  }
  std::vector<PropertyResult> out;
  out.reserve(props.size());
  for (std::size_t p = 0; p < props.size(); ++p) {
    PropertyRun& prop = props[p];
    prop.end.interrupted = interrupted;
    prop.end.timed_out = timed_out;
    prop.end.covered = std::all_of(leases.begin(), leases.end(), [&](const Lease& lease) {
      return lease.property != p || lease.state == LeaseState::kDone;
    });
    out.push_back(settle_result(properties_[p].name, std::move(prop.tally), std::move(prop.end),
                                prop.finished ? prop.seconds : watch_.seconds(), options_));
  }
  return out;
}

void LeaseBook::merged_locked(std::size_t, std::size_t, const Schema&, const SchemaRecord&,
                              const std::vector<int>*) {}

void LeaseBook::changed_locked(std::int64_t) {}

bool LeaseBook::settle_moot_locked(std::size_t) { return false; }

LeaseConsumer::LeaseConsumer(LeaseBook& book, FaultInjector* injector)
    : book_(book), solvers_(book.properties().size()) {
  hooks_.run_watch = &book.watch_;
  hooks_.injector = injector;
  hooks_.memory_polls = &book.memory_polls_;
}

SchemaSolver& LeaseConsumer::solver(std::size_t p) {
  std::unique_ptr<SchemaSolver>& slot = solvers_[p];
  if (!slot) {
    SolveHooks hooks = hooks_;
    hooks.learning = book_.learning(p);
    slot = std::make_unique<SchemaSolver>(book_.analysis(), book_.properties()[p],
                                          book_.options(), hooks);
  }
  return *slot;
}

bool LeaseConsumer::settle_one_lease() {
  LeaseBook& book = book_;
  std::size_t id = 0;
  {
    std::lock_guard<std::mutex> lock(book.mutex);
    bool work_left = false;
    const std::int64_t pick = book.pick_locked(&work_left);
    if (pick < 0) return false;
    id = static_cast<std::size_t>(pick);
    book.set_state_locked(id, LeaseState::kActive);
  }
  // Leases never move and their tasks never change: read without the lock.
  const Lease& lease = book.leases[id];
  const std::size_t p = lease.property;
  const std::size_t q = lease.query;
  SchemaSolver& solver = this->solver(p);
  const IncrementalStats encoded_before = solver.stats();
  const QueryCone* cone = book.cone(p, q);
  const CheckOptions& options = book.options();
  LeaseState end = LeaseState::kDone;
  bool aborted = false;
  book.enumerate_lease(lease, [&](const Schema& schema) {
    std::string cursor = book.keep_cursors ? schema_cursor(q, schema) : std::string();
    {
      std::lock_guard<std::mutex> lock(book.mutex);
      if (book.halted_locked()) {
        end = LeaseState::kPending;
        return false;
      }
      if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
        book.interrupted = true;
        end = LeaseState::kPending;
        return false;
      }
      if (options.timeout_seconds > 0.0 && book.watch().seconds() > options.timeout_seconds) {
        book.timed_out = true;
        end = LeaseState::kPending;
        return false;
      }
      if (!cursor.empty() && book.known_locked(p, cursor)) return true;
      if (!book.charge_locked(p)) {
        end = LeaseState::kDropped;
        return false;
      }
    }
    SchemaStep step = step_schema(solver, cone, q, schema, book.remaining_seconds());
    std::lock_guard<std::mutex> lock(book.mutex);
    PropertyRun& prop = book.props[p];
    switch (step.kind) {
      case SchemaStep::Kind::kCut:
        book.cut_locked(p, 1);
        return true;
      case SchemaStep::Kind::kInterrupted:
        --prop.in_flight;  // nothing settled: the charge is returned
        (step.outcome.note == "cancelled" ? book.interrupted : book.timed_out) = true;
        end = LeaseState::kPending;
        return false;
      case SchemaStep::Kind::kSettled:
      case SchemaStep::Kind::kAborted:
        break;
    }
    step.record.cursor = std::move(cursor);
    book.merge_locked(p, q, schema, step.record, std::move(step.outcome), /*charged=*/true);
    if (step.kind == SchemaStep::Kind::kAborted) {
      ++prop.end.workers_aborted;
      aborted = true;
      end = LeaseState::kDropped;
      return false;
    }
    if (!prop.live()) {
      end = LeaseState::kDropped;  // a witness settled the property
      return false;
    }
    // The merge may have ended the lease (a fleet worker's abandon).
    return book.leases[id].state == LeaseState::kActive;
  });
  {
    std::lock_guard<std::mutex> lock(book.mutex);
    IncrementalStats& encoded = book.props[p].tally.incremental;
    encoded += solver.stats();
    encoded -= encoded_before;
    if (book.leases[id].state == LeaseState::kActive) book.set_state_locked(id, end);
  }
  if (aborted) throw WorkerAbortFault{};
  return true;
}

}  // namespace hv::checker
