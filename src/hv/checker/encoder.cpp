#include "hv/checker/encoder.h"

#include <algorithm>
#include <utility>

#include "hv/smt/solver.h"
#include "hv/spec/state.h"
#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::checker {

// The walk splits the encoding into scopes on the sink's assertion stack:
//
//   base scope      parameters, resilience, initial counters, initial CNF
//   level scope k   segment k's rule applications under context
//                   {chain[0..k)}, the canonical "chain[k] still false at
//                   the segment start" assertion, and the boundary
//                   "chain[k] holds" assertion that opens segment k+1
//   transient scope everything the current schema does not share with its
//                   DFS neighbours: segments containing cuts, all segments
//                   after them, the last segment, the never-unlocked-guard
//                   assertions and the final CNF
//
// A level scope asserts the still-false constraint against the *snapshot*
// of the symbolic configuration at the segment start (the previous level's
// end configuration), so emitting it after the segment's rules yields the
// same conjunction the sequential walk produces.
SchemaWalk::SchemaWalk(const GuardAnalysis& analysis, const spec::ReachQuery& query,
                       const QueryCone* cone, smt::ConstraintSink& sink)
    : analysis_(analysis),
      ta_(analysis.automaton()),
      query_(query),
      cone_(cone),
      sink_(sink),
      topo_(ta_.rules_in_topological_order()),
      frozen_(query.zero_rules.begin(), query.zero_rules.end()) {
  HV_REQUIRE(analysis_.guard_count() <= 63);
  param_vars_.assign(ta_.variable_count(), -1);
  for (const ta::VarId id : ta_.parameters()) {
    param_vars_[id] = sink_.new_variable(ta_.variable_name(id));
    sink_.add_lower_bound(param_vars_[id], 0);
  }
  for (const auto& constraint : ta_.resilience()) {
    sink_.add(substitute_state(constraint, base_config_));
  }
  base_config_.counters.assign(ta_.location_count(), smt::LinearExpr(0));
  base_config_.shared.assign(ta_.shared_variables().size(), smt::LinearExpr(0));
  shared_index_.assign(ta_.variable_count(), -1);
  {
    int index = 0;
    for (const ta::VarId id : ta_.shared_variables()) shared_index_[id] = index++;
  }
  smt::LinearExpr total;
  for (const ta::LocationId location : ta_.initial_locations()) {
    const smt::VarId var = sink_.new_variable("k0[" + ta_.location(location).name + "]");
    sink_.add_lower_bound(var, 0);
    initial_counter_vars_.emplace_back(location, var);
    base_config_.counters[location] = smt::LinearExpr::variable(var);
    total += base_config_.counters[location];
  }
  // The initial counters partition the processes executing the automaton.
  smt::LinearExpr processes(ta_.process_count().constant());
  for (const auto& [var, coeff] : ta_.process_count().terms()) {
    HV_REQUIRE(ta_.is_parameter(var));
    processes.add_term(param_vars_[var], coeff);
  }
  sink_.add(smt::make_eq(std::move(total), std::move(processes)));
  add_cnf(query_.initial, base_config_);
}

void SchemaWalk::open(const Schema& schema) {
  const auto& chain = schema.unlock_order;
  const std::size_t length = chain.size();

  // Levels are kept for every cut-free prefix segment: pop the scopes not
  // shared with this schema's chain, keep the common prefix verbatim, and
  // push fresh scopes up to the first segment containing a cut (cut
  // segments are encoded with copies and belong to the transient scope).
  std::size_t lcp = 0;
  while (lcp < levels_.size() && lcp < length && levels_[lcp].guard == chain[lcp]) ++lcp;
  const std::size_t first_cut = schema.cut_positions.empty()
                                    ? length
                                    : static_cast<std::size_t>(schema.cut_positions[0]);
  const std::size_t target = std::min(first_cut, length);
  const std::size_t keep = std::min(lcp, target);
  stats_.segments_reused += static_cast<std::int64_t>(keep);
  for (; levels_.size() > keep; levels_.pop_back()) {
    sink_.pop();
    steps_.resize(levels_.back().steps_mark);
    ++stats_.segments_popped;
  }
  while (levels_.size() < target) push_level(chain[levels_.size()]);

  // Transient scope: segments target..length with cuts, canonicity and
  // the final constraint.
  sink_.push();
  transient_steps_mark_ = steps_.size();
  Config config = top_config();
  GuardSet unlocked = 0;
  for (std::size_t k = 0; k < target; ++k) unlocked |= GuardSet{1} << chain[k];
  for (std::size_t segment = target; segment <= length; ++segment) {
    if (segment > target) {
      // The guard unlocking at this boundary holds from here on.
      const int guard = chain[segment - 1];
      sink_.add(substitute_state(analysis_.guard(guard), config));
      unlocked |= GuardSet{1} << guard;
    }
    if (segment < length) {
      // The next guard to unlock is still false at the segment start
      // (strongest point: monotonicity gives falsity at all earlier
      // ones). EXCEPT for guards that can hold with all-zero counters
      // for some parameters: those may be true from time zero — their
      // executions are covered by the chain that unlocks them over an
      // empty segment, which must not assert their falsity anywhere.
      const int guard = chain[segment];
      if (!analysis_.can_hold_at_zero(guard)) {
        sink_.add(substitute_state(analysis_.guard(guard).negated(), config));
      }
    }
    // Cut points witnessed inside this segment split it into copies.
    std::vector<int> cuts_here;
    for (std::size_t cut = 0; cut < schema.cut_positions.size(); ++cut) {
      if (schema.cut_positions[cut] == static_cast<int>(segment)) {
        cuts_here.push_back(static_cast<int>(cut));
      }
    }
    for (int copy = 0; copy <= static_cast<int>(cuts_here.size()); ++copy) {
      apply_segment_rules(config, unlocked);
      if (copy < static_cast<int>(cuts_here.size())) {
        add_cnf(query_.cuts[cuts_here[copy]], config);
      }
    }
  }
  for (int guard = 0; guard < analysis_.guard_count(); ++guard) {
    if (std::find(chain.begin(), chain.end(), guard) == chain.end()) {
      // Canonicity: the guard never became true in this schema. For
      // guards that may hold at time zero this forces the parameters
      // where they do not (their true-at-zero executions live in the
      // chains that unlock them).
      sink_.add(substitute_state(analysis_.guard(guard).negated(), config));
    }
  }
  add_cnf(query_.final_cnf, config);
}

void SchemaWalk::close() {
  sink_.pop();
  steps_.resize(transient_steps_mark_);
  ++stats_.schemas_encoded;
}

// --- substitution ------------------------------------------------------------

// Rewrites a constraint over *state* variables (TA variables + location
// counters) against the given symbolic configuration.
smt::LinearConstraint SchemaWalk::substitute_state(const smt::LinearConstraint& constraint,
                                                   const Config& config) const {
  smt::LinearExpr out(constraint.expr.constant());
  for (const auto& [var, coeff] : constraint.expr.terms()) {
    if (var >= ta_.variable_count()) {
      smt::LinearExpr counter = config.counters[var - ta_.variable_count()];
      counter *= coeff;
      out += counter;
    } else if (ta_.is_parameter(var)) {
      out.add_term(param_vars_[var], coeff);
    } else {
      smt::LinearExpr value = config.shared[shared_index_[var]];
      value *= coeff;
      out += value;
    }
  }
  return {std::move(out), constraint.relation};
}

void SchemaWalk::add_cnf(const spec::Cnf& cnf, const Config& config) {
  for (const spec::Clause& clause : cnf.clauses) {
    if (clause.literals.size() == 1) {
      sink_.add(substitute_state(clause.literals[0], config));
      continue;
    }
    std::vector<smt::Literal> literals;
    literals.reserve(clause.literals.size());
    for (const auto& literal : clause.literals) {
      literals.push_back({sink_.add_atom(substitute_state(literal, config)), true});
    }
    sink_.add_clause(std::move(literals));
  }
}

// --- schema walk -------------------------------------------------------------

// One accelerated topological pass of every rule fireable under the
// context — the body of one segment copy.
void SchemaWalk::apply_segment_rules(Config& config, GuardSet unlocked) {
  for (const ta::RuleId rule_id : topo_) {
    if (frozen_.contains(rule_id)) continue;
    const auto& guards = analysis_.rule_guards(rule_id);
    if (!std::all_of(guards.begin(), guards.end(),
                     [&](int guard) { return ((unlocked >> guard) & 1) != 0; })) {
      continue;
    }
    // With a cone: a rule whose source cannot be populated under this
    // context can never fire here; omitting it shrinks the encoding.
    if (cone_ != nullptr && !cone_->reachable(unlocked)[ta_.rule(rule_id).from]) continue;
    apply_rule(rule_id, config);
  }
}

void SchemaWalk::apply_rule(ta::RuleId rule_id, Config& config) {
  const ta::Rule& rule = ta_.rule(rule_id);
  const smt::VarId delta = sink_.new_variable(
      numbered("d", static_cast<std::int64_t>(steps_.size())) + "[" + rule.name + "]");
  sink_.add_lower_bound(delta, 0);
  steps_.push_back({rule_id, delta});

  // Parameter-only guard atoms (not tracked as threshold guards) must hold
  // whenever the rule actually fires: (delta <= 0) || atom.
  for (const auto& atom : rule.guard.atoms) {
    const bool tracked = std::any_of(analysis_.rule_guards(rule_id).begin(),
                                     analysis_.rule_guards(rule_id).end(),
                                     [&](int g) { return analysis_.guard(g) == atom; });
    if (tracked) continue;
    const int zero_atom =
        sink_.add_atom(smt::make_le(smt::LinearExpr::variable(delta), smt::LinearExpr(0)));
    const int guard_atom = sink_.add_atom(substitute_state(atom, config));
    sink_.add_clause({{zero_atom, true}, {guard_atom, true}});
  }

  config.counters[rule.from].add_term(delta, BigInt(-1));
  config.counters[rule.to].add_term(delta, BigInt(1));
  for (const auto& [var, amount] : rule.update.increments) {
    config.shared[shared_index_[var]].add_term(delta, amount);
  }
  // Only the source counter decreases; it must stay non-negative.
  sink_.add({config.counters[rule.from], smt::Relation::kGe});
}

void SchemaWalk::push_level(int guard) {
  sink_.push();
  const std::size_t steps_mark = steps_.size();
  const std::size_t k = levels_.size();  // this level encodes segment k
  GuardSet unlocked = 0;
  for (std::size_t i = 0; i < k; ++i) unlocked |= GuardSet{1} << levels_[i].guard;
  // The snapshot at the segment start, against which the canonical
  // still-false assertion is made (the sequential walk emits it before
  // the segment's rules; a conjunction does not care about the order).
  const Config& start = top_config();
  Config config = start;
  apply_segment_rules(config, unlocked);
  if (!analysis_.can_hold_at_zero(guard)) {
    sink_.add(substitute_state(analysis_.guard(guard).negated(), start));
  }
  // The boundary into segment k+1: the guard holds from here on.
  sink_.add(substitute_state(analysis_.guard(guard), config));
  levels_.push_back({guard, std::move(config), steps_mark});
  ++stats_.segments_pushed;
}

// --- model extraction --------------------------------------------------------

Counterexample SchemaWalk::counterexample(const smt::Solver& solver) const {
  Counterexample cex;
  cex.query_description = query_.description;
  for (const ta::VarId id : ta_.parameters()) {
    cex.params[id] = solver.model_value(param_vars_[id]).to_int64();
  }
  cex.initial.counters.assign(ta_.location_count(), 0);
  cex.initial.shared.assign(base_config_.shared.size(), 0);
  for (const auto& [location, var] : initial_counter_vars_) {
    cex.initial.counters[location] = solver.model_value(var).to_int64();
  }
  for (const auto& [rule, delta] : steps_) {
    const std::int64_t factor = solver.model_value(delta).to_int64();
    if (factor > 0) cex.steps.push_back({rule, factor});
  }
  return cex;
}

IncrementalSchemaEncoder::IncrementalSchemaEncoder(const GuardAnalysis& analysis,
                                                   const spec::ReachQuery& query,
                                                   std::int64_t branch_budget,
                                                   const QueryCone* cone, EncoderMode mode,
                                                   smt::LemmaPool* lemmas)
    : certify_(mode == EncoderMode::kCertify),
      learn_(mode == EncoderMode::kSolve && lemmas != nullptr),
      // The solver is put in its mode before the walk declares anything on it.
      solver_([&] {
        auto solver = std::make_unique<smt::Solver>();
        if (certify_) solver->enable_certificates();
        if (learn_) solver->enable_learning(lemmas);
        solver->set_branch_budget(branch_budget);
        return solver;
      }()),
      walk_(analysis, query, cone, *solver_) {}

IncrementalSchemaEncoder::~IncrementalSchemaEncoder() = default;
IncrementalSchemaEncoder::IncrementalSchemaEncoder(IncrementalSchemaEncoder&&) noexcept = default;

void IncrementalSchemaEncoder::set_time_budget(double seconds) noexcept {
  solver_->set_time_budget(seconds);
}

void IncrementalSchemaEncoder::set_pivot_budget(std::int64_t budget) noexcept {
  solver_->set_pivot_budget(budget);
}

void IncrementalSchemaEncoder::set_cancel_flag(const std::atomic<bool>* cancel) noexcept {
  solver_->set_cancel_flag(cancel);
}

UnitOutcome IncrementalSchemaEncoder::check(const Schema& schema) {
  smt::Solver& solver = *solver_;
  const std::int64_t pivots_before = solver.pivots();
  const std::int64_t fast_before = solver.rational_fast_ops();
  const std::int64_t big_before = solver.rational_big_ops();
  const std::int64_t hits_before = solver.stats().lemma_hits;
  const std::int64_t learned_before = solver.stats().lemmas_learned;
  walk_.open(schema);

  UnitOutcome result;
  result.length = walk_.length();
  if (solver.check() == smt::CheckResult::kSat) {
    result.kind = UnitOutcome::Kind::kSat;
    result.counterexample = walk_.counterexample(solver);
    if (certify_) {
      result.model = std::make_shared<std::vector<std::pair<std::string, BigInt>>>(
          solver.model_assignment());
    }
  } else {
    result.kind = UnitOutcome::Kind::kUnsat;
    if (certify_) {
      result.proof = std::shared_ptr<const smt::proof::Node>(solver.take_last_proof());
    }
    if (learn_) {
      // Scope layout: base at depth 0, level k (segment k under context
      // chain[0..k)) at depth k+1, this schema's transient scope at depth
      // levels+1. A refutation confined to depth d <= levels therefore
      // only used the shared chain prefix chain[0..d) — every schema of
      // this query starting with that prefix is unsat (cut placements
      // only restrict, and the mover argument folds split segments back
      // into one accelerated pass).
      const int depth = solver.conflict_scope_depth();
      if (depth <= static_cast<int>(walk_.levels())) result.cut_prefix = depth;
    }
  }
  walk_.close();
  result.pivots = solver.pivots() - pivots_before;
  result.rational_fast_ops = solver.rational_fast_ops() - fast_before;
  result.rational_big_ops = solver.rational_big_ops() - big_before;
  result.lemma_hits = solver.stats().lemma_hits - hits_before;
  result.lemmas_learned = solver.stats().lemmas_learned - learned_before;
  return result;
}

const IncrementalStats& IncrementalSchemaEncoder::stats() const noexcept {
  return walk_.stats();
}

UnitOutcome solve_schema(const GuardAnalysis& analysis, const Schema& schema,
                         const spec::ReachQuery& query, std::int64_t branch_budget,
                         const QueryCone* cone, double time_budget_seconds,
                         EncoderMode mode, std::int64_t pivot_budget,
                         const std::atomic<bool>* cancel) {
  // The one-shot path: a fresh encoder whose level stack is empty, so the
  // whole schema lands in a single transient scope on a cold solver —
  // exactly the historical non-incremental encoding.
  IncrementalSchemaEncoder encoder(analysis, query, branch_budget, cone, mode);
  encoder.set_time_budget(time_budget_seconds);
  encoder.set_pivot_budget(pivot_budget);
  encoder.set_cancel_flag(cancel);
  return encoder.check(schema);
}

}  // namespace hv::checker
