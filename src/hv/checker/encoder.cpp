#include "hv/checker/encoder.h"

#include <algorithm>
#include <set>
#include <utility>

#include "hv/smt/solver.h"
#include "hv/spec/state.h"
#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::checker {

// The encoding walks segments exactly like the one-shot encoder always did,
// but is split into scopes on the solver's assertion stack:
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
class IncrementalSchemaEncoder::Impl {
 public:
  Impl(const GuardAnalysis& analysis, const spec::ReachQuery& query,
       std::int64_t branch_budget, const QueryCone* cone, EncoderMode mode,
       smt::LemmaPool* lemmas)
      : analysis_(analysis),
        ta_(analysis.automaton()),
        query_(query),
        cone_(cone),
        mode_(mode),
        topo_(ta_.rules_in_topological_order()),
        frozen_(query.zero_rules.begin(), query.zero_rules.end()) {
    HV_REQUIRE(analysis_.guard_count() <= 63);
    // Mode selection must precede the first declaration.
    if (mode_ == EncoderMode::kCertify) solver_.enable_certificates();
    if (mode_ == EncoderMode::kTrace) solver_.enable_trace();
    if (mode_ == EncoderMode::kSolve && lemmas != nullptr) {
      solver_.enable_learning(lemmas);
      learn_ = true;
    }
    solver_.set_branch_budget(branch_budget);
    declare_parameters();
    declare_initial_configuration();
    add_cnf(query_.initial, base_config_);
  }

  void set_time_budget(double seconds) noexcept { solver_.set_time_budget(seconds); }
  void set_pivot_budget(std::int64_t budget) noexcept { solver_.set_pivot_budget(budget); }
  void set_cancel_flag(const std::atomic<bool>* cancel) noexcept {
    solver_.set_cancel_flag(cancel);
  }

  const IncrementalStats& stats() const noexcept { return stats_; }

  std::int64_t pivots() const noexcept { return solver_.pivots(); }

  EncodeResult check(const Schema& schema) {
    HV_REQUIRE(mode_ != EncoderMode::kTrace);
    const std::int64_t pivots_before = solver_.pivots();
    const std::int64_t fast_before = solver_.rational_fast_ops();
    const std::int64_t big_before = solver_.rational_big_ops();
    const std::int64_t hits_before = solver_.stats().lemma_hits;
    const std::int64_t learned_before = solver_.stats().lemmas_learned;
    const std::size_t steps_mark = encode_schema(schema);

    EncodeResult result;
    result.length = static_cast<std::int64_t>(steps_.size());
    if (solver_.check() == smt::CheckResult::kSat) {
      result.sat = true;
      result.counterexample = extract_counterexample();
      if (mode_ == EncoderMode::kCertify) {
        result.model_values = std::make_shared<std::vector<std::pair<std::string, BigInt>>>(
            solver_.model_assignment());
      }
    } else {
      if (mode_ == EncoderMode::kCertify) {
        result.proof = std::shared_ptr<const smt::proof::Node>(solver_.take_last_proof());
      }
      if (learn_) {
        // Scope layout: base at depth 0, level k (segment k under context
        // chain[0..k)) at depth k+1, this schema's transient scope at depth
        // target+1. A refutation confined to depth d <= target therefore
        // only used the shared chain prefix chain[0..d) — every schema of
        // this query starting with that prefix is unsat (cut placements
        // only restrict, and the mover argument folds split segments back
        // into one accelerated pass).
        const int depth = solver_.conflict_scope_depth();
        if (depth <= static_cast<int>(last_target_)) result.cut_prefix = depth;
      }
    }
    solver_.pop();
    steps_.resize(steps_mark);
    ++stats_.schemas_encoded;
    result.pivots = solver_.pivots() - pivots_before;
    result.rational_fast_ops = solver_.rational_fast_ops() - fast_before;
    result.rational_big_ops = solver_.rational_big_ops() - big_before;
    result.lemma_hits = solver_.stats().lemma_hits - hits_before;
    result.lemmas_learned = solver_.stats().lemmas_learned - learned_before;
    return result;
  }

  void trace(const Schema& schema, const std::function<void(const smt::TraceView&)>& audit) {
    HV_REQUIRE(mode_ == EncoderMode::kTrace);
    const std::size_t steps_mark = encode_schema(schema);
    audit(solver_.trace_view());
    solver_.pop();
    steps_.resize(steps_mark);
    ++stats_.schemas_encoded;
  }

 private:
  // Syncs the level stack with the schema's chain and encodes everything the
  // schema does not share with its DFS neighbours into one freshly pushed
  // transient scope (which the caller pops). Returns the steps_ watermark to
  // restore after that pop.
  std::size_t encode_schema(const Schema& schema) {
    const auto& chain = schema.unlock_order;
    const std::size_t length = chain.size();

    // Levels are kept for every cut-free prefix segment: pop the scopes not
    // shared with this schema's chain, keep the common prefix verbatim, and
    // push fresh scopes up to the first segment containing a cut (cut
    // segments are encoded with copies and belong to the transient scope).
    std::size_t lcp = 0;
    while (lcp < levels_.size() && lcp < length &&
           levels_[lcp].guard == chain[lcp]) {
      ++lcp;
    }
    const std::size_t first_cut = schema.cut_positions.empty()
                                      ? length
                                      : static_cast<std::size_t>(schema.cut_positions[0]);
    const std::size_t target = std::min(first_cut, length);
    const std::size_t keep = std::min(lcp, target);
    last_target_ = target;
    stats_.segments_reused += static_cast<std::int64_t>(keep);
    while (levels_.size() > keep) pop_level();
    while (levels_.size() < target) push_level(chain[levels_.size()]);

    // Transient scope: segments target..length with cuts, canonicity and
    // the final constraint.
    solver_.push();
    const std::size_t steps_mark = steps_.size();
    Config config = top_config();
    GuardSet unlocked = 0;
    for (std::size_t k = 0; k < target; ++k) unlocked |= GuardSet{1} << chain[k];
    for (std::size_t segment = target; segment <= length; ++segment) {
      if (segment > target) {
        // The guard unlocking at this boundary holds from here on.
        const int guard = chain[segment - 1];
        solver_.add(substitute_state(analysis_.guard(guard), config));
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
          solver_.add(substitute_state(analysis_.guard(guard).negated(), config));
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
    assert_never_unlocked_guards_false(chain, config);
    add_cnf(query_.final_cnf, config);
    return steps_mark;
  }

  struct Config {
    std::vector<smt::LinearExpr> counters;  // per location
    std::vector<smt::LinearExpr> shared;    // per shared variable
  };

  struct Level {
    int guard = -1;
    Config end;  // symbolic configuration at the start of the next segment
    std::size_t steps_mark = 0;  // steps_.size() when the level was pushed
  };

  struct Step {
    ta::RuleId rule;
    smt::VarId delta;
  };

  // --- variable universe -----------------------------------------------------

  void declare_parameters() {
    param_vars_.assign(ta_.variable_count(), -1);
    for (const ta::VarId id : ta_.parameters()) {
      param_vars_[id] = solver_.new_variable(ta_.variable_name(id));
      solver_.add_lower_bound(param_vars_[id], 0);
    }
    for (const auto& constraint : ta_.resilience()) {
      solver_.add(substitute_state(constraint, base_config_));
    }
  }

  void declare_initial_configuration() {
    base_config_.counters.assign(ta_.location_count(), smt::LinearExpr(0));
    base_config_.shared.assign(ta_.shared_variables().size(), smt::LinearExpr(0));
    shared_index_.assign(ta_.variable_count(), -1);
    {
      int index = 0;
      for (const ta::VarId id : ta_.shared_variables()) shared_index_[id] = index++;
    }
    smt::LinearExpr total;
    for (const ta::LocationId location : ta_.initial_locations()) {
      const smt::VarId var =
          solver_.new_variable("k0[" + ta_.location(location).name + "]");
      solver_.add_lower_bound(var, 0);
      initial_counter_vars_.emplace_back(location, var);
      base_config_.counters[location] = smt::LinearExpr::variable(var);
      total += base_config_.counters[location];
    }
    // The initial counters partition the processes executing the automaton.
    solver_.add(smt::make_eq(total, substitute_params(ta_.process_count())));
  }

  // Rewrites an expression over TA variables into solver variables
  // (parameters only; shared variables resolve to their current symbolic
  // value).
  smt::LinearExpr substitute_params(const smt::LinearExpr& expr) const {
    smt::LinearExpr out(expr.constant());
    for (const auto& [var, coeff] : expr.terms()) {
      HV_REQUIRE(ta_.is_parameter(var));
      out.add_term(param_vars_[var], coeff);
    }
    return out;
  }

  // Rewrites a constraint over *state* variables (TA variables + location
  // counters) against the given symbolic configuration.
  smt::LinearConstraint substitute_state(const smt::LinearConstraint& constraint,
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

  void add_cnf(const spec::Cnf& cnf, const Config& config) {
    for (const spec::Clause& clause : cnf.clauses) {
      if (clause.literals.size() == 1) {
        solver_.add(substitute_state(clause.literals[0], config));
        continue;
      }
      std::vector<smt::Literal> literals;
      literals.reserve(clause.literals.size());
      for (const auto& literal : clause.literals) {
        literals.push_back({solver_.add_atom(substitute_state(literal, config)), true});
      }
      solver_.add_clause(std::move(literals));
    }
  }

  // --- schema walk -----------------------------------------------------------

  const Config& top_config() const {
    return levels_.empty() ? base_config_ : levels_.back().end;
  }

  bool rule_enabled_in_context(ta::RuleId rule_id, GuardSet unlocked) const {
    for (const int guard : analysis_.rule_guards(rule_id)) {
      if (((unlocked >> guard) & 1) == 0) return false;
    }
    return true;
  }

  // One accelerated topological pass of every rule fireable under the
  // context — the body of one segment copy.
  void apply_segment_rules(Config& config, GuardSet unlocked) {
    for (const ta::RuleId rule_id : topo_) {
      if (frozen_.contains(rule_id)) continue;
      if (!rule_enabled_in_context(rule_id, unlocked)) continue;
      // With a cone: a rule whose source cannot be populated under this
      // context can never fire here; omitting it shrinks the encoding.
      if (cone_ != nullptr && !cone_->reachable(unlocked)[ta_.rule(rule_id).from]) {
        continue;
      }
      apply_rule(rule_id, config);
    }
  }

  void apply_rule(ta::RuleId rule_id, Config& config) {
    const ta::Rule& rule = ta_.rule(rule_id);
    const smt::VarId delta = solver_.new_variable(
        numbered("d", static_cast<std::int64_t>(steps_.size())) + "[" + rule.name + "]");
    solver_.add_lower_bound(delta, 0);
    steps_.push_back({rule_id, delta});

    // Parameter-only guard atoms (not tracked as threshold guards) must hold
    // whenever the rule actually fires: (delta <= 0) || atom.
    for (const auto& atom : rule.guard.atoms) {
      const bool tracked =
          std::any_of(analysis_.rule_guards(rule_id).begin(),
                      analysis_.rule_guards(rule_id).end(), [&](int g) {
                        return analysis_.guard(g) == atom;
                      });
      if (tracked) continue;
      const int zero_atom = solver_.add_atom(
          smt::make_le(smt::LinearExpr::variable(delta), smt::LinearExpr(0)));
      const int guard_atom = solver_.add_atom(substitute_state(atom, config));
      solver_.add_clause({{zero_atom, true}, {guard_atom, true}});
    }

    config.counters[rule.from].add_term(delta, BigInt(-1));
    config.counters[rule.to].add_term(delta, BigInt(1));
    for (const auto& [var, amount] : rule.update.increments) {
      config.shared[shared_index_[var]].add_term(delta, amount);
    }
    // Only the source counter decreases; it must stay non-negative.
    solver_.add({config.counters[rule.from], smt::Relation::kGe});
  }

  void push_level(int guard) {
    solver_.push();
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
      solver_.add(substitute_state(analysis_.guard(guard).negated(), start));
    }
    // The boundary into segment k+1: the guard holds from here on.
    solver_.add(substitute_state(analysis_.guard(guard), config));
    levels_.push_back({guard, std::move(config), steps_mark});
    ++stats_.segments_pushed;
  }

  void pop_level() {
    solver_.pop();
    steps_.resize(levels_.back().steps_mark);
    levels_.pop_back();
    ++stats_.segments_popped;
  }

  void assert_never_unlocked_guards_false(const std::vector<int>& chain,
                                          const Config& config) {
    for (int guard = 0; guard < analysis_.guard_count(); ++guard) {
      const bool unlocked =
          std::find(chain.begin(), chain.end(), guard) != chain.end();
      if (!unlocked) {
        // Canonicity: the guard never became true in this schema. For
        // guards that may hold at time zero this forces the parameters
        // where they do not (their true-at-zero executions live in the
        // chains that unlock them).
        solver_.add(substitute_state(analysis_.guard(guard).negated(), config));
      }
    }
  }

  // --- model extraction ------------------------------------------------------

  Counterexample extract_counterexample() const {
    Counterexample cex;
    cex.query_description = query_.description;
    for (const ta::VarId id : ta_.parameters()) {
      cex.params[id] = solver_.model_value(param_vars_[id]).to_int64();
    }
    cex.initial.counters.assign(ta_.location_count(), 0);
    cex.initial.shared.assign(base_config_.shared.size(), 0);
    for (const auto& [location, var] : initial_counter_vars_) {
      cex.initial.counters[location] = solver_.model_value(var).to_int64();
    }
    for (const auto& [rule, delta] : steps_) {
      const std::int64_t factor = solver_.model_value(delta).to_int64();
      if (factor > 0) cex.steps.push_back({rule, factor});
    }
    return cex;
  }

  const GuardAnalysis& analysis_;
  const ta::ThresholdAutomaton& ta_;
  const spec::ReachQuery& query_;
  const QueryCone* cone_;
  const EncoderMode mode_;
  bool learn_ = false;
  std::size_t last_target_ = 0;
  const std::vector<ta::RuleId> topo_;
  const std::set<ta::RuleId> frozen_;
  smt::Solver solver_;
  std::vector<smt::VarId> param_vars_;
  std::vector<int> shared_index_;
  std::vector<std::pair<ta::LocationId, smt::VarId>> initial_counter_vars_;
  Config base_config_;
  std::vector<Level> levels_;
  std::vector<Step> steps_;
  IncrementalStats stats_;
};

IncrementalSchemaEncoder::IncrementalSchemaEncoder(const GuardAnalysis& analysis,
                                                   const spec::ReachQuery& query,
                                                   std::int64_t branch_budget,
                                                   const QueryCone* cone, EncoderMode mode,
                                                   smt::LemmaPool* lemmas)
    : impl_(std::make_unique<Impl>(analysis, query, branch_budget, cone, mode, lemmas)) {}

IncrementalSchemaEncoder::~IncrementalSchemaEncoder() = default;
IncrementalSchemaEncoder::IncrementalSchemaEncoder(IncrementalSchemaEncoder&&) noexcept = default;

void IncrementalSchemaEncoder::set_time_budget(double seconds) noexcept {
  impl_->set_time_budget(seconds);
}

void IncrementalSchemaEncoder::set_pivot_budget(std::int64_t budget) noexcept {
  impl_->set_pivot_budget(budget);
}

void IncrementalSchemaEncoder::set_cancel_flag(const std::atomic<bool>* cancel) noexcept {
  impl_->set_cancel_flag(cancel);
}

EncodeResult IncrementalSchemaEncoder::check(const Schema& schema) {
  return impl_->check(schema);
}

void IncrementalSchemaEncoder::trace(const Schema& schema,
                                     const std::function<void(const smt::TraceView&)>& audit) {
  impl_->trace(schema, audit);
}

const IncrementalStats& IncrementalSchemaEncoder::stats() const noexcept {
  return impl_->stats();
}

EncodeResult solve_schema(const GuardAnalysis& analysis, const Schema& schema,
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
