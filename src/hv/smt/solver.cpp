#include "hv/smt/solver.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

#include "hv/util/error.h"
#include "hv/util/hash.h"

namespace hv::smt {

namespace {

// Feeds the decimal digits of `value` to `sink`: those of BigInt::to_string,
// without allocating when the value fits a machine word.
template <typename Sink>
void write_integer(const BigInt& value, Sink& sink) {
  if (value.fits_int64()) {
    char digits[20];
    const char* end = std::to_chars(digits, digits + sizeof digits, value.to_int64()).ptr;
    sink(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  } else {
    sink(std::string_view(value.to_string()));
  }
}

}  // namespace

Solver::Solver() = default;

void Solver::enable_certificates() {
  HV_REQUIRE(names_.empty() && scopes_.empty() && atoms_.empty() && clauses_.empty());
  HV_REQUIRE(!learn_);
  certify_ = true;
  simplex_.set_conflict_tracking(true);
}

void Solver::enable_learning(LemmaPool* pool) {
  HV_REQUIRE(names_.empty() && scopes_.empty() && atoms_.empty() && clauses_.empty());
  HV_REQUIRE(!certify_);
  learn_ = true;
  lemmas_ = pool;
  // Conflict explanations carry the premise tags the depth fold and lemma
  // extraction read.
  simplex_.set_conflict_tracking(true);
}

VarId Solver::new_variable(std::string name) {
  const int var = simplex_.add_variable();
  HV_REQUIRE(var == static_cast<int>(names_.size()));
  names_.push_back(std::move(name));
  slack_defs_.emplace_back();
  if (learn_) term_keys_.push_back(name_key(names_.back()));
  return var;
}

void Solver::add_lower_bound(VarId var, const BigInt& bound) {
  int tag = -1;
  if (certify_ || learn_) {
    tag = record_premise(proof::PremiseOrigin::kConstraint, -1, true, var, Relation::kGe, bound);
  }
  if (!simplex_.assert_lower(var, Rational(bound), tag)) {
    mark_trivially_unsat(certify_ ? farkas_from_conflict() : nullptr,
                         learn_ ? note_simplex_conflict() : 0);
  }
}

void Solver::add_upper_bound(VarId var, const BigInt& bound) {
  int tag = -1;
  if (certify_ || learn_) {
    tag = record_premise(proof::PremiseOrigin::kConstraint, -1, true, var, Relation::kLe, bound);
  }
  if (!simplex_.assert_upper(var, Rational(bound), tag)) {
    mark_trivially_unsat(certify_ ? farkas_from_conflict() : nullptr,
                         learn_ ? note_simplex_conflict() : 0);
  }
}

void Solver::mark_trivially_unsat(std::unique_ptr<proof::Node> proof, int depth) {
  // First conflict wins: a later scope may re-derive unsatisfiability, but
  // the active proof (and its conflict depth) must explain the state the
  // flag was first set in.
  if (!trivially_unsat_) {
    if (certify_) trivial_proof_ = std::move(proof);
    trivial_depth_ = depth;
  }
  trivially_unsat_ = true;
}

int Solver::slack_for(std::vector<std::pair<int, BigInt>>&& terms) {
  // Every normalized multi-term constraint looks its terms up here, so the
  // key mixes machine words; only a coefficient that exceeds int64 (rare)
  // hashes its digits. Learning mode folds the slack's term key alongside.
  std::uint64_t key = kFnvOffsetBasis;
  std::uint64_t term_key = 0;
  for (const auto& [var, coeff] : terms) {
    const std::uint64_t word = integer_key(coeff);
    key = splitmix64_mix(key ^ static_cast<std::uint64_t>(var));
    key = splitmix64_mix(key ^ word);
    if (learn_) term_key += word * term_keys_[var];
  }
  std::vector<int>& slacks = slack_pool_[key];
  for (const int slack : slacks) {
    if (slack_defs_[slack] == terms) return slack;
  }
  const int slack = simplex_.add_row(terms);
  names_.push_back("slack#" + std::to_string(slack));
  slack_defs_.push_back(std::move(terms));
  if (learn_) term_keys_.push_back(term_key);
  slacks.push_back(slack);
  // The slack's row dies with the current scope; the pool entry must die
  // with it, or a later scope would alias a recycled variable index.
  if (!scopes_.empty()) scopes_.back().slack_keys.push_back(key);
  return slack;
}

void Solver::push() {
  Scope scope;
  scope.atom_count = atoms_.size();
  scope.clause_count = clauses_.size();
  scope.name_count = names_.size();
  scope.premise_count = premises_.size();
  scope.trivially_unsat = trivially_unsat_;
  scope.trivial_depth = trivial_depth_;
  scope.trivial_proof = trivial_proof_;
  scopes_.push_back(std::move(scope));
  simplex_.push();
}

void Solver::pop() {
  if (scopes_.empty()) throw Error("smt: Solver::pop without matching push");
  const Scope& scope = scopes_.back();
  simplex_.pop();  // bounds and variables/rows created in the scope
  atoms_.resize(scope.atom_count);
  clauses_.resize(scope.clause_count);
  clause_depths_.resize(scope.clause_count);
  names_.resize(scope.name_count);
  if (learn_) {
    // Retract the signature index entries of the premises dying with this
    // scope, youngest first (their indices are the suffix of each key's list).
    for (std::size_t i = premises_.size(); i-- > scope.premise_count;) {
      const PremiseRec& rec = premises_[i];
      if (rec.origin != proof::PremiseOrigin::kConstraint) continue;
      const auto it = asserted_sigs_.find(rec.key);
      HV_REQUIRE(it != asserted_sigs_.end() && !it->second.empty() &&
                 it->second.back() == static_cast<int>(i));
      it->second.pop_back();
      if (it->second.empty()) asserted_sigs_.erase(it);
    }
    term_keys_.resize(scope.name_count);
  }
  premises_.resize(scope.premise_count);
  slack_defs_.resize(scope.name_count);
  trivially_unsat_ = scope.trivially_unsat;
  trivial_depth_ = scope.trivial_depth;
  trivial_proof_ = scope.trivial_proof;
  // The scope's slacks are the youngest of their keys' lists: trim them,
  // youngest first.
  for (auto key = scope.slack_keys.rbegin(); key != scope.slack_keys.rend(); ++key) {
    const auto it = slack_pool_.find(*key);
    HV_REQUIRE(it != slack_pool_.end() && !it->second.empty() &&
               it->second.back() >= static_cast<int>(scope.name_count));
    it->second.pop_back();
    if (it->second.empty()) slack_pool_.erase(it);
  }
  scopes_.pop_back();
}

Solver::NormalizedAtom Solver::normalize(LinearConstraint&& constraint) {
  NormalizedAtom atom;
  LinearExpr& expr = constraint.expr;
  if (expr.is_constant()) {
    atom.constant = true;
    const int sign = expr.constant().sign();
    switch (constraint.relation) {
      case Relation::kLe:
        atom.constant_value = sign <= 0;
        break;
      case Relation::kGe:
        atom.constant_value = sign >= 0;
        break;
      case Relation::kEq:
        atom.constant_value = sign == 0;
        break;
    }
    return atom;
  }

  // Divide the term vector by its content so shared slacks are canonical and
  // integer tightening of the bound is as strong as possible. The terms are
  // the constraint's own, taken over: a new slack keeps them as its
  // definition.
  BigInt content = 0;
  for (const auto& [var, coeff] : expr.terms()) {
    content = BigInt::gcd(content, coeff);
    if (content == BigInt(1)) break;  // the common case: a unit coefficient
  }
  HV_REQUIRE(content.is_positive());
  std::vector<std::pair<int, BigInt>> terms = expr.release_terms();
  if (!(content == BigInt(1))) {
    for (auto& [var, coeff] : terms) coeff /= content;
  }

  if (terms.size() == 1 && terms[0].second == BigInt(1)) {
    atom.var = terms[0].first;
  } else {
    atom.var = slack_for(std::move(terms));
  }

  // expr rel 0  <=>  content * slack + constant rel 0  <=>  slack rel' bound.
  const BigInt& constant = expr.constant();
  switch (constraint.relation) {
    case Relation::kLe:
      // slack <= -constant/content, floored (slack is integer-valued).
      atom.kind = BoundKind::kLe;
      atom.bound = BigInt::floor_div(-constant, content);
      break;
    case Relation::kGe:
      atom.kind = BoundKind::kGe;
      atom.bound = BigInt::ceil_div(-constant, content);
      break;
    case Relation::kEq: {
      BigInt quotient;
      BigInt remainder;
      BigInt::div_mod(-constant, content, quotient, remainder);
      if (!remainder.is_zero()) {
        atom.constant = true;
        atom.constant_value = false;  // divisibility violated: never equal
        return atom;
      }
      atom.kind = BoundKind::kEq;
      atom.bound = std::move(quotient);
      atom.negatable = false;
      break;
    }
  }
  return atom;
}

void Solver::add(LinearConstraint constraint) {
  const NormalizedAtom atom = normalize(std::move(constraint));
  if (atom.constant) {
    if (!atom.constant_value) {
      // The falsehood is the added constraint itself, which lives in the
      // current scope — that is its conflict depth.
      mark_trivially_unsat(certify_ ? constant_false_node(-1, true) : nullptr,
                           static_cast<int>(scopes_.size()));
    }
    return;
  }
  if (!assert_atom(atom, /*positive=*/true, proof::PremiseOrigin::kConstraint, -1)) {
    mark_trivially_unsat(certify_ ? farkas_from_conflict() : nullptr,
                         learn_ ? note_simplex_conflict() : 0);
  }
}

int Solver::add_atom(LinearConstraint constraint) {
  atoms_.push_back(normalize(std::move(constraint)));
  return static_cast<int>(atoms_.size()) - 1;
}

void Solver::add_clause(std::vector<Literal> literals) {
  for (const Literal& literal : literals) {
    HV_REQUIRE(literal.atom >= 0 && literal.atom < static_cast<int>(atoms_.size()));
    const NormalizedAtom& atom = atoms_[literal.atom];
    if (!literal.positive && !atom.constant && !atom.negatable) {
      throw InvalidArgument("equality atoms may not appear negatively in clauses");
    }
  }
  clauses_.push_back(std::move(literals));
  clause_depths_.push_back(static_cast<int>(scopes_.size()));
}

int Solver::record_premise(proof::PremiseOrigin origin, int atom, bool positive, int var,
                           Relation rel, BigInt bound) {
  const int index = static_cast<int>(premises_.size());
  premises_.push_back({origin, atom, positive, var, rel, std::move(bound),
                       static_cast<int>(scopes_.size()), 0});
  if (learn_ && origin == proof::PremiseOrigin::kConstraint) {
    PremiseRec& rec = premises_.back();
    rec.key = premise_key(term_keys_[rec.var], rec.rel, integer_key(rec.bound)) &
              premise_key_mask_;
    asserted_sigs_[rec.key].push_back(index);
  }
  return index;
}

proof::NamedTerms Solver::named_terms_for(int var) const {
  proof::NamedTerms terms;
  if (var < static_cast<int>(slack_defs_.size()) && !slack_defs_[var].empty()) {
    terms.reserve(slack_defs_[var].size());
    for (const auto& [v, coeff] : slack_defs_[var]) terms.emplace_back(names_[v], coeff);
  } else {
    terms.emplace_back(names_[var], BigInt(1));
  }
  std::sort(terms.begin(), terms.end(),
            [](const auto& lhs, const auto& rhs) { return lhs.first < rhs.first; });
  return terms;
}

template <typename Sink>
void Solver::write_signature(const PremiseRec& rec, Sink&& sink) const {
  // The terms named_terms_for(rec.var) lists, viewed in place.
  static const BigInt kOne(1);
  signature_terms_.clear();
  if (rec.var < static_cast<int>(slack_defs_.size()) && !slack_defs_[rec.var].empty()) {
    for (const auto& [v, coeff] : slack_defs_[rec.var]) {
      signature_terms_.emplace_back(&names_[v], &coeff);
    }
  } else {
    signature_terms_.emplace_back(&names_[rec.var], &kOne);
  }
  std::sort(signature_terms_.begin(), signature_terms_.end(),
            [](const auto& lhs, const auto& rhs) { return *lhs.first < *rhs.first; });
  for (const auto& [name, coeff] : signature_terms_) {
    write_integer(*coeff, sink);
    sink(std::string_view("*"));
    sink(std::string_view(*name));
    sink(std::string_view("+"));
  }
  switch (rec.rel) {
    case Relation::kLe:
      sink(std::string_view("<="));
      break;
    case Relation::kGe:
      sink(std::string_view(">="));
      break;
    case Relation::kEq:
      sink(std::string_view("=="));
      break;
  }
  write_integer(rec.bound, sink);
}

std::string Solver::premise_signature(const PremiseRec& rec) const {
  std::string sig;
  write_signature(rec, [&](std::string_view piece) { sig += piece; });
  return sig;
}

bool Solver::signature_equals(const PremiseRec& rec, std::string_view sig) const {
  bool equal = true;
  write_signature(rec, [&](std::string_view piece) {
    equal = equal && sig.starts_with(piece);
    if (equal) sig.remove_prefix(piece.size());
  });
  return equal && sig.empty();
}

class Solver::AssertedPremises final : public PremiseIndex {
 public:
  explicit AssertedPremises(const Solver& solver) : solver_(solver) {}

  bool nominates(std::uint64_t key) const override {
    return solver_.asserted_sigs_.contains(key & solver_.premise_key_mask_);
  }

  // The indices ascend with depth, so the first confirmed one is shallowest.
  int depth_of(std::uint64_t key, std::string_view premise) const override {
    const auto it = solver_.asserted_sigs_.find(key & solver_.premise_key_mask_);
    if (it == solver_.asserted_sigs_.end()) return -1;
    for (const int index : it->second) {
      const PremiseRec& rec = solver_.premises_[index];
      if (solver_.signature_equals(rec, premise)) return rec.depth;
    }
    return -1;
  }

 private:
  const Solver& solver_;
};

void Solver::mask_premise_keys_for_testing(std::uint64_t mask) {
  HV_REQUIRE(names_.empty() && scopes_.empty() && premises_.empty());
  premise_key_mask_ = mask;
}

int Solver::note_simplex_conflict() {
  // The simplex's explanation is a Farkas combination of asserted bounds.
  // Cited permanent constraints pin the conflict to the scope they were
  // asserted in; cited atom bounds are justified by the tautological
  // decision splits / folded propagation clauses above them, and cited
  // branch bounds by the integer split x<=c or x>=c+1, so neither deepens
  // the refutation's scope requirement.
  int depth = 0;
  bool pure = true;
  for (const auto& [tag, multiplier] : simplex_.last_conflict()) {
    HV_REQUIRE(tag >= 0 && tag < static_cast<int>(premises_.size()));
    const PremiseRec& rec = premises_[tag];
    if (rec.origin == proof::PremiseOrigin::kConstraint) {
      depth = std::max(depth, rec.depth);
    } else {
      pure = false;
    }
    (void)multiplier;
  }
  conflict_scope_depth_ = std::max(conflict_scope_depth_, depth);
  if (pure && lemmas_ != nullptr && !simplex_.last_conflict().empty()) {
    Lemma lemma;
    for (const auto& [tag, multiplier] : simplex_.last_conflict()) {
      lemma.premises.push_back(premise_signature(premises_[tag]));
    }
    if (lemmas_->insert(std::move(lemma))) ++stats_.lemmas_learned;
  }
  return depth;
}

void Solver::note_clause_depth(int clause) {
  conflict_scope_depth_ = std::max(conflict_scope_depth_, clause_depths_[clause]);
}

std::unique_ptr<proof::Node> Solver::farkas_from_conflict() const {
  auto node = std::make_unique<proof::Node>();
  node->kind = proof::NodeKind::kFarkas;
  for (const auto& [tag, multiplier] : simplex_.last_conflict()) {
    HV_REQUIRE(tag >= 0 && tag < static_cast<int>(premises_.size()));
    const PremiseRec& rec = premises_[tag];
    proof::Premise premise;
    premise.origin = rec.origin;
    premise.atom = rec.atom;
    premise.positive = rec.positive;
    premise.terms = named_terms_for(rec.var);
    premise.rel = rec.rel;
    premise.bound = rec.bound;
    node->farkas.push_back({std::move(premise), multiplier});
  }
  return node;
}

std::unique_ptr<proof::Node> Solver::constant_false_node(int atom, bool positive) {
  auto node = std::make_unique<proof::Node>();
  node->kind = proof::NodeKind::kFarkas;
  proof::Premise premise;
  premise.origin = atom < 0 ? proof::PremiseOrigin::kConstraint : proof::PremiseOrigin::kAtom;
  premise.atom = atom;
  premise.positive = positive;
  premise.rel = Relation::kLe;
  premise.bound = BigInt(-1);  // "0 <= -1"
  node->farkas.push_back({std::move(premise), Rational(1)});
  return node;
}

std::unique_ptr<proof::Node> Solver::take_pending_conflict() {
  HV_REQUIRE(pending_conflict_ != nullptr);
  return std::move(pending_conflict_);
}

std::unique_ptr<proof::Node> Solver::wrap_propagations(
    std::vector<std::pair<int, Literal>>& props, std::unique_ptr<proof::Node> leaf) {
  std::unique_ptr<proof::Node> node = std::move(leaf);
  for (auto it = props.rbegin(); it != props.rend(); ++it) {
    auto wrapper = std::make_unique<proof::Node>();
    wrapper->kind = proof::NodeKind::kPropagation;
    wrapper->clause = it->first;
    wrapper->atom = it->second.atom;
    wrapper->positive = it->second.positive;
    wrapper->first = std::move(node);
    node = std::move(wrapper);
  }
  return node;
}

bool Solver::assert_atom(const NormalizedAtom& atom, bool positive,
                         proof::PremiseOrigin origin, int atom_index) {
  HV_REQUIRE(!atom.constant);
  const Rational bound{atom.bound};
  const auto tag = [&](Relation rel, BigInt premise_bound) {
    return certify_ || learn_
               ? record_premise(origin, atom_index, positive, atom.var, rel,
                                std::move(premise_bound))
               : -1;
  };
  switch (atom.kind) {
    case BoundKind::kLe:
      return positive
                 ? simplex_.assert_upper(atom.var, bound, tag(Relation::kLe, atom.bound))
                 : simplex_.assert_lower(atom.var, bound + Rational(1),
                                         tag(Relation::kGe, atom.bound + BigInt(1)));
    case BoundKind::kGe:
      return positive
                 ? simplex_.assert_lower(atom.var, bound, tag(Relation::kGe, atom.bound))
                 : simplex_.assert_upper(atom.var, bound - Rational(1),
                                         tag(Relation::kLe, atom.bound - BigInt(1)));
    case BoundKind::kEq:
      HV_REQUIRE(positive);
      return simplex_.assert_lower(atom.var, bound, tag(Relation::kGe, atom.bound)) &&
             simplex_.assert_upper(atom.var, bound, tag(Relation::kLe, atom.bound));
  }
  throw InternalError("unreachable bound kind");
}

CheckResult Solver::check() {
  check_stopwatch_.reset();
  deadline_poll_counter_ = 0;
  // The pivot watchdog is enforced inside the simplex (pivot granularity),
  // armed with an absolute limit so it spans every simplex check of this
  // solver-level check.
  simplex_.set_pivot_limit(pivot_budget_ > 0 ? simplex_.stats().pivots + pivot_budget_ : 0);
  last_proof_.reset();
  pending_conflict_.reset();
  conflict_scope_depth_ = 0;
  if (trivially_unsat_) {
    if (certify_) {
      HV_REQUIRE(trivial_proof_ != nullptr);
      last_proof_ = proof::clone(*trivial_proof_);
    }
    conflict_scope_depth_ = trivial_depth_;
    return CheckResult::kUnsat;
  }
  if (learn_ && lemmas_ != nullptr) {
    // A pooled lemma whose premises are all currently asserted refutes this
    // context without touching the simplex. The depth it reports is the
    // deepest scope any matched premise needs, so the subtree-cut contract
    // of conflict_scope_depth() carries over.
    // A key hit only nominates a premise; its rendered string decides.
    int depth = -1;
    if (lemmas_->probe(AssertedPremises(*this), &depth)) {
      ++stats_.lemma_hits;
      conflict_scope_depth_ = depth;
      return CheckResult::kUnsat;
    }
  }
  assignment_.assign(atoms_.size(), -1);
  // Pre-assign constant atoms.
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (atoms_[i].constant) assignment_[i] = atoms_[i].constant_value ? 1 : 0;
  }
  branch_nodes_used_ = 0;
  // Premises recorded during the search (atom assertions, branch bounds)
  // are resolved into proof nodes eagerly, so the table rolls back once the
  // search is over.
  const std::size_t premise_mark = premises_.size();
  std::unique_ptr<proof::Node> root;
  const CheckResult result = search(certify_ ? &root : nullptr);
  if (certify_ || learn_) {
    // Search-time premises are kAtom/kBranch only, so the learning-mode
    // signature index (kConstraint premises) is unaffected by the rollback.
    premises_.resize(premise_mark);
    if (certify_ && result == CheckResult::kUnsat) {
      HV_REQUIRE(root != nullptr);
      last_proof_ = std::move(root);
    }
  }
  return result;
}

bool Solver::set_atom(int atom, bool value) {
  signed char& slot = assignment_[atom];
  if (slot != -1) return (slot == 1) == value;
  slot = value ? 1 : 0;
  const NormalizedAtom& normalized = atoms_[atom];
  if (normalized.constant) {
    if (normalized.constant_value == value) return true;
    if (certify_) pending_conflict_ = constant_false_node(atom, value);
    return false;
  }
  if (!value && !normalized.negatable) {
    // The negation of an equality is a disjunction the theory cannot take
    // as a bound. Leaving it unasserted is sound: negative equality
    // literals are banned from clauses, so no clause relies on the
    // negation being true — the boolean assignment is bookkeeping only.
    return true;
  }
  if (assert_atom(normalized, value, proof::PremiseOrigin::kAtom, atom)) return true;
  if (certify_) pending_conflict_ = farkas_from_conflict();
  if (learn_) note_simplex_conflict();
  return false;
}

void Solver::enforce_deadline() {
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    throw Error("smt: cancelled");
  }
  if (time_budget_seconds_ <= 0.0) return;
  // Poll the clock sparsely; the counter makes the common path cheap.
  if ((++deadline_poll_counter_ & 0xff) != 0) return;
  if (check_stopwatch_.seconds() > time_budget_seconds_) {
    throw Error("smt: time budget exceeded");
  }
}

int Solver::propagate_and_select(std::vector<std::pair<int, Literal>>* props) {
  enforce_deadline();
  for (;;) {
    bool propagated = false;
    int branch_clause = -1;
    for (int c = 0; c < static_cast<int>(clauses_.size()); ++c) {
      const auto& clause = clauses_[c];
      bool satisfied = false;
      int unassigned_count = 0;
      const Literal* unit = nullptr;
      for (const Literal& literal : clause) {
        const signed char value = assignment_[literal.atom];
        if (value == -1) {
          ++unassigned_count;
          unit = &literal;
        } else if ((value == 1) == literal.positive) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned_count == 0) {
        if (certify_) {
          auto node = std::make_unique<proof::Node>();
          node->kind = proof::NodeKind::kClauseConflict;
          node->clause = c;
          pending_conflict_ = std::move(node);
        }
        if (learn_) note_clause_depth(c);
        return -2;  // conflict
      }
      if (unassigned_count == 1) {
        ++stats_.propagations;
        // Record the forced literal before asserting it, so a conflict
        // inside set_atom still sits below its propagation in the proof.
        if (certify_ && props != nullptr) props->emplace_back(c, *unit);
        // The refutation below may lean on this forced literal, and the
        // forcing cites the clause — fold its depth in now.
        if (learn_) note_clause_depth(c);
        if (!set_atom(unit->atom, unit->positive)) return -2;
        ++stats_.simplex_checks;
        if (!simplex_.check()) {
          if (certify_) pending_conflict_ = farkas_from_conflict();
          if (learn_) note_simplex_conflict();
          return -2;
        }
        propagated = true;
      } else if (branch_clause == -1) {
        branch_clause = c;
      }
    }
    if (!propagated) return branch_clause;
  }
}

CheckResult Solver::search(std::unique_ptr<proof::Node>* out) {
  simplex_.push();
  std::vector<signed char> saved_assignment = assignment_;
  const auto restore = [&] {
    simplex_.pop();
    assignment_ = saved_assignment;
  };

  std::vector<std::pair<int, Literal>> props;
  const int clause_index = propagate_and_select(&props);
  if (clause_index == -2) {
    if (certify_) *out = wrap_propagations(props, take_pending_conflict());
    restore();
    return CheckResult::kUnsat;
  }
  if (clause_index == -1) {
    ++stats_.simplex_checks;
    if (!simplex_.check()) {
      if (certify_) *out = wrap_propagations(props, farkas_from_conflict());
      if (learn_) note_simplex_conflict();
      restore();
      return CheckResult::kUnsat;
    }
    std::unique_ptr<proof::Node> integer_proof;
    if (branch_and_bound(0, certify_ ? &integer_proof : nullptr)) {
      // Keep the state: the model was captured by branch_and_bound.
      simplex_.pop();
      assignment_ = std::move(saved_assignment);
      return CheckResult::kSat;
    }
    if (certify_) *out = wrap_propagations(props, std::move(integer_proof));
    restore();
    return CheckResult::kUnsat;
  }

  // Branch on the first unassigned literal of the selected clause: try it
  // true, then false (both sides explored; the clause is re-examined after).
  const auto clause = clauses_[clause_index];  // copy: clauses_ stable anyway
  int pick = -1;
  for (const Literal& literal : clause) {
    if (assignment_[literal.atom] == -1) {
      pick = literal.atom;
      break;
    }
  }
  HV_REQUIRE(pick != -1);
  std::unique_ptr<proof::Node> true_proof;
  std::unique_ptr<proof::Node> false_proof;
  for (const bool value : {true, false}) {
    enforce_deadline();
    ++stats_.decisions;
    simplex_.push();
    std::vector<signed char> snapshot = assignment_;
    std::unique_ptr<proof::Node>* child =
        certify_ ? (value ? &true_proof : &false_proof) : nullptr;
    bool feasible = set_atom(pick, value);
    if (!feasible && certify_) *child = take_pending_conflict();
    if (feasible) {
      ++stats_.simplex_checks;
      feasible = simplex_.check();
      if (!feasible) {
        if (certify_) *child = farkas_from_conflict();
        if (learn_) note_simplex_conflict();
      }
    }
    if (feasible && search(child) == CheckResult::kSat) {
      simplex_.pop();
      assignment_ = std::move(snapshot);
      simplex_.pop();
      assignment_ = std::move(saved_assignment);
      return CheckResult::kSat;
    }
    simplex_.pop();
    assignment_ = std::move(snapshot);
  }
  if (certify_) {
    auto node = std::make_unique<proof::Node>();
    node->kind = proof::NodeKind::kDecision;
    node->atom = pick;
    node->first = std::move(true_proof);
    node->second = std::move(false_proof);
    *out = wrap_propagations(props, std::move(node));
  }
  restore();
  return CheckResult::kUnsat;
}

bool Solver::branch_and_bound(int depth, std::unique_ptr<proof::Node>* out) {
  enforce_deadline();
  ++stats_.branch_nodes;
  if (++branch_nodes_used_ > branch_budget_) {
    throw Error("smt: branch-and-bound budget exceeded");
  }
  // Find a fractional variable. All variables (including slacks, which are
  // integer combinations of integer variables) must take integer values.
  int fractional = -1;
  for (int var = 0; var < simplex_.variable_count(); ++var) {
    if (!simplex_.value(var).is_integer()) {
      fractional = var;
      break;
    }
  }
  if (fractional == -1) {
    capture_model();
    return true;
  }
  const Rational value = simplex_.value(fractional);
  const BigInt floor = value.floor();
  std::unique_ptr<proof::Node> low_proof;
  std::unique_ptr<proof::Node> high_proof;
  for (const bool low_side : {true, false}) {
    simplex_.push();
    int tag = -1;
    if (certify_ || learn_) {
      tag = record_premise(proof::PremiseOrigin::kBranch, -1, true, fractional,
                           low_side ? Relation::kLe : Relation::kGe,
                           low_side ? floor : floor + BigInt(1));
    }
    std::unique_ptr<proof::Node>* child =
        certify_ ? (low_side ? &low_proof : &high_proof) : nullptr;
    bool ok = low_side ? simplex_.assert_upper(fractional, Rational(floor), tag)
                       : simplex_.assert_lower(fractional, Rational(floor + 1), tag);
    if (!ok) {
      if (certify_) *child = farkas_from_conflict();
      if (learn_) note_simplex_conflict();
    }
    ++stats_.simplex_checks;
    if (ok) {
      ok = simplex_.check();
      if (!ok) {
        if (certify_) *child = farkas_from_conflict();
        if (learn_) note_simplex_conflict();
      }
    }
    if (ok && branch_and_bound(depth + 1, child)) {
      simplex_.pop();
      return true;
    }
    simplex_.pop();
  }
  if (certify_) {
    auto node = std::make_unique<proof::Node>();
    node->kind = proof::NodeKind::kBranch;
    node->branch_terms = named_terms_for(fractional);
    node->branch_bound = floor;
    node->first = std::move(low_proof);
    node->second = std::move(high_proof);
    *out = std::move(node);
  }
  return false;
}

void Solver::capture_model() {
  model_.clear();
  model_.reserve(simplex_.variable_count());
  for (int var = 0; var < simplex_.variable_count(); ++var) {
    model_.push_back(simplex_.value(var));
  }
}

BigInt Solver::model_value(VarId var) const {
  HV_REQUIRE(var >= 0 && var < static_cast<int>(model_.size()));
  const Rational& value = model_[var];
  HV_REQUIRE(value.is_integer());
  return value.numerator();
}

std::vector<std::pair<std::string, BigInt>> Solver::model_assignment() const {
  HV_REQUIRE(certify_);
  std::vector<std::pair<std::string, BigInt>> out;
  out.reserve(model_.size());
  for (std::size_t var = 0; var < model_.size(); ++var) {
    if (var < slack_defs_.size() && !slack_defs_[var].empty()) continue;  // internal slack
    HV_REQUIRE(model_[var].is_integer());
    out.emplace_back(names_[var], model_[var].numerator());
  }
  return out;
}

}  // namespace hv::smt
