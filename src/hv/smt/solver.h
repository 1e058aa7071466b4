// Satisfiability solver for quantifier-free linear integer arithmetic with
// clause-level disjunction.
//
// This plays the role Z3/MathSAT play behind ByMC: the schema encoder emits
// a conjunction of linear constraints plus a few disjunctive clauses
// (liveness stability conditions are per-rule disjunctions "source empty OR
// guard false"), and asks for an integer model.
//
// Architecture (classical DPLL(T)):
//   * permanent constraints become bounds on (shared) slack variables of an
//     exact-rational simplex (hv/smt/simplex.h);
//   * clauses range over *atoms*, each atom being a linear constraint that
//     is asserted/retracted as bound tightenings on its slack;
//   * a recursive DPLL with unit propagation decides atoms, pruning with
//     rational (LP) feasibility after every assertion;
//   * at a full boolean assignment, branch-and-bound closes the
//     integrality gap and produces an integer model.
//
// Integer tightening is applied everywhere (bounds are floored/ceiled after
// dividing rows by their content), so negation of atoms stays exact.
//
// The solver is *incremental*: push() opens a scope and pop() retracts every
// constraint, atom, clause and variable created since the matching push(),
// mirroring the assertion stack of industrial SMT backends. The simplex
// basis is kept warm across pops (see hv/smt/simplex.h), so re-solving a
// problem that shares a prefix of assertions with the previous one skips
// most of the pivoting.
#ifndef HV_SMT_SOLVER_H
#define HV_SMT_SOLVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hv/smt/lemma.h"
#include "hv/smt/linear.h"
#include "hv/smt/proof.h"
#include "hv/smt/sink.h"
#include "hv/smt/simplex.h"
#include "hv/util/bigint.h"
#include "hv/util/stopwatch.h"

namespace hv::smt {

enum class CheckResult { kSat, kUnsat };

class Solver final : public ConstraintSink {
 public:
  Solver();

  VarId new_variable(std::string name) override;
  void add(LinearConstraint constraint) override;
  void add_lower_bound(VarId var, const BigInt& bound) override;
  int add_atom(LinearConstraint constraint) override;
  void add_clause(std::vector<Literal> literals) override;
  void push() override;
  void pop() override;

  void add_upper_bound(VarId var, const BigInt& bound);
  int variable_count() const noexcept { return static_cast<int>(names_.size()); }
  int scope_depth() const noexcept { return static_cast<int>(scopes_.size()); }

  /// Decides satisfiability; on kSat a model is available. May be called
  /// repeatedly, at any scope depth; the assertion stack is unchanged.
  CheckResult check();

  /// Value of a variable in the last model (valid after check() == kSat).
  BigInt model_value(VarId var) const;

  struct Stats {
    std::int64_t decisions = 0;
    std::int64_t propagations = 0;
    std::int64_t simplex_checks = 0;
    std::int64_t branch_nodes = 0;
    std::int64_t lemma_hits = 0;       // check()s short-circuited by the pool
    std::int64_t lemmas_learned = 0;   // pure-Farkas conflicts banked
  };
  const Stats& stats() const noexcept { return stats_; }
  /// Cumulative simplex pivots (feasibility search; excludes the structural
  /// pivots pop() spends evicting deleted variables from the basis).
  std::int64_t pivots() const noexcept { return simplex_.stats().pivots; }
  /// Cumulative Rational arithmetic inside the simplex tableau, split by
  /// representation (machine-word fast path vs BigInt fallback).
  std::int64_t rational_fast_ops() const noexcept { return simplex_.stats().rational_fast_ops; }
  std::int64_t rational_big_ops() const noexcept { return simplex_.stats().rational_big_ops; }

  /// Branch-and-bound node budget; exceeded budgets throw hv::Error.
  void set_branch_budget(std::int64_t budget) noexcept { branch_budget_ = budget; }

  /// Wall-clock budget for a single check() (seconds; <= 0 disables).
  /// Exceeding it throws hv::Error — the caller must treat the check as
  /// inconclusive, never as unsat.
  void set_time_budget(double seconds) noexcept { time_budget_seconds_ = seconds; }

  /// Simplex pivot budget for a single check() (0 disables). Exceeding it
  /// throws hv::Error, with the same inconclusive-only contract as the time
  /// budget. This is the checker's per-schema pivot watchdog.
  void set_pivot_budget(std::int64_t budget) noexcept { pivot_budget_ = budget; }

  /// External cancellation point: when the flag turns true, the next budget
  /// poll inside check() throws hv::Error ("smt: cancelled"). The pointee
  /// must outlive the solver; nullptr disables.
  void set_cancel_flag(const std::atomic<bool>* cancel) noexcept { cancel_ = cancel; }

  // --- proof-carrying mode ---------------------------------------------------

  /// Turns on certificate emission. Must be called on a pristine solver
  /// (before any variable or assertion). Every subsequent kUnsat check()
  /// leaves a proof tree for take_last_proof(); kSat leaves the named integer
  /// model in model_assignment().
  void enable_certificates();

  // --- learning mode ---------------------------------------------------------

  /// Turns on cross-check learning against a shared Farkas lemma pool. Must
  /// be called on a pristine solver; mutually exclusive with
  /// enable_certificates() (learning elides work, which would leave
  /// coverage holes in a certificate). The pool must outlive the solver;
  /// nullptr keeps conflict-depth tracking without a pool.
  ///
  /// Effects: pure-Farkas conflicts (every cited premise a permanent
  /// constraint) are banked into the pool; check() probes the pool against
  /// the currently asserted constraints and short-circuits to kUnsat on a
  /// hit; every kUnsat check() additionally reports conflict_scope_depth().
  void enable_learning(LemmaPool* pool);

  /// After check() == kUnsat in learning mode: the smallest scope depth d
  /// such that the refutation only used permanent constraints recorded at
  /// depth <= d and clauses created at depth <= d (decision splits on atoms
  /// and integer branch bounds are tautological, so they never deepen it).
  /// The assertion stack truncated to its first d scopes — plus the base
  /// scope — is therefore already unsatisfiable.
  int conflict_scope_depth() const noexcept { return conflict_scope_depth_; }

  /// Test hook: masks every premise key with `mask` (0 makes all of them
  /// collide), so a test can check that only full strings decide a lemma
  /// hit. Must be called on a pristine solver.
  void mask_premise_keys_for_testing(std::uint64_t mask);

  /// Transfers ownership of the proof for the most recent check() == kUnsat
  /// to the caller (null after kSat or when certificates are disabled).
  std::unique_ptr<proof::Node> take_last_proof() noexcept { return std::move(last_proof_); }

  /// The last model as (name, value) pairs over the caller's named
  /// variables (internal slacks omitted). Valid after check() == kSat in
  /// certificate mode.
  std::vector<std::pair<std::string, BigInt>> model_assignment() const;

 private:
  enum class BoundKind { kLe, kGe, kEq };

  // A constraint normalized to a bound on a slack (or structural) variable,
  // or to a constant truth value when it mentions no variables.
  struct NormalizedAtom {
    bool constant = false;
    bool constant_value = false;
    int var = -1;  // simplex variable carrying the bound
    BoundKind kind = BoundKind::kLe;
    BigInt bound;
    bool negatable = true;  // kEq atoms are not
  };

  // A premise fed to the simplex as a bound, with enough provenance to
  // reconstruct the name-space inequality a conflict cites. `var` is the
  // simplex variable carrying the bound (possibly a slack; resolution
  // substitutes its defining terms).
  struct PremiseRec {
    proof::PremiseOrigin origin = proof::PremiseOrigin::kConstraint;
    int atom = -1;
    bool positive = true;
    int var = -1;
    Relation rel = Relation::kLe;
    BigInt bound;
    // Learning mode: scope depth the premise was asserted at, and (for
    // kConstraint premises) the premise key (hv/smt/lemma.h) of its
    // canonical name-space inequality, the lemma-pool signature
    // (premise_signature).
    int depth = 0;
    std::uint64_t key = 0;
  };

  // Normalizes `constraint`, whose terms it takes over.
  NormalizedAtom normalize(LinearConstraint&& constraint);
  // The slack defined by the normalized term vector, minted on first use.
  int slack_for(std::vector<std::pair<int, BigInt>>&& terms);
  // Asserts a normalized atom (or its negation) on the simplex; returns
  // false on immediate bound conflict. In certificate mode the asserted
  // bounds are recorded as premises with the given origin.
  [[nodiscard]] bool assert_atom(const NormalizedAtom& atom, bool positive,
                                 proof::PremiseOrigin origin, int atom_index);

  int record_premise(proof::PremiseOrigin origin, int atom, bool positive, int var,
                     Relation rel, BigInt bound);
  // The (slack-substituted) named terms the simplex variable stands for.
  proof::NamedTerms named_terms_for(int var) const;
  // Canonical name-space rendering of "terms(var) rel bound" (lemma-pool
  // signature; learning mode only), and whether it equals `sig`, streamed
  // without building the string.
  std::string premise_signature(const PremiseRec& rec) const;
  bool signature_equals(const PremiseRec& rec, std::string_view sig) const;
  // Feeds the signature to `sink` piece by piece.
  template <typename Sink>
  void write_signature(const PremiseRec& rec, Sink&& sink) const;
  // Learning mode, called at every simplex conflict: folds the depth of the
  // cited permanent constraints into conflict_scope_depth_, banks the
  // conflict as a lemma when it is a pure Farkas combination of permanent
  // constraints, and returns the conflict's own depth contribution.
  int note_simplex_conflict();
  void note_clause_depth(int clause);
  // Farkas leaf from the simplex's last conflict explanation.
  std::unique_ptr<proof::Node> farkas_from_conflict() const;
  // Farkas leaf "0 <= -1" citing a constraint/atom that normalizes to
  // constant falsehood.
  static std::unique_ptr<proof::Node> constant_false_node(int atom, bool positive);
  std::unique_ptr<proof::Node> take_pending_conflict();
  static std::unique_ptr<proof::Node> wrap_propagations(
      std::vector<std::pair<int, Literal>>& props, std::unique_ptr<proof::Node> leaf);
  void mark_trivially_unsat(std::unique_ptr<proof::Node> proof, int depth = 0);

  // DPLL over clauses; assignment_ holds per-atom values. On kUnsat in
  // certificate mode, *out receives the proof of the current context.
  CheckResult search(std::unique_ptr<proof::Node>* out);
  // Returns the clause index to branch on, -1 if all satisfied, -2 on
  // conflict; performs unit propagation as a side effect (returns -2 if a
  // propagated literal conflicts). Propagated literals are appended to
  // *props (certificate mode); a conflict leaves its node in
  // pending_conflict_.
  int propagate_and_select(std::vector<std::pair<int, Literal>>* props);
  [[nodiscard]] bool set_atom(int atom, bool value);

  // Integer completion at a full boolean assignment.
  bool branch_and_bound(int depth, std::unique_ptr<proof::Node>* out);
  // Throws hv::Error once the wall-clock budget is exceeded.
  void enforce_deadline();
  void capture_model();

  // One assertion scope: everything needed to truncate solver state back to
  // the moment of the push(). The simplex side is undone by its own trail.
  struct Scope {
    std::size_t atom_count = 0;
    std::size_t clause_count = 0;
    std::size_t name_count = 0;
    std::size_t premise_count = 0;
    bool trivially_unsat = false;
    int trivial_depth = 0;
    // The trivial-unsat proof active when the scope opened (shared so the
    // scope snapshot is a cheap copy).
    std::shared_ptr<proof::Node> trivial_proof;
    std::vector<std::uint64_t> slack_keys;  // keys of the slacks minted in the scope
  };

  Simplex simplex_;
  std::vector<std::string> names_;
  // Slack pool: the hashed key of a normalized term vector -> ascending ids
  // of the live slacks with that key. A key only nominates: slack_defs_
  // confirms a hit. Slacks are minted and deleted stack-wise, so pop() trims
  // each of its keys' lists by a pop_back.
  std::unordered_map<std::uint64_t, std::vector<int>> slack_pool_;
  // Per-variable slack definitions (empty for non-slacks); parallel to
  // names_. The slack pool confirms its hits against them; certificates
  // and lemma signatures name slacks by them.
  std::vector<std::vector<std::pair<VarId, BigInt>>> slack_defs_;
  std::vector<Scope> scopes_;
  std::vector<NormalizedAtom> atoms_;
  std::vector<std::vector<Literal>> clauses_;
  std::vector<int> clause_depths_;  // scope depth each clause was created at
  std::vector<signed char> assignment_;  // -1 unassigned, 0 false, 1 true
  bool trivially_unsat_ = false;
  int trivial_depth_ = 0;
  std::vector<Rational> model_;

  // Certificate mode.
  bool certify_ = false;
  std::vector<PremiseRec> premises_;
  std::unique_ptr<proof::Node> last_proof_;
  std::shared_ptr<proof::Node> trivial_proof_;
  std::unique_ptr<proof::Node> pending_conflict_;

  // Learning mode.
  bool learn_ = false;
  LemmaPool* lemmas_ = nullptr;
  int conflict_scope_depth_ = 0;
  // Per-variable term keys, parallel to names_: name_key(name) for a named
  // variable, the integer_key(coeff)-weighted sum of its definition's term
  // keys for a slack. A kConstraint premise keys as
  // premise_key(term_keys_[var], rel, integer_key(bound)).
  std::vector<std::uint64_t> term_keys_;
  // Premise key -> ascending indices of the live kConstraint premises
  // with that key (premises are recorded/retracted stack-wise, so each
  // vector stays sorted and pop() trims a suffix). A key only nominates:
  // a lemma-probe hit is confirmed by comparing full strings.
  std::unordered_map<std::uint64_t, std::vector<int>> asserted_sigs_;
  // Test hook: every premise key is masked with it before indexing or
  // lookup, so a mask of 0 makes every key collide.
  std::uint64_t premise_key_mask_ = ~std::uint64_t{0};
  // write_signature's name-sorted term view, kept to reuse its allocation.
  mutable std::vector<std::pair<const std::string*, const BigInt*>> signature_terms_;
  // The asserted kConstraint premises as the lemma pool probes them.
  class AssertedPremises;

  Stats stats_;
  std::int64_t branch_budget_ = 1'000'000;
  std::int64_t branch_nodes_used_ = 0;
  double time_budget_seconds_ = 0.0;
  std::int64_t pivot_budget_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  Stopwatch check_stopwatch_;
  std::int64_t deadline_poll_counter_ = 0;
};

}  // namespace hv::smt

#endif  // HV_SMT_SOLVER_H
