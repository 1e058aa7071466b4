// Farkas lemma pool: cross-check reuse of refutations.
//
// When a certifying/learning check() refutes a context with a pure theory
// conflict — a Farkas combination every premise of which is a permanent
// constraint (PremiseOrigin::kConstraint) — the cited constraint set alone is
// rationally infeasible. That fact is *syntactic*: it names a finite set of
// inequalities over named variables whose conjunction admits no rational
// point, so it holds in any solver state that currently asserts
// content-equal constraints, independent of scope layout, clause set, or
// which schema of the query is being encoded.
//
// The pool stores such refutations as sorted vectors of canonical
// inequality strings. Solver::check() probes the pool before searching; a
// hit short-circuits to kUnsat and reports the scope depth of the deepest
// premise, which the checker turns into a subtree cut (see
// hv/checker/learning.h). The solver indexes its asserted premises by the
// 64-bit FNV-1a key of their strings, but a key only nominates a premise:
// the full string decides. A bare hash never decides a match, since a
// collision would fabricate an unsound "unsat" verdict.
//
// Thread safety: one pool is shared by every encoder working on the same
// query (in-process pool workers, or the distributed worker's per-query
// state); all public methods lock.
#ifndef HV_SMT_LEMMA_H
#define HV_SMT_LEMMA_H

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace hv::smt {

/// One learned refutation: canonical name-space inequality strings of a
/// constraint set whose conjunction is rationally infeasible.
struct Lemma {
  std::vector<std::string> premises;  // sorted, deduplicated
};

class LemmaPool {
 public:
  /// `capacity` bounds the number of stored lemmas; later insertions are
  /// dropped (never evicted — eviction would desynchronize the dedup set).
  explicit LemmaPool(std::size_t capacity = kDefaultCapacity);

  /// Inserts a lemma; returns true iff it was not already present (and the
  /// pool had room). `fresh` marks locally-derived lemmas for take_fresh();
  /// pass false for lemmas imported over the distributed wire so they are
  /// not echoed back to the coordinator.
  bool insert(Lemma lemma, bool fresh = true);

  /// Drains the locally-derived lemmas inserted since the last call
  /// (distributed sharing: the worker ships these with its lease report).
  std::vector<Lemma> take_fresh();

  /// Every stored lemma, in insertion order.
  std::vector<Lemma> snapshot() const;

  /// Probes for a lemma whose premises are all currently asserted.
  /// `min_depth` maps a canonical inequality string to the shallowest scope
  /// depth asserting a content-equal constraint, or -1 when absent. On a
  /// hit, *depth receives the smallest max-premise-depth over all matching
  /// lemmas (the strongest subtree cut) and probe returns true.
  bool probe(const std::function<int(const std::string&)>& min_depth, int* depth) const;

  std::size_t size() const;

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  static std::string key_of(const Lemma& lemma);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::unordered_set<std::string> seen_;
  std::vector<Lemma> lemmas_;
  std::vector<Lemma> fresh_;
};

}  // namespace hv::smt

#endif  // HV_SMT_LEMMA_H
