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
// inequality strings ("c*name+...+<=b", terms sorted by name): they are the
// lemma's identity for dedup, on the distributed wire and in the final
// match. Solver::check() probes the pool before searching; a hit
// short-circuits to kUnsat and reports the scope depth of the deepest
// premise, which the checker turns into a subtree cut (see
// hv/checker/learning.h).
//
// Premise keys keep strings off the probe's hot path. A premise's 64-bit
// key is computed from its parts: a term c*name keys as c·name_key(name)
// (wrapping), a term vector as the sum of its terms (so no sort is needed),
// and the premise mixes that term key with its relation and bound. The
// solver caches name keys per variable and folds each slack's term key
// once, when it mints the slack, so keying an asserted premise is O(1);
// the pool keys each lemma premise once, at insert, by parsing its string.
// A probe walks the stored keys against the solver's asserted-premise
// index (PremiseIndex) and compares full strings only for a lemma whose
// every key is nominated. A bare key never decides a match, since a
// collision would fabricate an unsound "unsat" verdict.
//
// Thread safety: one pool is shared by every encoder working on the same
// query (in-process pool workers, or the distributed worker's per-query
// state); all public methods lock.
#ifndef HV_SMT_LEMMA_H
#define HV_SMT_LEMMA_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "hv/smt/linear.h"
#include "hv/util/bigint.h"
#include "hv/util/hash.h"

namespace hv::smt {

/// One learned refutation: canonical name-space inequality strings of a
/// constraint set whose conjunction is rationally infeasible.
struct Lemma {
  std::vector<std::string> premises;  // sorted, deduplicated
};

/// The key no premise has: premise_key never returns it, and a string that
/// does not parse as a canonical inequality gets it, so it never matches.
inline constexpr std::uint64_t kNoPremise = 0;

/// The key word of an integer: its value when it fits int64, else the
/// FNV-1a hash of its decimal digits.
inline std::uint64_t integer_key(const BigInt& value) {
  return value.fits_int64() ? static_cast<std::uint64_t>(value.to_int64())
                            : fnv1a(value.to_string());
}
/// The key of the term 1*name; c*name keys as integer_key(c) times it.
std::uint64_t name_key(std::string_view name);
/// The key of "terms rel bound", given the terms' summed key and the
/// bound's integer_key. Never kNoPremise.
std::uint64_t premise_key(std::uint64_t terms, Relation rel, std::uint64_t bound);
/// The key of a canonical inequality string, or kNoPremise when it does not
/// parse. Equal strings get equal keys; a parsing but non-canonical string
/// may share a key with a canonical one, which the string check rejects.
std::uint64_t premise_key(std::string_view canonical);

/// What a probe matches lemmas against: the asserted premises, indexed by
/// premise key.
class PremiseIndex {
 public:
  /// True iff some asserted premise has key `key` (a nomination only).
  virtual bool nominates(std::uint64_t key) const = 0;
  /// The shallowest scope depth of an asserted premise with key `key` whose
  /// canonical string is `premise`, or -1 when none is.
  virtual int depth_of(std::uint64_t key, std::string_view premise) const = 0;

 protected:
  ~PremiseIndex() = default;
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

  /// Probes for a lemma whose premises are all asserted in `asserted`. On a
  /// hit, *depth receives the smallest max-premise-depth over all matching
  /// lemmas (the strongest subtree cut) and probe returns true.
  bool probe(const PremiseIndex& asserted, int* depth) const;

  std::size_t size() const;

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  struct Stored {
    Lemma lemma;
    std::vector<std::uint64_t> keys;  // premise_key of each premise
  };

  static std::string key_of(const Lemma& lemma);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::unordered_set<std::string> seen_;
  std::vector<Stored> lemmas_;
  std::vector<Lemma> fresh_;
};

}  // namespace hv::smt

#endif  // HV_SMT_LEMMA_H
