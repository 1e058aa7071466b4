// Cross-schema learning state shared by every solver of one property run.
//
// Two kinds of facts flow out of an unsat schema in learning mode:
//
//   * Subtree cuts — UnitOutcome::cut_prefix says the refutation only
//     referenced the first d chain elements; every schema of the same query
//     whose unlock order starts with that prefix is unsat (for any cut
//     placement). The CutIndex records such prefixes in a prefix trie, so
//     the per-schema covers() lookup walks one chain instead of scanning
//     every cut, and the enumeration loops skip covered schemas without
//     solving, counting them as PropertyResult::schemas_cut. Cuts ride on
//     the unsat journal record (JournalRecord::cut) so a resumed run
//     rebuilds the index instead of re-deriving it, and reach fleet workers
//     with their next lease grant, so later leases skip doomed subtrees.
//
//   * Farkas lemmas — pure-constraint refutations banked in the per-query
//     smt::LemmaPool, replayed by the solver before searching. The pool
//     matches 64-bit premise keys first and full inequality strings last
//     (hv/smt/lemma.h).
//
// Both are per-query: a cut prefix or lemma derived against one reach query
// says nothing about another query's constraint system.
//
// Where the state lives: a run's lease book (run.h) owns one PropertyLearning
// per property, iff lemmas_enabled holds for its options. Every consumer's
// solver of that property carries it (SolveHooks::learning), so step_schema
// reads and extends the same cut index, and the book folds the cut of every
// merged unsat record into it, whoever settled the schema: a thread, the
// resume replay or a fleet worker. A fleet worker process is a consumer of
// a lease book of its own, whose learning state is fed by its own
// refutations and by the cuts and lemmas the coordinator ships from the
// run's book (hv/dist/protocol.h).
//
// Trust boundary: neither kind of learned fact can flip a verdict. A cut
// only suppresses solving of schemas whose unsat-ness is entailed by an
// already-solved refutation; a lemma hit only replaces a solver run that
// would have returned unsat anyway. Certifying runs disable learning
// entirely (CheckOptions gate) so certificates keep per-schema coverage and
// stay byte-compatible; the auditor never sees learned facts.
#ifndef HV_CHECKER_LEARNING_H
#define HV_CHECKER_LEARNING_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "hv/smt/lemma.h"

namespace hv::checker {

/// Thread-safe set of unsat chain prefixes for one query, kept as a prefix
/// trie: add and covers walk one path, so they cost O(chain length) however
/// many cuts are recorded. The set stays prefix-free (add drops the cuts a
/// new one subsumes), so a cut ends only at a leaf. The nodes live in one
/// vector; a subsumed cut's nodes stay there unreachable, which costs at
/// most the total length of the prefixes ever added.
class CutIndex {
 public:
  /// Records a prefix; returns true iff it is new and not already covered
  /// by a recorded (shorter or equal) prefix. Prefixes it subsumes are
  /// dropped.
  bool add(const std::vector<int>& prefix);

  /// True iff some recorded cut prefix is a prefix of `chain`.
  bool covers(const std::vector<int>& chain) const;

  /// The recorded cuts in insertion order (cut frames and journals list
  /// them so).
  std::vector<std::vector<int>> snapshot() const;
  std::size_t size() const;

 private:
  // A trie node, named by its index in nodes_ (the root is 0); a node's
  // children form a sibling list.
  struct Node {
    int element = 0;          // the chain element leading here
    int first_child = -1;
    int next_sibling = -1;
    std::int64_t order = -1;  // insertion number of the cut ending here, or -1
  };

  int child(int node, int element) const;
  std::size_t count_cuts(int node) const;

  mutable std::mutex mutex_;
  std::vector<Node> nodes_{Node{}};
  std::size_t size_ = 0;
  std::int64_t next_order_ = 0;
};

/// The chain prefix an unsat refutation of depth `cut` proves infeasible:
/// the first `cut` elements of `unlock_order`, or nullopt when `cut` is out
/// of range (-1 means the refutation cut nothing).
std::optional<std::vector<int>> cut_prefix(const std::vector<int>& unlock_order,
                                           std::int64_t cut);

/// Learning state of one (property, query) pair.
struct QueryLearning {
  smt::LemmaPool lemmas;
  CutIndex cuts;
};

/// Learning state of one property run, indexed by query. deque: members own
/// mutexes (immovable) and references must stay stable across workers.
struct PropertyLearning {
  explicit PropertyLearning(std::size_t query_count) : queries(query_count) {}
  std::deque<QueryLearning> queries;
};

}  // namespace hv::checker

#endif  // HV_CHECKER_LEARNING_H
