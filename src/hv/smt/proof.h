// Proof objects emitted by the certifying solver and consumed by the
// auditor (hv/cert), which solves no schema.
//
// Everything here is *name-based*: premises and branch splits are rendered
// over the solver's variable names (after substituting internal slack
// variables by their defining term vectors), never over variable indices.
// Names are deterministic per (query, schema) — the encoder derives them
// from the automaton ("n", "k0[locA]", "d3[r7]") — so a proof emitted by an
// incremental encoder run matches a fresh re-encoding of the same schema
// even though the two runs create solver variables in different orders.
//
// The UNSAT proof is a tree over the solver's case splits:
//
//   kFarkas          leaf: a nonnegative rational combination of inequality
//                    premises whose variable parts cancel and whose constant
//                    part is contradictory (0 <= negative)
//   kClauseConflict  leaf: a clause all of whose literals are false in the
//                    current context
//   kPropagation     inner: a clause with all literals but one false forces
//                    that literal; the child proves the extended context
//   kDecision        inner: case split on an atom (child per polarity)
//   kBranch          inner: integer case split e <= k  \/  e >= k+1 on an
//                    integer-valued expression e
//
// A Farkas premise cites where its inequality comes from:
//   kConstraint      a permanently asserted constraint of the encoding
//   kAtom            a clause atom, under the polarity set on the tree path
//   kBranch          a branch assumption of an enclosing kBranch node
//
// The auditor re-derives every premise's inequality from its own
// re-encoding (dividing by the content and tightening bounds in exact
// integer arithmetic) and only then checks the combination — it never
// trusts a certificate's arithmetic.
#ifndef HV_SMT_PROOF_H
#define HV_SMT_PROOF_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hv/smt/linear.h"
#include "hv/util/rational.h"

namespace hv::smt::proof {

/// Sparse linear form over named variables: sum of coeff*name, sorted by
/// name with no zero coefficients (structural equality is semantic).
using NamedTerms = std::vector<std::pair<std::string, BigInt>>;

enum class PremiseOrigin { kConstraint, kAtom, kBranch };

/// An inequality over named variables: sum(terms) rel bound with rel in
/// {kLe, kGe}. An empty-terms premise "0 <= -1" encodes a constraint that
/// normalizes to constant falsehood (e.g. an equality whose content does
/// not divide its constant).
struct Premise {
  PremiseOrigin origin = PremiseOrigin::kConstraint;
  int atom = -1;        // kAtom: index into the re-encoded atom list
  bool positive = true; // kAtom: polarity the tree path assigns the atom
  NamedTerms terms;
  Relation rel = Relation::kLe;
  BigInt bound;

  friend bool operator==(const Premise&, const Premise&) = default;
};

struct FarkasTerm {
  Premise premise;
  Rational multiplier;  // strictly positive
};

enum class NodeKind { kFarkas, kClauseConflict, kPropagation, kDecision, kBranch };

struct Node {
  NodeKind kind = NodeKind::kFarkas;
  std::vector<FarkasTerm> farkas;  // kFarkas
  int clause = -1;                 // kClauseConflict / kPropagation
  int atom = -1;                   // kPropagation (forced literal) / kDecision
  bool positive = true;            // kPropagation: forced literal's polarity
  NamedTerms branch_terms;         // kBranch: the integer-valued expression
  BigInt branch_bound;             // kBranch: low <= bound, high >= bound+1
  std::unique_ptr<Node> first;     // kPropagation child / kDecision true / kBranch low
  std::unique_ptr<Node> second;    // kDecision false / kBranch high
};

std::unique_ptr<Node> clone(const Node& node);

/// Number of nodes in the tree (reporting / sanity limits).
std::int64_t node_count(const Node& node);

struct UnsatProof {
  std::unique_ptr<Node> root;
};

/// A raw assertion rendered in name space (terms sorted by name):
/// sum(terms) + constant rel 0. Raw means pre-normalization — the auditor
/// performs content division and integer tightening itself.
struct TracedConstraint {
  NamedTerms terms;
  BigInt constant;
  Relation rel = Relation::kLe;

  friend bool operator==(const TracedConstraint&, const TracedConstraint&) = default;
};

/// One variable name's share of a term-name-set filter.
std::uint64_t name_filter(std::string_view name);

/// Filter value of the set of names `terms` mentions: the sum of their
/// name_filter()s, so it does not depend on term order and the empty set
/// maps to 0. Equal name sets have equal filters; the converse does not
/// hold, so a filter match only nominates a constraint for comparison.
std::uint64_t name_set_filter(const NamedTerms& terms);

}  // namespace hv::smt::proof

#endif  // HV_SMT_PROOF_H
