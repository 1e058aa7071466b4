// The JSON codec of proof trees (proof.h): the one encoding a proof has in a
// certificate, a worker's record frame and a journal line.
//
// Proof trees repeat the same premises thousands of times (shared chain
// prefixes assert identical constraint rows, and DPLL subtrees cite the
// same bounds in every conflict), so a tree is written against a name pool
// and a premise pool that list each name and premise once, and the tree
// references them by index. A certificate shares one pool pair across all
// trees of a property; a stand-alone proof (to_json) carries its own.
//
// Wire forms (all compact arrays):
//   terms                [nameIdx, "coeff", nameIdx, "coeff", ...]
//   premise constraint   ["c", terms, rel, "bound"]
//           atom         ["a", atomIdx, 0|1, terms, rel, "bound"]
//           branch       ["b", terms, rel, "bound"]
//   node    farkas       ["F", premiseIdx, "mult", premiseIdx, "mult", ...]
//           conflict     ["C", clauseIdx]
//           propagation  ["P", clauseIdx, atomIdx, 0|1, child]
//           decision     ["D", atomIdx, trueChild, falseChild]
//           branch       ["B", terms, "bound", low, high]
//
// Every reader throws hv::InvalidArgument on malformed input: proofs arrive
// from files and from untrusted workers.
#ifndef HV_SMT_PROOF_JSON_H
#define HV_SMT_PROOF_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hv/smt/proof.h"
#include "hv/util/json.h"

namespace hv::smt::proof {

/// Interns names and premises while trees are written.
class WritePool {
 public:
  std::int64_t name_id(const std::string& name);
  Json terms_to_json(const NamedTerms& terms);
  std::int64_t premise_id(const Premise& premise);

  /// The pools, moved out once every tree is written.
  Json names_json() &&;
  Json premises_json() && { return Json(std::move(premises_)); }
  bool empty() const { return names_.empty() && premises_.empty(); }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::int64_t> name_ids_;
  Json::Array premises_;
  std::map<std::string, std::int64_t> premise_ids_;
};

/// The decoded pools that trees are read against. Null pools are empty.
class ReadPool {
 public:
  ReadPool(const Json* names, const Json* premises);

  const std::string& name(std::int64_t id) const;
  const Premise& premise(std::int64_t id) const;
  NamedTerms terms_from_json(const Json& json) const;

 private:
  std::vector<std::string> names_;
  std::vector<Premise> premises_;
};

/// One tree against shared pools.
Json node_to_json(const Node& node, WritePool& pool);
std::unique_ptr<Node> node_from_json(const Json& json, const ReadPool& pool);

/// A stand-alone proof: {"names": [...], "premises": [...], "tree": node}.
Json to_json(const Node& node);
std::unique_ptr<Node> from_json(const Json& json);

}  // namespace hv::smt::proof

#endif  // HV_SMT_PROOF_JSON_H
