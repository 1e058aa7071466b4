#include "hv/smt/proof.h"

#include <functional>

#include "hv/util/hash.h"

namespace hv::smt::proof {

std::unique_ptr<Node> clone(const Node& node) {
  auto copy = std::make_unique<Node>();
  copy->kind = node.kind;
  copy->farkas = node.farkas;
  copy->clause = node.clause;
  copy->atom = node.atom;
  copy->positive = node.positive;
  copy->branch_terms = node.branch_terms;
  copy->branch_bound = node.branch_bound;
  if (node.first) copy->first = clone(*node.first);
  if (node.second) copy->second = clone(*node.second);
  return copy;
}

std::int64_t node_count(const Node& node) {
  std::int64_t count = 1;
  if (node.first) count += node_count(*node.first);
  if (node.second) count += node_count(*node.second);
  return count;
}

std::uint64_t name_filter(std::string_view name) {
  // splitmix64's finalizer spreads the string hash over all 64 bits, so a
  // sum of several of them stays well distributed.
  return splitmix64_mix(std::hash<std::string_view>{}(name) + kGoldenGamma);
}

std::uint64_t name_set_filter(const NamedTerms& terms) {
  std::uint64_t filter = 0;
  for (const auto& [name, coeff] : terms) filter += name_filter(name);
  return filter;
}

}  // namespace hv::smt::proof
