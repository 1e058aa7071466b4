#include "hv/smt/proof_json.h"

#include <utility>

#include "hv/util/error.h"

namespace hv::smt::proof {

namespace {

// Nodes deeper than this are rejected on deserialization: real proof trees
// nest one level per propagation/decision/branch and stay far below, while a
// hostile file must not exhaust the recursive reader's stack.
constexpr int kMaxProofDepth = 6000;

std::string relation_to_string(Relation rel) {
  switch (rel) {
    case Relation::kLe:
      return "<=";
    case Relation::kGe:
      return ">=";
    case Relation::kEq:
      return "==";
  }
  throw InternalError("unreachable relation");
}

Relation relation_from_string(const std::string& text) {
  if (text == "<=") return Relation::kLe;
  if (text == ">=") return Relation::kGe;
  throw InvalidArgument("proof: invalid premise relation '" + text + "'");
}

Json rational_to_json(const Rational& value) {
  if (value.is_integer()) return Json(value.numerator().to_string());
  return Json(value.numerator().to_string() + "/" + value.denominator().to_string());
}

Rational rational_from_json(const Json& json) {
  const std::string& text = json.as_string();
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return Rational(BigInt::from_string(text));
  return Rational(BigInt::from_string(text.substr(0, slash)),
                  BigInt::from_string(text.substr(slash + 1)));
}

Premise premise_from_json(const Json& json, const ReadPool& pool) {
  const Json::Array& items = json.as_array();
  if (items.empty()) throw InvalidArgument("proof: empty premise");
  Premise premise;
  const std::string& origin = items[0].as_string();
  std::size_t next = 1;
  if (origin == "c") {
    premise.origin = PremiseOrigin::kConstraint;
  } else if (origin == "a") {
    premise.origin = PremiseOrigin::kAtom;
    if (items.size() < 3) throw InvalidArgument("proof: truncated atom premise");
    premise.atom = static_cast<int>(items[1].as_int());
    premise.positive = items[2].as_int() != 0;
    next = 3;
  } else if (origin == "b") {
    premise.origin = PremiseOrigin::kBranch;
  } else {
    throw InvalidArgument("proof: invalid premise origin '" + origin + "'");
  }
  if (items.size() != next + 3) throw InvalidArgument("proof: malformed premise");
  premise.terms = pool.terms_from_json(items[next]);
  premise.rel = relation_from_string(items[next + 1].as_string());
  premise.bound = BigInt::from_string(items[next + 2].as_string());
  return premise;
}

std::unique_ptr<Node> node_from_json(const Json& json, const ReadPool& pool, int depth) {
  if (depth > kMaxProofDepth) throw InvalidArgument("proof: tree too deep");
  const Json::Array& items = json.as_array();
  if (items.empty()) throw InvalidArgument("proof: empty node");
  auto node = std::make_unique<Node>();
  const std::string& kind = items[0].as_string();
  if (kind == "F") {
    node->kind = NodeKind::kFarkas;
    if (items.size() % 2 != 1) {
      throw InvalidArgument("proof: Farkas node must list [premiseIdx, mult] pairs");
    }
    node->farkas.reserve((items.size() - 1) / 2);
    for (std::size_t i = 1; i < items.size(); i += 2) {
      node->farkas.push_back(
          {pool.premise(items[i].as_int()), rational_from_json(items[i + 1])});
    }
    return node;
  }
  if (kind == "C") {
    if (items.size() != 2) throw InvalidArgument("proof: malformed conflict node");
    node->kind = NodeKind::kClauseConflict;
    node->clause = static_cast<int>(items[1].as_int());
    return node;
  }
  if (kind == "P") {
    if (items.size() != 5) throw InvalidArgument("proof: malformed propagation node");
    node->kind = NodeKind::kPropagation;
    node->clause = static_cast<int>(items[1].as_int());
    node->atom = static_cast<int>(items[2].as_int());
    node->positive = items[3].as_int() != 0;
    node->first = node_from_json(items[4], pool, depth + 1);
    return node;
  }
  if (kind == "D") {
    if (items.size() != 4) throw InvalidArgument("proof: malformed decision node");
    node->kind = NodeKind::kDecision;
    node->atom = static_cast<int>(items[1].as_int());
    node->first = node_from_json(items[2], pool, depth + 1);
    node->second = node_from_json(items[3], pool, depth + 1);
    return node;
  }
  if (kind == "B") {
    if (items.size() != 5) throw InvalidArgument("proof: malformed branch node");
    node->kind = NodeKind::kBranch;
    node->branch_terms = pool.terms_from_json(items[1]);
    node->branch_bound = BigInt::from_string(items[2].as_string());
    node->first = node_from_json(items[3], pool, depth + 1);
    node->second = node_from_json(items[4], pool, depth + 1);
    return node;
  }
  throw InvalidArgument("proof: invalid node kind '" + kind + "'");
}

}  // namespace

std::int64_t WritePool::name_id(const std::string& name) {
  const auto [it, inserted] = name_ids_.emplace(name, static_cast<std::int64_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

Json WritePool::terms_to_json(const NamedTerms& terms) {
  Json::Array out;
  out.reserve(terms.size() * 2);
  for (const auto& [name, coeff] : terms) {
    out.push_back(name_id(name));
    out.push_back(coeff.to_string());
  }
  return Json(std::move(out));
}

std::int64_t WritePool::premise_id(const Premise& premise) {
  Json::Array out;
  switch (premise.origin) {
    case PremiseOrigin::kConstraint:
      out.push_back("c");
      break;
    case PremiseOrigin::kAtom:
      out.push_back("a");
      out.push_back(static_cast<std::int64_t>(premise.atom));
      out.push_back(static_cast<std::int64_t>(premise.positive ? 1 : 0));
      break;
    case PremiseOrigin::kBranch:
      out.push_back("b");
      break;
  }
  out.push_back(terms_to_json(premise.terms));
  out.push_back(relation_to_string(premise.rel));
  out.push_back(premise.bound.to_string());
  Json json(std::move(out));
  const auto [it, inserted] =
      premise_ids_.emplace(json.to_string(), static_cast<std::int64_t>(premises_.size()));
  if (inserted) premises_.push_back(std::move(json));
  return it->second;
}

Json WritePool::names_json() && {
  Json::Array out;
  out.reserve(names_.size());
  for (std::string& name : names_) out.push_back(std::move(name));
  return Json(std::move(out));
}

ReadPool::ReadPool(const Json* names, const Json* premises) {
  if (names != nullptr) {
    for (const Json& name : names->as_array()) names_.push_back(name.as_string());
  }
  if (premises != nullptr) {
    for (const Json& premise : premises->as_array()) {
      premises_.push_back(premise_from_json(premise, *this));
    }
  }
}

const std::string& ReadPool::name(std::int64_t id) const {
  if (id < 0 || id >= static_cast<std::int64_t>(names_.size())) {
    throw InvalidArgument("proof: name index out of range");
  }
  return names_[static_cast<std::size_t>(id)];
}

const Premise& ReadPool::premise(std::int64_t id) const {
  if (id < 0 || id >= static_cast<std::int64_t>(premises_.size())) {
    throw InvalidArgument("proof: premise index out of range");
  }
  return premises_[static_cast<std::size_t>(id)];
}

NamedTerms ReadPool::terms_from_json(const Json& json) const {
  const Json::Array& items = json.as_array();
  if (items.size() % 2 != 0) {
    throw InvalidArgument("proof: terms must be [nameIdx, coeff] pairs");
  }
  NamedTerms terms;
  terms.reserve(items.size() / 2);
  for (std::size_t i = 0; i < items.size(); i += 2) {
    terms.emplace_back(name(items[i].as_int()), BigInt::from_string(items[i + 1].as_string()));
  }
  return terms;
}

Json node_to_json(const Node& node, WritePool& pool) {
  Json::Array out;
  switch (node.kind) {
    case NodeKind::kFarkas: {
      out.reserve(1 + node.farkas.size() * 2);
      out.push_back("F");
      for (const auto& [premise, multiplier] : node.farkas) {
        out.push_back(pool.premise_id(premise));
        out.push_back(rational_to_json(multiplier));
      }
      return Json(std::move(out));
    }
    case NodeKind::kClauseConflict:
      out.push_back("C");
      out.push_back(static_cast<std::int64_t>(node.clause));
      return Json(std::move(out));
    case NodeKind::kPropagation:
      out.push_back("P");
      out.push_back(static_cast<std::int64_t>(node.clause));
      out.push_back(static_cast<std::int64_t>(node.atom));
      out.push_back(static_cast<std::int64_t>(node.positive ? 1 : 0));
      out.push_back(node_to_json(*node.first, pool));
      return Json(std::move(out));
    case NodeKind::kDecision:
      out.push_back("D");
      out.push_back(static_cast<std::int64_t>(node.atom));
      out.push_back(node_to_json(*node.first, pool));
      out.push_back(node_to_json(*node.second, pool));
      return Json(std::move(out));
    case NodeKind::kBranch:
      out.push_back("B");
      out.push_back(pool.terms_to_json(node.branch_terms));
      out.push_back(node.branch_bound.to_string());
      out.push_back(node_to_json(*node.first, pool));
      out.push_back(node_to_json(*node.second, pool));
      return Json(std::move(out));
  }
  throw InternalError("unreachable proof node kind");
}

std::unique_ptr<Node> node_from_json(const Json& json, const ReadPool& pool) {
  return node_from_json(json, pool, 0);
}

Json to_json(const Node& node) {
  WritePool pool;
  Json tree = node_to_json(node, pool);
  Json out = Json(Json::Object{});
  out.set("names", std::move(pool).names_json());
  out.set("premises", std::move(pool).premises_json());
  out.set("tree", std::move(tree));
  return out;
}

std::unique_ptr<Node> from_json(const Json& json) {
  const ReadPool pool(json.find("names"), json.find("premises"));
  return node_from_json(json.at("tree"), pool);
}

}  // namespace hv::smt::proof
