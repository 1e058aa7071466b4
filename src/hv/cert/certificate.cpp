#include "hv/cert/certificate.h"

#include <algorithm>
#include <map>

#include "hv/util/error.h"

namespace hv::cert {

namespace {

using smt::Relation;
using smt::proof::Node;
using smt::proof::NodeKind;
using smt::proof::Premise;
using smt::proof::PremiseOrigin;

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
  throw InvalidArgument("certificate: invalid premise relation '" + text + "'");
}

// ---------------------------------------------------------------------------
// Interning pools. Proof trees repeat the same premises thousands of times
// (shared chain prefixes assert identical constraint rows, and DPLL subtrees
// cite the same bounds in every conflict), so each property serializes a
// name pool and a premise pool once and the trees reference them by index.
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
// ---------------------------------------------------------------------------

class WritePool {
 public:
  std::int64_t name_id(const std::string& name) {
    const auto [it, inserted] = name_ids_.emplace(name, static_cast<std::int64_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  Json terms_to_json(const smt::proof::NamedTerms& terms) {
    Json::Array out;
    out.reserve(terms.size() * 2);
    for (const auto& [name, coeff] : terms) {
      out.push_back(name_id(name));
      out.push_back(coeff.to_string());
    }
    return Json(std::move(out));
  }

  std::int64_t premise_id(const Premise& premise) {
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

  Json names_json() && {
    Json::Array out;
    out.reserve(names_.size());
    for (std::string& name : names_) out.push_back(std::move(name));
    return Json(std::move(out));
  }
  Json premises_json() && { return Json(std::move(premises_)); }
  bool empty() const { return names_.empty() && premises_.empty(); }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::int64_t> name_ids_;
  Json::Array premises_;
  std::map<std::string, std::int64_t> premise_ids_;
};

class ReadPool {
 public:
  ReadPool(const Json* names, const Json* premises) {
    if (names != nullptr) {
      for (const Json& name : names->as_array()) names_.push_back(name.as_string());
    }
    if (premises != nullptr) {
      for (const Json& premise : premises->as_array()) {
        premises_.push_back(premise_from_json(premise));
      }
    }
  }

  const std::string& name(std::int64_t id) const {
    if (id < 0 || id >= static_cast<std::int64_t>(names_.size())) {
      throw InvalidArgument("certificate: name index out of range");
    }
    return names_[static_cast<std::size_t>(id)];
  }

  const Premise& premise(std::int64_t id) const {
    if (id < 0 || id >= static_cast<std::int64_t>(premises_.size())) {
      throw InvalidArgument("certificate: premise index out of range");
    }
    return premises_[static_cast<std::size_t>(id)];
  }

  smt::proof::NamedTerms terms_from_json(const Json& json) const {
    const Json::Array& items = json.as_array();
    if (items.size() % 2 != 0) {
      throw InvalidArgument("certificate: terms must be [nameIdx, coeff] pairs");
    }
    smt::proof::NamedTerms terms;
    terms.reserve(items.size() / 2);
    for (std::size_t i = 0; i < items.size(); i += 2) {
      terms.emplace_back(name(items[i].as_int()),
                         BigInt::from_string(items[i + 1].as_string()));
    }
    return terms;
  }

 private:
  Premise premise_from_json(const Json& json) const {
    const Json::Array& items = json.as_array();
    if (items.empty()) throw InvalidArgument("certificate: empty premise");
    Premise premise;
    const std::string& origin = items[0].as_string();
    std::size_t next = 1;
    if (origin == "c") {
      premise.origin = PremiseOrigin::kConstraint;
    } else if (origin == "a") {
      premise.origin = PremiseOrigin::kAtom;
      if (items.size() < 3) throw InvalidArgument("certificate: truncated atom premise");
      premise.atom = static_cast<int>(items[1].as_int());
      premise.positive = items[2].as_int() != 0;
      next = 3;
    } else if (origin == "b") {
      premise.origin = PremiseOrigin::kBranch;
    } else {
      throw InvalidArgument("certificate: invalid premise origin '" + origin + "'");
    }
    if (items.size() != next + 3) throw InvalidArgument("certificate: malformed premise");
    premise.terms = terms_from_json(items[next]);
    premise.rel = relation_from_string(items[next + 1].as_string());
    premise.bound = BigInt::from_string(items[next + 2].as_string());
    return premise;
  }

  std::vector<std::string> names_;
  std::vector<Premise> premises_;
};

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

std::unique_ptr<Node> node_from_json(const Json& json, const ReadPool& pool, int depth) {
  if (depth > kMaxProofDepth) throw InvalidArgument("certificate: proof tree too deep");
  const Json::Array& items = json.as_array();
  if (items.empty()) throw InvalidArgument("certificate: empty proof node");
  auto node = std::make_unique<Node>();
  const std::string& kind = items[0].as_string();
  if (kind == "F") {
    node->kind = NodeKind::kFarkas;
    if (items.size() % 2 != 1) {
      throw InvalidArgument("certificate: Farkas node must list [premiseIdx, mult] pairs");
    }
    node->farkas.reserve((items.size() - 1) / 2);
    for (std::size_t i = 1; i < items.size(); i += 2) {
      node->farkas.push_back(
          {pool.premise(items[i].as_int()), rational_from_json(items[i + 1])});
    }
    return node;
  }
  if (kind == "C") {
    if (items.size() != 2) throw InvalidArgument("certificate: malformed conflict node");
    node->kind = NodeKind::kClauseConflict;
    node->clause = static_cast<int>(items[1].as_int());
    return node;
  }
  if (kind == "P") {
    if (items.size() != 5) throw InvalidArgument("certificate: malformed propagation node");
    node->kind = NodeKind::kPropagation;
    node->clause = static_cast<int>(items[1].as_int());
    node->atom = static_cast<int>(items[2].as_int());
    node->positive = items[3].as_int() != 0;
    node->first = node_from_json(items[4], pool, depth + 1);
    return node;
  }
  if (kind == "D") {
    if (items.size() != 4) throw InvalidArgument("certificate: malformed decision node");
    node->kind = NodeKind::kDecision;
    node->atom = static_cast<int>(items[1].as_int());
    node->first = node_from_json(items[2], pool, depth + 1);
    node->second = node_from_json(items[3], pool, depth + 1);
    return node;
  }
  if (kind == "B") {
    if (items.size() != 5) throw InvalidArgument("certificate: malformed branch node");
    node->kind = NodeKind::kBranch;
    node->branch_terms = pool.terms_from_json(items[1]);
    node->branch_bound = BigInt::from_string(items[2].as_string());
    node->first = node_from_json(items[3], pool, depth + 1);
    node->second = node_from_json(items[4], pool, depth + 1);
    return node;
  }
  throw InvalidArgument("certificate: invalid proof node kind '" + kind + "'");
}

Json schema_to_json(std::int64_t query_index, const checker::Schema& schema) {
  Json out = Json(Json::Object{});
  out.set("query", query_index);
  Json::Array chain;
  chain.reserve(schema.unlock_order.size());
  for (const int guard : schema.unlock_order) chain.push_back(Json(static_cast<std::int64_t>(guard)));
  out.set("chain", Json(std::move(chain)));
  Json::Array cuts;
  cuts.reserve(schema.cut_positions.size());
  for (const int cut : schema.cut_positions) cuts.push_back(Json(static_cast<std::int64_t>(cut)));
  out.set("cuts", Json(std::move(cuts)));
  return out;
}

void schema_from_json(const Json& json, std::int64_t& query_index, checker::Schema& schema) {
  query_index = json.at("query").as_int();
  if (query_index < 0) throw InvalidArgument("certificate: negative query index");
  for (const Json& guard : json.at("chain").as_array()) {
    schema.unlock_order.push_back(static_cast<int>(guard.as_int()));
  }
  for (const Json& cut : json.at("cuts").as_array()) {
    schema.cut_positions.push_back(static_cast<int>(cut.as_int()));
  }
}

Json property_to_json(const PropertyCert& property) {
  Json out = Json(Json::Object{});
  out.set("name", property.name);
  Json source = Json(Json::Object{});
  source.set("kind", property.source.kind);
  if (!property.source.formula.empty()) source.set("formula", property.source.formula);
  out.set("source", std::move(source));
  out.set("verdict", property.verdict);
  if (!property.note.empty()) out.set("note", property.note);
  Json enumeration = Json(Json::Object{});
  enumeration.set("prune_implications", property.enumeration.prune_implications);
  enumeration.set("prune_dead_unlocks", property.enumeration.prune_dead_unlocks);
  enumeration.set("max_schemas", property.enumeration.max_schemas);
  out.set("enumeration", std::move(enumeration));
  out.set("property_directed_pruning", property.property_directed_pruning);
  out.set("complete", property.complete);
  WritePool pool;
  Json::Array schemas;
  schemas.reserve(property.schemas.size());
  for (const SchemaCert& entry : property.schemas) {
    Json item = schema_to_json(entry.query_index, entry.schema);
    item.set("sat", entry.sat);
    if (entry.sat) {
      Json model = Json(Json::Object{});
      for (const auto& [name, value] : entry.model) model.set(name, value.to_string());
      item.set("model", std::move(model));
    } else {
      if (entry.proof == nullptr) {
        throw InvalidArgument("certificate: unsat schema evidence without a proof");
      }
      item.set("proof", node_to_json(*entry.proof, pool));
    }
    schemas.push_back(std::move(item));
  }
  if (!pool.empty()) {
    out.set("names", std::move(pool).names_json());
    out.set("premises", std::move(pool).premises_json());
  }
  out.set("schemas", Json(std::move(schemas)));
  Json::Array pruned;
  pruned.reserve(property.pruned.size());
  for (const PrunedCert& entry : property.pruned) {
    pruned.push_back(schema_to_json(entry.query_index, entry.schema));
  }
  out.set("pruned", Json(std::move(pruned)));
  return out;
}

PropertyCert property_from_json(const Json& json) {
  PropertyCert property;
  property.name = json.at("name").as_string();
  const Json& source = json.at("source");
  property.source.kind = source.at("kind").as_string();
  if (const Json* formula = source.find("formula")) property.source.formula = formula->as_string();
  property.verdict = json.at("verdict").as_string();
  if (const Json* note = json.find("note")) property.note = note->as_string();
  const Json& enumeration = json.at("enumeration");
  property.enumeration.prune_implications = enumeration.at("prune_implications").as_bool();
  property.enumeration.prune_dead_unlocks = enumeration.at("prune_dead_unlocks").as_bool();
  property.enumeration.max_schemas = enumeration.at("max_schemas").as_int();
  property.property_directed_pruning = json.at("property_directed_pruning").as_bool();
  property.complete = json.at("complete").as_bool();
  const ReadPool pool(json.find("names"), json.find("premises"));
  for (const Json& item : json.at("schemas").as_array()) {
    SchemaCert entry;
    schema_from_json(item, entry.query_index, entry.schema);
    entry.sat = item.at("sat").as_bool();
    if (entry.sat) {
      for (const auto& [name, value] : item.at("model").as_object()) {
        entry.model.emplace_back(name, BigInt::from_string(value.as_string()));
      }
    } else {
      entry.proof = node_from_json(item.at("proof"), pool, 0);
    }
    property.schemas.push_back(std::move(entry));
  }
  for (const Json& item : json.at("pruned").as_array()) {
    PrunedCert entry;
    schema_from_json(item, entry.query_index, entry.schema);
    property.pruned.push_back(std::move(entry));
  }
  return property;
}

}  // namespace

Json proof_to_json(const smt::proof::Node& node) {
  WritePool pool;
  Json tree = node_to_json(node, pool);
  Json out = Json(Json::Object{});
  out.set("names", std::move(pool).names_json());
  out.set("premises", std::move(pool).premises_json());
  out.set("tree", std::move(tree));
  return out;
}

std::unique_ptr<smt::proof::Node> proof_from_json(const Json& json) {
  const ReadPool pool(json.find("names"), json.find("premises"));
  return node_from_json(json.at("tree"), pool, 0);
}

Json to_json(const Certificate& certificate) {
  Json out = Json(Json::Object{});
  out.set("format", "hv-cert");
  out.set("version", static_cast<std::int64_t>(certificate.version));
  Json::Array components;
  components.reserve(certificate.components.size());
  for (const ComponentCert& component : certificate.components) {
    Json item = Json(Json::Object{});
    Json model = Json(Json::Object{});
    model.set("kind", component.model.kind);
    if (component.model.kind == "text") {
      model.set("text", component.model.text);
    } else {
      model.set("key", component.model.key);
    }
    item.set("model", std::move(model));
    Json::Array properties;
    properties.reserve(component.properties.size());
    for (const PropertyCert& property : component.properties) {
      properties.push_back(property_to_json(property));
    }
    item.set("properties", Json(std::move(properties)));
    components.push_back(std::move(item));
  }
  out.set("components", Json(std::move(components)));
  if (certificate.theorem6) {
    Json theorem = Json(Json::Object{});
    theorem.set("agreement", certificate.theorem6->agreement);
    theorem.set("validity", certificate.theorem6->validity);
    theorem.set("termination", certificate.theorem6->termination);
    out.set("theorem6", std::move(theorem));
  }
  return out;
}

Certificate certificate_from_json(const Json& json) {
  if (json.at("format").as_string() != "hv-cert") {
    throw InvalidArgument("certificate: not an hv-cert file");
  }
  Certificate certificate;
  certificate.version = static_cast<int>(json.at("version").as_int());
  if (certificate.version != 1) {
    throw InvalidArgument("certificate: unsupported version " +
                          std::to_string(certificate.version));
  }
  for (const Json& item : json.at("components").as_array()) {
    ComponentCert component;
    const Json& model = item.at("model");
    component.model.kind = model.at("kind").as_string();
    if (component.model.kind == "text") {
      component.model.text = model.at("text").as_string();
    } else if (component.model.kind == "builtin") {
      component.model.key = model.at("key").as_string();
    } else {
      throw InvalidArgument("certificate: invalid model kind '" + component.model.kind + "'");
    }
    for (const Json& property : item.at("properties").as_array()) {
      component.properties.push_back(property_from_json(property));
    }
    certificate.components.push_back(std::move(component));
  }
  if (const Json* theorem = json.find("theorem6")) {
    Theorem6Claim claim;
    claim.agreement = theorem->at("agreement").as_string();
    claim.validity = theorem->at("validity").as_string();
    claim.termination = theorem->at("termination").as_string();
    certificate.theorem6 = std::move(claim);
  }
  return certificate;
}

std::string to_json_text(const Certificate& certificate) {
  // Compact on purpose: certificates carry hundreds of thousands of proof
  // tokens, and pretty-printing multiplies the file several-fold.
  return to_json(certificate).to_string();
}

Certificate parse_certificate(std::string_view json_text) {
  return certificate_from_json(Json::parse(json_text));
}

}  // namespace hv::cert
