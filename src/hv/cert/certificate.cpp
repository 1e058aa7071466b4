#include "hv/cert/certificate.h"

#include "hv/smt/proof_json.h"
#include "hv/util/error.h"

namespace hv::cert {

namespace {

Json schema_to_json(std::size_t query_index, const checker::Schema& schema) {
  Json out = Json(Json::Object{});
  out.set("query", static_cast<std::int64_t>(query_index));
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

void schema_from_json(const Json& json, std::size_t& query_index, checker::Schema& schema) {
  const std::int64_t query = json.at("query").as_int();
  if (query < 0) throw InvalidArgument("certificate: negative query index");
  query_index = static_cast<std::size_t>(query);
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
  smt::proof::WritePool pool;
  Json::Array schemas;
  schemas.reserve(property.schemas.size());
  for (const SchemaCert& entry : property.schemas) {
    Json item = schema_to_json(entry.query_index, entry.schema);
    item.set("sat", entry.sat);
    if (entry.sat) {
      if (entry.model == nullptr) {
        throw InvalidArgument("certificate: sat schema evidence without a model");
      }
      Json model = Json(Json::Object{});
      for (const auto& [name, value] : *entry.model) model.set(name, value.to_string());
      item.set("model", std::move(model));
    } else {
      if (entry.proof == nullptr) {
        throw InvalidArgument("certificate: unsat schema evidence without a proof");
      }
      item.set("proof", smt::proof::node_to_json(*entry.proof, pool));
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
  const smt::proof::ReadPool pool(json.find("names"), json.find("premises"));
  for (const Json& item : json.at("schemas").as_array()) {
    SchemaCert entry;
    schema_from_json(item, entry.query_index, entry.schema);
    entry.sat = item.at("sat").as_bool();
    if (entry.sat) {
      std::vector<std::pair<std::string, BigInt>> model;
      for (const auto& [name, value] : item.at("model").as_object()) {
        model.emplace_back(name, BigInt::from_string(value.as_string()));
      }
      entry.model = std::make_shared<const std::vector<std::pair<std::string, BigInt>>>(
          std::move(model));
    } else {
      entry.proof = smt::proof::node_from_json(item.at("proof"), pool);
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
