#include "hv/cert/emit.h"

#include <utility>

#include "hv/util/error.h"

namespace hv::cert {

ModelSource text_model_source(std::string ta_text) {
  ModelSource source;
  source.kind = "text";
  source.text = std::move(ta_text);
  return source;
}

ModelSource builtin_model_source(std::string key) {
  ModelSource source;
  source.kind = "builtin";
  source.key = std::move(key);
  return source;
}

PropertyCert make_property_cert(const spec::Property& property,
                                const checker::PropertyResult& result, PropertySource source) {
  if (result.property != property.name) {
    throw InvalidArgument("certificate: result/property mismatch: '" + result.property +
                          "' vs '" + property.name + "'");
  }
  if (result.evidence == nullptr) {
    throw InvalidArgument("certificate: result for '" + property.name +
                          "' carries no evidence (run with CheckOptions::certify)");
  }
  for (const checker::SchemaEvidence& evidence : result.evidence->schemas) {
    if (evidence.sat && evidence.model == nullptr) {
      throw InvalidArgument("certificate: sat evidence without a model");
    }
    if (!evidence.sat && evidence.proof == nullptr) {
      throw InvalidArgument("certificate: unsat evidence without a proof");
    }
  }
  PropertyCert cert;
  static_cast<checker::PropertyEvidence&>(cert) = *result.evidence;
  cert.name = property.name;
  cert.source = std::move(source);
  if (cert.source.kind == "ltl") cert.source.formula = property.formula_text;
  cert.verdict = checker::to_string(result.verdict);
  cert.note = result.note;
  return cert;
}

ComponentCert make_component_cert(ModelSource model, const std::vector<spec::Property>& properties,
                                  const std::vector<checker::PropertyResult>& results,
                                  const std::string& source_kind) {
  if (properties.size() != results.size()) {
    throw InvalidArgument("certificate: property/result count mismatch");
  }
  ComponentCert component;
  component.model = std::move(model);
  component.properties.reserve(properties.size());
  for (std::size_t i = 0; i < properties.size(); ++i) {
    PropertySource source;
    source.kind = source_kind;
    source.formula = properties[i].formula_text;
    component.properties.push_back(make_property_cert(properties[i], results[i], std::move(source)));
  }
  return component;
}

}  // namespace hv::cert
