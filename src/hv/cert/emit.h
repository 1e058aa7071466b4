// Assembles certificates from certified checker results
// (checker::CheckOptions::certify runs).
#ifndef HV_CERT_EMIT_H
#define HV_CERT_EMIT_H

#include <string>
#include <vector>

#include "hv/cert/certificate.h"
#include "hv/checker/result.h"
#include "hv/spec/query.h"

namespace hv::cert {

/// A model source embedding the complete .ta text.
ModelSource text_model_source(std::string ta_text);
/// A model source naming a bundled model (see models::builtin_model()).
ModelSource builtin_model_source(std::string key);

/// Certificate section for one property. The result must carry evidence
/// (i.e. stem from a certify run); throws InvalidArgument otherwise. The
/// property is only used for its name/formula — it must be the one the
/// result was checked against.
PropertyCert make_property_cert(const spec::Property& property,
                                const checker::PropertyResult& result, PropertySource source);

/// Certificate section for one automaton: pairs properties and results by
/// position (they must correspond, as returned by check_properties). All
/// properties share the given source kind; for "ltl" each property's
/// formula_text is recorded as its formula.
ComponentCert make_component_cert(ModelSource model, const std::vector<spec::Property>& properties,
                                  const std::vector<checker::PropertyResult>& results,
                                  const std::string& source_kind);

}  // namespace hv::cert

#endif  // HV_CERT_EMIT_H
