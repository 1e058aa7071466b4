// Proof-carrying certificates: the on-disk format of `hvc check --certify`
// and `hvc redbelly --certify`, consumed by the auditor, which solves no
// schema (hv/cert/audit.h).
//
// A certificate is self-contained: it embeds (or names) the model, lists
// the properties with their verdicts, and for every (query, schema) pair of
// a certified run carries either a Farkas/DPLL proof tree (unsat) or a full
// named integer model (sat), plus the enumeration manifest needed to
// re-derive that the covered schema set is complete for the chain tree.
// The optional theorem6 section records the composed consensus verdicts of
// the holistic pipeline (Agreement/Validity/Termination); the auditor
// recomputes them from the audited per-property verdicts using the paper's
// composition table.
#ifndef HV_CERT_CERTIFICATE_H
#define HV_CERT_CERTIFICATE_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hv/checker/result.h"
#include "hv/spec/query.h"
#include "hv/ta/automaton.h"
#include "hv/util/json.h"

namespace hv::cert {

/// How the auditor reconstructs the threshold automaton.
struct ModelSource {
  /// "text": `text` holds the complete .ta source (parse + one-round
  /// reduction reproduce the checked automaton). "builtin": `key` names one
  /// of the models bundled with the library (see models::builtin_model()).
  std::string kind;
  std::string text;
  std::string key;
};

/// How the auditor reconstructs one property's violation queries.
struct PropertySource {
  /// "ltl": compile `formula` against the reconstructed automaton.
  /// "bundled": look the property up by name in the automaton's bundled
  /// property set (needed when compilation uses justice overrides that have
  /// no LTL syntax, e.g. the bv-broadcast gadget substitution).
  std::string kind;
  std::string formula;  // informational for "bundled"
};

/// Evidence for one (query, schema) SMT verdict: the checker's own entry,
/// so a certificate shares the run's proof trees and models instead of
/// copying them.
using SchemaCert = checker::SchemaEvidence;

/// A schema the certifying run discarded via the (deterministic) query cone
/// without an SMT call; the auditor reproduces the decision.
using PrunedCert = checker::PrunedSchema;

/// One property's section: the run's evidence (schemas, pruned, the
/// enumeration manifest and the completeness claim) plus what names and
/// judges it.
struct PropertyCert : checker::PropertyEvidence {
  std::string name;
  PropertySource source;
  std::string verdict;  // "holds" | "violated" | "unknown"
  std::string note;
};

/// One automaton with its certified properties.
struct ComponentCert {
  ModelSource model;
  std::vector<PropertyCert> properties;
};

/// The composed Theorem-6 verdicts claimed by the holistic pipeline.
struct Theorem6Claim {
  std::string agreement;
  std::string validity;
  std::string termination;
};

struct Certificate {
  int version = 1;
  std::vector<ComponentCert> components;
  std::optional<Theorem6Claim> theorem6;
};

/// JSON (de)serialization. from_json/parse throw hv::InvalidArgument on any
/// malformed input — a corrupted certificate fails cleanly.
Json to_json(const Certificate& certificate);
Certificate certificate_from_json(const Json& json);
std::string to_json_text(const Certificate& certificate);
Certificate parse_certificate(std::string_view json_text);

}  // namespace hv::cert

#endif  // HV_CERT_CERTIFICATE_H
