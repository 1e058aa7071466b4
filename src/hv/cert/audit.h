// The independent auditor: re-validates a certificate without solving any
// schema.
//
// Trust boundary. The audited core is pure bigint/rational arithmetic
// (hv/util): every Farkas combination is re-derived premise by premise and
// checked to cancel to a contradictory constant, every case split is
// checked exhaustive, and every sat model is evaluated against the
// re-encoded constraints. The auditor does re-run the deterministic front
// end to know what the premises are — the .ta parser, the LTL compiler,
// schema enumeration and the schema encoder writing into a cert::Trace
// (trace.h), which records assertions but never solves — plus the guard
// analysis backing enumeration. Those components are shared with the
// checker and are trusted analysis. The guard analysis is not solver-free:
// it decides which guards imply which and which can hold at time zero with
// smt::Solver::check(), and enumeration's coverage rests on both answers,
// so the simplex core and the DPLL search stay in the audit path for those
// small guard-level queries (uncertified). No schema's verdict, and no
// branch-and-bound over a schema encoding, is taken from a solver.
//
// A premise citing an asserted constraint is accepted only when some live
// constraint of the re-encoding, normalized by the auditor itself, equals
// it exactly (terms, relation, bound). The trace's name-set filter only
// picks which constraints to compare; it is never a reason to accept, and a
// filter miss fails closed.
//
// What a green audit establishes, per property:
//   * verdict "holds": every schema the enumerator produces for every
//     violation query is either covered by a checked Farkas/DPLL refutation
//     or excluded by the (re-computed) query cone, the enumeration ran to
//     completion within its budget, and every refutation is arithmetically
//     valid — so no execution in schema form violates the property.
//   * verdict "violated": at least one recorded model satisfies its
//     re-encoded violation query exactly.
//   * verdict "unknown": nothing (reported as a warning, not a failure).
// A theorem6 section is re-composed from the audited per-property verdicts
// using the paper's composition table (Proposition 2 + Theorem 6).
#ifndef HV_CERT_AUDIT_H
#define HV_CERT_AUDIT_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hv/cert/certificate.h"

namespace hv::checker {
class GuardAnalysis;
class QueryCone;
}  // namespace hv::checker

namespace hv::cert {

struct AuditReport {
  /// True iff no issue was found (warnings do not fail an audit).
  bool ok = false;
  /// Hard failures: each names the component/property/schema it concerns.
  std::vector<std::string> issues;
  /// Non-failing observations (e.g. unknown verdicts certify nothing).
  std::vector<std::string> warnings;

  std::int64_t properties_audited = 0;
  std::int64_t schemas_covered = 0;   // proof-carrying unsat schemas checked
  std::int64_t schemas_pruned = 0;    // cone decisions reproduced
  std::int64_t models_checked = 0;    // sat models evaluated
  std::int64_t farkas_nodes = 0;      // Farkas leaves arithmetically verified

  std::string to_string() const;
};

struct AuditOptions {
  /// Concurrent audit lanes, clamped to >= 1. The audit runs four phases,
  /// each on `jobs` lanes (hv/util/lanes.h): per-component model
  /// reconstruction, per-property shape validation, `jobs` contiguous shards
  /// of each property's (query-grouped, prefix-sorted) evidence list — each
  /// shard re-encodes into its own cert::Trace — and each property's
  /// coverage re-enumeration. A phase is skipped for whatever an earlier
  /// phase failed or threw on. Reports are merged back in canonical
  /// (component, property, shard) order, so the merged report is
  /// byte-identical at every job count: same issues in the same order
  /// (including the suppression cap), same warnings, same counters, same
  /// ok. The trust boundary does not depend on the schedule — every leaf is
  /// checked by the same pure-arithmetic core. One job spawns no thread.
  int jobs = 1;
};

/// The per-schema check of an audit, for one (property, query): each schema
/// is re-encoded into a cert::Trace (which records assertions but never
/// solves) and its evidence checked against that re-encoding by the
/// pure-arithmetic core. Consecutive schemas that share a chain prefix reuse
/// its encoding. `hvc audit` runs one per evidence shard; a certifying fleet
/// coordinator (hv/dist) runs one per worker connection and (property,
/// query) on every record before it merges. Not thread-safe.
class SchemaCheck {
 public:
  /// `analysis`, `query` and `cone` (null: pruning off) must outlive the
  /// check.
  SchemaCheck(const checker::GuardAnalysis& analysis, const spec::ReachQuery& query,
              const checker::QueryCone* cone);
  ~SchemaCheck();
  SchemaCheck(const SchemaCheck&) = delete;
  SchemaCheck& operator=(const SchemaCheck&) = delete;

  /// Checks the evidence of `schema`: a refutation `proof` (null: none) or,
  /// when `sat`, a `model` (null: none). Issues land in `report` under
  /// `context`, which also counts the refutation or model checked. Returns
  /// true iff the evidence holds. A schema that fails to re-encode is an
  /// issue, and the trace restarts fresh for the next one.
  bool check(const checker::Schema& schema, bool sat, const smt::proof::Node* proof,
             const std::vector<std::pair<std::string, BigInt>>* model, AuditReport& report,
             const std::string& context);

 private:
  const checker::GuardAnalysis& analysis_;
  const spec::ReachQuery& query_;
  const checker::QueryCone* cone_;
  struct Encoding;  // a Trace and the schema walk writing into it
  std::unique_ptr<Encoding> encoding_;
};

/// Audits a certificate end to end. Never throws on malformed content —
/// every defect becomes an issue in the report, and so does an audit phase
/// that throws (it fails closed).
AuditReport audit_certificate(const Certificate& certificate, const AuditOptions& options = {});

}  // namespace hv::cert

#endif  // HV_CERT_AUDIT_H
