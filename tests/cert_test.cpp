// Certificate subsystem tests: JSON layer, proof serialization round-trips,
// end-to-end certify+audit on both verdicts, and — the point of the
// exercise — tamper rejection: a forged or transplanted certificate must
// never audit green.
#include "hv/cert/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "hv/cert/certificate.h"
#include "hv/cert/emit.h"
#include "hv/cert/trace.h"
#include "hv/checker/cone.h"
#include "hv/checker/encoder.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/parameterized.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/registry.h"
#include "hv/smt/proof_json.h"
#include "hv/spec/compile.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/hash.h"
#include "hv/util/json.h"

namespace hv::cert {
namespace {

constexpr const char* kEchoModel = R"(
ta Echo {
  parameters n, t, f;
  shared x;
  resilience n > 3*t;
  resilience t >= f;
  resilience f >= 0;
  processes n - f;
  initial A;
  locations B, W, D;
  rule announce: A -> B do x += 1;
  rule wait: A -> W;
  rule proceed: W -> D when x >= t + 1 - f;
  selfloop B;
  selfloop D;
}
)";

/// Certifies one LTL property of a .ta text and packages the certificate
/// exactly as `hvc check --certify` does.
Certificate certify_text_model(const std::string& ta_text, const std::string& name,
                               const std::string& formula) {
  const ta::ThresholdAutomaton ta = ta::parse_ta(ta_text).one_round_reduction();
  const spec::Property property = spec::compile(ta, name, formula);
  checker::CheckOptions options;
  options.certify = true;
  const checker::PropertyResult result = checker::check_property(ta, property, options);
  Certificate certificate;
  certificate.components.push_back(
      make_component_cert(text_model_source(ta_text), {property}, {result}, "ltl"));
  return certificate;
}

/// Certifies the built-in bv-broadcast once (its properties carry real
/// Farkas refutations, unlike the tiny Echo model whose holds query is fully
/// discharged by cone pruning) and caches the serialized form; tamper tests
/// parse fresh mutable copies from it.
const std::string& bv_certificate_text() {
  static const std::string text = [] {
    const ta::ThresholdAutomaton bv = models::bv_broadcast();
    const std::vector<spec::Property> properties = models::bundled_properties(bv);
    checker::CheckOptions options;
    options.certify = true;
    const std::vector<checker::PropertyResult> results =
        checker::check_properties(bv, properties, options);
    Certificate certificate;
    certificate.components.push_back(
        make_component_cert(builtin_model_source("bv_broadcast"), properties, results, "bundled"));
    return to_json_text(certificate);
  }();
  return text;
}

/// Walks a certificate's first unsat proof and applies `mutate` to it.
void mutate_first_proof(Certificate& certificate,
                        const std::function<void(smt::proof::Node&)>& mutate) {
  for (ComponentCert& component : certificate.components) {
    for (PropertyCert& property : component.properties) {
      for (SchemaCert& schema : property.schemas) {
        if (!schema.sat) {
          auto copy = smt::proof::clone(*schema.proof);
          mutate(*copy);
          schema.proof = std::move(copy);
          return;
        }
      }
    }
  }
  FAIL() << "certificate has no unsat proof to mutate";
}

smt::proof::Node* first_farkas(smt::proof::Node& node) {
  if (node.kind == smt::proof::NodeKind::kFarkas) return &node;
  if (node.first != nullptr) {
    if (smt::proof::Node* found = first_farkas(*node.first)) return found;
  }
  if (node.second != nullptr) {
    if (smt::proof::Node* found = first_farkas(*node.second)) return found;
  }
  return nullptr;
}

/// The first Farkas premise in the tree that cites an asserted constraint
/// with at least two terms.
smt::proof::Premise* first_multi_term_constraint_premise(smt::proof::Node& node) {
  if (node.kind == smt::proof::NodeKind::kFarkas) {
    for (smt::proof::FarkasTerm& term : node.farkas) {
      if (term.premise.origin == smt::proof::PremiseOrigin::kConstraint &&
          term.premise.terms.size() >= 2) {
        return &term.premise;
      }
    }
  }
  for (smt::proof::Node* child : {node.first.get(), node.second.get()}) {
    if (child == nullptr) continue;
    if (smt::proof::Premise* found = first_multi_term_constraint_premise(*child)) return found;
  }
  return nullptr;
}

// --- JSON layer -------------------------------------------------------------

TEST(JsonTest, RoundTripsValues) {
  const char* text = R"({"a": [1, -2, "x\n\"y\""], "b": {"c": true, "d": null}, "e": 1.5})";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.at("a").as_array()[0].as_int(), 1);
  EXPECT_EQ(parsed.at("a").as_array()[1].as_int(), -2);
  EXPECT_EQ(parsed.at("a").as_array()[2].as_string(), "x\n\"y\"");
  EXPECT_TRUE(parsed.at("b").at("c").as_bool());
  EXPECT_DOUBLE_EQ(parsed.at("e").as_double(), 1.5);
  // Serialize + reparse is the identity on the tree.
  const Json again = Json::parse(parsed.to_string());
  EXPECT_EQ(again.to_string(), parsed.to_string());
  EXPECT_EQ(Json::parse(parsed.to_pretty_string()).to_string(), parsed.to_string());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), InvalidArgument);
  EXPECT_THROW(Json::parse("{} trailing"), InvalidArgument);
  EXPECT_THROW(Json::parse("{\"a\": 01}"), InvalidArgument);
  EXPECT_THROW(Json::parse("\"unterminated"), InvalidArgument);
  EXPECT_THROW(Json::parse("[1,]"), InvalidArgument);
  // Hostile nesting fails cleanly instead of overflowing the stack.
  const std::string deep(100000, '[');
  EXPECT_THROW(Json::parse(deep), InvalidArgument);
}

TEST(JsonTest, TypedAccessorsThrowOnMismatch) {
  const Json parsed = Json::parse(R"({"a": 1})");
  EXPECT_THROW(parsed.at("a").as_string(), InvalidArgument);
  EXPECT_THROW(parsed.at("missing"), InvalidArgument);
  EXPECT_EQ(parsed.find("missing"), nullptr);
}

// --- proof serialization ----------------------------------------------------

TEST(ProofJsonTest, RoundTripsTree) {
  using namespace smt::proof;
  Node root;
  root.kind = NodeKind::kBranch;
  root.branch_terms = {{"x", BigInt(2)}, {"y", BigInt(-3)}};
  root.branch_bound = BigInt(7);
  auto low = std::make_unique<Node>();
  low->kind = NodeKind::kFarkas;
  Premise premise;
  premise.origin = PremiseOrigin::kAtom;
  premise.atom = 3;
  premise.positive = false;
  premise.terms = {{"x", BigInt(1)}};
  premise.rel = smt::Relation::kGe;
  premise.bound = BigInt(-4);
  low->farkas.push_back({premise, Rational(BigInt(2), BigInt(3))});
  Premise branch_premise;
  branch_premise.origin = PremiseOrigin::kBranch;
  branch_premise.terms = root.branch_terms;
  branch_premise.rel = smt::Relation::kLe;
  branch_premise.bound = BigInt(7);
  low->farkas.push_back({branch_premise, Rational(BigInt(1))});
  root.first = std::move(low);
  auto high = std::make_unique<Node>();
  high->kind = NodeKind::kPropagation;
  high->clause = 0;
  high->atom = 1;
  high->positive = true;
  auto conflict = std::make_unique<Node>();
  conflict->kind = NodeKind::kClauseConflict;
  conflict->clause = 2;
  high->first = std::move(conflict);
  root.second = std::move(high);

  const Json json = smt::proof::to_json(root);
  const auto back = smt::proof::from_json(json);
  // Same premise pool, same tree: the serialized forms must coincide.
  EXPECT_EQ(smt::proof::to_json(*back).to_string(), json.to_string());
  ASSERT_EQ(back->kind, NodeKind::kBranch);
  ASSERT_EQ(back->first->farkas.size(), 2u);
  EXPECT_EQ(back->first->farkas[0].premise, premise);
  EXPECT_EQ(back->first->farkas[1].premise, branch_premise);
  EXPECT_EQ(back->second->first->clause, 2);
}

TEST(ProofJsonTest, RejectsCorruptPools) {
  const Json good = [] {
    smt::proof::Node node;
    node.kind = smt::proof::NodeKind::kClauseConflict;
    node.clause = 0;
    return smt::proof::to_json(node);
  }();
  // A premise index outside the pool must be rejected, not crash.
  Json bad = Json::parse(R"({"names": [], "premises": [], "tree": ["F", 5, "1"]})");
  EXPECT_THROW(smt::proof::from_json(bad), InvalidArgument);
  EXPECT_THROW(smt::proof::from_json(Json::parse(R"({"tree": ["Z"]})")), InvalidArgument);
  EXPECT_NO_THROW(smt::proof::from_json(good));
}

// --- end-to-end certify + audit --------------------------------------------

TEST(CertAuditTest, HoldsVerdictAuditsGreen) {
  const Certificate certificate =
      certify_text_model(kEchoModel, "safe", "[](locB == 0) -> [](locD == 0)");
  // Round-trip through the wire format first: the auditor sees exactly what
  // a file-based consumer would.
  const Certificate parsed = parse_certificate(to_json_text(certificate));
  const AuditReport report = audit_certificate(parsed);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.properties_audited, 1);
  // Echo's holds query is discharged entirely by the query cone; the audit
  // must replay those pruning decisions rather than trusting them.
  EXPECT_GT(report.schemas_pruned, 0);
}

TEST(CertAuditTest, ViolatedVerdictAuditsGreen) {
  const Certificate certificate =
      certify_text_model(kEchoModel, "d_empty", "locA != 0 -> [](locD == 0)");
  const Certificate parsed = parse_certificate(to_json_text(certificate));
  const AuditReport report = audit_certificate(parsed);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_GE(report.models_checked, 1);
}

TEST(CertAuditTest, BuiltinModelWithBundledPropertiesAuditsGreen) {
  const Certificate parsed = parse_certificate(bv_certificate_text());
  const AuditReport report = audit_certificate(parsed);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.properties_audited,
            static_cast<std::int64_t>(parsed.components[0].properties.size()));
  EXPECT_GT(report.schemas_covered, 0);
  EXPECT_GT(report.farkas_nodes, 0);
}

TEST(CertTest, CertificateBytesArePinned) {
  // A certificate's bytes follow the simplex's pivots and Farkas
  // combinations exactly, so these FNV-1a digests of two one-thread
  // certifying runs make any change to the encoding, the search or the
  // serializer that moves a single byte a deliberate one. The bytes do not
  // depend on the rational representation (HV_NO_FAST_RATIONAL).
  const ta::ThresholdAutomaton simplified = models::builtin_model("simplified_consensus");
  const ta::ThresholdAutomaton bv = models::builtin_model("bv_broadcast");
  const auto bundled = [](const ta::ThresholdAutomaton& ta, const std::string& name) {
    for (const spec::Property& property : models::bundled_properties(ta)) {
      if (property.name == name) return property;
    }
    throw InvalidArgument("no bundled property " + name);
  };
  struct Pin {
    const char* model;
    const ta::ThresholdAutomaton& ta;
    spec::Property property;
    const char* source_kind;
    const char* digest;
  };
  const Pin pins[] = {
      {"simplified_consensus", simplified,
       spec::compile(simplified, "D0_excludes_E1x", "<>(locD0 != 0) -> [](locE1x == 0)"), "ltl",
       "3dd1fa60a0fad770"},
      {"bv_broadcast", bv, bundled(bv, "BV-Unif1"), "bundled", "f4f6336f2a2f8d1b"},
  };
  checker::CheckOptions options;
  options.certify = true;
  for (const Pin& pin : pins) {
    const checker::PropertyResult result = checker::check_property(pin.ta, pin.property, options);
    EXPECT_GT(result.schemas_checked, 0) << pin.model;
    Certificate certificate;
    certificate.components.push_back(make_component_cert(
        builtin_model_source(pin.model), {pin.property}, {result}, pin.source_kind));
    EXPECT_EQ(hex16(fnv1a(to_json_text(certificate))), pin.digest) << pin.model;
  }
}

// --- tamper rejection -------------------------------------------------------

TEST(CertTamperTest, FlippedMultiplierSignRejected) {
  Certificate certificate = parse_certificate(bv_certificate_text());
  mutate_first_proof(certificate, [](smt::proof::Node& root) {
    smt::proof::Node* farkas = first_farkas(root);
    ASSERT_NE(farkas, nullptr);
    ASSERT_FALSE(farkas->farkas.empty());
    farkas->farkas[0].multiplier = -farkas->farkas[0].multiplier;
  });
  const AuditReport report = audit_certificate(parse_certificate(to_json_text(certificate)));
  EXPECT_FALSE(report.ok);
}

TEST(CertTamperTest, ForgedPremiseBoundRejected) {
  Certificate certificate = parse_certificate(bv_certificate_text());
  mutate_first_proof(certificate, [](smt::proof::Node& root) {
    smt::proof::Node* farkas = first_farkas(root);
    ASSERT_NE(farkas, nullptr);
    ASSERT_FALSE(farkas->farkas.empty());
    // Loosen the bound: the premise no longer matches anything asserted.
    farkas->farkas[0].premise.bound = farkas->farkas[0].premise.bound + BigInt(1000);
  });
  const AuditReport report = audit_certificate(parse_certificate(to_json_text(certificate)));
  EXPECT_FALSE(report.ok);

  // A leaf "0 <= -1" claiming some asserted constraint is constant-false:
  // no constraint of the bv encoding normalizes to falsehood.
  Certificate constant = parse_certificate(bv_certificate_text());
  mutate_first_proof(constant, [](smt::proof::Node& root) {
    smt::proof::Node* farkas = first_farkas(root);
    ASSERT_NE(farkas, nullptr);
    smt::proof::Premise premise;
    premise.origin = smt::proof::PremiseOrigin::kConstraint;
    premise.rel = smt::Relation::kLe;
    premise.bound = BigInt(-1);
    farkas->farkas = {{premise, Rational(1)}};
  });
  const AuditReport constant_report =
      audit_certificate(parse_certificate(to_json_text(constant)));
  EXPECT_FALSE(constant_report.ok);
  EXPECT_NE(constant_report.to_string().find("constant-false, but none is"), std::string::npos)
      << constant_report.to_string();
}

TEST(CertTamperTest, DroppedSchemaRejected) {
  Certificate certificate = parse_certificate(bv_certificate_text());
  bool dropped = false;
  for (PropertyCert& property : certificate.components[0].properties) {
    if (property.verdict == "holds" && property.schemas.size() > 1) {
      property.schemas.pop_back();
      dropped = true;
      break;
    }
  }
  ASSERT_TRUE(dropped) << "no holds property with enough schemas to drop one";
  const AuditReport report = audit_certificate(parse_certificate(to_json_text(certificate)));
  EXPECT_FALSE(report.ok);
}

TEST(CertTamperTest, EditedModelValueRejected) {
  Certificate certificate =
      certify_text_model(kEchoModel, "d_empty", "locA != 0 -> [](locD == 0)");
  bool edited = false;
  for (SchemaCert& schema : certificate.components[0].properties[0].schemas) {
    if (schema.sat) {
      ASSERT_NE(schema.model, nullptr);
      ASSERT_FALSE(schema.model->empty());
      auto model = *schema.model;
      model[0].second = model[0].second + BigInt(17);
      schema.model = std::make_shared<const decltype(model)>(std::move(model));
      edited = true;
      break;
    }
  }
  ASSERT_TRUE(edited);
  const AuditReport report = audit_certificate(parse_certificate(to_json_text(certificate)));
  EXPECT_FALSE(report.ok);
}

TEST(CertTamperTest, UpgradedVerdictRejected) {
  // Claiming "holds" over a counterexample run must fail coverage.
  Certificate certificate =
      certify_text_model(kEchoModel, "d_empty", "locA != 0 -> [](locD == 0)");
  certificate.components[0].properties[0].verdict = "holds";
  certificate.components[0].properties[0].complete = true;
  const AuditReport report = audit_certificate(parse_certificate(to_json_text(certificate)));
  EXPECT_FALSE(report.ok);
}

TEST(CertTamperTest, PremiseNameSmugglingRejected) {
  // Fold the names and coefficients of a cited row [(n1,c1),...,(nk,ck)]
  // into one variable "n1:c1|...|nk" with coefficient ck. A text key that
  // joins names and coefficients with ':' and '|' cannot tell the forgery
  // from the row; premise matching must be structural, so the forged
  // premise is not found among the asserted constraints.
  Certificate certificate = parse_certificate(bv_certificate_text());
  bool smuggled = false;
  for (PropertyCert& property : certificate.components[0].properties) {
    for (SchemaCert& schema : property.schemas) {
      if (schema.sat || smuggled) continue;
      auto copy = smt::proof::clone(*schema.proof);
      smt::proof::Premise* premise = first_multi_term_constraint_premise(*copy);
      if (premise == nullptr) continue;
      std::string name;
      for (std::size_t i = 0; i + 1 < premise->terms.size(); ++i) {
        name += premise->terms[i].first + ":" + premise->terms[i].second.to_string() + "|";
      }
      name += premise->terms.back().first;
      const BigInt coeff = premise->terms.back().second;
      premise->terms = {{name, coeff}};
      schema.proof = std::move(copy);
      smuggled = true;
    }
  }
  ASSERT_TRUE(smuggled) << "no proof cites a multi-term constraint";
  const AuditReport report = audit_certificate(parse_certificate(to_json_text(certificate)));
  EXPECT_FALSE(report.ok);
  const bool rejected_as_unasserted =
      std::any_of(report.issues.begin(), report.issues.end(), [](const std::string& issue) {
        return issue.find("premise is not among the asserted constraints") != std::string::npos;
      });
  EXPECT_TRUE(rejected_as_unasserted) << report.to_string();
}

// --- trace view -------------------------------------------------------------

/// What a re-encoding shows the auditor, in name space: the constraints as
/// a sorted multiset, the atoms and the clauses in order (proofs cite them
/// by index).
struct RenderedTrace {
  std::vector<smt::proof::TracedConstraint> constraints;
  std::vector<smt::proof::TracedConstraint> atoms;
  std::vector<std::vector<std::pair<int, bool>>> clauses;
};

RenderedTrace render_trace(const Trace& view) {
  RenderedTrace out;
  for (const smt::LinearConstraint& constraint : view.constraints()) {
    out.constraints.push_back(view.render(constraint));
  }
  std::sort(out.constraints.begin(), out.constraints.end(),
            [](const smt::proof::TracedConstraint& lhs, const smt::proof::TracedConstraint& rhs) {
              return std::tie(lhs.terms, lhs.constant, lhs.rel) <
                     std::tie(rhs.terms, rhs.constant, rhs.rel);
            });
  for (const smt::LinearConstraint& atom : view.atoms()) out.atoms.push_back(view.render(atom));
  for (const std::vector<smt::Literal>& clause : view.clauses()) {
    out.clauses.emplace_back();
    for (const smt::Literal& literal : clause) {
      out.clauses.back().emplace_back(literal.atom, literal.positive);
    }
  }
  return out;
}

TEST(CertTraceViewTest, ReusedEncoderShowsExactlyAFreshEncodingInAuditOrder) {
  // One schema walk into a trace visits every evidence entry of one query
  // in audit order, keeping shared prefixes and popping the rest. At every
  // schema the trace must equal a fresh walk's, and the candidate index
  // must nominate every live constraint and nothing beyond the live stack:
  // a constraint of a popped scope can never answer a later lookup.
  const Certificate parsed = parse_certificate(bv_certificate_text());
  const ComponentCert& component = parsed.components[0];
  const ta::ThresholdAutomaton ta = models::builtin_model(component.model.key);
  const checker::GuardAnalysis analysis(ta);

  // The (property, query) with the most evidence entries.
  const PropertyCert* property_cert = nullptr;
  std::int64_t query_index = 0;
  std::vector<const SchemaCert*> entries;
  for (const PropertyCert& property : component.properties) {
    std::map<std::int64_t, std::vector<const SchemaCert*>> by_query;
    for (const SchemaCert& schema : property.schemas) {
      by_query[schema.query_index].push_back(&schema);
    }
    for (auto& [q, list] : by_query) {
      if (list.size() > entries.size()) {
        property_cert = &property;
        query_index = q;
        entries = std::move(list);
      }
    }
  }
  ASSERT_NE(property_cert, nullptr);
  ASSERT_GE(entries.size(), 2u);
  std::sort(entries.begin(), entries.end(), [](const SchemaCert* lhs, const SchemaCert* rhs) {
    return std::tie(lhs->schema.unlock_order, lhs->schema.cut_positions) <
           std::tie(rhs->schema.unlock_order, rhs->schema.cut_positions);
  });

  const std::vector<spec::Property> bundled = models::bundled_properties(ta);
  const auto property = std::find_if(bundled.begin(), bundled.end(), [&](const auto& p) {
    return p.name == property_cert->name;
  });
  ASSERT_NE(property, bundled.end());
  const spec::ReachQuery& query = property->queries[static_cast<std::size_t>(query_index)];
  std::optional<checker::QueryCone> cone;
  if (property_cert->property_directed_pruning) cone.emplace(analysis, query);
  const checker::QueryCone* cone_ptr = cone ? &*cone : nullptr;

  Trace view;
  checker::SchemaWalk walker(analysis, query, cone_ptr, view);
  for (const SchemaCert* entry : entries) {
    walker.open(entry->schema);
    const RenderedTrace seen = render_trace(view);
    const std::size_t live = view.constraints().size();
    for (std::size_t i = 0; i < live; ++i) {
      const auto terms = view.render(view.constraints()[i]).terms;
      const auto nominated = view.candidates(smt::proof::name_set_filter(terms));
      EXPECT_EQ(std::count(nominated.begin(), nominated.end(), i), 1);
      for (const std::uint32_t index : nominated) EXPECT_LT(index, live);
    }
    walker.close();
    Trace fresh_view;
    checker::SchemaWalk fresh(analysis, query, cone_ptr, fresh_view);
    fresh.open(entry->schema);
    const RenderedTrace expected = render_trace(fresh_view);
    EXPECT_EQ(seen.constraints, expected.constraints);
    EXPECT_EQ(seen.atoms, expected.atoms);
    EXPECT_EQ(seen.clauses, expected.clauses);
  }
  // The walk really kept prefixes, so popped scopes were in play.
  EXPECT_GT(walker.stats().segments_reused, 0);
  EXPECT_GT(walker.stats().segments_popped, 0);
}

// --- sharded audit ----------------------------------------------------------

AuditReport audit_with_jobs(const Certificate& certificate, int jobs) {
  AuditOptions options;
  options.jobs = jobs;
  return audit_certificate(certificate, options);
}

/// Byte-equivalence of every field the report carries (to_string subsumes
/// ordering of the capped issue list).
void expect_identical_reports(const AuditReport& single, const AuditReport& sharded) {
  EXPECT_EQ(single.ok, sharded.ok);
  EXPECT_EQ(single.issues, sharded.issues);
  EXPECT_EQ(single.warnings, sharded.warnings);
  EXPECT_EQ(single.properties_audited, sharded.properties_audited);
  EXPECT_EQ(single.schemas_covered, sharded.schemas_covered);
  EXPECT_EQ(single.schemas_pruned, sharded.schemas_pruned);
  EXPECT_EQ(single.models_checked, sharded.models_checked);
  EXPECT_EQ(single.farkas_nodes, sharded.farkas_nodes);
  EXPECT_EQ(single.to_string(), sharded.to_string());
}

TEST(CertShardedAuditTest, GreenCertificateMatchesSingleProcessAtAnyJobCount) {
  const Certificate parsed = parse_certificate(bv_certificate_text());
  const AuditReport single = audit_certificate(parsed);
  EXPECT_TRUE(single.ok);
  // More shards than evidence entries is fine: surplus shards audit an
  // empty slice and merge to nothing.
  for (const int jobs : {2, 3, 8, 64}) {
    expect_identical_reports(single, audit_with_jobs(parsed, jobs));
  }
}

TEST(CertShardedAuditTest, ExplicitJobsOneIsTheSequentialAudit) {
  const Certificate parsed = parse_certificate(bv_certificate_text());
  expect_identical_reports(audit_certificate(parsed), audit_with_jobs(parsed, 1));
}

TEST(CertShardedAuditTest, ViolatedAndMalformedCertificatesMatchToo) {
  // The sat-witness path and the reconstruction-failure path (issues before
  // any shard runs) must merge identically as well.
  const Certificate violated =
      certify_text_model(kEchoModel, "d_empty", "locA != 0 -> [](locD == 0)");
  expect_identical_reports(audit_certificate(violated), audit_with_jobs(violated, 4));

  Certificate broken = parse_certificate(bv_certificate_text());
  broken.components[0].model.key = "no_such_builtin";
  const Certificate parsed = parse_certificate(to_json_text(broken));
  const AuditReport single = audit_certificate(parsed);
  EXPECT_FALSE(single.ok);
  expect_identical_reports(single, audit_with_jobs(parsed, 4));
}

TEST(CertShardedAuditTest, TamperedLeafIsCaughtWhicheverShardItLandsIn) {
  // Corrupt the FIRST, a MIDDLE and the LAST unsat proof in turn: across
  // jobs = 2..5 the bad leaf falls into different shards of the partition,
  // and every schedule must reject with the exact one-lane report. Jobs 0
  // and -1 clamp to one lane: zero shards would pass the proof unaudited.
  std::vector<std::pair<std::size_t, std::size_t>> unsat_positions;  // (property, schema)
  {
    const Certificate scan = parse_certificate(bv_certificate_text());
    const auto& properties = scan.components[0].properties;
    for (std::size_t p = 0; p < properties.size(); ++p) {
      for (std::size_t s = 0; s < properties[p].schemas.size(); ++s) {
        if (!properties[p].schemas[s].sat) unsat_positions.emplace_back(p, s);
      }
    }
  }
  ASSERT_GE(unsat_positions.size(), 3u);
  const std::size_t targets[] = {0, unsat_positions.size() / 2, unsat_positions.size() - 1};
  for (const std::size_t target : targets) {
    Certificate certificate = parse_certificate(bv_certificate_text());
    const auto [p, s] = unsat_positions[target];
    SchemaCert& schema = certificate.components[0].properties[p].schemas[s];
    auto copy = smt::proof::clone(*schema.proof);
    smt::proof::Node* farkas = first_farkas(*copy);
    ASSERT_NE(farkas, nullptr);
    ASSERT_FALSE(farkas->farkas.empty());
    farkas->farkas[0].multiplier = -farkas->farkas[0].multiplier;
    schema.proof = std::move(copy);

    const Certificate parsed = parse_certificate(to_json_text(certificate));
    const AuditReport single = audit_certificate(parsed);
    EXPECT_FALSE(single.ok);
    for (const int jobs : {-1, 0, 2, 3, 5}) {
      expect_identical_reports(single, audit_with_jobs(parsed, jobs));
    }
  }
}

TEST(CertTamperTest, CertificateTransplantedOntoMutantModelRejected) {
  // Certify the real bv-broadcast, then swap the model for the weakened
  // negative control (resilience n > 2t): the proofs must not transfer.
  Certificate certificate = parse_certificate(bv_certificate_text());

  std::string weakened = R"(
ta BvBroadcast {
  parameters n, t, f;
  shared b0, b1;
  resilience n - 2*t >= 1;
  resilience t - f >= 0;
  resilience f >= 0;
  processes n - f;
  initial V0, V1;
  locations B0, B1, B01, C0, C1, CB0, CB1, C01;
  rule r1: V0 -> B0 do b0 += 1;
  rule r2: V1 -> B1 do b1 += 1;
  rule r3: B0 -> C0 when -2*t + f + b0 >= 1;
  rule r4: B0 -> B01 when -t + f + b1 >= 1 do b1 += 1;
  rule r5: B1 -> B01 when -t + f + b0 >= 1 do b0 += 1;
  rule r6: B1 -> C1 when -2*t + f + b1 >= 1;
  rule r7: C0 -> CB0 when -t + f + b1 >= 1 do b1 += 1;
  rule r8: B01 -> CB0 when -2*t + f + b0 >= 1;
  rule r9: B01 -> CB1 when -2*t + f + b1 >= 1;
  rule r10: C1 -> CB1 when -t + f + b0 >= 1 do b0 += 1;
  rule r11: CB0 -> C01 when -2*t + f + b1 >= 1;
  rule r12: CB1 -> C01 when -2*t + f + b0 >= 1;
  selfloop B0;
  selfloop B1;
  selfloop C0;
  selfloop C1;
  selfloop CB0;
  selfloop CB1;
  selfloop C01;
}
)";
  certificate.components[0].model = text_model_source(weakened);
  const AuditReport report = audit_certificate(parse_certificate(to_json_text(certificate)));
  EXPECT_FALSE(report.ok) << "proofs for the sound automaton must not certify the mutant";
}

TEST(CertTamperTest, Theorem6ClaimMustMatchAuditedVerdicts) {
  // With no audited components, every composed verdict is unknown; a
  // certificate claiming "holds" overstates what it proves.
  Certificate certificate;
  Theorem6Claim claim;
  claim.agreement = "holds";
  claim.validity = "holds";
  claim.termination = "holds";
  certificate.theorem6 = claim;
  const AuditReport overclaim = audit_certificate(certificate);
  EXPECT_FALSE(overclaim.ok);

  certificate.theorem6->agreement = "unknown";
  certificate.theorem6->validity = "unknown";
  certificate.theorem6->termination = "unknown";
  const AuditReport honest = audit_certificate(certificate);
  EXPECT_TRUE(honest.ok) << honest.to_string();
}

TEST(CertTamperTest, MalformedCertificateFailsCleanly) {
  EXPECT_THROW(parse_certificate("not json"), InvalidArgument);
  EXPECT_THROW(parse_certificate("{\"format\": \"other\"}"), InvalidArgument);
  EXPECT_THROW(parse_certificate(R"({"format": "hv-cert", "version": 99, "components": []})"),
               InvalidArgument);
  // Unknown model kinds and broken automata are audit issues, not throws.
  Certificate certificate;
  ComponentCert component;
  component.model.kind = "text";
  component.model.text = "ta Broken {";
  certificate.components.push_back(component);
  const AuditReport report = audit_certificate(certificate);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.issues.empty());
  EXPECT_NE(report.issues[0].find("model reconstruction failed"), std::string::npos);
}

// --- certifying resume --------------------------------------------------------
//
// A journal line carries an unsat schema's proof, so a certifying run can be
// continued from its journal and the resumed proofs land in the certificate,
// which the auditor checks like any other.

Certificate bv_certificate(const std::vector<spec::Property>& properties,
                           const std::vector<checker::PropertyResult>& results) {
  Certificate certificate;
  certificate.components.push_back(
      make_component_cert(builtin_model_source("bv_broadcast"), properties, results, "bundled"));
  return certificate;
}

std::string fresh_temp(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(CertResumeTest, InterruptedCertifyingRunResumesToAnAuditedCertificate) {
  const ta::ThresholdAutomaton bv = models::bv_broadcast();
  const std::vector<spec::Property> properties = models::bundled_properties(bv);
  checker::CheckOptions options;
  options.certify = true;
  options.property_directed_pruning = false;  // so most records carry proofs
  const std::vector<checker::PropertyResult> reference =
      checker::check_properties(bv, properties, options);

  // The interrupted run: a schema budget stops every property part way.
  checker::CheckOptions partial = options;
  partial.journal_path = fresh_temp("cert_resume.jsonl");
  partial.enumeration.max_schemas = 7;
  for (const checker::PropertyResult& result :
       checker::check_properties(bv, properties, partial)) {
    ASSERT_EQ(result.verdict, checker::Verdict::kUnknown) << result.property;
  }

  checker::CheckOptions resumed = options;
  resumed.journal_path = partial.journal_path;
  resumed.resume_path = partial.journal_path;
  const std::vector<checker::PropertyResult> results =
      checker::check_properties(bv, properties, resumed);
  ASSERT_EQ(results.size(), reference.size());
  std::int64_t replayed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(results[i].property);
    EXPECT_EQ(results[i].verdict, reference[i].verdict);
    EXPECT_EQ(results[i].schemas_checked, reference[i].schemas_checked);
    EXPECT_EQ(results[i].schemas_pruned, reference[i].schemas_pruned);
    EXPECT_EQ(results[i].evidence->schemas.size(), reference[i].evidence->schemas.size());
    replayed += results[i].schemas_resumed;
  }
  EXPECT_GT(replayed, 0);
  const AuditReport report =
      audit_certificate(parse_certificate(to_json_text(bv_certificate(properties, results))));
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(CertResumeTest, ResumeFromACompleteJournalWritesTheSameBytes) {
  // The resume replays records in journal order, so a certifying run
  // resumed from its own complete journal lists its evidence as the
  // uninterrupted run did, and its certificate is byte-identical.
  const ta::ThresholdAutomaton bv = models::bv_broadcast();
  const std::vector<spec::Property> properties = models::bundled_properties(bv);
  checker::CheckOptions options;
  options.certify = true;
  options.property_directed_pruning = false;  // so most records carry proofs
  options.journal_path = fresh_temp("cert_resume_complete.jsonl");
  const std::vector<checker::PropertyResult> reference =
      checker::check_properties(bv, properties, options);

  checker::CheckOptions resumed = options;
  resumed.journal_path.clear();
  resumed.resume_path = options.journal_path;
  const std::vector<checker::PropertyResult> results =
      checker::check_properties(bv, properties, resumed);
  std::int64_t replayed = 0;
  for (const checker::PropertyResult& result : results) replayed += result.schemas_resumed;
  EXPECT_GT(replayed, 0);
  EXPECT_EQ(to_json_text(bv_certificate(properties, results)),
            to_json_text(bv_certificate(properties, reference)));
}

TEST(CertResumeTest, RecordsWithoutTheirProofAreReSolved) {
  // A plain run journals no proofs: a certifying resume replays only its
  // pruned records, which the auditor re-derives from the cone, and solves
  // every unsat schema again.
  const ta::ThresholdAutomaton bv = models::bv_broadcast();
  const std::vector<spec::Property> properties = models::bundled_properties(bv);
  checker::CheckOptions plain;
  plain.journal_path = fresh_temp("cert_resume_plain.jsonl");
  const std::vector<checker::PropertyResult> reference =
      checker::check_properties(bv, properties, plain);

  checker::CheckOptions resumed;
  resumed.certify = true;
  resumed.resume_path = plain.journal_path;
  const std::vector<checker::PropertyResult> results =
      checker::check_properties(bv, properties, resumed);
  std::int64_t pruned = 0;
  std::int64_t replayed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].verdict, reference[i].verdict) << results[i].property;
    EXPECT_EQ(results[i].schemas_checked, reference[i].schemas_checked) << results[i].property;
    pruned += reference[i].schemas_pruned;
    replayed += results[i].schemas_resumed;
  }
  EXPECT_GT(pruned, 0);
  EXPECT_EQ(replayed, pruned);
  const AuditReport report =
      audit_certificate(parse_certificate(to_json_text(bv_certificate(properties, results))));
  EXPECT_TRUE(report.ok) << report.to_string();
}

}  // namespace
}  // namespace hv::cert
