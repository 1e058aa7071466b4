#include "hv/cert/audit.h"

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "hv/cert/trace.h"
#include "hv/checker/cone.h"
#include "hv/checker/encoder.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/schema.h"
#include "hv/models/registry.h"
#include "hv/spec/compile.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/lanes.h"

namespace hv::cert {

namespace {

using checker::GuardAnalysis;
using checker::QueryCone;
using checker::Schema;
using checker::schema_cursor;
using smt::LinearConstraint;
using smt::Literal;
using smt::Relation;
using smt::proof::name_set_filter;
using smt::proof::NamedTerms;
using smt::proof::Node;
using smt::proof::NodeKind;
using smt::proof::Premise;
using smt::proof::PremiseOrigin;
using smt::proof::TracedConstraint;

constexpr std::size_t kMaxIssues = 200;
constexpr int kMaxWalkDepth = 6000;

void add_issue(AuditReport& report, const std::string& context, const std::string& message) {
  if (report.issues.size() > kMaxIssues) return;
  if (report.issues.size() == kMaxIssues) {
    report.issues.push_back("... further issues suppressed");
    return;
  }
  report.issues.push_back(context + ": " + message);
}

/// Merge-time twin of add_issue: the issue string already carries its
/// context (it came out of a shard's own report), but the suppression cap
/// must behave as if the issue had been added to the merged report
/// directly — that is what keeps the merged report byte-identical at every
/// job count even past the cap.
void merge_issue(AuditReport& report, const std::string& issue) {
  if (report.issues.size() > kMaxIssues) return;
  if (report.issues.size() == kMaxIssues) {
    report.issues.push_back("... further issues suppressed");
    return;
  }
  report.issues.push_back(issue);
}

// ---------------------------------------------------------------------------
// Pure arithmetic core: premise normalization, Farkas checking, model
// evaluation. Everything below this banner uses only hv/util arithmetic.
// ---------------------------------------------------------------------------

/// Exact structural equality of two inequalities (origins aside).
bool same_inequality(const Premise& lhs, const Premise& rhs) {
  return lhs.terms == rhs.terms && lhs.rel == rhs.rel && lhs.bound == rhs.bound;
}

/// The auditor's own normalization of a raw (traced) constraint under a
/// polarity — the mirror of the certifying solver's: divide the term vector
/// by its content, tighten the bound over the integers, split equalities
/// into two inequalities, and turn negated bounds into strict complements.
struct Normalized {
  bool constant = false;
  bool value = false;        // when constant
  bool bad_negation = false; // a negated equality: not expressible as a bound
  std::vector<Premise> premises;
};

Normalized normalize(const TracedConstraint& raw, bool positive) {
  Normalized out;
  if (raw.terms.empty()) {
    out.constant = true;
    const int sign = raw.constant.sign();
    switch (raw.rel) {
      case Relation::kLe:
        out.value = sign <= 0;
        break;
      case Relation::kGe:
        out.value = sign >= 0;
        break;
      case Relation::kEq:
        out.value = sign == 0;
        break;
    }
    if (!positive) out.value = !out.value;
    return out;
  }

  BigInt content = 0;
  for (const auto& [name, coeff] : raw.terms) content = BigInt::gcd(content, coeff);
  NamedTerms terms;
  terms.reserve(raw.terms.size());
  for (const auto& [name, coeff] : raw.terms) terms.emplace_back(name, coeff / content);

  const auto premise = [&terms](Relation rel, BigInt bound) {
    Premise p;
    p.terms = terms;
    p.rel = rel;
    p.bound = std::move(bound);
    return p;
  };

  switch (raw.rel) {
    case Relation::kLe: {
      BigInt bound = BigInt::floor_div(-raw.constant, content);
      out.premises.push_back(positive ? premise(Relation::kLe, std::move(bound))
                                      : premise(Relation::kGe, bound + BigInt(1)));
      return out;
    }
    case Relation::kGe: {
      BigInt bound = BigInt::ceil_div(-raw.constant, content);
      out.premises.push_back(positive ? premise(Relation::kGe, std::move(bound))
                                      : premise(Relation::kLe, bound - BigInt(1)));
      return out;
    }
    case Relation::kEq: {
      BigInt quotient;
      BigInt remainder;
      BigInt::div_mod(-raw.constant, content, quotient, remainder);
      if (!remainder.is_zero()) {
        // The equality can never hold over the integers.
        out.constant = true;
        out.value = !positive;
        return out;
      }
      if (!positive) {
        out.bad_negation = true;
        return out;
      }
      out.premises.push_back(premise(Relation::kGe, quotient));
      out.premises.push_back(premise(Relation::kLe, std::move(quotient)));
      return out;
    }
  }
  throw InternalError("unreachable relation");
}

/// Audits one schema's evidence against its re-encoded trace. Owns the tree
/// walk's context: the atom bindings made by propagation/decision nodes and
/// the assumption stack of enclosing integer branches. Only what the proof
/// cites is rendered into name space and normalized.
class SchemaAuditor {
 public:
  SchemaAuditor(const Trace& trace, AuditReport& report, std::string context)
      : trace_(trace),
        report_(report),
        context_(std::move(context)),
        assignment_(trace.atoms().size(), -1),
        atom_cache_(trace.atoms().size()) {}

  bool audit_proof(const Node& root) { return verify(root, 0); }

  bool audit_model(const std::vector<std::pair<std::string, BigInt>>& model) {
    std::map<std::string, BigInt> values;
    for (const auto& [name, value] : model) {
      if (!values.emplace(name, value).second) {
        return fail("model assigns '" + name + "' twice");
      }
    }
    bool ok = true;
    const auto evaluate = [&](const LinearConstraint& raw,
                              bool& truth) -> bool {  // false: missing variable
      const TracedConstraint constraint = trace_.render(raw);
      BigInt total = constraint.constant;
      for (const auto& [name, coeff] : constraint.terms) {
        const auto it = values.find(name);
        if (it == values.end()) {
          fail("model misses variable '" + name + "'");
          return false;
        }
        total += coeff * it->second;
      }
      const int sign = total.sign();
      switch (constraint.rel) {
        case Relation::kLe:
          truth = sign <= 0;
          break;
        case Relation::kGe:
          truth = sign >= 0;
          break;
        case Relation::kEq:
          truth = sign == 0;
          break;
      }
      return true;
    };
    const std::vector<LinearConstraint>& constraints = trace_.constraints();
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      bool truth = false;
      if (!evaluate(constraints[i], truth)) return false;
      if (!truth) {
        ok = fail("model violates constraint #" + std::to_string(i));
      }
    }
    const std::vector<LinearConstraint>& atoms = trace_.atoms();
    const std::vector<std::vector<Literal>>& clauses = trace_.clauses();
    for (std::size_t c = 0; c < clauses.size(); ++c) {
      bool satisfied = false;
      for (const Literal& literal : clauses[c]) {
        if (literal.atom < 0 || literal.atom >= static_cast<int>(atoms.size())) {
          return fail("clause cites an invalid atom index");
        }
        bool truth = false;
        if (!evaluate(atoms[static_cast<std::size_t>(literal.atom)], truth)) return false;
        if (truth == literal.positive) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        ok = fail("model violates clause #" + std::to_string(c));
      }
    }
    return ok;
  }

 private:
  bool fail(const std::string& message) {
    add_issue(report_, context_, message);
    return false;
  }

  const Normalized& normalized_atom(int atom, bool positive) {
    auto& slot = atom_cache_[static_cast<std::size_t>(atom)][positive ? 1 : 0];
    if (!slot) {
      slot = normalize(trace_.render(trace_.atoms()[static_cast<std::size_t>(atom)]), positive);
    }
    return *slot;
  }

  /// Whether some live constraint normalizes to constant falsehood: one
  /// without terms, or an equality whose content does not divide its
  /// constant. Settled on first use; only a proof citing a constant-false
  /// constraint asks.
  bool constraints_false() {
    if (!constraints_false_) {
      constraints_false_ = false;
      for (const LinearConstraint& constraint : trace_.constraints()) {
        if (!constraint.expr.is_constant() && constraint.relation != Relation::kEq) continue;
        const Normalized normalized = normalize(trace_.render(constraint), /*positive=*/true);
        if (normalized.constant && !normalized.value) {
          constraints_false_ = true;
          break;
        }
      }
    }
    return *constraints_false_;
  }

  /// True iff some live constraint, under the auditor's own normalization,
  /// is exactly `premise`. The name-set filter only picks which constraints
  /// to render and normalize — acceptance rests on the exact comparison,
  /// and a filter miss fails closed.
  bool asserted(const Premise& premise) {
    for (const std::uint32_t index : trace_.candidates(name_set_filter(premise.terms))) {
      auto [it, fresh] = constraint_cache_.try_emplace(index);
      if (fresh) {
        it->second = normalize(trace_.render(trace_.constraints()[index]), /*positive=*/true);
      }
      for (const Premise& candidate : it->second.premises) {
        if (same_inequality(candidate, premise)) return true;
      }
    }
    return false;
  }

  bool premise_ok(const Premise& premise) {
    if (premise.rel == Relation::kEq) return fail("a premise may not be an equality");
    if (premise.terms.empty()) {
      // A constant statement: trivially-true ones are always entailed; a
      // contradictory one must trace back to something that normalizes to
      // constant falsehood.
      const bool trivially_true = premise.rel == Relation::kLe ? !premise.bound.is_negative()
                                                               : !premise.bound.is_positive();
      if (trivially_true) return true;
      switch (premise.origin) {
        case PremiseOrigin::kConstraint:
          if (constraints_false()) return true;
          return fail("premise claims a constraint is constant-false, but none is");
        case PremiseOrigin::kAtom: {
          if (premise.atom < 0 || premise.atom >= static_cast<int>(trace_.atoms().size())) {
            return fail("premise cites an invalid atom index");
          }
          if (assignment_[static_cast<std::size_t>(premise.atom)] !=
              (premise.positive ? 1 : 0)) {
            return fail("premise cites atom #" + std::to_string(premise.atom) +
                        " with a polarity the path does not bind");
          }
          const Normalized& normalized = normalized_atom(premise.atom, premise.positive);
          if (normalized.constant && !normalized.value) return true;
          return fail("premise claims atom #" + std::to_string(premise.atom) +
                      " is constant-false, but it is not");
        }
        case PremiseOrigin::kBranch:
          return fail("branch assumptions are never constant");
      }
      return fail("invalid premise origin");
    }

    switch (premise.origin) {
      case PremiseOrigin::kConstraint:
        if (asserted(premise)) return true;
        return fail("premise is not among the asserted constraints");
      case PremiseOrigin::kAtom: {
        if (premise.atom < 0 || premise.atom >= static_cast<int>(trace_.atoms().size())) {
          return fail("premise cites an invalid atom index");
        }
        if (assignment_[static_cast<std::size_t>(premise.atom)] != (premise.positive ? 1 : 0)) {
          return fail("premise cites atom #" + std::to_string(premise.atom) +
                      " with a polarity the path does not bind");
        }
        const Normalized& normalized = normalized_atom(premise.atom, premise.positive);
        if (normalized.bad_negation) {
          return fail("premise cites the negation of an equality atom");
        }
        if (normalized.constant) {
          return fail("premise content does not match its constant atom");
        }
        for (const Premise& candidate : normalized.premises) {
          if (same_inequality(candidate, premise)) return true;
        }
        return fail("premise content does not match the auditor's normalization of atom #" +
                    std::to_string(premise.atom));
      }
      case PremiseOrigin::kBranch:
        for (const Premise& assumption : branch_stack_) {
          if (same_inequality(assumption, premise)) return true;
        }
        return fail("premise is not among the enclosing branch assumptions");
    }
    return fail("invalid premise origin");
  }

  bool check_farkas(const Node& node) {
    ++report_.farkas_nodes;
    if (node.farkas.empty()) return fail("empty Farkas combination");
    std::map<std::string, Rational> sum;
    Rational rhs;
    for (const auto& [premise, multiplier] : node.farkas) {
      if (!multiplier.is_positive()) return fail("non-positive Farkas multiplier");
      if (!premise_ok(premise)) return false;
      // Convert to <=-form: sum(terms) <= bound, negating >= premises.
      const bool le = premise.rel == Relation::kLe;
      for (const auto& [name, coeff] : premise.terms) {
        const Rational scaled = multiplier * Rational(coeff);
        sum[name] += le ? scaled : -scaled;
      }
      const Rational scaled_bound = multiplier * Rational(premise.bound);
      rhs += le ? scaled_bound : -scaled_bound;
    }
    for (const auto& [name, coeff] : sum) {
      if (!coeff.is_zero()) {
        return fail("Farkas combination does not cancel variable '" + name + "'");
      }
    }
    if (!rhs.is_negative()) {
      return fail("Farkas combination is not contradictory (0 <= " + rhs.to_string() + ")");
    }
    return true;
  }

  bool literal_false(const Literal& literal) {
    if (literal.atom < 0 || literal.atom >= static_cast<int>(trace_.atoms().size())) return false;
    const signed char value = assignment_[static_cast<std::size_t>(literal.atom)];
    if (value != -1) return value == (literal.positive ? 0 : 1);
    const Normalized& normalized = normalized_atom(literal.atom, literal.positive);
    return normalized.constant && !normalized.value && !normalized.bad_negation;
  }

  bool verify(const Node& node, int depth) {
    if (depth > kMaxWalkDepth) return fail("proof tree too deep");
    switch (node.kind) {
      case NodeKind::kFarkas:
        return check_farkas(node);

      case NodeKind::kClauseConflict: {
        if (node.clause < 0 || node.clause >= static_cast<int>(trace_.clauses().size())) {
          return fail("conflict cites an invalid clause index");
        }
        for (const Literal& literal : trace_.clauses()[static_cast<std::size_t>(node.clause)]) {
          if (!literal_false(literal)) {
            return fail("clause #" + std::to_string(node.clause) +
                        " is not conflicting: a literal is not false");
          }
        }
        return true;
      }

      case NodeKind::kPropagation: {
        if (node.clause < 0 || node.clause >= static_cast<int>(trace_.clauses().size())) {
          return fail("propagation cites an invalid clause index");
        }
        if (node.atom < 0 || node.atom >= static_cast<int>(trace_.atoms().size())) {
          return fail("propagation cites an invalid atom index");
        }
        if (node.first == nullptr) return fail("propagation without a child");
        bool found_forced = false;
        for (const Literal& literal : trace_.clauses()[static_cast<std::size_t>(node.clause)]) {
          if (literal.atom == node.atom && literal.positive == node.positive) {
            found_forced = true;
            continue;
          }
          if (!literal_false(literal)) {
            return fail("clause #" + std::to_string(node.clause) +
                        " does not force the propagated literal: another literal is not false");
          }
        }
        if (!found_forced) {
          return fail("propagated literal is not in clause #" + std::to_string(node.clause));
        }
        const std::size_t slot = static_cast<std::size_t>(node.atom);
        const signed char saved = assignment_[slot];
        assignment_[slot] = node.positive ? 1 : 0;
        const bool ok = verify(*node.first, depth + 1);
        assignment_[slot] = saved;
        return ok;
      }

      case NodeKind::kDecision: {
        if (node.atom < 0 || node.atom >= static_cast<int>(trace_.atoms().size())) {
          return fail("decision cites an invalid atom index");
        }
        if (node.first == nullptr || node.second == nullptr) {
          return fail("decision without both children");
        }
        const std::size_t slot = static_cast<std::size_t>(node.atom);
        const signed char saved = assignment_[slot];
        assignment_[slot] = 1;
        const bool true_ok = verify(*node.first, depth + 1);
        assignment_[slot] = 0;
        const bool false_ok = true_ok && verify(*node.second, depth + 1);
        assignment_[slot] = saved;
        return true_ok && false_ok;
      }

      case NodeKind::kBranch: {
        // e <= k  \/  e >= k+1 is exhaustive for any integer-valued e; every
        // named variable is an integer, so any integer combination is.
        if (node.first == nullptr || node.second == nullptr) {
          return fail("branch without both children");
        }
        Premise low;
        low.origin = PremiseOrigin::kBranch;
        low.terms = node.branch_terms;
        low.rel = Relation::kLe;
        low.bound = node.branch_bound;
        branch_stack_.push_back(std::move(low));
        const bool low_ok = verify(*node.first, depth + 1);
        branch_stack_.pop_back();
        if (!low_ok) return false;
        Premise high;
        high.origin = PremiseOrigin::kBranch;
        high.terms = node.branch_terms;
        high.rel = Relation::kGe;
        high.bound = node.branch_bound + BigInt(1);
        branch_stack_.push_back(std::move(high));
        const bool high_ok = verify(*node.second, depth + 1);
        branch_stack_.pop_back();
        return high_ok;
      }
    }
    return fail("invalid proof node kind");
  }

  const Trace& trace_;
  AuditReport& report_;
  std::string context_;
  std::unordered_map<std::uint32_t, Normalized> constraint_cache_;
  std::optional<bool> constraints_false_;
  std::vector<signed char> assignment_;
  std::vector<Premise> branch_stack_;
  std::vector<std::array<std::optional<Normalized>, 2>> atom_cache_;
};

// ---------------------------------------------------------------------------
// Certificate-level driver: model/property reconstruction, re-encoding,
// coverage, verdict composition. Split into phases that the audit runs on
// its lanes — a shard boundary is just a fresh trace, which the
// error-recovery path below always allowed mid-list anyway.
// ---------------------------------------------------------------------------

bool schema_shape_ok(const Schema& schema, int guard_count, std::size_t cut_count,
                     std::string& why) {
  std::vector<bool> used(static_cast<std::size_t>(guard_count), false);
  for (const int guard : schema.unlock_order) {
    if (guard < 0 || guard >= guard_count) {
      why = "guard index out of range";
      return false;
    }
    if (used[static_cast<std::size_t>(guard)]) {
      why = "duplicate guard in unlock order";
      return false;
    }
    used[static_cast<std::size_t>(guard)] = true;
  }
  if (schema.cut_positions.size() != cut_count) {
    why = "cut count does not match the query";
    return false;
  }
  int previous = 0;
  for (const int cut : schema.cut_positions) {
    if (cut < previous || cut >= schema.segment_count()) {
      why = "cut positions not non-decreasing within the segments";
      return false;
    }
    previous = cut;
  }
  return true;
}

std::string verdict_combine(const std::vector<std::string>& verdicts) {
  bool all_hold = !verdicts.empty();
  for (const std::string& verdict : verdicts) {
    if (verdict == "violated") return "violated";
    if (verdict != "holds") all_hold = false;
  }
  return all_hold ? "holds" : "unknown";
}

struct ComponentOutcome {
  std::string automaton_name;
  std::map<std::string, std::string> verdicts;  // property -> audited verdict
};

/// Everything one component audit shares across its property audits.
struct ComponentState {
  const ComponentCert* cert = nullptr;
  std::string context;
  std::optional<ta::ThresholdAutomaton> ta;
  std::optional<GuardAnalysis> analysis;
};

/// Reconstructs the component's model and guard analysis; issues land in
/// `sink`. Returns true iff property audits can proceed.
bool reconstruct_component(ComponentState& state, AuditReport& sink) {
  const ComponentCert& component = *state.cert;
  try {
    if (component.model.kind == "text") {
      state.ta = ta::parse_ta(component.model.text).one_round_reduction();
    } else if (component.model.kind == "builtin") {
      state.ta = models::builtin_model(component.model.key);
    } else {
      add_issue(sink, state.context, "invalid model kind '" + component.model.kind + "'");
      return false;
    }
  } catch (const Error& error) {
    add_issue(sink, state.context, std::string("model reconstruction failed: ") + error.what());
    return false;
  }
  try {
    state.analysis.emplace(*state.ta);
  } catch (const Error& error) {
    add_issue(sink, state.context, std::string("guard analysis failed: ") + error.what());
    return false;
  }
  return true;
}

/// Everything one property audit accumulates across its phases.
struct PropertyAuditState {
  const PropertyCert* cert = nullptr;
  std::string context;
  std::optional<spec::Property> property;
  /// Reconstruction succeeded and the audit ran at all; false means the
  /// audited verdict is "failed" no matter what the shards found.
  bool audited = false;
  /// The claimed verdict itself was invalid — "failed" even when the issue
  /// cap swallowed the diagnostic.
  bool hard_failed = false;
  bool shapes_ok = true;
  std::size_t query_count = 0;
  std::deque<QueryCone> cones;

  struct Entry {
    const SchemaCert* cert = nullptr;
    bool green = false;
    bool seen_in_enumeration = false;
  };
  std::map<std::string, Entry> covered;
  std::map<std::string, bool> pruned;  // key -> seen in enumeration
  /// Covered schemas grouped per query, sorted so consecutive entries share
  /// chain prefixes (the schema walk reuses them exactly like the
  /// certifying run did). Shards slice these lists contiguously.
  std::vector<std::vector<const SchemaCert*>> by_query;
};

/// Phase 1: property reconstruction, verdict/shape validation, evidence
/// grouping, cone construction. Returns true iff the evidence and coverage
/// phases should run.
bool prepare_property(const GuardAnalysis& analysis, const ta::ThresholdAutomaton& ta,
                      PropertyAuditState& state, AuditReport& sink) {
  const PropertyCert& cert = *state.cert;
  const std::string& context = state.context;

  try {
    if (cert.source.kind == "ltl") {
      if (cert.source.formula.empty()) {
        add_issue(sink, context, "ltl property source without a formula");
        return false;
      }
      state.property = spec::compile(ta, cert.name, cert.source.formula);
    } else if (cert.source.kind == "bundled") {
      const std::vector<spec::Property> bundled = models::bundled_properties(ta);
      const auto it = std::find_if(bundled.begin(), bundled.end(), [&](const spec::Property& p) {
        return p.name == cert.name;
      });
      if (it == bundled.end()) {
        add_issue(sink, context, "not among the automaton's bundled properties");
        return false;
      }
      state.property = *it;
    } else {
      add_issue(sink, context, "invalid property source kind '" + cert.source.kind + "'");
      return false;
    }
  } catch (const Error& error) {
    add_issue(sink, context, std::string("property reconstruction failed: ") + error.what());
    return false;
  }
  state.audited = true;
  ++sink.properties_audited;

  if (cert.verdict != "holds" && cert.verdict != "violated" && cert.verdict != "unknown") {
    add_issue(sink, context, "invalid verdict '" + cert.verdict + "'");
    state.hard_failed = true;
    return false;
  }
  if (cert.verdict == "unknown") {
    sink.warnings.push_back(context + ": verdict 'unknown' certifies nothing");
  }
  if (cert.verdict == "holds" && !cert.complete) {
    add_issue(sink, context, "verdict 'holds' without a completeness claim");
  }

  const spec::Property& property = *state.property;
  state.query_count = property.queries.size();
  if (cert.property_directed_pruning) {
    for (const spec::ReachQuery& query : property.queries) {
      state.cones.emplace_back(analysis, query);
    }
  }

  // Validate shapes, then group the covered schemas per query.
  state.by_query.resize(state.query_count);
  for (const SchemaCert& entry : cert.schemas) {
    std::string why;
    if (entry.query_index >= state.query_count) {
      add_issue(sink, context, "schema evidence cites query #" +
                                   std::to_string(entry.query_index) + " of " +
                                   std::to_string(state.query_count));
      state.shapes_ok = false;
      continue;
    }
    const std::size_t q = entry.query_index;
    if (!schema_shape_ok(entry.schema, analysis.guard_count(), property.queries[q].cuts.size(),
                         why)) {
      add_issue(sink, context, "malformed schema: " + why);
      state.shapes_ok = false;
      continue;
    }
    const std::string key = schema_cursor(q, entry.schema);
    if (!state.covered.emplace(key, PropertyAuditState::Entry{&entry, false, false}).second) {
      add_issue(sink, context, "duplicate schema evidence (" + key + ")");
      state.shapes_ok = false;
      continue;
    }
    state.by_query[q].push_back(&entry);
  }
  for (const PrunedCert& entry : cert.pruned) {
    std::string why;
    if (entry.query_index >= state.query_count ||
        !schema_shape_ok(entry.schema, analysis.guard_count(),
                         property.queries[entry.query_index].cuts.size(), why)) {
      add_issue(sink, context, "malformed pruned-schema entry");
      state.shapes_ok = false;
      continue;
    }
    const std::string key = schema_cursor(entry.query_index, entry.schema);
    if (!state.pruned.emplace(key, false).second) {
      add_issue(sink, context, "duplicate pruned-schema entry");
      state.shapes_ok = false;
    }
  }
  for (std::size_t q = 0; q < state.query_count; ++q) {
    std::sort(state.by_query[q].begin(), state.by_query[q].end(),
              [](const SchemaCert* lhs, const SchemaCert* rhs) {
                if (lhs->schema.unlock_order != rhs->schema.unlock_order) {
                  return lhs->schema.unlock_order < rhs->schema.unlock_order;
                }
                return lhs->schema.cut_positions < rhs->schema.cut_positions;
              });
  }
  return true;
}

/// Phase 2: re-encode and audit one contiguous range of one query's sorted
/// evidence list. Ranges over the same query may run concurrently: each
/// gets its own SchemaCheck (re-encoding is deterministic per schema — the
/// check restarts its encoder after a re-encoding failure and always has),
/// and each covered-map entry belongs to exactly one range.
void audit_entry_range(const GuardAnalysis& analysis, PropertyAuditState& state, std::size_t q,
                       std::size_t lo, std::size_t hi, AuditReport& sink) {
  if (lo >= hi) return;
  const QueryCone* cone = state.cert->property_directed_pruning ? &state.cones[q] : nullptr;
  SchemaCheck check(analysis, state.property->queries[q], cone);
  for (std::size_t i = lo; i < hi; ++i) {
    const SchemaCert* entry = state.by_query[q][i];
    const std::string key = schema_cursor(q, entry->schema);
    state.covered[key].green = check.check(entry->schema, entry->sat, entry->proof.get(),
                                           entry->model.get(), sink, state.context + ", " + key);
  }
}

/// Shard k of `shards`: audits the k-th contiguous slice of the property's
/// concatenated (query-grouped, prefix-sorted) evidence list.
void audit_shard(const GuardAnalysis& analysis, PropertyAuditState& state, std::size_t k,
                 std::size_t shards, AuditReport& sink) {
  std::size_t total = 0;
  for (const auto& entries : state.by_query) total += entries.size();
  const std::size_t lo = total * k / shards;
  const std::size_t hi = total * (k + 1) / shards;
  std::size_t base = 0;
  for (std::size_t q = 0; q < state.by_query.size(); ++q) {
    const std::size_t n = state.by_query[q].size();
    const std::size_t a = std::max(lo, base);
    const std::size_t b = std::min(hi, base + n);
    if (a < b) audit_entry_range(analysis, state, q, a - base, b - base, sink);
    base += n;
  }
}

/// Phase 3: coverage. A holds verdict claims the audited refutations
/// exhaust the schema space; re-enumerate and match every schema against
/// the covered set or a reproduced cone decision. A violated verdict needs
/// one validated counterexample model.
void audit_coverage(const GuardAnalysis& analysis, PropertyAuditState& state,
                    AuditReport& sink) {
  const PropertyCert& cert = *state.cert;
  const std::string& context = state.context;
  const spec::Property& property = *state.property;

  if (cert.verdict == "holds" && state.shapes_ok) {
    for (std::size_t q = 0; q < state.query_count; ++q) {
      const int cut_count = static_cast<int>(property.queries[q].cuts.size());
      const checker::EnumerationOutcome outcome = checker::enumerate_schemas(
          analysis, cut_count, cert.enumeration, [&](const Schema& schema) {
            const std::string key = schema_cursor(q, schema);
            if (cert.property_directed_pruning && !state.cones[q].schema_feasible(schema)) {
              const auto it = state.pruned.find(key);
              if (it == state.pruned.end()) {
                add_issue(sink, context, "cone-pruned schema missing from the manifest (" +
                                             key + ")");
              } else {
                it->second = true;
                ++sink.schemas_pruned;
              }
              return true;
            }
            const auto it = state.covered.find(key);
            if (it == state.covered.end()) {
              add_issue(sink, context, "schema not covered by any refutation (" + key + ")");
              return true;
            }
            it->second.seen_in_enumeration = true;
            if (it->second.cert->sat) {
              add_issue(sink, context, "sat evidence under a holds verdict (" + key + ")");
            } else if (!it->second.green) {
              // The refutation audit already recorded its own issue.
            }
            return true;
          });
      if (outcome.budget_exhausted) {
        add_issue(sink, context,
                  "enumeration budget exhausted while re-deriving coverage of query #" +
                      std::to_string(q));
      }
    }
    for (const auto& [key, entry] : state.covered) {
      if (!entry.seen_in_enumeration) {
        add_issue(sink, context, "evidence for a schema outside the enumerated space (" +
                                     key + ")");
      }
    }
    for (const auto& [key, seen] : state.pruned) {
      if (!seen) {
        add_issue(sink, context,
                  "pruned entry the auditor's enumeration never produced (" + key + ")");
      }
    }
  } else if (cert.verdict == "violated") {
    // The witness flag is derived from the covered map (a sat entry whose
    // model audit came back green), so it is the same whatever schedule ran
    // the evidence phase.
    bool sat_witness_green = false;
    for (const auto& [key, entry] : state.covered) {
      if (entry.cert->sat && entry.green) {
        sat_witness_green = true;
        break;
      }
    }
    if (!sat_witness_green) {
      add_issue(sink, context, "verdict 'violated' without a validated counterexample model");
    }
  }
}

/// The audited verdict of one property after all its phases settled. The
/// `green` flag must reflect the *merged, capped* report, so every job count
/// agrees even past the issue cap.
std::string audited_verdict(const PropertyAuditState& state, bool green) {
  if (!state.audited || state.hard_failed) return "failed";
  return green ? state.cert->verdict : "failed";
}

std::string describe_component(const ComponentCert& component, std::size_t index) {
  if (component.model.kind == "builtin") return "component '" + component.model.key + "'";
  return "component #" + std::to_string(index);
}

/// Recomposes the Theorem-6 verdicts from the audited per-property verdicts
/// (Proposition 2 of [10] + Theorem 6 of the paper), and compares with the
/// claims. The bv-broadcast gadget verdicts gate everything downstream.
void recompose_theorem6(const Certificate& certificate,
                        const std::vector<ComponentOutcome>& outcomes, AuditReport& report) {
  if (!certificate.theorem6) return;
  const auto component_named = [&](const std::string& name) -> const ComponentOutcome* {
    for (const ComponentOutcome& outcome : outcomes) {
      if (outcome.automaton_name == name) return &outcome;
    }
    return nullptr;
  };
  const ComponentOutcome* bv = component_named("BvBroadcast");
  const ComponentOutcome* consensus = component_named("SimplifiedConsensus");
  const auto gather = [&](const std::vector<std::string>& consensus_names) {
    std::vector<std::string> verdicts;
    if (bv == nullptr || bv->verdicts.empty()) {
      verdicts.push_back("unknown");  // gadget not certified
    } else {
      for (const auto& [name, verdict] : bv->verdicts) verdicts.push_back(verdict);
    }
    for (const std::string& name : consensus_names) {
      if (consensus == nullptr) {
        verdicts.push_back("unknown");
        continue;
      }
      const auto it = consensus->verdicts.find(name);
      verdicts.push_back(it == consensus->verdicts.end() ? "unknown" : it->second);
    }
    // An audit failure must never strengthen a claim; treat it as unknown
    // unless the property claims a violation.
    for (std::string& verdict : verdicts) {
      if (verdict == "failed") verdict = "unknown";
    }
    return verdicts;
  };
  const models::Theorem6Dependencies& theorem6 = models::theorem6_dependencies();
  const std::string agreement = verdict_combine(gather(theorem6.agreement));
  const std::string validity = verdict_combine(gather(theorem6.validity));
  const std::string termination = verdict_combine(gather(theorem6.termination));
  const auto check_claim = [&](const char* what, const std::string& claimed,
                               const std::string& recomputed) {
    if (claimed != recomputed) {
      add_issue(report, "theorem6", std::string(what) + " claimed '" + claimed +
                                        "' but the audited properties compose to '" +
                                        recomputed + "'");
    }
  };
  check_claim("agreement", certificate.theorem6->agreement, agreement);
  check_claim("validity", certificate.theorem6->validity, validity);
  check_claim("termination", certificate.theorem6->termination, termination);
}

/// Sums one phase report into the merged report, re-applying the issue cap
/// as if every issue had been added directly.
void merge_report(AuditReport& report, const AuditReport& part) {
  for (const std::string& issue : part.issues) merge_issue(report, issue);
  for (const std::string& warning : part.warnings) report.warnings.push_back(warning);
  report.properties_audited += part.properties_audited;
  report.schemas_covered += part.schemas_covered;
  report.schemas_pruned += part.schemas_pruned;
  report.models_checked += part.models_checked;
  report.farkas_nodes += part.farkas_nodes;
}

}  // namespace

struct SchemaCheck::Encoding {
  Encoding(const GuardAnalysis& analysis, const spec::ReachQuery& query, const QueryCone* cone)
      : walk(analysis, query, cone, trace) {}

  Trace trace;
  checker::SchemaWalk walk;
};

SchemaCheck::SchemaCheck(const GuardAnalysis& analysis, const spec::ReachQuery& query,
                         const QueryCone* cone)
    : analysis_(analysis),
      query_(query),
      cone_(cone),
      encoding_(std::make_unique<Encoding>(analysis, query, cone)) {}

SchemaCheck::~SchemaCheck() = default;

bool SchemaCheck::check(const Schema& schema, bool sat, const smt::proof::Node* proof,
                        const std::vector<std::pair<std::string, BigInt>>* model,
                        AuditReport& report, const std::string& context) {
  try {
    encoding_->walk.open(schema);
  } catch (const Error& error) {
    add_issue(report, context, std::string("re-encoding failed: ") + error.what());
    encoding_ = std::make_unique<Encoding>(analysis_, query_, cone_);
    return false;
  }
  bool green = false;
  SchemaAuditor auditor(encoding_->trace, report, context);
  if (sat) {
    if (model == nullptr) {
      add_issue(report, context, "sat evidence without a model");
    } else {
      green = auditor.audit_model(*model);
    }
    ++report.models_checked;
  } else {
    if (proof == nullptr) {
      add_issue(report, context, "unsat evidence without a proof");
    } else {
      green = auditor.audit_proof(*proof);
    }
    ++report.schemas_covered;
  }
  encoding_->walk.close();
  return green;
}

/// The audit's four phases, each run on the lanes, merged back in canonical
/// (component, property, shard) order.
AuditReport audit_certificate(const Certificate& certificate, const AuditOptions& options) {
  // Zero shards would leave every evidence list unaudited.
  const int jobs = std::max(1, options.jobs);
  const std::size_t shard_count = static_cast<std::size_t>(jobs);

  /// A component or property as the phases see it: whether the next phase
  /// may run on it, and what its phases threw.
  struct PhaseOwner {
    bool ready = false;
    std::vector<std::string> threw;  // "audit phase <key> threw: ..."
  };
  struct CompTask : PhaseOwner {
    ComponentState state;
    AuditReport sink;
  };
  struct PropTask : PhaseOwner {
    CompTask* comp = nullptr;
    std::string id;  // "<component>.<property>"
    PropertyAuditState state;
    AuditReport prep;
    std::vector<AuditReport> shards;
    AuditReport coverage;
  };

  std::deque<CompTask> comps(certificate.components.size());
  std::deque<PropTask> props;  // every property, in canonical order
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    const ComponentCert& component = certificate.components[ci];
    CompTask& comp = comps[ci];
    comp.state.cert = &component;
    comp.state.context = describe_component(component, ci);
    for (std::size_t pi = 0; pi < component.properties.size(); ++pi) {
      PropTask& prop = props.emplace_back();
      prop.comp = &comp;
      prop.id = std::to_string(ci) + "." + std::to_string(pi);
      prop.state.cert = &component.properties[pi];
      prop.state.context = comp.state.context + ", property '" + prop.state.cert->name + "'";
      prop.shards.resize(shard_count);
    }
  }

  // Fail closed: a unit that threw (std::bad_alloc on a large certificate,
  // say) becomes an issue of its owner, and the phases after it skip the
  // owner.
  struct Unit {
    PhaseOwner* owner;
    std::string key;
    std::function<void()> run;
  };
  std::vector<Unit> units;
  const auto run_phase = [&units, jobs] {
    const std::vector<std::string> errors =
        run_lanes(units.size(), jobs, [&units](std::size_t i) { units[i].run(); });
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (errors[i].empty()) continue;
      units[i].owner->ready = false;
      units[i].owner->threw.push_back("audit phase " + units[i].key + " threw: " + errors[i]);
    }
    units.clear();
  };

  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    CompTask& comp = comps[ci];
    units.push_back({&comp, "component#" + std::to_string(ci),
                     [&comp] { comp.ready = reconstruct_component(comp.state, comp.sink); }});
  }
  run_phase();
  for (PropTask& prop : props) {
    if (!prop.comp->ready) continue;
    units.push_back({&prop, "prepare#" + prop.id, [&prop] {
                       prop.ready = prepare_property(*prop.comp->state.analysis,
                                                     *prop.comp->state.ta, prop.state, prop.prep);
                     }});
  }
  run_phase();
  for (PropTask& prop : props) {
    if (!prop.ready) continue;
    for (std::size_t k = 0; k < shard_count; ++k) {
      units.push_back({&prop, "shard#" + prop.id + "." + std::to_string(k),
                       [&prop, k, shard_count] {
                         audit_shard(*prop.comp->state.analysis, prop.state, k, shard_count,
                                     prop.shards[k]);
                       }});
    }
  }
  run_phase();
  for (PropTask& prop : props) {
    if (!prop.ready) continue;
    units.push_back({&prop, "coverage#" + prop.id, [&prop] {
                       audit_coverage(*prop.comp->state.analysis, prop.state, prop.coverage);
                     }});
  }
  run_phase();

  AuditReport report;
  std::vector<ComponentOutcome> outcomes;
  auto prop = props.begin();
  for (CompTask& comp : comps) {
    ComponentOutcome& outcome = outcomes.emplace_back();
    for (const PropertyCert& property : comp.state.cert->properties) {
      outcome.verdicts[property.name] = "failed";
    }
    if (comp.state.ta) outcome.automaton_name = comp.state.ta->name();
    merge_report(report, comp.sink);
    for (const std::string& issue : comp.threw) add_issue(report, comp.state.context, issue);
    for (; prop != props.end() && prop->comp == &comp; ++prop) {
      const std::size_t issues_before = report.issues.size();
      merge_report(report, prop->prep);
      for (const AuditReport& shard : prop->shards) merge_report(report, shard);
      merge_report(report, prop->coverage);
      for (const std::string& issue : prop->threw) add_issue(report, prop->state.context, issue);
      const bool green = report.issues.size() == issues_before;
      outcome.verdicts[prop->state.cert->name] = audited_verdict(prop->state, green);
    }
  }

  recompose_theorem6(certificate, outcomes, report);
  report.ok = report.issues.empty();
  return report;
}

std::string AuditReport::to_string() const {
  std::ostringstream os;
  os << (ok ? "audit: PASS" : "audit: FAIL") << "\n";
  os << "  properties audited:   " << properties_audited << "\n";
  os << "  refutations checked:  " << schemas_covered << " (" << farkas_nodes
     << " Farkas leaves)\n";
  os << "  cone decisions replayed: " << schemas_pruned << "\n";
  os << "  models evaluated:     " << models_checked << "\n";
  for (const std::string& warning : warnings) os << "  warning: " << warning << "\n";
  for (const std::string& issue : issues) os << "  issue: " << issue << "\n";
  return os.str();
}

}  // namespace hv::cert
