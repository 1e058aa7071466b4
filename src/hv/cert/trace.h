// The auditor's constraint sink: the assertion stack a checker::SchemaWalk
// emits, recorded without normalization or solving. The auditor checks a
// schema's evidence against what the trace holds while the schema is open.
#ifndef HV_CERT_TRACE_H
#define HV_CERT_TRACE_H

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hv/smt/proof.h"
#include "hv/smt/sink.h"

namespace hv::cert {

class Trace final : public smt::ConstraintSink {
 public:
  smt::VarId new_variable(std::string name) override;
  void add(smt::LinearConstraint constraint) override;
  void add_lower_bound(smt::VarId var, const BigInt& bound) override;
  int add_atom(smt::LinearConstraint constraint) override;
  void add_clause(std::vector<smt::Literal> literals) override;
  void push() override;
  void pop() override;

  /// The live permanent constraints, atoms and clauses, in var-id space.
  const std::vector<smt::LinearConstraint>& constraints() const noexcept { return constraints_; }
  const std::vector<smt::LinearConstraint>& atoms() const noexcept { return atoms_; }
  const std::vector<std::vector<smt::Literal>>& clauses() const noexcept { return clauses_; }

  /// Ascending indices of the live constraints whose term-name set has the
  /// given proof::name_set_filter value. Only ever a superset of the
  /// constraints over exactly that name set: a caller must still compare.
  std::span<const std::uint32_t> candidates(std::uint64_t filter) const;

  /// `constraint` in name space, terms sorted by name.
  smt::proof::TracedConstraint render(const smt::LinearConstraint& constraint) const;

 private:
  struct Scope {
    std::size_t name_count = 0;
    std::size_t constraint_count = 0;
    std::size_t atom_count = 0;
    std::size_t clause_count = 0;
  };

  std::vector<std::string> names_;
  std::vector<std::uint64_t> name_filters_;  // proof::name_filter, parallel to names_
  std::vector<smt::LinearConstraint> constraints_;
  // Every constraint's term-name-set filter is computed once, from the
  // per-variable name filters, and indexed; pop() retracts the index
  // entries of the constraints dying with the scope (each list stays
  // ascending, so that is a pop_back).
  std::vector<std::uint64_t> filters_;  // parallel to constraints_
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
  std::vector<smt::LinearConstraint> atoms_;
  std::vector<std::vector<smt::Literal>> clauses_;
  std::vector<Scope> scopes_;
};

}  // namespace hv::cert

#endif  // HV_CERT_TRACE_H
