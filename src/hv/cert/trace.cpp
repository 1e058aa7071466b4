#include "hv/cert/trace.h"

#include <algorithm>
#include <utility>

#include "hv/util/error.h"

namespace hv::cert {

smt::VarId Trace::new_variable(std::string name) {
  name_filters_.push_back(smt::proof::name_filter(name));
  names_.push_back(std::move(name));
  return static_cast<smt::VarId>(names_.size()) - 1;
}

void Trace::add(smt::LinearConstraint constraint) {
  std::uint64_t filter = 0;
  for (const auto& [var, coeff] : constraint.expr.terms()) filter += name_filters_[var];
  index_[filter].push_back(static_cast<std::uint32_t>(constraints_.size()));
  filters_.push_back(filter);
  constraints_.push_back(std::move(constraint));
}

void Trace::add_lower_bound(smt::VarId var, const BigInt& bound) {
  add(smt::make_ge(smt::LinearExpr::variable(var), smt::LinearExpr(bound)));
}

int Trace::add_atom(smt::LinearConstraint constraint) {
  atoms_.push_back(std::move(constraint));
  return static_cast<int>(atoms_.size()) - 1;
}

void Trace::add_clause(std::vector<smt::Literal> literals) {
  for (const smt::Literal& literal : literals) {
    HV_REQUIRE(literal.atom >= 0 && literal.atom < static_cast<int>(atoms_.size()));
  }
  clauses_.push_back(std::move(literals));
}

void Trace::push() {
  scopes_.push_back({names_.size(), constraints_.size(), atoms_.size(), clauses_.size()});
}

void Trace::pop() {
  if (scopes_.empty()) throw Error("cert: Trace::pop without matching push");
  const Scope& scope = scopes_.back();
  for (std::size_t i = constraints_.size(); i-- > scope.constraint_count;) {
    const auto it = index_.find(filters_[i]);
    HV_REQUIRE(it != index_.end() && !it->second.empty() && it->second.back() == i);
    it->second.pop_back();
    if (it->second.empty()) index_.erase(it);
  }
  names_.resize(scope.name_count);
  name_filters_.resize(scope.name_count);
  constraints_.resize(scope.constraint_count);
  filters_.resize(scope.constraint_count);
  atoms_.resize(scope.atom_count);
  clauses_.resize(scope.clause_count);
  scopes_.pop_back();
}

std::span<const std::uint32_t> Trace::candidates(std::uint64_t filter) const {
  const auto it = index_.find(filter);
  if (it == index_.end()) return {};
  return it->second;
}

smt::proof::TracedConstraint Trace::render(const smt::LinearConstraint& constraint) const {
  smt::proof::TracedConstraint out;
  out.constant = constraint.expr.constant();
  out.rel = constraint.relation;
  out.terms.reserve(constraint.expr.terms().size());
  for (const auto& [var, coeff] : constraint.expr.terms()) {
    out.terms.emplace_back(names_[var], coeff);
  }
  std::sort(out.terms.begin(), out.terms.end(),
            [](const auto& lhs, const auto& rhs) { return lhs.first < rhs.first; });
  return out;
}

}  // namespace hv::cert
