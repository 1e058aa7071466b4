#include "hv/spec/ltl.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "hv/util/error.h"

namespace hv::spec {

namespace {

FormulaPtr make(FormulaKind kind, std::vector<FormulaPtr> children) {
  auto formula = std::make_shared<Formula>();
  formula->kind = kind;
  formula->children = std::move(children);
  return formula;
}

}  // namespace

FormulaPtr atom(smt::LinearConstraint constraint) {
  auto formula = std::make_shared<Formula>();
  formula->kind = FormulaKind::kAtom;
  formula->atom = std::move(constraint);
  return formula;
}

FormulaPtr negation(FormulaPtr operand) { return make(FormulaKind::kNot, {std::move(operand)}); }

FormulaPtr conjunction(std::vector<FormulaPtr> operands) {
  if (operands.size() == 1) return operands[0];
  return make(FormulaKind::kAnd, std::move(operands));
}

FormulaPtr disjunction(std::vector<FormulaPtr> operands) {
  if (operands.size() == 1) return operands[0];
  return make(FormulaKind::kOr, std::move(operands));
}

FormulaPtr implies(FormulaPtr lhs, FormulaPtr rhs) {
  return make(FormulaKind::kImplies, {std::move(lhs), std::move(rhs)});
}

FormulaPtr globally(FormulaPtr operand) {
  return make(FormulaKind::kGlobally, {std::move(operand)});
}

FormulaPtr eventually(FormulaPtr operand) {
  return make(FormulaKind::kEventually, {std::move(operand)});
}

FormulaPtr loc_empty(const ta::ThresholdAutomaton& ta, ta::LocationId location) {
  return atom(smt::make_eq(counter_expr(ta, location), smt::LinearExpr(0)));
}

FormulaPtr loc_nonempty(const ta::ThresholdAutomaton& ta, ta::LocationId location) {
  return atom(smt::make_ge(counter_expr(ta, location), smt::LinearExpr(1)));
}

bool is_state_predicate(const FormulaPtr& formula) {
  switch (formula->kind) {
    case FormulaKind::kAtom:
      return true;
    case FormulaKind::kGlobally:
    case FormulaKind::kEventually:
      return false;
    default:
      return std::all_of(formula->children.begin(), formula->children.end(),
                         is_state_predicate);
  }
}

namespace {

// Negation-normal form over {atom, and, or}; negations resolved into atoms.
FormulaPtr to_nnf(const FormulaPtr& formula, bool negate) {
  switch (formula->kind) {
    case FormulaKind::kAtom: {
      if (!negate) return formula;
      const smt::LinearConstraint& constraint = formula->atom;
      if (constraint.relation == smt::Relation::kEq) {
        // !(e == 0)  <=>  e <= -1 || e >= 1.
        smt::LinearExpr low = constraint.expr + smt::LinearExpr(1);
        smt::LinearExpr high = constraint.expr - smt::LinearExpr(1);
        return disjunction({atom({std::move(low), smt::Relation::kLe}),
                            atom({std::move(high), smt::Relation::kGe})});
      }
      return atom(constraint.negated());
    }
    case FormulaKind::kNot:
      return to_nnf(formula->children[0], !negate);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaPtr> children;
      children.reserve(formula->children.size());
      for (const FormulaPtr& child : formula->children) children.push_back(to_nnf(child, negate));
      const bool and_result = (formula->kind == FormulaKind::kAnd) != negate;
      return and_result ? conjunction(std::move(children)) : disjunction(std::move(children));
    }
    case FormulaKind::kImplies:
      // a -> b  ==  !a || b.
      return to_nnf(disjunction({negation(formula->children[0]), formula->children[1]}), negate);
    case FormulaKind::kGlobally:
    case FormulaKind::kEventually:
      throw InvalidArgument("temporal operator inside a state predicate");
  }
  throw InternalError("unreachable formula kind");
}

Cnf nnf_to_cnf(const FormulaPtr& formula) {
  switch (formula->kind) {
    case FormulaKind::kAtom: {
      Cnf cnf;
      cnf.add_unit(formula->atom);
      return cnf;
    }
    case FormulaKind::kAnd: {
      Cnf cnf;
      for (const FormulaPtr& child : formula->children) cnf.append(nnf_to_cnf(child));
      return cnf;
    }
    case FormulaKind::kOr: {
      // Distribute: start from the first child's CNF and cross with each
      // subsequent child's CNF.
      Cnf result = nnf_to_cnf(formula->children[0]);
      for (std::size_t i = 1; i < formula->children.size(); ++i) {
        const Cnf rhs = nnf_to_cnf(formula->children[i]);
        Cnf crossed;
        for (const Clause& a : result.clauses) {
          for (const Clause& b : rhs.clauses) {
            Clause merged = a;
            merged.literals.insert(merged.literals.end(), b.literals.begin(), b.literals.end());
            crossed.clauses.push_back(std::move(merged));
          }
        }
        result = std::move(crossed);
      }
      return result;
    }
    default:
      throw InternalError("nnf_to_cnf: formula not in NNF");
  }
}

}  // namespace

FormulaPtr negation_normal_form(const FormulaPtr& formula, bool negate) {
  return to_nnf(formula, negate);
}

Cnf predicate_to_cnf(const FormulaPtr& formula) {
  return simplify_cnf(nnf_to_cnf(to_nnf(formula, /*negate=*/false)));
}

Cnf negated_predicate_to_cnf(const FormulaPtr& formula) {
  return simplify_cnf(nnf_to_cnf(to_nnf(formula, /*negate=*/true)));
}

// --- parser ------------------------------------------------------------------

namespace {

struct LtlToken {
  enum class Kind { kIdentifier, kNumber, kSymbol, kEnd } kind = Kind::kEnd;
  std::string text;
  int line = 1;
};

std::vector<LtlToken> lex(std::string_view text) {
  std::vector<LtlToken> tokens;
  std::size_t pos = 0;
  int line = 1;
  while (pos < text.size()) {
    const char c = text[pos];
    if (c == '\n') {
      ++line;
      ++pos;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++pos;
      continue;
    }
    if (c == '#' || (c == '/' && pos + 1 < text.size() && text[pos + 1] == '/')) {
      while (pos < text.size() && text[pos] != '\n') ++pos;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t start = pos;
      while (pos < text.size() && (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 ||
                                   text[pos] == '_' || text[pos] == '\'')) {
        ++pos;
      }
      tokens.push_back({LtlToken::Kind::kIdentifier, std::string(text.substr(start, pos - start)),
                        line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t start = pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos])) != 0) ++pos;
      tokens.push_back({LtlToken::Kind::kNumber, std::string(text.substr(start, pos - start)),
                        line});
      continue;
    }
    static constexpr std::string_view kTwoChar[] = {"[]", "<>", "->", "==", "!=",
                                                    ">=", "<=", "&&", "||"};
    bool matched = false;
    for (const std::string_view op : kTwoChar) {
      if (text.substr(pos, 2) == op) {
        tokens.push_back({LtlToken::Kind::kSymbol, std::string(op), line});
        pos += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static constexpr std::string_view kOneChar = "!()[]+-*<>";
    if (kOneChar.find(c) != std::string_view::npos) {
      tokens.push_back({LtlToken::Kind::kSymbol, std::string(1, c), line});
      ++pos;
      continue;
    }
    throw ParseError("unexpected character '" + std::string(1, c) + "' in LTL formula", line);
  }
  tokens.push_back({LtlToken::Kind::kEnd, "", line});
  return tokens;
}

class LtlParser {
 public:
  LtlParser(const ta::ThresholdAutomaton& ta, std::vector<LtlToken> tokens)
      : ta_(ta), tokens_(std::move(tokens)) {}

  FormulaPtr run() {
    FormulaPtr formula = implication();
    if (peek().kind != LtlToken::Kind::kEnd) {
      throw ParseError("trailing input after LTL formula: '" + peek().text + "'", peek().line);
    }
    return formula;
  }

 private:
  const LtlToken& peek() const { return tokens_[pos_]; }

  bool accept_symbol(std::string_view text) {
    if (peek().kind == LtlToken::Kind::kSymbol && peek().text == text) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_symbol(std::string_view text) {
    if (!accept_symbol(text)) {
      throw ParseError("expected '" + std::string(text) + "', got '" + peek().text + "'",
                       peek().line);
    }
  }

  FormulaPtr implication() {
    FormulaPtr lhs = disjunction_level();
    if (accept_symbol("->")) return implies(std::move(lhs), implication());
    return lhs;
  }

  FormulaPtr disjunction_level() {
    std::vector<FormulaPtr> operands{conjunction_level()};
    while (accept_symbol("||")) operands.push_back(conjunction_level());
    return disjunction(std::move(operands));
  }

  FormulaPtr conjunction_level() {
    std::vector<FormulaPtr> operands{unary()};
    while (accept_symbol("&&")) operands.push_back(unary());
    return conjunction(std::move(operands));
  }

  FormulaPtr unary() {
    if (accept_symbol("[]")) return globally(unary());
    if (accept_symbol("<>")) return eventually(unary());
    if (accept_symbol("!")) return negation(unary());
    if (accept_symbol("(")) {
      FormulaPtr inner = implication();
      expect_symbol(")");
      return inner;
    }
    return comparison();
  }

  FormulaPtr comparison() {
    const smt::LinearExpr lhs = expression();
    const LtlToken op = peek();
    if (op.kind != LtlToken::Kind::kSymbol) {
      throw ParseError("expected a comparison operator, got '" + op.text + "'", op.line);
    }
    ++pos_;
    const smt::LinearExpr rhs = expression();
    if (op.text == ">=") return atom(smt::make_ge(lhs, rhs));
    if (op.text == "<=") return atom(smt::make_le(lhs, rhs));
    if (op.text == ">") return atom(smt::make_gt(lhs, rhs));
    if (op.text == "<") return atom(smt::make_lt(lhs, rhs));
    if (op.text == "==") return atom(smt::make_eq(lhs, rhs));
    if (op.text == "!=") return negation(atom(smt::make_eq(lhs, rhs)));
    throw ParseError("unknown comparison operator '" + op.text + "'", op.line);
  }

  smt::LinearExpr expression() {
    smt::LinearExpr expr;
    const bool negate = accept_symbol("-");
    smt::LinearExpr first = primary();
    expr = negate ? -first : first;
    for (;;) {
      if (accept_symbol("+")) {
        expr += primary();
      } else if (accept_symbol("-")) {
        expr -= primary();
      } else {
        return expr;
      }
    }
  }

  smt::LinearExpr primary() {
    const LtlToken& token = peek();
    if (token.kind == LtlToken::Kind::kNumber) {
      ++pos_;
      const BigInt value = BigInt::from_string(token.text);
      if (accept_symbol("*")) return value * primary();
      return smt::LinearExpr(value);
    }
    if (token.kind == LtlToken::Kind::kIdentifier) {
      ++pos_;
      if (token.text == "kappa") {
        expect_symbol("[");
        const LtlToken& name = peek();
        if (name.kind != LtlToken::Kind::kIdentifier) {
          throw ParseError("expected a location name inside kappa[...]", name.line);
        }
        ++pos_;
        expect_symbol("]");
        return counter_expr(ta_, resolve_location(name));
      }
      return smt::LinearExpr::variable(resolve_variable(token));
    }
    if (accept_symbol("(")) {
      smt::LinearExpr inner = expression();
      expect_symbol(")");
      return inner;
    }
    throw ParseError("expected an expression, got '" + token.text + "'", token.line);
  }

  ta::LocationId resolve_location(const LtlToken& token) const {
    if (const auto id = ta_.find_location(token.text)) return *id;
    throw ParseError("unknown location '" + token.text + "'", token.line);
  }

  smt::VarId resolve_variable(const LtlToken& token) const {
    // 1. Exact variable name.
    if (const auto id = ta_.find_variable(token.text)) return *id;
    // 2. Case-insensitive variable name (Appendix F writes N, T for n, t).
    const auto lower = [](std::string text) {
      std::transform(text.begin(), text.end(), text.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      return text;
    };
    const std::string folded = lower(token.text);
    for (smt::VarId id = 0; id < ta_.variable_count(); ++id) {
      if (lower(ta_.variable_name(id)) == folded) return id;
    }
    // 3. locX sugar for kappa[X].
    if (token.text.size() > 3 && token.text.substr(0, 3) == "loc") {
      if (const auto id = ta_.find_location(token.text.substr(3))) {
        return counter_state_var(ta_, *id);
      }
    }
    throw ParseError("unknown identifier '" + token.text + "'", token.line);
  }

  const ta::ThresholdAutomaton& ta_;
  std::vector<LtlToken> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

FormulaPtr parse_ltl(const ta::ThresholdAutomaton& ta, std::string_view text) {
  return LtlParser(ta, lex(text)).run();
}

std::string to_string(const ta::ThresholdAutomaton& ta, const FormulaPtr& formula) {
  const auto namer = [&ta](smt::VarId var) { return state_var_name(ta, var); };
  switch (formula->kind) {
    case FormulaKind::kAtom:
      return formula->atom.to_string(namer);
    case FormulaKind::kNot:
      return "!(" + to_string(ta, formula->children[0]) + ")";
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      const char* op = formula->kind == FormulaKind::kAnd ? " && " : " || ";
      std::string out;
      for (std::size_t i = 0; i < formula->children.size(); ++i) {
        if (i != 0) out += op;
        out += '(';
        out += to_string(ta, formula->children[i]);
        out += ')';
      }
      return out;
    }
    case FormulaKind::kImplies: {
      std::string out = "(";
      out += to_string(ta, formula->children[0]);
      out += ") -> (";
      out += to_string(ta, formula->children[1]);
      out += ')';
      return out;
    }
    case FormulaKind::kGlobally:
      return "[](" + to_string(ta, formula->children[0]) + ")";
    case FormulaKind::kEventually:
      return "<>(" + to_string(ta, formula->children[0]) + ")";
  }
  throw InternalError("unreachable formula kind");
}

}  // namespace hv::spec
