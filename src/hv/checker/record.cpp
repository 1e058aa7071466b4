#include "hv/checker/record.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hv/smt/proof_json.h"
#include "hv/util/error.h"

namespace hv::checker {

namespace {

Json counterexample_to_json(const Counterexample& cex) {
  Json::Array params;
  for (const auto& [var, value] : cex.params) {
    params.push_back(Json::Array{static_cast<std::int64_t>(var), value});
  }
  Json::Array counters;
  for (const std::int64_t c : cex.initial.counters) counters.push_back(c);
  Json::Array shared;
  for (const std::int64_t s : cex.initial.shared) shared.push_back(s);
  Json::Array steps;
  for (const TraceStep& step : cex.steps) {
    steps.push_back(Json::Array{static_cast<std::int64_t>(step.rule), step.factor});
  }
  return Json::Object{
      {"property", cex.property},
      {"query_description", cex.query_description},
      {"params", std::move(params)},
      {"counters", std::move(counters)},
      {"shared", std::move(shared)},
      {"steps", std::move(steps)},
  };
}

Counterexample counterexample_from_json(const Json& json) {
  Counterexample cex;
  cex.property = json.at("property").as_string();
  cex.query_description = json.at("query_description").as_string();
  for (const Json& entry : json.at("params").as_array()) {
    const Json::Array& pair = entry.as_array();
    if (pair.size() != 2) throw InvalidArgument("record: malformed counterexample params");
    cex.params[static_cast<ta::VarId>(pair[0].as_int())] = pair[1].as_int();
  }
  for (const Json& c : json.at("counters").as_array()) {
    cex.initial.counters.push_back(c.as_int());
  }
  for (const Json& s : json.at("shared").as_array()) {
    cex.initial.shared.push_back(s.as_int());
  }
  for (const Json& entry : json.at("steps").as_array()) {
    const Json::Array& pair = entry.as_array();
    if (pair.size() != 2) throw InvalidArgument("record: malformed counterexample steps");
    cex.steps.push_back({static_cast<ta::RuleId>(pair[0].as_int()), pair[1].as_int()});
  }
  return cex;
}

Json model_values_to_json(const std::vector<std::pair<std::string, BigInt>>& values) {
  Json::Array out;
  for (const auto& [name, value] : values) {
    out.push_back(Json::Array{name, value.to_string()});
  }
  return out;
}

std::vector<std::pair<std::string, BigInt>> model_values_from_json(const Json& json) {
  std::vector<std::pair<std::string, BigInt>> values;
  for (const Json& entry : json.as_array()) {
    const Json::Array& pair = entry.as_array();
    if (pair.size() != 2) throw InvalidArgument("record: malformed model values");
    values.emplace_back(pair[0].as_string(), BigInt::from_string(pair[1].as_string()));
  }
  return values;
}

// The spelling of each SchemaVerdict, in enum order. A sat record is a
// `sat`-type object and spells no verdict.
constexpr const char* kVerdictText[] = {"pruned", "unsat", "sat", "unknown"};

SchemaVerdict record_verdict(const std::string& text) {
  for (std::size_t v = 0; v < std::size(kVerdictText); ++v) {
    const auto verdict = static_cast<SchemaVerdict>(v);
    if (text == kVerdictText[v] && verdict != SchemaVerdict::kSat) return verdict;
  }
  throw InvalidArgument("record: a record-type object cannot carry verdict '" + text + "'");
}

}  // namespace

Json record_to_json(const SchemaRecord& record, const UnitOutcome& solve, Json::Object head) {
  const bool sat = record.verdict == SchemaVerdict::kSat;
  Json::Object out;
  out.reserve(13 + head.size());
  const auto field = [&](const char* key, Json value) { out.emplace_back(key, std::move(value)); };
  field("type", sat ? "sat" : "record");
  for (auto& entry : head) out.push_back(std::move(entry));
  field("cursor", record.cursor);
  if (!sat) field("verdict", kVerdictText[static_cast<std::size_t>(record.verdict)]);
  field("length", solve.length);
  field("pivots", solve.pivots);
  if (sat || record.verdict == SchemaVerdict::kUnsat) {
    field("fast", solve.rational_fast_ops);
    field("big", solve.rational_big_ops);
  }
  field("retries", solve.retries);
  // Lemma-pool activity only when there was some, so a run that learns
  // nothing writes the same bytes as one that cannot.
  if (solve.lemma_hits != 0) field("hits", solve.lemma_hits);
  if (solve.lemmas_learned != 0) field("learned", solve.lemmas_learned);
  if (sat) {
    field("validation_error", solve.validation_error);
    if (solve.counterexample) {
      field("counterexample", counterexample_to_json(*solve.counterexample));
    }
    if (solve.model) field("model", model_values_to_json(*solve.model));
  } else {
    field("note", solve.note);
    if (record.cut >= 0) field("cut", record.cut);
    if (solve.proof) field("proof", smt::proof::to_json(*solve.proof));
  }
  return out;
}

SchemaRecord record_from_json(const Json& object, UnitOutcome* solve) {
  SchemaRecord record;
  const bool sat = object.at("type").as_string() == "sat";
  // A record always carries length, pivots and retries; pruned and unknown
  // records omit fast/big, and every record omits hits/learned when zero.
  const auto count = [&](const char* key, bool required) -> std::int64_t {
    const Json* field = required ? &object.at(key) : object.find(key);
    if (field == nullptr) return 0;
    const std::int64_t value = field->as_int();
    if (value < 0) throw InvalidArgument(std::string("record: negative ") + key);
    return value;
  };
  record.cursor = object.at("cursor").as_string();
  record.verdict = sat ? SchemaVerdict::kSat : record_verdict(object.at("verdict").as_string());
  solve->length = count("length", true);
  solve->pivots = count("pivots", true);
  solve->retries = count("retries", true);
  solve->rational_fast_ops = count("fast", false);
  solve->rational_big_ops = count("big", false);
  solve->lemma_hits = count("hits", false);
  solve->lemmas_learned = count("learned", false);
  if (sat) {
    solve->validation_error = object.at("validation_error").as_string();
    if (const Json* cex = object.find("counterexample")) {
      solve->counterexample = counterexample_from_json(*cex);
    }
    if (const Json* model = object.find("model")) {
      solve->model = std::make_shared<const std::vector<std::pair<std::string, BigInt>>>(
          model_values_from_json(*model));
    }
  } else {
    solve->note = object.at("note").as_string();
    if (const Json* cut = object.find("cut")) record.cut = cut->as_int();
    if (const Json* proof = object.find("proof")) {
      solve->proof = std::shared_ptr<const smt::proof::Node>(smt::proof::from_json(*proof));
    }
  }
  return record;
}

}  // namespace hv::checker
