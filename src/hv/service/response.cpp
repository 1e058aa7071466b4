#include "hv/service/response.h"

#include <sstream>

#include "hv/util/text.h"

namespace hv::service {

double rational_fast_ratio(const checker::PropertyResult& result) {
  const std::int64_t total = result.rational_fast_ops + result.rational_big_ops;
  if (total == 0) return 1.0;
  return static_cast<double>(result.rational_fast_ops) / static_cast<double>(total);
}

std::string render_result_json(const ta::ThresholdAutomaton& ta,
                               const checker::PropertyResult& result) {
  // ostringstream with default formatting: doubles print with 6 significant
  // digits, exactly like the std::ostream the CLI historically wrote to.
  std::ostringstream out;
  out << "{\"property\": \"" << json_escape(result.property) << "\", \"verdict\": \""
      << checker::to_string(result.verdict) << "\", \"schemas\": "
      << result.schemas_checked << ", \"pruned\": " << result.schemas_pruned
      << ", \"cut\": " << result.schemas_cut
      << ", \"lemma_hits\": " << result.lemma_hits
      << ", \"lemmas_learned\": " << result.lemmas_learned
      << ", \"unknown_schemas\": " << result.schemas_unknown
      << ", \"resumed\": " << result.schemas_resumed << ", \"retries\": " << result.retries
      << ", \"seconds\": " << result.seconds << ", \"pivots\": " << result.simplex_pivots
      << ", \"rational_fast_ops\": " << result.rational_fast_ops
      << ", \"rational_big_ops\": " << result.rational_big_ops
      << ", \"rational_fast_ratio\": " << rational_fast_ratio(result)
      << ", \"note\": \"" << json_escape(result.note) << "\"";
  if (result.incremental) {
    out << ", \"segments_pushed\": " << result.incremental->segments_pushed
        << ", \"segments_popped\": " << result.incremental->segments_popped
        << ", \"segments_reused\": " << result.incremental->segments_reused
        << ", \"prefix_reuse_ratio\": " << result.incremental->prefix_reuse_ratio();
  }
  if (result.counterexample) {
    out << ", \"counterexample\": \"" << json_escape(result.counterexample->to_string(ta))
        << "\"";
  }
  out << "}";
  return out.str();
}

std::string render_results_json(const ta::ThresholdAutomaton& ta,
                                const std::vector<checker::PropertyResult>& results) {
  std::string out;
  const bool many = results.size() != 1;
  if (many) out += "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ",\n ";
    out += render_result_json(ta, results[i]);
  }
  if (many) out += "]";
  out += "\n";
  return out;
}

int exit_code(const std::vector<checker::PropertyResult>& results) {
  int code = 0;
  for (const checker::PropertyResult& result : results) {
    if (result.verdict == checker::Verdict::kViolated) return 1;
    if (result.verdict == checker::Verdict::kUnknown) code = 3;
  }
  return code;
}

}  // namespace hv::service
