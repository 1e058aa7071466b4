#include "hv/checker/parameterized.h"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string_view>
#include <utility>

#include "hv/checker/run.h"
#include "hv/util/rational.h"

namespace hv::checker {

bool lemmas_enabled(const CheckOptions& options) {
  if (!options.lemmas || !options.incremental || options.certify) return false;
  const char* value = std::getenv("HV_NO_LEMMAS");
  return value == nullptr || value[0] == '\0' || std::string_view(value) == "0";
}

PropertyResult check_property(const ta::ThresholdAutomaton& ta, const spec::Property& property,
                              const CheckOptions& options) {
  const int workers = std::max(1, options.workers);
  LeaseBook book(ta, std::span(&property, 1), options, workers);
  book.replay_resume();
  FaultInjector injector(book.options().fault);
  book.consume(workers, &injector);
  return std::move(book.results().front());
}

PropertyResult check_property(const ta::MultiRoundTa& ta, const spec::Property& property,
                              const CheckOptions& options) {
  return check_property(ta.one_round_reduction(), property, options);
}

std::vector<PropertyResult> check_properties(const ta::ThresholdAutomaton& ta,
                                             const std::vector<spec::Property>& properties,
                                             const CheckOptions& options) {
  std::vector<PropertyResult> results;
  results.reserve(properties.size());
  for (const spec::Property& property : properties) {
    results.push_back(check_property(ta, property, options));
    // A SIGINT/SIGTERM'd run reports what it has instead of starting the
    // next property.
    if (results.back().interrupted) break;
  }
  return results;
}

std::string options_fingerprint(const CheckOptions& options) {
  std::string fp;
  const auto field = [&](const char* key, const std::string& value) {
    fp += key;
    fp += '=';
    fp += value;
    fp += ';';
  };
  const auto num = [&](const char* key, std::int64_t value) {
    field(key, std::to_string(value));
  };
  const auto flag = [&](const char* key, bool value) { field(key, value ? "1" : "0"); };
  num("max_schemas", options.enumeration.max_schemas);
  flag("prune_implications", options.enumeration.prune_implications);
  flag("prune_dead_unlocks", options.enumeration.prune_dead_unlocks);
  field("timeout", std::to_string(options.timeout_seconds));
  num("workers", options.workers);
  flag("incremental", options.incremental);
  flag("pdp", options.property_directed_pruning);
  flag("certify", options.certify);
  // The *effective* mode, not the raw switch: folds incremental/certify
  // interactions and HV_NO_LEMMAS, so env-only changes get their own key.
  flag("lemmas", lemmas_enabled(options));
  field("schema_timeout", std::to_string(options.schema_timeout_seconds));
  num("pivot_budget", options.pivot_budget);
  num("memory_budget_mb", options.memory_budget_mb);
  flag("fast_rational", Rational::fast_path_enabled());
  if (options.fault.armed()) {
    num("fault_kind", static_cast<std::int64_t>(options.fault.kind));
    num("fault_at", options.fault.at);
    num("fault_every", options.fault.every);
    field("fault_stall", std::to_string(options.fault.stall_seconds));
  }
  return fp;
}

}  // namespace hv::checker
