// Canonical JSON rendering of checking results, shared by `hvc check
// --json` and the service daemon. A daemon response for a job must be
// byte-identical to what an in-process `hvc check --json` run over the same
// model/properties/options would print — that is the contract the result
// cache serves bytes under, and what the service smoke test diffs.
#ifndef HV_SERVICE_RESPONSE_H
#define HV_SERVICE_RESPONSE_H

#include <string>
#include <vector>

#include "hv/checker/result.h"
#include "hv/ta/automaton.h"

namespace hv::service {

/// One PropertyResult as a single-line JSON object (no trailing newline):
/// the exact field set and order `hvc check --json` has always printed.
std::string render_result_json(const ta::ThresholdAutomaton& ta,
                               const checker::PropertyResult& result);

/// A full run: one bare object for a single result, a "[..,\n ..]" array
/// for several, always with a trailing newline — byte-for-byte what the
/// CLI's --json output is.
std::string render_results_json(const ta::ThresholdAutomaton& ta,
                                const std::vector<checker::PropertyResult>& results);

/// Fraction of simplex Rational ops that stayed on the machine-word fast
/// path (1.0 when no arithmetic ran, e.g. a fully-resumed journal run).
double rational_fast_ratio(const checker::PropertyResult& result);

/// The CLI exit-code convention: 0 all hold, 1 any violated, 3 any unknown.
int exit_code(const std::vector<checker::PropertyResult>& results);

}  // namespace hv::service

#endif  // HV_SERVICE_RESPONSE_H
