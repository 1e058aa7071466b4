// The checker replay of the traced run: check_property's single-threaded
// loop re-walked through the checker's public API, with a span around every
// call into a layer.
//
// For each property it builds a GuardAnalysis and one QueryCone per query,
// then walks enumerate_schemas. Each schema goes through CutIndex::covers,
// QueryCone::schema_feasible and SchemaSolver::solve (with
// SolveHooks::learning set when learning is on); an unsat outcome's
// UnitOutcome::cut_prefix is added to the CutIndex, as settle_unit does. The
// accounting it returns must equal an untraced check_property's on the same
// input (parity_mismatch); otherwise the per-layer numbers would describe
// some other program than the one under test.
#ifndef HV_PERFBENCH_REPLAY_H
#define HV_PERFBENCH_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "hv/checker/parameterized.h"
#include "hv/checker/result.h"
#include "hv/spec/query.h"
#include "hv/ta/automaton.h"
#include "trace.h"

namespace perfbench {

/// Per-layer figures a replay gathers beyond what PropertyResult holds,
/// summed over every property replayed into the same object.
struct ReplayLayers {
  std::int64_t schemas_enumerated = 0;
  /// enumerate_schemas' own time: its span minus the callbacks it ran.
  double enumerate_self_s = 0.0;
  /// Wall time of each SchemaSolver::solve call, in milliseconds.
  std::vector<double> solve_ms;
  double slowest_solve_ms = -1.0;
  std::string slowest_cursor;
};

/// Replays one property. `record_cuts` = false skips the CutIndex::add step;
/// only the benchmark's self-test uses it, to force a replay whose
/// accounting diverges from check_property's.
hv::checker::PropertyResult replay_property(const hv::ta::ThresholdAutomaton& ta,
                                            const hv::spec::Property& property,
                                            const hv::checker::CheckOptions& options,
                                            Tracer& tracer, ReplayLayers& layers,
                                            bool record_cuts = true);

/// Empty iff the replay's verdict and accounting (solved, pruned, cut and
/// unknown schemas, pivots, rational ops, lemma activity, retries, pushed
/// and popped segments) equal the reference's; otherwise names the first
/// field that differs.
std::string parity_mismatch(const hv::checker::PropertyResult& replay,
                            const hv::checker::PropertyResult& reference);

}  // namespace perfbench

#endif  // HV_PERFBENCH_REPLAY_H
