// The holistic verification pipeline of the paper, end to end:
//
//   1. model-check the binary value broadcast TA (Fig. 2) — all four
//      properties, both values (Section 3.2);
//   2. on success, the bv-broadcast gadget inside the simplified consensus
//      TA (Fig. 4) is justified, and its Appendix-F specification is
//      checked: Inv1/Inv2 (safety), Dec/Good/SRoundTerm (liveness
//      ingredients);
//   3. the verdicts compose into the consensus properties:
//        Agreement, Validity  <-  Inv1_v && Inv2_v        [10, Prop. 2]
//        Termination (under the fairness of Def. 3)
//                             <-  SRoundTerm && Dec_v && Good_v
//                                 (Theorem 6)
//
// The composition logic is ordinary code — exactly the glue proof of
// Theorem 6 — and is itself unit-tested.
//
// The property-queries inside each stage are logically independent, and the
// stages relate only through the gate above, so the pipeline runs in three
// fixed stages on a small lane pool (hv/util/lanes.h): (1) the naive attempt
// when asked for, which gates nothing, and the bv-broadcast properties; (2)
// the consensus properties, only if every bv property holds; (3) the
// composition, which reports whatever verdicts survived. Every property is a
// node with its own key and journal; each stage runs its nodes on
// dag_workers lanes (one lane by default, which visits them in stage order).
#ifndef HV_PIPELINE_HOLISTIC_H
#define HV_PIPELINE_HOLISTIC_H

#include <functional>
#include <string>
#include <vector>

#include "hv/checker/parameterized.h"
#include "hv/checker/result.h"

namespace hv::pipeline {

struct HolisticOptions {
  checker::CheckOptions check;
  /// Also attempt the naive composite automaton first (Table 2's negative
  /// result); bounded by naive_timeout_seconds. The budget *tightens* the
  /// shared CheckOptions deadline (it never loosens an outer --timeout), so
  /// it flows through the schema solver's own watchdog/retry path and
  /// composes with pipeline cancellation instead of stacking a second
  /// watchdog.
  bool include_naive_attempt = false;
  double naive_timeout_seconds = 60.0;
  /// Crash-safe progress journaling (empty disables): one file per
  /// property node, "<prefix>.<stage>.<property>.jsonl", each header stamped with
  /// the node identity so a journal resumed into another node is refused.
  std::string journal_prefix;
  /// Resume from whatever the node journals already settled (requires
  /// journal_prefix; files that do not exist yet start fresh).
  bool resume = false;
  /// Concurrent lanes per stage, clamped to >= 1. One lane runs the nodes
  /// one at a time in stage order (naive, bv, consensus, compose).
  int dag_workers = 1;
  /// Progress sink: one "[dag k/n] <key>: ..." line per node start/settle,
  /// with the settled count and an ETA for the whole run. Called from any
  /// lane, one line at a time; null disables.
  std::function<void(const std::string& line)> on_progress;
};

struct HolisticReport {
  std::vector<checker::PropertyResult> bv_results;
  std::vector<checker::PropertyResult> consensus_results;
  std::vector<checker::PropertyResult> naive_results;  // when attempted

  checker::Verdict agreement = checker::Verdict::kUnknown;
  checker::Verdict validity = checker::Verdict::kUnknown;
  /// Termination under the fairness assumption of Definition 3.
  checker::Verdict termination = checker::Verdict::kUnknown;

  /// End-to-end wall-clock of the run.
  double total_seconds = 0.0;
  /// Sum of per-property solve times. Equal to wall-clock (minus glue) on
  /// one lane; a concurrent run's wall-clock under-reports the work
  /// actually spent, so both are reported.
  double cpu_seconds = 0.0;
  /// Lanes the stages ran on; 0 for a report assembled by hand.
  int dag_lanes = 0;
  /// Nodes (properties and the composition) cancelled before running: a bv
  /// property did not hold, or the run was interrupted.
  int nodes_cancelled = 0;

  /// True iff every checked property of both automata holds and Agreement,
  /// Validity and Termination compose to holds (so a property missing from
  /// the report is never a silent success).
  bool fully_verified() const;
  /// Multi-line human-readable account of the run.
  std::string to_string() const;
};

/// Runs the whole pipeline on the paper's models. A property node that
/// threw (e.g. its journal belongs to another node) reports as unknown with
/// the exception's message as its note.
HolisticReport verify_red_belly_consensus(const HolisticOptions& options = {});

/// The composition step alone (exposed for tests): derives the consensus
/// verdicts from per-property results named as in the paper. Pure in the
/// order-insensitive sense: verdicts depend only on the *set* of results,
/// never on the completion order that produced them.
void compose_verdicts(HolisticReport& report);

}  // namespace hv::pipeline

#endif  // HV_PIPELINE_HOLISTIC_H
