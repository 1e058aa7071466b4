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
// stages relate only through the gating edges above — so the pipeline is
// really a DAG, not a sequence, and it always runs as one (hv/pipeline/dag):
// every property becomes its own node with its own journal, ready nodes run
// concurrently on dag_workers lanes (one lane by default, which visits the
// nodes in stage order), a refuted bv property cancels the whole consensus
// stage without starting it, and the composition step is an ordering-only
// node that reports whatever verdicts survived.
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
  /// composes with DAG cancellation instead of stacking a second watchdog.
  bool include_naive_attempt = false;
  double naive_timeout_seconds = 60.0;
  /// Crash-safe progress journaling (empty disables): one file per DAG
  /// node, "<prefix>.<stage>.<property>.jsonl", each header stamped with
  /// the node identity so a journal resumed into another node is refused.
  std::string journal_prefix;
  /// Resume from whatever the node journals already settled (requires
  /// journal_prefix; files that do not exist yet start fresh).
  bool resume = false;
  /// Concurrent DAG lanes, clamped to >= 1. One lane runs the nodes one at
  /// a time in stage order (naive, bv, consensus, compose).
  int dag_workers = 1;
  /// DAG progress sink: one line per node start/settle, with aggregate
  /// counts and a whole-DAG ETA. May be called from any scheduler lane
  /// (serialized by the scheduler lock); null disables.
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
  /// Lanes the DAG was scheduled on; 0 for a report assembled by hand.
  int dag_lanes = 0;
  /// DAG nodes cancelled before running (an upstream property failed, or
  /// the run was interrupted).
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
