// Schema enumeration — the core of the ByMC-style parameterized checker
// [Konnov, Lazić, Veith, Widder, POPL'17].
//
// All guards of the paper's automata are monotone rise guards, so along any
// execution the set of true guards only grows. A *schema* fixes:
//   * the order in which guards unlock (a chain of growing contexts), and
//   * for each property cut point, the segment in which it is witnessed.
//
// Within one segment the context is constant; because the automaton is a
// DAG (up to self-loops), any in-segment execution can be reordered into a
// single topological pass where each rule fires once with an acceleration
// factor (a classical mover argument: a rule's source is only fed by
// topologically earlier rules, so moving earlier-topo rules first never
// disables anything). The SMT encoder (encoder.h) then asks whether *some*
// parameters, initial configuration and acceleration factors realize the
// schema together with the query constraints. The property holds iff every
// schema is unsatisfiable for every query.
//
// Enumeration prunes:
//   * implication order: a guard cannot unlock strictly before a guard it
//     implies (decided exactly under the resilience condition);
//   * dead unlocks: a guard can only be appended if some rule incrementing
//     it is fireable under the current context (source reachable, guards
//     unlocked), or the guard can hold with all-zero shared variables.
// Both prunings are sound: they only discard chains no execution realizes.
#ifndef HV_CHECKER_SCHEMA_H
#define HV_CHECKER_SCHEMA_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hv/checker/guard_analysis.h"

namespace hv::checker {

struct Schema {
  /// Guard indices in unlock order; segment i runs under the context
  /// {unlock_order[0..i)}. There are unlock_order.size()+1 segments.
  std::vector<int> unlock_order;
  /// One entry per property cut, non-decreasing: the segment in which the
  /// cut is witnessed (the segment is split at the cut point).
  std::vector<int> cut_positions;

  int segment_count() const noexcept { return static_cast<int>(unlock_order.size()) + 1; }
};

/// How one schema settled: the cone pruned it, the solver refuted it
/// (unsat) or found a witness (sat), or it degraded to unknown. record.h
/// alone spells it in text.
enum class SchemaVerdict { kPruned, kUnsat, kSat, kUnknown };

/// One settled (query, schema) unit, whichever executor settled it: a
/// lease consumer (an in-process thread or the coordinator's own solver), a
/// fleet worker, or a journal replay. It holds only what the solve does not
/// know; the solve's counters and evidence travel beside it in its
/// UnitOutcome (result.h). PropertyTally::count (result.h) is the only
/// place the pair turns into counters; record.h is its one codec, which the
/// journal (journal.h) and the worker's record frames (dist/protocol.h)
/// share.
struct SchemaRecord {
  /// schema_cursor; empty when the book keeps no cursors (run.h).
  std::string cursor;
  SchemaVerdict verdict = SchemaVerdict::kUnknown;
  /// Unsat only: the refutation used just the first `cut` chain elements,
  /// so every schema extending that prefix is unsat too (-1: no cut).
  std::int64_t cut = -1;
};

/// Stable identity of one (query, schema) work unit within a property run:
/// the enumeration is deterministic, so the cursor names the same schema in
/// every run over the same automaton and property.
std::string schema_cursor(std::size_t query_index, const Schema& schema);

/// Inverse of schema_cursor: parses "q<idx>|a,b,c|d,e" back into the query
/// index and schema content. Returns false on malformed input. Used by the
/// distributed coordinator to reconstruct schemas from streamed verdict
/// records (and by tests).
bool parse_schema_cursor(const std::string& cursor, std::size_t* query_index, Schema* schema);

struct EnumerationOptions {
  bool prune_implications = true;
  bool prune_dead_unlocks = true;
  /// Stop after this many schemas (budget exhausted -> enumeration reports
  /// incompleteness).
  std::int64_t max_schemas = 1'000'000;
};

struct EnumerationOutcome {
  std::int64_t schemas = 0;
  bool budget_exhausted = false;
  bool stopped_by_callback = false;
};

/// Calls `visit` for every schema with `cut_count` cut points. The callback
/// returns false to stop enumeration early (e.g. a counterexample was
/// found).
EnumerationOutcome enumerate_schemas(const GuardAnalysis& analysis, int cut_count,
                                     const EnumerationOptions& options,
                                     const std::function<bool(const Schema&)>& visit);

/// A unit of enumeration work: a node of the chain tree. With
/// `include_extensions` the whole DFS subtree rooted at `prefix` (prefix
/// included), without it just the chain == prefix itself (its cut
/// placements). Handing a worker a subtree instead of single schemas keeps
/// consecutive schemas on one worker sharing long chain prefixes — which is
/// what the incremental encoder's assertion stack feeds on.
struct SubtreeTask {
  std::vector<int> prefix;
  bool include_extensions = false;
};

/// Splits the chain tree into DFS-ordered tasks: one node-only task per
/// admissible chain strictly shorter than `depth`, one full-subtree task per
/// chain of exactly `depth`. Together the tasks cover every schema exactly
/// once, in the same DFS order as enumerate_schemas.
std::vector<SubtreeTask> partition_subtrees(const GuardAnalysis& analysis, int depth,
                                            const EnumerationOptions& options);

/// Work units for `workers` concurrent consumers: the shallowest
/// partition_subtrees depth giving every consumer at least four tasks (or
/// the deepest there is). Deep enough to load-balance, shallow enough that
/// one task spans many schemas sharing a chain prefix, which is what the
/// incremental encoder feeds on.
std::vector<SubtreeTask> plan_tasks(const GuardAnalysis& analysis, int workers,
                                    const EnumerationOptions& options);

/// Enumerates the schemas of one task, mirroring enumerate_schemas' DFS
/// order within the subtree. The prefix must be an admissible chain (as
/// produced by partition_subtrees).
EnumerationOutcome enumerate_schemas_under(const GuardAnalysis& analysis,
                                           const SubtreeTask& task, int cut_count,
                                           const EnumerationOptions& options,
                                           const std::function<bool(const Schema&)>& visit);

/// Number of chains only (no cut placement), for reporting.
std::int64_t count_chains(const GuardAnalysis& analysis, const EnumerationOptions& options);

}  // namespace hv::checker

#endif  // HV_CHECKER_SCHEMA_H
