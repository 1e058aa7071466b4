#include "hv/pipeline/holistic.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "hv/models/bv_broadcast.h"
#include "hv/models/naive_consensus.h"
#include "hv/models/registry.h"
#include "hv/models/simplified_consensus.h"
#include "hv/pipeline/dag/scheduler.h"
#include "hv/util/hash.h"
#include "hv/util/stopwatch.h"

namespace hv::pipeline {

namespace {

using checker::PropertyResult;
using checker::Verdict;

// Combines dependencies: all hold -> holds; any violated -> violated;
// otherwise unknown.
Verdict combine(const std::vector<const PropertyResult*>& dependencies) {
  bool all_hold = true;
  for (const PropertyResult* result : dependencies) {
    if (result == nullptr) return Verdict::kUnknown;
    if (result->verdict == Verdict::kViolated) return Verdict::kViolated;
    if (result->verdict != Verdict::kHolds) all_hold = false;
  }
  return all_hold ? Verdict::kHolds : Verdict::kUnknown;
}

const PropertyResult* find(const std::vector<PropertyResult>& results, const std::string& name) {
  const auto it = std::find_if(results.begin(), results.end(),
                               [name](const PropertyResult& r) { return r.property == name; });
  return it == results.end() ? nullptr : &*it;
}

// The naive attempt's budget used to replace the run timeout wholesale — a
// second watchdog layered over the one the schema solver's retry ladder
// already owns. Instead it *tightens* the shared CheckOptions deadline:
// the tightened timeout flows through check_property's single
// deadline/cancellation path (per-schema remaining-time clamps, watchdog
// degradation, the cancel flag), so an outer --timeout, DAG cancellation
// and this budget compose through one mechanism.
void apply_naive_budget(checker::CheckOptions& check, double budget_seconds) {
  if (budget_seconds <= 0.0) return;
  if (check.timeout_seconds <= 0.0 || budget_seconds < check.timeout_seconds) {
    check.timeout_seconds = budget_seconds;
  }
}

double sum_seconds(const HolisticReport& report) {
  double total = 0.0;
  for (const auto* results :
       {&report.naive_results, &report.bv_results, &report.consensus_results}) {
    for (const PropertyResult& result : *results) total += result.seconds;
  }
  return total;
}

/// 16-hex-digit FNV-1a of the options fingerprint: the node identity stays
/// readable in journal headers while still pinning every verdict-relevant
/// option.
std::string fingerprint_hash(const checker::CheckOptions& check) {
  return hex16(fnv1a(checker::options_fingerprint(check)));
}

/// Node identity: stage, property and the fingerprint of every option that
/// can change what the node computes. Two runs produce the same key iff
/// their nodes are interchangeable — this is what per-node journals are
/// keyed on.
std::string node_key(const char* stage, const std::string& property,
                     const checker::CheckOptions& check) {
  return std::string(stage) + "." + property + "#" + fingerprint_hash(check);
}

/// Per-node checker options: one journal per node, bound to the node
/// identity so --resume cannot feed one node's cursors to another.
checker::CheckOptions dag_node_options(const HolisticOptions& options, const char* stage,
                                       const std::string& property) {
  checker::CheckOptions check = options.check;
  check.journal_node = node_key(stage, property, check);
  if (!options.journal_prefix.empty()) {
    const std::string path =
        options.journal_prefix + "." + stage + "." + property + ".jsonl";
    check.journal_path = path;
    if (options.resume && std::ifstream(path).good()) check.resume_path = path;
  }
  return check;
}

std::string format_eta(const dag::Progress& progress) {
  if (progress.eta_seconds < 0.0) return "";
  std::ostringstream os;
  os << ", eta " << progress.eta_seconds << "s";
  return os.str();
}

}  // namespace

HolisticReport verify_red_belly_consensus(const HolisticOptions& options) {
  const Stopwatch stopwatch;
  HolisticReport report;
  report.dag_lanes = std::max(1, options.dag_workers);

  const ta::ThresholdAutomaton bv = models::bv_broadcast();
  const std::vector<spec::Property> bv_props = models::bv_properties(bv);
  const ta::ThresholdAutomaton consensus = models::simplified_consensus_one_round();
  const std::vector<spec::Property> consensus_props = models::simplified_properties(consensus);
  std::optional<ta::ThresholdAutomaton> naive;
  std::vector<spec::Property> naive_props;
  if (options.include_naive_attempt) {
    naive.emplace(models::naive_consensus_one_round());
    naive_props = models::naive_table2_properties(*naive);
  }

  // Results land in pre-allocated slots indexed like the property lists, so
  // the report (and any certificate emitted from it) is ordered like the
  // property lists at any lane count, whatever the completion order was.
  // Unfilled slots (cancelled nodes never started) are compacted away.
  std::vector<std::optional<PropertyResult>> naive_slots(naive_props.size());
  std::vector<std::optional<PropertyResult>> bv_slots(bv_props.size());
  std::vector<std::optional<PropertyResult>> consensus_slots(consensus_props.size());

  struct PropertyNode {
    dag::NodeId id;
    const spec::Property* property;
    std::optional<PropertyResult>* slot;
  };
  dag::Graph graph;
  std::vector<PropertyNode> property_nodes;
  const auto property_node = [&](const ta::ThresholdAutomaton& automaton,
                                 const spec::Property& property,
                                 std::optional<PropertyResult>& slot,
                                 checker::CheckOptions check, std::vector<dag::NodeId> deps,
                                 bool ok_needs_holds) {
    const dag::NodeId id = graph.add(
        check.journal_node,
        [&automaton, &property, &slot, check, ok_needs_holds] {
          PropertyResult result = checker::check_property(automaton, property, check);
          const bool ok =
              !result.interrupted && (!ok_needs_holds || result.verdict == Verdict::kHolds);
          slot = std::move(result);
          return ok;
        },
        std::move(deps));
    property_nodes.push_back({id, &property, &slot});
    return id;
  };

  // The naive attempt is free-floating: nothing depends on it (the paper
  // uses it only as the negative result motivating the decomposition).
  for (std::size_t i = 0; i < naive_props.size(); ++i) {
    checker::CheckOptions check = dag_node_options(options, "naive", naive_props[i].name);
    apply_naive_budget(check, options.naive_timeout_seconds);
    // Re-stamp the identity: the budget tightened the timeout, and the node
    // key must fingerprint the options the node actually runs under.
    check.journal_node = node_key("naive", naive_props[i].name, check);
    property_node(*naive, naive_props[i], naive_slots[i], std::move(check), {},
                  /*ok_needs_holds=*/false);
  }

  // The eight bv-broadcast nodes gate the gadget justification: every
  // consensus node depends on all of them, so one refuted bv property
  // cancels the entire consensus stage before it starts.
  std::vector<dag::NodeId> gadget;
  for (std::size_t i = 0; i < bv_props.size(); ++i) {
    gadget.push_back(property_node(bv, bv_props[i], bv_slots[i],
                                   dag_node_options(options, "bv", bv_props[i].name), {},
                                   /*ok_needs_holds=*/true));
  }
  for (std::size_t i = 0; i < consensus_props.size(); ++i) {
    property_node(consensus, consensus_props[i], consensus_slots[i],
                  dag_node_options(options, "consensus", consensus_props[i].name), gadget,
                  /*ok_needs_holds=*/true);
  }

  const auto compact = [](std::vector<std::optional<PropertyResult>>& slots) {
    std::vector<PropertyResult> results;
    results.reserve(slots.size());
    for (std::optional<PropertyResult>& slot : slots) {
      if (slot) results.push_back(std::move(*slot));
    }
    return results;
  };
  bool composed = false;
  const auto finalize = [&] {
    // A node that threw (a journal resumed into the wrong node, an
    // allocation failure) left no result; it reports as unknown with the
    // message as its note instead of vanishing from the report.
    for (const PropertyNode& node : property_nodes) {
      const dag::Node& settled = graph.node(node.id);
      if (*node.slot || settled.error.empty()) continue;
      PropertyResult thrown;
      thrown.property = node.property->name;
      thrown.note = settled.error;
      thrown.seconds = settled.seconds;
      *node.slot = std::move(thrown);
    }
    report.naive_results = compact(naive_slots);
    report.bv_results = compact(bv_slots);
    report.consensus_results = compact(consensus_slots);
    compose_verdicts(report);
    composed = true;
  };
  // Theorem-6 recomposition is ordering-only: it waits for every node but
  // runs whatever the outcomes were — a partially failed pipeline still
  // reports its composed (unknown) verdicts.
  std::vector<dag::NodeId> all_nodes;
  for (const PropertyNode& node : property_nodes) all_nodes.push_back(node.id);
  graph.add(node_key("compose", "theorem6", options.check),
            [&finalize] {
              finalize();
              return true;
            },
            all_nodes, /*gated=*/false);

  dag::RunOptions run_options;
  run_options.lanes = report.dag_lanes;
  run_options.cancel = options.check.cancel;
  if (options.on_progress) {
    run_options.observer = [&options](dag::Event event, const dag::Node& node,
                                      const dag::Progress& progress) {
      std::ostringstream os;
      os << "[dag " << progress.settled << "/" << progress.total << "] " << node.key;
      if (event == dag::Event::kStart) {
        os << ": start";
      } else {
        os << ": " << dag::to_string(node.status);
        if (node.status != dag::NodeStatus::kCancelled) os << " (" << node.seconds << "s)";
      }
      os << format_eta(progress);
      options.on_progress(os.str());
    };
  }
  const dag::RunStats stats = dag::run(graph, run_options);
  // An interrupted run cancels the compose node with everything else; the
  // report still owes whatever verdicts settled before the interrupt.
  if (!composed) finalize();

  report.nodes_cancelled = stats.nodes_cancelled;
  report.total_seconds = stopwatch.seconds();
  report.cpu_seconds = sum_seconds(report);
  return report;
}

bool HolisticReport::fully_verified() const {
  const auto all_hold = [](const std::vector<PropertyResult>& results) {
    return std::all_of(results.begin(), results.end(), [](const PropertyResult& r) {
      return r.verdict == Verdict::kHolds;
    });
  };
  return !bv_results.empty() && !consensus_results.empty() && all_hold(bv_results) &&
         all_hold(consensus_results) && agreement == Verdict::kHolds &&
         validity == Verdict::kHolds && termination == Verdict::kHolds;
}

void compose_verdicts(HolisticReport& report) {
  // The gadget inside the simplified TA is justified only if every
  // bv-broadcast property holds; its verdicts gate everything downstream.
  std::vector<const PropertyResult*> gadget;
  for (const PropertyResult& result : report.bv_results) gadget.push_back(&result);

  const auto rests_on = [&](const std::vector<std::string>& names) {
    std::vector<const PropertyResult*> own;
    for (const std::string& name : names) own.push_back(find(report.consensus_results, name));
    own.insert(own.end(), gadget.begin(), gadget.end());
    return combine(own);
  };
  const models::Theorem6Dependencies& theorem6 = models::theorem6_dependencies();
  report.agreement = rests_on(theorem6.agreement);
  report.validity = rests_on(theorem6.validity);
  report.termination = rests_on(theorem6.termination);
}

std::string HolisticReport::to_string() const {
  std::ostringstream os;
  const auto section = [&os](const char* title, const std::vector<PropertyResult>& results) {
    if (results.empty()) return;
    os << title << "\n";
    for (const PropertyResult& result : results) {
      os << "  " << result.property << ": " << checker::to_string(result.verdict) << " ("
         << result.schemas_checked << " schemas, " << result.seconds << "s)";
      if (!result.note.empty()) os << " [" << result.note << "]";
      os << "\n";
    }
  };
  section("naive composite automaton (expected to exhaust its budget):", naive_results);
  section("binary value broadcast (Fig. 2):", bv_results);
  section("simplified consensus (Fig. 4, Appendix F):", consensus_results);
  os << "composed verdicts:\n";
  os << "  Agreement:  " << checker::to_string(agreement) << "\n";
  os << "  Validity:   " << checker::to_string(validity) << "\n";
  os << "  Termination (under Definition 3 fairness): " << checker::to_string(termination)
     << "\n";
  if (dag_lanes > 0) {
    os << "dag: " << dag_lanes << " lane(s)";
    if (nodes_cancelled > 0) os << ", " << nodes_cancelled << " node(s) cancelled";
    os << "\n";
  }
  os << "total time: " << total_seconds << "s wall, " << cpu_seconds << "s cpu\n";
  return os.str();
}

}  // namespace hv::pipeline
