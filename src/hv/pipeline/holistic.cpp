#include "hv/pipeline/holistic.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "hv/models/bv_broadcast.h"
#include "hv/models/naive_consensus.h"
#include "hv/models/registry.h"
#include "hv/models/simplified_consensus.h"
#include "hv/util/error.h"
#include "hv/util/hash.h"
#include "hv/util/lanes.h"
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
// degradation, the cancel flag), so an outer --timeout, pipeline cancellation
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
checker::CheckOptions node_options(const HolisticOptions& options, const char* stage,
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

/// The "[dag k/n] <key>: <event>" progress stream and the cancelled-node
/// count: k counts the settled nodes, and the ETA scales the elapsed time
/// by the unsettled share. Called from any lane; the lock orders the lines.
class NodeLog {
 public:
  NodeLog(int total, const std::function<void(const std::string&)>& sink)
      : total_(total), sink_(sink) {}

  void start(const std::string& key) { emit(key, "start", -1.0); }
  void settle(const std::string& key, bool ok, double seconds) {
    emit(key, ok ? "done" : "failed", seconds);
  }
  /// A cancelled node never ran, so it prints no time.
  void cancel(const std::string& key) { emit(key, "cancelled", -1.0); }
  /// Read once every lane has finished.
  int cancelled() const { return cancelled_; }

 private:
  /// Every event but "start" settles its node.
  void emit(const std::string& key, const std::string& event, double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (event != "start") ++settled_;
    if (event == "cancelled") ++cancelled_;
    if (!sink_) return;
    std::ostringstream os;
    os << "[dag " << settled_ << "/" << total_ << "] " << key << ": " << event;
    if (seconds >= 0.0) os << " (" << seconds << "s)";
    if (settled_ == total_) {
      os << ", eta 0s";
    } else if (settled_ > 0) {
      os << ", eta " << stopwatch_.seconds() / settled_ * (total_ - settled_) << "s";
    }
    sink_(os.str());
  }

  std::mutex mutex_;
  const Stopwatch stopwatch_;
  const int total_;
  int settled_ = 0;
  int cancelled_ = 0;
  const std::function<void(const std::string&)>& sink_;
};

/// One property-query of the pipeline and how it settled.
struct PropertyNode {
  const ta::ThresholdAutomaton* automaton = nullptr;
  const spec::Property* property = nullptr;
  checker::CheckOptions check;  // check.journal_node is the node key
  /// A bv or consensus node succeeds only when its property holds; a naive
  /// one whenever it was not interrupted.
  bool ok_needs_holds = true;
  std::optional<PropertyResult> result;
  bool ok = false;
};

bool cancel_requested(const checker::CheckOptions& check) {
  return check.cancel != nullptr && check.cancel->load(std::memory_order_relaxed);
}

void run_node(PropertyNode& node, NodeLog& log) {
  const std::string& key = node.check.journal_node;
  if (cancel_requested(node.check)) {
    log.cancel(key);
    return;
  }
  log.start(key);
  const Stopwatch watch;
  const std::string error = run_catching([&node] {
    PropertyResult result = checker::check_property(*node.automaton, *node.property, node.check);
    node.ok = !result.interrupted &&
              (!node.ok_needs_holds || result.verdict == Verdict::kHolds);
    node.result = std::move(result);
  });
  const double seconds = watch.seconds();
  if (!error.empty()) {
    // A node that threw (a journal resumed into the wrong node, an
    // allocation failure) reports as unknown with the message as its note
    // instead of vanishing from the report.
    node.result.emplace();
    node.result->property = node.property->name;
    node.result->note = error;
    node.result->seconds = seconds;
  }
  log.settle(key, node.ok, seconds);
}

/// The results of nodes [from, to) that ran, in property order.
std::vector<PropertyResult> collect(std::vector<PropertyNode>& nodes, std::size_t from,
                                    std::size_t to) {
  std::vector<PropertyResult> results;
  for (std::size_t i = from; i < to; ++i) {
    if (nodes[i].result) results.push_back(std::move(*nodes[i].result));
  }
  return results;
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

  // One node per property in stage order (naive, bv, consensus). Each node
  // keeps its result in its own slot, so the report is ordered like the
  // property lists at any lane count, whatever the completion order was.
  std::vector<PropertyNode> nodes;
  const auto add_nodes = [&](const char* stage, const ta::ThresholdAutomaton& automaton,
                             const std::vector<spec::Property>& properties) {
    for (const spec::Property& property : properties) {
      PropertyNode& node = nodes.emplace_back();
      node.automaton = &automaton;
      node.property = &property;
      node.check = node_options(options, stage, property.name);
    }
  };
  if (naive) add_nodes("naive", *naive, naive_props);
  for (PropertyNode& node : nodes) {  // the naive nodes, the only ones so far
    node.ok_needs_holds = false;
    apply_naive_budget(node.check, options.naive_timeout_seconds);
    // Re-stamp the identity: the budget tightened the timeout, and the node
    // key must fingerprint the options the node actually runs under.
    node.check.journal_node = node_key("naive", node.property->name, node.check);
  }
  const std::size_t bv_begin = nodes.size();
  add_nodes("bv", bv, bv_props);
  const std::size_t consensus_begin = nodes.size();
  add_nodes("consensus", consensus, consensus_props);

  NodeLog log(static_cast<int>(nodes.size()) + 1, options.on_progress);  // + the composition
  const auto run_stage = [&](std::size_t from, std::size_t to) {
    const std::vector<std::string> errors = run_lanes(
        to - from, report.dag_lanes, [&](std::size_t i) { run_node(nodes[from + i], log); });
    // run_node turns a throwing property into its result, so what reaches
    // the pool came from the progress log; it is the caller's to handle.
    for (const std::string& error : errors) {
      if (!error.empty()) throw InternalError("pipeline progress log threw: " + error);
    }
  };

  // Stage 1: the naive attempt (only the negative result motivating the
  // decomposition, so nothing waits on its verdicts) and the seven
  // bv-broadcast properties, which gate the gadget justification.
  run_stage(0, consensus_begin);

  // Stage 2: the consensus properties rest on the gadget, so a bv property
  // that did not hold cancels them all before any starts.
  const bool gadget = std::all_of(nodes.begin() + static_cast<std::ptrdiff_t>(bv_begin),
                                  nodes.begin() + static_cast<std::ptrdiff_t>(consensus_begin),
                                  [](const PropertyNode& node) { return node.ok; });
  if (gadget && !cancel_requested(options.check)) {
    run_stage(consensus_begin, nodes.size());
  } else {
    for (std::size_t i = consensus_begin; i < nodes.size(); ++i) {
      log.cancel(nodes[i].check.journal_node);
    }
  }

  // Stage 3: Theorem-6 recomposition reports whatever verdicts settled,
  // unknown included; an interrupted run only cancels its progress node.
  const std::string compose_key = node_key("compose", "theorem6", options.check);
  const bool interrupted = cancel_requested(options.check);
  if (!interrupted) log.start(compose_key);
  const Stopwatch compose_watch;
  report.naive_results = collect(nodes, 0, bv_begin);
  report.bv_results = collect(nodes, bv_begin, consensus_begin);
  report.consensus_results = collect(nodes, consensus_begin, nodes.size());
  compose_verdicts(report);
  if (interrupted) {
    log.cancel(compose_key);
  } else {
    log.settle(compose_key, true, compose_watch.seconds());
  }

  report.nodes_cancelled = log.cancelled();
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
