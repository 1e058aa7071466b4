// hvbench: the measuring program of the repository benchmark (run it
// through perfbench/run.py, which builds it and stamps the result).
//
//   hvbench --workload <redbelly|naive_inv1|certify_audit|fleet> --seed N
//           --seconds S --trace <0|1> [--trace-out FILE] [--source-id ID]
//   hvbench --selftest
//
// Every workload is a closed loop: one caller runs one verification job at
// a time, in this process, calling the library directly. --trace 0 repeats
// the job untraced for S seconds and reports the end-to-end metrics as
// medians over the jobs, with times scaled to the reference host speed (see
// calibrate.h); --trace 1 runs the job once untraced and once traced, and
// reports the per-layer metrics in plain seconds. The last line of standard
// output is the result object; failures are listed on standard error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hv/cert/audit.h"
#include "hv/cert/certificate.h"
#include "hv/cert/emit.h"
#include "hv/checker/parameterized.h"
#include "hv/checker/schema.h"
#include "hv/dist/local.h"
#include "hv/dist/protocol.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/naive_consensus.h"
#include "hv/models/simplified_consensus.h"
#include "hv/pipeline/holistic.h"
#include "hv/ta/parser.h"
#include "calibrate.h"
#include "replay.h"
#include "trace.h"

#ifndef HVBENCH_BUILD_TYPE
#define HVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HVBENCH_COMPILER
#define HVBENCH_COMPILER __VERSION__
#endif

namespace {

using namespace perfbench;
namespace checker = hv::checker;
namespace cert = hv::cert;
namespace dist = hv::dist;
namespace models = hv::models;
namespace pipeline = hv::pipeline;
namespace spec = hv::spec;
namespace ta = hv::ta;

using checker::PropertyResult;
using checker::Verdict;

/// Set-up takes under a millisecond, so it is repeated in bursts of this
/// length, one before every job, and reported as the median of all repeats.
/// Spread over the run like this, the repeats meet the same host as the jobs
/// do, rather than whatever the host was doing in the run's first moment.
constexpr double kSetupBurstSeconds = 0.04;
constexpr int kMinSetupRepeats = 5;
/// The traced run sets up in one burst of this length.
constexpr double kTracedSetupSeconds = 0.5;
/// Fork-local fleet size: coordinator plus two workers fits a 4-core host.
constexpr int kFleetWorkers = 2;

// --- measurement helpers ----------------------------------------------------

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank percentile of an ascending list.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size()))), 1,
      sorted.size());
  return sorted[rank - 1];
}

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User + system time of this process and of its reaped children.
double cpu_seconds(bool children_only = false) {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const double child = timeval_seconds(children.ru_utime) + timeval_seconds(children.ru_stime);
  if (children_only) return child;
  return child + timeval_seconds(self.ru_utime) + timeval_seconds(self.ru_stime);
}

/// Peak resident set of this process or of its largest reaped child, in MB.
/// This process's own peak is VmHWM, the high-water mark of its address
/// space: getrusage's ru_maxrss would also carry the peak of the process
/// image that exec'd it (the Python launcher).
double peak_rss_mb() {
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stod(line.substr(6));
  }
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::string number(double value) {
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (error != std::errc()) return "0";
  return std::string(buffer, end);
}

// --- metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"verdict_ref_s", "s"}, {"cpu_ref_s", "s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"}};

constexpr MetricDef kPerLayer[] = {
    {"checker.analysis_s", "s"},          {"checker.enumerate_s", "s"},
    {"checker.schemas_enumerated", "count"}, {"checker.cut_s", "s"},
    {"checker.schemas_cut", "count"},     {"checker.cone_s", "s"},
    {"checker.schemas_pruned", "count"},  {"checker.solve_s", "s"},
    {"checker.schemas_solved", "count"},  {"checker.solve_p50_ms", "ms"},
    {"checker.solve_p99_ms", "ms"},       {"checker.solve_max_ms", "ms"},
    {"checker.retries", "count"},         {"checker.schemas_unknown", "count"},
    {"checker.segments_pushed", "count"}, {"checker.segments_popped", "count"},
    {"checker.prefix_reuse_ratio", "ratio"},
    {"smt.pivots", "count"},              {"smt.rational_fast_ops", "count"},
    {"smt.rational_big_ops", "count"},    {"smt.lemma_hits", "count"},
    {"smt.lemmas_learned", "count"},      {"smt.lemma_hit_ratio", "ratio"},
    {"cert.certify_s", "s"},              {"cert.emit_s", "s"},
    {"cert.serialize_s", "s"},            {"cert.parse_s", "s"},
    {"cert.audit_s", "s"},                {"cert.bytes", "B"},
    {"cert.farkas_leaves", "count"},      {"cert.schemas_covered", "count"},
    {"cert.audit_leaves_per_s", "1/s"},
    {"dist.leases_granted", "count"},     {"dist.leases_reassigned", "count"},
    {"dist.workers_lost", "count"},       {"dist.leases_self_solved", "count"},
    {"dist.worker_cpu_s", "s"},           {"dist.worker_busy_share", "ratio"},
    {"setup.models_s", "s"},              {"setup.properties_s", "s"},
    {"pipeline.properties", "count"},
    {"trace.unattributed_share", "ratio"}, {"trace.overhead_share", "ratio"},
    {"host.kernel_ms", "ms"},
};

/// Metric values of one run; every name of the emitted table is present.
class Figures {
 public:
  template <std::size_t N>
  explicit Figures(const MetricDef (&defs)[N]) : defs_(defs, defs + N) {
    for (const MetricDef& def : defs_) values_[def.name] = 0.0;
  }
  double& operator[](const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      std::cerr << "hvbench: unknown metric " << name << "\n";
      std::abort();
    }
    return it->second;
  }
  std::string to_json() const {
    std::string out = "{";
    for (const MetricDef& def : defs_) {
      if (out.size() > 1) out += ", ";
      out += json_quote(def.name) + ": {\"value\": " + number(values_.at(def.name)) +
             ", \"unit\": " + json_quote(def.unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
};

/// Operations attempted and failed, with the reason of each failure.
struct Tally {
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  void count(const std::string& what, const std::string& failure) {
    ++attempted;
    if (!failure.empty()) failures.push_back(what + ": " + failure);
  }
};

// --- shared checker figures -------------------------------------------------

/// Folds replayed properties into the checker and smt per-layer metrics;
/// returns the seconds their named spans cover.
double add_checker_figures(Figures& figures, const std::vector<PropertyResult>& replayed,
                           const ReplayLayers& layers, const Tracer& tracer) {
  checker::IncrementalStats incremental;
  std::int64_t solved = 0, pruned = 0, cut = 0, unknown = 0, retries = 0, pivots = 0;
  std::int64_t fast = 0, big = 0, hits = 0, learned = 0;
  for (const PropertyResult& result : replayed) {
    solved += result.schemas_checked;
    pruned += result.schemas_pruned;
    cut += result.schemas_cut;
    unknown += result.schemas_unknown;
    retries += result.retries;
    pivots += result.simplex_pivots;
    fast += result.rational_fast_ops;
    big += result.rational_big_ops;
    hits += result.lemma_hits;
    learned += result.lemmas_learned;
    if (result.incremental) {
      incremental.segments_pushed += result.incremental->segments_pushed;
      incremental.segments_popped += result.incremental->segments_popped;
      incremental.segments_reused += result.incremental->segments_reused;
      incremental.schemas_encoded += result.incremental->schemas_encoded;
    }
  }
  std::vector<double> solve_ms = layers.solve_ms;
  std::sort(solve_ms.begin(), solve_ms.end());
  const double analysis = tracer.seconds(Layer::kAnalysis);
  const double cut_s = tracer.seconds(Layer::kCut);
  const double cone_s = tracer.seconds(Layer::kCone);
  const double solve_s = tracer.seconds(Layer::kSolve);
  figures["checker.analysis_s"] = analysis;
  figures["checker.enumerate_s"] = layers.enumerate_self_s;
  figures["checker.schemas_enumerated"] = static_cast<double>(layers.schemas_enumerated);
  figures["checker.cut_s"] = cut_s;
  figures["checker.schemas_cut"] = static_cast<double>(cut);
  figures["checker.cone_s"] = cone_s;
  figures["checker.schemas_pruned"] = static_cast<double>(pruned);
  figures["checker.solve_s"] = solve_s;
  figures["checker.schemas_solved"] = static_cast<double>(solved);
  figures["checker.solve_p50_ms"] = percentile(solve_ms, 0.50);
  figures["checker.solve_p99_ms"] = percentile(solve_ms, 0.99);
  figures["checker.solve_max_ms"] = solve_ms.empty() ? 0.0 : solve_ms.back();
  figures["checker.retries"] = static_cast<double>(retries);
  figures["checker.schemas_unknown"] = static_cast<double>(unknown);
  figures["checker.segments_pushed"] = static_cast<double>(incremental.segments_pushed);
  figures["checker.segments_popped"] = static_cast<double>(incremental.segments_popped);
  figures["checker.prefix_reuse_ratio"] = incremental.prefix_reuse_ratio();
  figures["smt.pivots"] = static_cast<double>(pivots);
  figures["smt.rational_fast_ops"] = static_cast<double>(fast);
  figures["smt.rational_big_ops"] = static_cast<double>(big);
  figures["smt.lemma_hits"] = static_cast<double>(hits);
  figures["smt.lemmas_learned"] = static_cast<double>(learned);
  figures["smt.lemma_hit_ratio"] =
      solve_ms.empty() ? 0.0 : static_cast<double>(hits) / static_cast<double>(solve_ms.size());
  if (!layers.slowest_cursor.empty()) {
    std::cerr << "hvbench: slowest solve " << layers.slowest_cursor << " ("
              << layers.slowest_solve_ms << " ms)\n";
  }
  return analysis + layers.enumerate_self_s + cut_s + cone_s + solve_s;
}

/// What a traced run hands back besides its figures.
struct TracedTimes {
  double untraced_s = 0.0;  // the job's verdict time without tracing
  double traced_s = 0.0;    // the same job, traced
  double named_s = 0.0;     // seconds the named spans of the traced job cover
};

// --- workloads ----------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up, split in the two per-layer halves; repeated by SetupSamples.
  virtual void build_models() = 0;
  virtual void compile_properties() = 0;
  /// One untraced closed-loop job; returns why its output is wrong, or "".
  virtual std::string job() = 0;
  /// Checks that need a reference computed after the timed jobs (so the
  /// reference does not count toward their peak memory): one failure
  /// description (or "") per job run so far.
  virtual std::vector<std::string> check_jobs() { return {}; }
  /// Property checks one job makes.
  virtual int properties_per_job() const = 0;
  /// The traced run: fills the per-layer figures, counts its operations.
  virtual TracedTimes traced(Figures& figures, Tracer& tracer, Tally& tally) = 0;
};

std::string expect_holds(const PropertyResult& result) {
  if (result.verdict == Verdict::kHolds) return {};
  return result.property + " is " + checker::to_string(result.verdict) +
         (result.note.empty() ? "" : " (" + result.note + ")");
}

/// The workloads name their property; the bundled lists list it first.
spec::Property first_property_named(std::vector<spec::Property> properties, const char* name) {
  if (properties.empty() || properties.front().name != name) {
    throw std::runtime_error(std::string("hvbench: expected ") + name + " first");
  }
  return std::move(properties.front());
}

std::int64_t settled(const PropertyResult& result) {
  return result.schemas_checked + result.schemas_pruned + result.schemas_cut +
         result.schemas_unknown;
}

// redbelly: the whole sequential pipeline, 16 properties then Theorem 6.
class Redbelly final : public Workload {
 public:
  void build_models() override {
    bv_.emplace(models::bv_broadcast());
    consensus_.emplace(models::simplified_consensus_one_round());
  }
  void compile_properties() override {
    bv_props_ = models::bv_properties(*bv_);
    consensus_props_ = models::simplified_properties(*consensus_);
  }
  int properties_per_job() const override {
    return static_cast<int>(bv_props_.size() + consensus_props_.size());
  }
  std::string job() override { return check(pipeline::verify_red_belly_consensus()); }

  TracedTimes traced(Figures& figures, Tracer& tracer, Tally& tally) override {
    TracedTimes times;
    std::int64_t start = now_ns();
    const pipeline::HolisticReport reference = pipeline::verify_red_belly_consensus();
    times.untraced_s = seconds_since(start);
    tally.count("untraced pipeline", check(reference));

    ReplayLayers layers;
    pipeline::HolisticReport report;
    start = now_ns();
    for (const spec::Property& property : bv_props_) {
      report.bv_results.push_back(replay_property(*bv_, property, {}, tracer, layers));
    }
    for (const spec::Property& property : consensus_props_) {
      report.consensus_results.push_back(
          replay_property(*consensus_, property, {}, tracer, layers));
    }
    {
      const ScopedSpan span(tracer, Layer::kCompose);
      pipeline::compose_verdicts(report);
    }
    times.traced_s = seconds_since(start);

    std::string failure = check(report);
    for (const auto& [replayed, references] :
         {std::pair{&report.bv_results, &reference.bv_results},
          std::pair{&report.consensus_results, &reference.consensus_results}}) {
      for (std::size_t i = 0; failure.empty() && i < replayed->size(); ++i) {
        const std::string mismatch = i < references->size()
                                         ? parity_mismatch((*replayed)[i], (*references)[i])
                                         : "missing from the untraced pipeline";
        if (!mismatch.empty()) failure = "parity " + (*replayed)[i].property + ": " + mismatch;
      }
    }
    tally.count("traced replay", failure);
    std::vector<PropertyResult> replayed = report.bv_results;
    replayed.insert(replayed.end(), report.consensus_results.begin(),
                    report.consensus_results.end());
    times.named_s = add_checker_figures(figures, replayed, layers, tracer) +
                    tracer.seconds(Layer::kCompose);
    return times;
  }

 private:
  std::string check(const pipeline::HolisticReport& report) const {
    if (report.bv_results.size() != bv_props_.size() ||
        report.consensus_results.size() != consensus_props_.size()) {
      return "checked " + std::to_string(report.bv_results.size()) + " + " +
             std::to_string(report.consensus_results.size()) + " properties, expected " +
             std::to_string(bv_props_.size()) + " + " + std::to_string(consensus_props_.size());
    }
    for (const auto* results : {&report.bv_results, &report.consensus_results}) {
      for (const PropertyResult& result : *results) {
        if (std::string failure = expect_holds(result); !failure.empty()) return failure;
      }
    }
    if (report.agreement != Verdict::kHolds || report.validity != Verdict::kHolds ||
        report.termination != Verdict::kHolds) {
      return "Theorem 6 does not compose to holds";
    }
    return {};
  }

  std::optional<ta::ThresholdAutomaton> bv_;
  std::optional<ta::ThresholdAutomaton> consensus_;
  std::vector<spec::Property> bv_props_;
  std::vector<spec::Property> consensus_props_;
};

// naive_inv1: Inv1_0 on the naive composite automaton, one thread.
class NaiveInv1 final : public Workload {
 public:
  void build_models() override { ta_.emplace(models::naive_consensus_one_round()); }
  void compile_properties() override {
    property_ = first_property_named(models::naive_table2_properties(*ta_), "Inv1_0");
  }
  int properties_per_job() const override { return 1; }

  std::string job() override {
    const PropertyResult result = checker::check_property(*ta_, property_);
    settled_.push_back(settled(result));
    return expect_holds(result);
  }

  std::vector<std::string> check_jobs() override {
    // The enumeration alone, to count what every run must account for.
    std::int64_t enumerated = 0;
    const checker::GuardAnalysis analysis(*ta_);
    for (const spec::ReachQuery& query : property_.queries) {
      enumerated += checker::enumerate_schemas(analysis, static_cast<int>(query.cuts.size()),
                                               checker::EnumerationOptions{},
                                               [](const checker::Schema&) { return true; })
                        .schemas;
    }
    std::vector<std::string> failures;
    for (const std::int64_t count : settled_) failures.push_back(accounting(count, enumerated));
    return failures;
  }

  TracedTimes traced(Figures& figures, Tracer& tracer, Tally& tally) override {
    TracedTimes times;
    std::int64_t start = now_ns();
    const PropertyResult reference = checker::check_property(*ta_, property_);
    times.untraced_s = seconds_since(start);

    ReplayLayers layers;
    start = now_ns();
    const PropertyResult replayed = replay_property(*ta_, property_, {}, tracer, layers);
    times.traced_s = seconds_since(start);

    const std::int64_t enumerated = layers.schemas_enumerated;
    tally.count("untraced check", expect_holds(reference) +
                                      accounting(settled(reference), enumerated));
    std::string failure = expect_holds(replayed) + accounting(settled(replayed), enumerated);
    if (const std::string mismatch = parity_mismatch(replayed, reference); !mismatch.empty()) {
      failure += "parity: " + mismatch;
    }
    tally.count("traced replay", failure);
    times.named_s = add_checker_figures(figures, {replayed}, layers, tracer);
    return times;
  }

 private:
  static std::string accounting(std::int64_t settled_count, std::int64_t enumerated) {
    if (settled_count == enumerated) return {};
    return "solved+pruned+cut+unknown = " + std::to_string(settled_count) + " but " +
           std::to_string(enumerated) + " schemas enumerated";
  }

  std::optional<ta::ThresholdAutomaton> ta_;
  spec::Property property_;
  std::vector<std::int64_t> settled_;
};

// certify_audit: the trusted-verdict path for simplified-consensus Inv1_0.
checker::CheckOptions certify_options() {
  checker::CheckOptions options;
  options.certify = true;
  return options;
}

cert::Certificate make_certificate(const spec::Property& property, const PropertyResult& result) {
  cert::Certificate certificate;
  certificate.components.push_back(
      cert::make_component_cert(cert::builtin_model_source("simplified_consensus"), {property},
                                {result}, "bundled"));
  return certificate;
}

/// Scales the multiplier of one Farkas premise that has variable terms, so
/// the combination no longer cancels; returns false if no such leaf exists.
bool tamper_one_farkas_coefficient(cert::Certificate& certificate) {
  for (cert::ComponentCert& component : certificate.components) {
    for (cert::PropertyCert& property : component.properties) {
      for (cert::SchemaCert& schema : property.schemas) {
        if (!schema.proof) continue;
        std::unique_ptr<hv::smt::proof::Node> root = hv::smt::proof::clone(*schema.proof);
        std::vector<hv::smt::proof::Node*> stack{root.get()};
        while (!stack.empty()) {
          hv::smt::proof::Node* node = stack.back();
          stack.pop_back();
          for (hv::smt::proof::FarkasTerm& term : node->farkas) {
            if (term.premise.terms.empty()) continue;
            term.multiplier = term.multiplier + hv::Rational(1);
            schema.proof = std::move(root);
            return true;
          }
          if (node->first) stack.push_back(node->first.get());
          if (node->second) stack.push_back(node->second.get());
        }
      }
    }
  }
  return false;
}

std::string check_certify_audit(const PropertyResult& result, const cert::AuditReport& audit) {
  if (std::string failure = expect_holds(result); !failure.empty()) return failure;
  if (!audit.ok || !audit.issues.empty()) {
    return "audit failed with " + std::to_string(audit.issues.size()) + " issue(s)" +
           (audit.issues.empty() ? "" : ": " + audit.issues.front());
  }
  if (audit.properties_audited != 1) return "audit covered no property";
  return {};
}

/// One untraced certify_audit job; `tamper` corrupts the parsed certificate
/// before the audit (self-test only).
std::string certify_audit_job(const ta::ThresholdAutomaton& automaton,
                              const spec::Property& property, bool tamper,
                              PropertyResult* result_out = nullptr) {
  PropertyResult result = checker::check_property(automaton, property, certify_options());
  const std::string text = cert::to_json_text(make_certificate(property, result));
  cert::Certificate parsed = cert::parse_certificate(text);
  if (tamper && !tamper_one_farkas_coefficient(parsed)) return "no Farkas leaf to tamper with";
  const cert::AuditReport audit = cert::audit_certificate(parsed, cert::AuditOptions{1});
  std::string failure = check_certify_audit(result, audit);
  if (result_out != nullptr) {
    result.evidence.reset();
    *result_out = std::move(result);
  }
  return failure;
}

class CertifyAudit final : public Workload {
 public:
  void build_models() override { ta_.emplace(models::simplified_consensus_one_round()); }
  void compile_properties() override {
    property_ = first_property_named(models::simplified_table2_properties(*ta_), "Inv1_0");
  }
  int properties_per_job() const override { return 1; }
  std::string job() override { return certify_audit_job(*ta_, property_, /*tamper=*/false); }

  TracedTimes traced(Figures& figures, Tracer& tracer, Tally& tally) override {
    TracedTimes times;
    PropertyResult reference;
    std::int64_t start = now_ns();
    tally.count("untraced job", certify_audit_job(*ta_, property_, false, &reference));
    times.untraced_s = seconds_since(start);

    ReplayLayers layers;
    start = now_ns();
    PropertyResult result;
    {
      const ScopedSpan span(tracer, Layer::kCertify);
      result = replay_property(*ta_, property_, certify_options(), tracer, layers);
    }
    cert::Certificate certificate;
    {
      const ScopedSpan span(tracer, Layer::kEmit);
      certificate = make_certificate(property_, result);
    }
    std::string text;
    {
      const ScopedSpan span(tracer, Layer::kSerialize);
      text = cert::to_json_text(certificate);
    }
    certificate = cert::Certificate{};
    {
      const ScopedSpan span(tracer, Layer::kParse);
      certificate = cert::parse_certificate(text);
    }
    cert::AuditReport audit;
    {
      const ScopedSpan span(tracer, Layer::kAudit);
      audit = cert::audit_certificate(certificate, cert::AuditOptions{1});
    }
    times.traced_s = seconds_since(start);

    std::string failure = check_certify_audit(result, audit);
    if (const std::string mismatch = parity_mismatch(result, reference); !mismatch.empty()) {
      failure += "parity: " + mismatch;
    }
    tally.count("traced job", failure);

    add_checker_figures(figures, {result}, layers, tracer);
    const double audit_s = tracer.seconds(Layer::kAudit);
    figures["cert.certify_s"] = tracer.seconds(Layer::kCertify);
    figures["cert.emit_s"] = tracer.seconds(Layer::kEmit);
    figures["cert.serialize_s"] = tracer.seconds(Layer::kSerialize);
    figures["cert.parse_s"] = tracer.seconds(Layer::kParse);
    figures["cert.audit_s"] = audit_s;
    figures["cert.bytes"] = static_cast<double>(text.size());
    figures["cert.farkas_leaves"] = static_cast<double>(audit.farkas_nodes);
    figures["cert.schemas_covered"] = static_cast<double>(audit.schemas_covered);
    figures["cert.audit_leaves_per_s"] =
        audit_s > 0.0 ? static_cast<double>(audit.farkas_nodes) / audit_s : 0.0;
    times.named_s = figures["cert.certify_s"] + figures["cert.emit_s"] +
                    figures["cert.serialize_s"] + figures["cert.parse_s"] + audit_s;
    return times;
  }

 private:
  std::optional<ta::ThresholdAutomaton> ta_;
  spec::Property property_;
};

// fleet: three Table-2 properties of the simplified automaton over the
// fork-local coordinator and two worker processes. Inv1_0 and SRoundTerm are
// left out: with them a job's wall-clock snaps to whole seconds of the
// worker's heartbeat sleep, differently from job to job (see README.md).
class Fleet final : public Workload {
 public:
  explicit Fleet(std::uint64_t seed) : seed_(seed) {}

  void build_models() override {
    const ta::MultiRoundTa model = models::simplified_consensus();
    model_text_ = ta::to_text(model);
    ta_.emplace(model.one_round_reduction());
  }
  void compile_properties() override {
    specs_.clear();
    for (const spec::Property& property : models::simplified_table2_properties(*ta_)) {
      if (property.name == "Inv1_0" || property.name == "SRoundTerm") continue;
      specs_.push_back({property.name, property.formula_text, /*bundled=*/true});
    }
    // The seed fixes the order in which the properties are submitted.
    std::mt19937_64 random(seed_);
    std::shuffle(specs_.begin(), specs_.end(), random);
  }
  int properties_per_job() const override { return static_cast<int>(specs_.size()); }

  std::string job() override {
    runs_.push_back(run_fleet(nullptr));
    return runs_.back().size() == specs_.size() ? "" : "fleet returned the wrong result count";
  }

  std::vector<std::string> check_jobs() override {
    const std::vector<PropertyResult> reference = in_process_reference();
    std::vector<std::string> failures;
    for (const std::vector<PropertyResult>& run : runs_) {
      failures.push_back(compare(run, reference));
    }
    return failures;
  }

  TracedTimes traced(Figures& figures, Tracer& tracer, Tally& tally) override {
    TracedTimes times;
    std::int64_t start = now_ns();
    const std::vector<PropertyResult> untraced = run_fleet(nullptr);
    times.untraced_s = seconds_since(start);

    dist::DistStats stats;
    const double children_before = cpu_seconds(/*children_only=*/true);
    start = now_ns();
    std::vector<PropertyResult> fleet;
    {
      const ScopedSpan span(tracer, Layer::kFleet);
      fleet = run_fleet(&stats);
    }
    times.traced_s = seconds_since(start);
    const double worker_cpu = cpu_seconds(true) - children_before;
    times.named_s = tracer.seconds(Layer::kFleet);

    // The checker layers of the same inputs, replayed in this process.
    const ta::ThresholdAutomaton automaton = ta::parse_ta(model_text_).one_round_reduction();
    const std::vector<spec::Property> properties = dist::resolve_properties(automaton, specs_);
    ReplayLayers layers;
    std::vector<PropertyResult> replayed;
    for (const spec::Property& property : properties) {
      replayed.push_back(replay_property(automaton, property, {}, tracer, layers));
    }
    const std::vector<PropertyResult> reference = checker::check_properties(automaton, properties);
    tally.count("untraced fleet", compare(untraced, reference));
    tally.count("traced fleet", compare(fleet, reference));
    std::string failure;
    for (std::size_t i = 0; failure.empty() && i < replayed.size(); ++i) {
      const std::string mismatch = parity_mismatch(replayed[i], reference.at(i));
      if (!mismatch.empty()) failure = "parity " + replayed[i].property + ": " + mismatch;
    }
    tally.count("in-process replay", failure);
    add_checker_figures(figures, replayed, layers, tracer);

    figures["dist.leases_granted"] = static_cast<double>(stats.leases_granted);
    figures["dist.leases_reassigned"] = static_cast<double>(stats.leases_reassigned);
    figures["dist.workers_lost"] = static_cast<double>(stats.workers_lost);
    figures["dist.leases_self_solved"] = static_cast<double>(stats.leases_self_solved);
    figures["dist.worker_cpu_s"] = worker_cpu;
    figures["dist.worker_busy_share"] = worker_cpu / (times.traced_s * kFleetWorkers);
    return times;
  }

 private:
  std::vector<PropertyResult> run_fleet(dist::DistStats* stats) const {
    return dist::check_distributed_local(model_text_, specs_, kFleetWorkers, dist::DistOptions{},
                                         stats);
  }

  std::vector<PropertyResult> in_process_reference() const {
    const ta::ThresholdAutomaton automaton = ta::parse_ta(model_text_).one_round_reduction();
    return checker::check_properties(automaton, dist::resolve_properties(automaton, specs_));
  }

  /// Verdicts must match the in-process run; the solved/cut split may
  /// differ (workers learn different cuts), the total accounted may not.
  static std::string compare(const std::vector<PropertyResult>& run,
                             const std::vector<PropertyResult>& reference) {
    if (run.size() != reference.size()) return "result count differs from the in-process run";
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run[i].property != reference[i].property) return "property order differs";
      if (std::string failure = expect_holds(run[i]); !failure.empty()) return failure;
      if (run[i].verdict != reference[i].verdict) return run[i].property + ": verdict differs";
      if (settled(run[i]) != settled(reference[i])) {
        return run[i].property + ": " + std::to_string(settled(run[i])) +
               " schemas accounted, in-process run accounts " +
               std::to_string(settled(reference[i]));
      }
    }
    return {};
  }

  std::uint64_t seed_;
  std::string model_text_;
  std::optional<ta::ThresholdAutomaton> ta_;
  std::vector<dist::PropertySpec> specs_;
  std::vector<std::vector<PropertyResult>> runs_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "redbelly") return std::make_unique<Redbelly>();
  if (name == "naive_inv1") return std::make_unique<NaiveInv1>();
  if (name == "certify_audit") return std::make_unique<CertifyAudit>();
  if (name == "fleet") return std::make_unique<Fleet>(seed);
  return nullptr;
}

// --- the run ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string source_id = "unknown";
  bool selftest = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--source-id") {
        args.source_id = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!args.selftest && args.workload.empty()) return std::nullopt;
  return args;
}

void print_stamp(const Args& args, double load_at_start) {
  std::cout << "{\"stamp\": {\"workload\": " << json_quote(args.workload)
            << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"source\": " << json_quote(args.source_id)
            << ", \"compiler\": " << json_quote(HVBENCH_COMPILER)
            << ", \"build_type\": " << json_quote(HVBENCH_BUILD_TYPE)
            << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"loadavg_1m\": " << number(load_at_start) << "}}\n";
}

/// Set-up repeats, timed in their model half, their property half and whole.
class SetupSamples {
 public:
  /// Repeats the set-up for `seconds` (at least kMinSetupRepeats times) and
  /// keeps each time multiplied by `scale`. With a tracer, the burst's last
  /// repeat is also kept as two spans.
  void burst(Workload& workload, double seconds, double scale, Tracer* tracer = nullptr) {
    const std::int64_t burst_start = now_ns();
    std::int64_t start = 0, middle = 0, end = 0;
    for (int repeats = 0; repeats < kMinSetupRepeats || seconds_since(burst_start) < seconds;
         ++repeats) {
      start = now_ns();
      workload.build_models();
      middle = now_ns();
      workload.compile_properties();
      end = now_ns();
      models_s_.push_back(static_cast<double>(middle - start) * 1e-9 * scale);
      properties_s_.push_back(static_cast<double>(end - middle) * 1e-9 * scale);
      total_s_.push_back(static_cast<double>(end - start) * 1e-9 * scale);
    }
    if (tracer != nullptr) {
      tracer->record(Layer::kSetupModels, -1, start, middle);
      tracer->record(Layer::kSetupProperties, -1, middle, end);
    }
  }
  double models_s() const { return median(models_s_); }
  double properties_s() const { return median(properties_s_); }
  double total_s() const { return median(total_s_); }

 private:
  std::vector<double> models_s_;
  std::vector<double> properties_s_;
  std::vector<double> total_s_;
};

void report_failures(const Tally& tally) {
  for (const std::string& failure : tally.failures) {
    std::cerr << "hvbench: FAILED " << failure << "\n";
  }
}

std::string result_line(const Tally& tally, const std::string& metrics_json) {
  return "{\"correct\": " + std::string(tally.failures.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(tally.attempted) +
         ", \"failed\": " + std::to_string(tally.failures.size()) +
         ", \"metrics\": " + metrics_json + "}";
}

int run_untraced(const Args& args, Workload& workload) {
  Figures figures(kEndToEnd);

  // Closed loop: start another set-up burst and job only while they are
  // expected to finish within the measured window; the first always runs.
  // The reference kernel runs before the first job and after every job, so
  // each job is bracketed by two readings of the host's speed.
  SetupSamples setup;
  std::vector<double> kernel_s{reference_kernel_seconds()};
  std::vector<double> wall_s;
  std::vector<double> verdict_ref_s;
  std::vector<double> cpu_ref_s;
  std::vector<std::string> failures;
  const std::int64_t window_start = now_ns();
  do {
    setup.burst(workload, kSetupBurstSeconds, kReferenceSeconds / kernel_s.back());
    const double cpu_before = cpu_seconds();
    const double children_before = cpu_seconds(/*children_only=*/true);
    const std::int64_t start = now_ns();
    failures.push_back(workload.job());
    const double wall = seconds_since(start);
    const double cpu = cpu_seconds() - cpu_before;
    const double own_cpu = cpu - (cpu_seconds(true) - children_before);
    const double before = kernel_s.back();
    kernel_s.push_back(reference_kernel_seconds());
    // A reading can only be slowed by the host, never sped up, so the faster
    // of the two is the better measure of the speed the job ran at.
    const double scale = kReferenceSeconds / std::min(before, kernel_s.back());
    // Only the time this process computed runs at the measured speed; the
    // time it waited (on the fleet's workers and their sleeps) is kept as is.
    wall_s.push_back(wall);
    verdict_ref_s.push_back(std::max(0.0, wall - own_cpu) + own_cpu * scale);
    cpu_ref_s.push_back(cpu * scale);
  } while (seconds_since(window_start) + kSetupBurstSeconds + median(wall_s) <= args.seconds);
  figures["peak_rss_mb"] = peak_rss_mb();
  figures["verdict_ref_s"] = median(verdict_ref_s);
  figures["cpu_ref_s"] = median(cpu_ref_s);
  figures["setup_s"] = setup.total_s();

  const std::vector<std::string> late = workload.check_jobs();
  Tally tally;
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::string failure = failures[i];
    if (i < late.size() && !late[i].empty()) failure += (failure.empty() ? "" : "; ") + late[i];
    tally.count("job " + std::to_string(i + 1), failure);
  }
  report_failures(tally);
  std::cerr << "hvbench: " << wall_s.size() << " job(s), median " << median(wall_s)
            << " s wall-clock, reference kernel median " << median(kernel_s) * 1e3
            << " ms (" << kReferenceSeconds * 1e3 << " ms at the reference speed)\n";
  for (const auto& [name, values] : {std::pair{"wall_s", &wall_s}, std::pair{"kernel_s", &kernel_s},
                                     std::pair{"verdict_ref_s", &verdict_ref_s},
                                     std::pair{"cpu_ref_s", &cpu_ref_s}}) {
    std::cerr << "hvbench: " << name << ":";
    for (const double seconds : *values) std::cerr << " " << seconds;
    std::cerr << "\n";
  }
  std::cout << result_line(tally, figures.to_json()) << std::endl;
  return 0;
}

int run_traced(const Args& args, Workload& workload) {
  Figures figures(kPerLayer);
  Tracer tracer;
  const double kernel_before = reference_kernel_seconds();
  SetupSamples setup;
  setup.burst(workload, kTracedSetupSeconds, 1.0, &tracer);
  figures["setup.models_s"] = setup.models_s();
  figures["setup.properties_s"] = setup.properties_s();
  figures["pipeline.properties"] = workload.properties_per_job();

  Tally tally;
  const TracedTimes times = workload.traced(figures, tracer, tally);
  figures["trace.unattributed_share"] =
      times.traced_s > 0.0 ? std::max(0.0, times.traced_s - times.named_s) / times.traced_s : 0.0;
  figures["trace.overhead_share"] =
      times.untraced_s > 0.0 ? (times.traced_s - times.untraced_s) / times.untraced_s : 0.0;
  figures["host.kernel_ms"] = (kernel_before + reference_kernel_seconds()) / 2.0 * 1e3;

  report_failures(tally);
  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_trace(args.trace_out, figures.to_json())) {
      std::cerr << "hvbench: trace written to " << args.trace_out << "\n";
    } else {
      std::cerr << "hvbench: cannot write " << args.trace_out << "\n";
    }
  }
  std::cout << result_line(tally, figures.to_json()) << std::endl;
  return 0;
}

// --- self-test of the benchmark's own checks ---------------------------------

int run_selftest() {
  int failed = 0;
  const auto expect = [&failed](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    if (!ok) ++failed;
  };
  const ta::ThresholdAutomaton automaton = models::simplified_consensus_one_round();
  const spec::Property property = models::simplified_table2_properties(automaton).at(0);

  // The parity gate accepts a faithful replay and rejects a diverging one.
  const PropertyResult reference = checker::check_property(automaton, property);
  Tracer tracer;
  ReplayLayers layers;
  const PropertyResult faithful = replay_property(automaton, property, {}, tracer, layers);
  const std::string faithful_mismatch = parity_mismatch(faithful, reference);
  expect(faithful_mismatch.empty(), "faithful replay passes the parity gate " + faithful_mismatch);
  const PropertyResult diverging =
      replay_property(automaton, property, {}, tracer, layers, /*record_cuts=*/false);
  const std::string diverging_mismatch = parity_mismatch(diverging, reference);
  expect(!diverging_mismatch.empty(),
         "replay without cut recording fails the parity gate (" + diverging_mismatch + ")");

  // certify_audit counts a tampered certificate as a failed operation.
  const std::string honest = certify_audit_job(automaton, property, /*tamper=*/false);
  expect(honest.empty(), "honest certificate passes the certify_audit check " + honest);
  const std::string tampered = certify_audit_job(automaton, property, /*tamper=*/true);
  expect(!tampered.empty(),
         "certificate with one tampered Farkas coefficient fails (" + tampered + ")");
  Tally tally;
  tally.count("tampered job", tampered);
  expect(tally.failures.size() == 1 && tally.attempted == 1,
         "the tampered job is counted as 1 failed of 1 attempted");

  std::cout << (failed == 0 ? "selftest passed" : "selftest FAILED") << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  double load[1] = {0.0};
  if (::getloadavg(load, 1) != 1) load[0] = -1.0;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: hvbench --workload <redbelly|naive_inv1|certify_audit|fleet> --seed N "
                 "--seconds S --trace <0|1> [--trace-out FILE] [--source-id ID]\n"
                 "       hvbench --selftest\n";
    return 2;
  }
  try {
    if (args->selftest) return run_selftest();
    const std::unique_ptr<Workload> workload = make_workload(args->workload, args->seed);
    if (!workload) {
      std::cerr << "hvbench: unknown workload '" << args->workload << "'\n";
      return 2;
    }
    print_stamp(*args, load[0]);
    return args->trace ? run_traced(*args, *workload) : run_untraced(*args, *workload);
  } catch (const std::exception& error) {
    std::cerr << "hvbench: " << error.what() << "\n";
    return 1;
  }
}
