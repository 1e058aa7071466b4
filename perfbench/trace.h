// In-memory span recorder for the benchmark's traced run.
//
// Spans are taken from the benchmark's own code, around calls into the
// library's public functions; nothing inside the library is instrumented.
// Coarse spans (one per property phase or per public call) and every solve
// are kept individually and written out as a Chrome trace when the run
// ends. The sub-microsecond per-schema calls (cut lookup, cone check) are
// far too numerous to keep one by one — half a million per property on the
// naive automaton — so they are folded into a per-layer total and count at
// the moment they are measured.
#ifndef HV_PERFBENCH_TRACE_H
#define HV_PERFBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Layer {
  kSetupModels,
  kSetupProperties,
  kProperty,   // one property of a replay (parent of the checker spans)
  kAnalysis,   // GuardAnalysis + one QueryCone per query
  kEnumerate,  // the whole enumerate_schemas call, callbacks included
  kCut,        // CutIndex::covers, plus CutIndex::add after an unsat solve
  kCone,       // QueryCone::schema_feasible
  kSolve,      // SchemaSolver::solve
  kCompose,    // pipeline::compose_verdicts
  kCertify,    // the certifying check of certify_audit
  kEmit,       // cert::make_component_cert
  kSerialize,  // cert::to_json_text
  kParse,      // cert::parse_certificate
  kAudit,      // cert::audit_certificate
  kFleet,      // dist::check_distributed_local
  kCount,
};

const char* layer_name(Layer layer);

/// `text` as a JSON string literal (control characters dropped).
std::string json_quote(const std::string& text);

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::kProperty;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string label;  // property name, or the schema cursor of a solve
};

class Tracer {
 public:
  /// Opens a kept span; returns its index for close() and as a parent.
  int open(Layer layer, int parent, std::string label = {});
  void close(int span);
  /// Keeps a span whose start and end the caller already measured.
  void record(Layer layer, int parent, std::int64_t start_ns, std::int64_t end_ns,
              std::string label = {});
  /// Folds one measured call into its layer's total without keeping it.
  void fold(Layer layer, std::int64_t ns) {
    folded_ns_[static_cast<int>(layer)] += ns;
    ++folded_calls_[static_cast<int>(layer)];
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Seconds in the layer: kept spans plus folded calls.
  double seconds(Layer layer) const;

  /// Writes the kept spans as Chrome trace events ("ph":"X", microseconds,
  /// one row per root span) plus the folded totals and the given metrics
  /// under "otherData". Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path, const std::string& metrics_json) const;

 private:
  std::vector<Span> spans_;
  std::array<std::int64_t, static_cast<int>(Layer::kCount)> folded_ns_{};
  std::array<std::int64_t, static_cast<int>(Layer::kCount)> folded_calls_{};
};

/// RAII wrapper around Tracer::open/close.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer, int parent = -1, std::string label = {})
      : tracer_(tracer), index_(tracer.open(layer, parent, std::move(label))) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // HV_PERFBENCH_TRACE_H
