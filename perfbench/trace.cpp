#include "trace.h"

#include <fstream>

namespace perfbench {

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSetupModels: return "setup.models";
    case Layer::kSetupProperties: return "setup.properties";
    case Layer::kProperty: return "checker.property";
    case Layer::kAnalysis: return "checker.analysis";
    case Layer::kEnumerate: return "checker.enumerate";
    case Layer::kCut: return "checker.cut";
    case Layer::kCone: return "checker.cone";
    case Layer::kSolve: return "checker.solve";
    case Layer::kCompose: return "pipeline.compose";
    case Layer::kCertify: return "cert.certify";
    case Layer::kEmit: return "cert.emit";
    case Layer::kSerialize: return "cert.serialize";
    case Layer::kParse: return "cert.parse";
    case Layer::kAudit: return "cert.audit";
    case Layer::kFleet: return "dist.fleet";
    case Layer::kCount: break;
  }
  return "?";
}

int Tracer::open(Layer layer, int parent, std::string label) {
  Span span;
  span.layer = layer;
  span.parent = parent;
  span.label = std::move(label);
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::record(Layer layer, int parent, std::int64_t start_ns, std::int64_t end_ns,
                    std::string label) {
  spans_.push_back(Span{layer, parent, start_ns, end_ns, std::move(label)});
}

void Tracer::close(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }

double Tracer::seconds(Layer layer) const {
  std::int64_t ns = folded_ns_[static_cast<int>(layer)];
  for (const Span& span : spans_) {
    if (span.layer == layer) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write_chrome_trace(const std::string& path, const std::string& metrics_json) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    int root = static_cast<int>(i);
    while (spans_[static_cast<std::size_t>(root)].parent >= 0) {
      root = spans_[static_cast<std::size_t>(root)].parent;
    }
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << layer_name(span.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << root
        << ",\"ts\":" << static_cast<double>(span.start_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"label\":" << json_quote(span.label) << "}}";
  }
  out << "\n],\"otherData\":{\"folded\":{";
  bool first = true;
  for (int layer = 0; layer < static_cast<int>(Layer::kCount); ++layer) {
    if (folded_calls_[layer] == 0) continue;
    out << (first ? "" : ",") << "\"" << layer_name(static_cast<Layer>(layer))
        << "\":{\"calls\":" << folded_calls_[layer]
        << ",\"seconds\":" << static_cast<double>(folded_ns_[layer]) * 1e-9 << "}";
    first = false;
  }
  out << "},\"metrics\":" << metrics_json << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
