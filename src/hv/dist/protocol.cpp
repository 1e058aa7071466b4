#include "hv/dist/protocol.h"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "hv/cert/certificate.h"
#include "hv/dist/chaos.h"
#include "hv/models/registry.h"
#include "hv/spec/compile.h"
#include "hv/util/error.h"

namespace hv::dist {

namespace {

int parse_port(const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw InvalidArgument("dist: bad port '" + text + "'");
  }
  const int port = std::stoi(text);
  if (port <= 0 || port > 65535) throw InvalidArgument("dist: bad port '" + text + "'");
  return port;
}

}  // namespace

Address parse_address(const std::string& text) {
  Address address;
  if (text.rfind("unix:", 0) == 0) {
    address.unix_domain = true;
    address.path = text.substr(5);
    if (address.path.empty()) throw InvalidArgument("dist: empty unix socket path");
    sockaddr_un probe{};
    if (address.path.size() >= sizeof(probe.sun_path)) {
      throw InvalidArgument("dist: unix socket path too long: " + address.path);
    }
    return address;
  }
  std::string rest = text;
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos) {
    throw InvalidArgument("dist: bad address '" + text +
                          "' (expected unix:/path or tcp:host:port)");
  }
  address.host = rest.substr(0, colon);
  address.port = parse_port(rest.substr(colon + 1));
  return address;
}

int listen_on(const Address& address) {
  if (address.unix_domain) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw Error("dist: socket() failed: " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, address.path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(address.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw Error("dist: cannot bind " + address.path + ": " + why);
    }
    if (::listen(fd, 64) < 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw Error("dist: listen failed on " + address.path + ": " + why);
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* info = nullptr;
  const std::string port = std::to_string(address.port);
  const int rc = ::getaddrinfo(address.host.empty() ? nullptr : address.host.c_str(),
                               port.c_str(), &hints, &info);
  if (rc != 0) {
    throw Error("dist: cannot resolve " + address.host + ":" + port + ": " +
                ::gai_strerror(rc));
  }
  std::string why = "no usable address";
  for (addrinfo* it = info; it != nullptr; it = it->ai_next) {
    const int fd = ::socket(it->ai_family, it->ai_socktype, it->ai_protocol);
    if (fd < 0) {
      why = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, it->ai_addr, it->ai_addrlen) == 0 && ::listen(fd, 64) == 0) {
      ::freeaddrinfo(info);
      return fd;
    }
    why = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(info);
  throw Error("dist: cannot listen on " + address.host + ":" + port + ": " + why);
}

int connect_to(const Address& address) {
  if (address.unix_domain) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, address.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* info = nullptr;
  const std::string port = std::to_string(address.port);
  const std::string host = address.host.empty() ? "127.0.0.1" : address.host;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &info) != 0) return -1;
  int fd = -1;
  for (addrinfo* it = info; it != nullptr; it = it->ai_next) {
    fd = ::socket(it->ai_family, it->ai_socktype, it->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, it->ai_addr, it->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(info);
  return fd;
}

Conn::Conn(int fd, bool subject_to_chaos) : fd_(fd) {
  if (!subject_to_chaos || fd < 0) return;
  const NetFaultPlan plan = net_fault_plan_from_env();
  if (!plan.armed()) return;
  // Each link gets its own PRNG stream; the serial keeps a multi-connection
  // process deterministic for a fixed seed.
  static std::atomic<std::uint64_t> link_serial{0};
  chaos_ = std::make_unique<ChaosLink>(plan, link_serial.fetch_add(1));
}

Conn::~Conn() { close(); }

bool Conn::send(const cert::Json& message) {
  if (fd_ < 0) return false;
  const std::string payload = message.to_string();
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (chaos_ != nullptr) return chaos_->send(fd_, payload);
  return write_frame(fd_, payload);
}

FrameStatus Conn::recv(cert::Json* message, int timeout_ms) {
  *message = cert::Json();
  if (fd_ < 0) return FrameStatus::kClosed;
  if (chaos_ != nullptr) {
    // Deliver any held (reordered) frame before blocking: a request/reply
    // exchange must never deadlock on its own held request.
    std::lock_guard<std::mutex> lock(write_mutex_);
    chaos_->flush(fd_);
  }
  std::string payload;
  const FrameStatus status = reader_.read(fd_, &payload, timeout_ms);
  if (status != FrameStatus::kOk) return status;
  try {
    *message = cert::Json::parse(payload);
  } catch (const Error&) {
    // A frame that is not JSON is a protocol violation, same class as a
    // corrupted length: report it as an error, not a message.
    return FrameStatus::kError;
  }
  return FrameStatus::kOk;
}

bool Conn::readable() const {
  if (fd_ < 0 || reader_.mid_frame()) return true;  // recv() has something to report
  struct pollfd pfd = {fd_, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0;
}

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::vector<spec::Property> resolve_properties(const ta::ThresholdAutomaton& ta,
                                               const std::vector<PropertySpec>& specs) {
  std::vector<spec::Property> properties;
  properties.reserve(specs.size());
  std::vector<spec::Property> bundled;
  bool bundled_loaded = false;
  for (const PropertySpec& spec : specs) {
    if (!spec.bundled) {
      properties.push_back(spec::compile(ta, spec.name, spec.formula));
      continue;
    }
    if (!bundled_loaded) {
      bundled = models::bundled_properties(ta, /*table2_defaults=*/false);
      bundled_loaded = true;
    }
    bool found = false;
    for (const spec::Property& candidate : bundled) {
      if (candidate.name == spec.name) {
        properties.push_back(candidate);
        found = true;
        break;
      }
    }
    if (!found) {
      throw InvalidArgument("dist: automaton '" + ta.name() + "' has no bundled property '" +
                            spec.name + "'");
    }
  }
  return properties;
}

cert::Json specs_to_json(const std::vector<PropertySpec>& specs) {
  cert::Json::Array out;
  for (const PropertySpec& spec : specs) {
    out.push_back(cert::Json::Object{
        {"name", spec.name},
        {"formula", spec.formula},
        {"bundled", spec.bundled},
    });
  }
  return out;
}

std::vector<PropertySpec> specs_from_json(const cert::Json& json) {
  std::vector<PropertySpec> specs;
  for (const cert::Json& entry : json.as_array()) {
    PropertySpec spec;
    spec.name = entry.at("name").as_string();
    spec.formula = entry.at("formula").as_string();
    spec.bundled = entry.at("bundled").as_bool();
    specs.push_back(std::move(spec));
  }
  return specs;
}

cert::Json options_to_json(const checker::CheckOptions& options) {
  return cert::Json::Object{
      {"max_schemas", options.enumeration.max_schemas},
      {"prune_implications", options.enumeration.prune_implications},
      {"prune_dead_unlocks", options.enumeration.prune_dead_unlocks},
      {"timeout_seconds", options.timeout_seconds},
      {"incremental", options.incremental},
      {"property_directed_pruning", options.property_directed_pruning},
      {"certify", options.certify},
      {"schema_timeout_seconds", options.schema_timeout_seconds},
      {"pivot_budget", options.pivot_budget},
      {"memory_budget_mb", options.memory_budget_mb},
      {"retry_fresh", options.retry_fresh},
      {"lemmas", options.lemmas},
  };
}

checker::CheckOptions options_from_json(const cert::Json& json) {
  checker::CheckOptions options;
  options.enumeration.max_schemas = json.at("max_schemas").as_int();
  options.enumeration.prune_implications = json.at("prune_implications").as_bool();
  options.enumeration.prune_dead_unlocks = json.at("prune_dead_unlocks").as_bool();
  options.timeout_seconds = json.at("timeout_seconds").as_double();
  options.incremental = json.at("incremental").as_bool();
  options.property_directed_pruning = json.at("property_directed_pruning").as_bool();
  options.certify = json.at("certify").as_bool();
  options.schema_timeout_seconds = json.at("schema_timeout_seconds").as_double();
  options.pivot_budget = json.at("pivot_budget").as_int();
  options.memory_budget_mb = json.at("memory_budget_mb").as_int();
  options.retry_fresh = json.at("retry_fresh").as_bool();
  // Tolerant read: a pre-upgrade coordinator omits the field; learning is
  // additionally gated by the hello/welcome feature negotiation, so the
  // default here only matters to non-dist callers of this converter.
  const cert::Json* lemmas = json.find("lemmas");
  options.lemmas = lemmas == nullptr || lemmas->as_bool();
  return options;
}

cert::Json counterexample_to_json(const checker::Counterexample& cex) {
  cert::Json::Array params;
  for (const auto& [var, value] : cex.params) {
    params.push_back(cert::Json::Array{static_cast<std::int64_t>(var), value});
  }
  cert::Json::Array counters;
  for (const std::int64_t c : cex.initial.counters) counters.push_back(c);
  cert::Json::Array shared;
  for (const std::int64_t s : cex.initial.shared) shared.push_back(s);
  cert::Json::Array steps;
  for (const checker::TraceStep& step : cex.steps) {
    steps.push_back(cert::Json::Array{static_cast<std::int64_t>(step.rule), step.factor});
  }
  return cert::Json::Object{
      {"property", cex.property},
      {"query_description", cex.query_description},
      {"params", std::move(params)},
      {"counters", std::move(counters)},
      {"shared", std::move(shared)},
      {"steps", std::move(steps)},
  };
}

checker::Counterexample counterexample_from_json(const cert::Json& json) {
  checker::Counterexample cex;
  cex.property = json.at("property").as_string();
  cex.query_description = json.at("query_description").as_string();
  for (const cert::Json& entry : json.at("params").as_array()) {
    const cert::Json::Array& pair = entry.as_array();
    if (pair.size() != 2) throw InvalidArgument("dist: malformed counterexample params");
    cex.params[static_cast<ta::VarId>(pair[0].as_int())] = pair[1].as_int();
  }
  for (const cert::Json& c : json.at("counters").as_array()) {
    cex.initial.counters.push_back(c.as_int());
  }
  for (const cert::Json& s : json.at("shared").as_array()) {
    cex.initial.shared.push_back(s.as_int());
  }
  for (const cert::Json& entry : json.at("steps").as_array()) {
    const cert::Json::Array& pair = entry.as_array();
    if (pair.size() != 2) throw InvalidArgument("dist: malformed counterexample steps");
    cex.steps.push_back({static_cast<ta::RuleId>(pair[0].as_int()), pair[1].as_int()});
  }
  return cex;
}

cert::Json model_values_to_json(const std::vector<std::pair<std::string, BigInt>>& values) {
  cert::Json::Array out;
  for (const auto& [name, value] : values) {
    out.push_back(cert::Json::Array{name, value.to_string()});
  }
  return out;
}

std::vector<std::pair<std::string, BigInt>> model_values_from_json(const cert::Json& json) {
  std::vector<std::pair<std::string, BigInt>> values;
  for (const cert::Json& entry : json.as_array()) {
    const cert::Json::Array& pair = entry.as_array();
    if (pair.size() != 2) throw InvalidArgument("dist: malformed model values");
    values.emplace_back(pair[0].as_string(), BigInt::from_string(pair[1].as_string()));
  }
  return values;
}

cert::Json record_to_json(const checker::SchemaRecord& record, const checker::UnitOutcome& solve,
                          std::int64_t lease, std::size_t property) {
  const bool sat = record.verdict == "sat";
  cert::Json::Object frame;
  frame.reserve(13);
  const auto field = [&](const char* key, cert::Json value) {
    frame.emplace_back(key, std::move(value));
  };
  field("type", sat ? "sat" : "record");
  field("lease", lease);
  field("property", static_cast<std::int64_t>(property));
  field("cursor", record.cursor);
  if (!sat) field("verdict", record.verdict);
  field("length", record.length);
  field("pivots", record.pivots);
  if (sat || record.verdict == "unsat") {
    field("fast", record.fast);
    field("big", record.big);
  }
  field("retries", record.retries);
  if (sat) {
    field("validation_error", solve.validation_error);
    if (solve.counterexample) {
      field("counterexample", counterexample_to_json(*solve.counterexample));
    }
    if (solve.model) field("model", model_values_to_json(*solve.model));
  } else {
    field("note", record.note);
    if (record.cut >= 0) field("cut", record.cut);
    if (solve.proof) field("proof", cert::proof_to_json(*solve.proof));
  }
  return frame;
}

checker::SchemaRecord record_from_json(const cert::Json& frame, checker::UnitOutcome* solve) {
  checker::SchemaRecord record;
  const bool sat = frame.at("type").as_string() == "sat";
  record.cursor = frame.at("cursor").as_string();
  record.verdict = sat ? "sat" : frame.at("verdict").as_string();
  record.length = frame.at("length").as_int();
  record.pivots = frame.at("pivots").as_int();
  record.retries = frame.at("retries").as_int();
  // Tolerant reads: pruned and unknown records (and older workers) omit
  // fast/big.
  if (const cert::Json* fast = frame.find("fast")) record.fast = fast->as_int();
  if (const cert::Json* big = frame.find("big")) record.big = big->as_int();
  if (sat) {
    solve->validation_error = frame.at("validation_error").as_string();
    if (const cert::Json* cex = frame.find("counterexample")) {
      solve->counterexample = counterexample_from_json(*cex);
    }
    if (const cert::Json* model = frame.find("model")) {
      solve->model = std::make_shared<const std::vector<std::pair<std::string, BigInt>>>(
          model_values_from_json(*model));
    }
  } else {
    record.note = frame.at("note").as_string();
    if (const cert::Json* cut = frame.find("cut")) record.cut = cut->as_int();
    if (const cert::Json* proof = frame.find("proof")) {
      solve->proof = std::shared_ptr<const smt::proof::Node>(cert::proof_from_json(*proof));
    }
  }
  return record;
}

bool has_feature(const cert::Json& frame, std::string_view feature) {
  const cert::Json* features = frame.find("features");
  if (features == nullptr) return false;
  return std::any_of(features->as_array().begin(), features->as_array().end(),
                     [&](const cert::Json& entry) {
                       return entry.kind() == cert::Json::Kind::kString &&
                              entry.as_string() == feature;
                     });
}

void LearnPayload::add_cut(std::size_t q, const std::vector<int>& prefix) {
  cuts.push_back(cert::Json::Object{{"q", static_cast<std::int64_t>(q)},
                                    {"prefix", cert::Json::Array(prefix.begin(), prefix.end())}});
}

void LearnPayload::add_lemma(std::size_t q, const smt::Lemma& lemma) {
  lemmas.push_back(cert::Json::Object{
      {"q", static_cast<std::int64_t>(q)},
      {"premises", cert::Json::Array(lemma.premises.begin(), lemma.premises.end())}});
}

void LearnPayload::put(cert::Json& frame) {
  if (!cuts.empty()) frame.set("cuts", std::move(cuts));
  if (!lemmas.empty()) frame.set("lemmas", std::move(lemmas));
}

cert::Json learn_frame(std::size_t p, LearnPayload payload) {
  cert::Json frame = cert::Json::Object{{"type", "learn"}, {"p", static_cast<std::int64_t>(p)}};
  payload.put(frame);
  return frame;
}

cert::Json::Array fold_learn(const cert::Json& frame, checker::PropertyLearning& learning,
                             bool with_cuts) {
  const auto query = [&](const cert::Json& entry) -> checker::QueryLearning* {
    const std::int64_t q = entry.at("q").as_int();
    if (q < 0 || q >= static_cast<std::int64_t>(learning.queries.size())) return nullptr;
    return &learning.queries[static_cast<std::size_t>(q)];
  };
  if (const cert::Json* cuts = with_cuts ? frame.find("cuts") : nullptr) {
    for (const cert::Json& entry : cuts->as_array()) {
      checker::QueryLearning* target = query(entry);
      if (target == nullptr) continue;
      std::vector<int> prefix;
      for (const cert::Json& g : entry.at("prefix").as_array()) {
        prefix.push_back(static_cast<int>(g.as_int()));
      }
      target->cuts.add(prefix);
    }
  }
  cert::Json::Array fresh;
  if (const cert::Json* lemmas = frame.find("lemmas")) {
    for (const cert::Json& entry : lemmas->as_array()) {
      checker::QueryLearning* target = query(entry);
      if (target == nullptr) continue;
      smt::Lemma lemma;
      for (const cert::Json& premise : entry.at("premises").as_array()) {
        lemma.premises.push_back(premise.as_string());
      }
      if (target->lemmas.insert(std::move(lemma), /*fresh=*/false)) fresh.push_back(entry);
    }
  }
  return fresh;
}

}  // namespace hv::dist
