#include "hv/dist/protocol.h"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <utility>

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

bool Conn::send(const Json& message) {
  if (fd_ < 0) return false;
  const std::string payload = message.to_string();
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (chaos_ != nullptr) return chaos_->send(fd_, payload);
  return write_frame(fd_, payload);
}

FrameStatus Conn::recv(Json* message, int timeout_ms) {
  *message = Json();
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
    *message = Json::parse(payload);
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

Json specs_to_json(const std::vector<PropertySpec>& specs) {
  Json::Array out;
  for (const PropertySpec& spec : specs) {
    out.push_back(Json::Object{
        {"name", spec.name},
        {"formula", spec.formula},
        {"bundled", spec.bundled},
    });
  }
  return out;
}

std::vector<PropertySpec> specs_from_json(const Json& json) {
  std::vector<PropertySpec> specs;
  for (const Json& entry : json.as_array()) {
    PropertySpec spec;
    spec.name = entry.at("name").as_string();
    spec.formula = entry.at("formula").as_string();
    spec.bundled = entry.at("bundled").as_bool();
    specs.push_back(std::move(spec));
  }
  return specs;
}

Json options_to_json(const checker::CheckOptions& options) {
  return Json::Object{
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
      {"lemmas", options.lemmas},
  };
}

checker::CheckOptions options_from_json(const Json& json) {
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
  options.lemmas = json.at("lemmas").as_bool();
  return options;
}

Json record_frame(const checker::SchemaRecord& record, const checker::UnitOutcome& solve,
                  std::int64_t lease, std::size_t property) {
  return checker::record_to_json(
      record, solve, {{"lease", lease}, {"property", static_cast<std::int64_t>(property)}});
}

void LearnPayload::add_cut(std::size_t q, const std::vector<int>& prefix) {
  cuts.push_back(Json::Object{{"q", static_cast<std::int64_t>(q)},
                              {"prefix", Json::Array(prefix.begin(), prefix.end())}});
}

void LearnPayload::add_lemma(std::size_t q, const smt::Lemma& lemma) {
  lemmas.push_back(Json::Object{
      {"q", static_cast<std::int64_t>(q)},
      {"premises", Json::Array(lemma.premises.begin(), lemma.premises.end())}});
}

void LearnPayload::put(Json& frame) {
  if (!cuts.empty()) frame.set("cuts", std::move(cuts));
  if (!lemmas.empty()) frame.set("lemmas", std::move(lemmas));
}

void fold_learn(const Json& frame, checker::PropertyLearning& learning, bool with_cuts) {
  const auto query = [&](const Json& entry) -> checker::QueryLearning* {
    const std::int64_t q = entry.at("q").as_int();
    if (q < 0 || q >= static_cast<std::int64_t>(learning.queries.size())) return nullptr;
    return &learning.queries[static_cast<std::size_t>(q)];
  };
  if (const Json* cuts = with_cuts ? frame.find("cuts") : nullptr) {
    for (const Json& entry : cuts->as_array()) {
      checker::QueryLearning* target = query(entry);
      if (target == nullptr) continue;
      std::vector<int> prefix;
      for (const Json& g : entry.at("prefix").as_array()) {
        prefix.push_back(static_cast<int>(g.as_int()));
      }
      target->cuts.add(prefix);
    }
  }
  if (const Json* lemmas = frame.find("lemmas")) {
    for (const Json& entry : lemmas->as_array()) {
      checker::QueryLearning* target = query(entry);
      if (target == nullptr) continue;
      smt::Lemma lemma;
      for (const Json& premise : entry.at("premises").as_array()) {
        lemma.premises.push_back(premise.as_string());
      }
      target->lemmas.insert(std::move(lemma), /*fresh=*/false);
    }
  }
}

}  // namespace hv::dist
