#include "hv/service/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "hv/dist/frame.h"
#include "hv/util/error.h"
#include "hv/util/stopwatch.h"
#include "hv/util/version.h"

namespace hv::service {

Client::Client(const std::string& address, double retry_seconds) {
  const dist::Address parsed = dist::parse_address(address);
  Stopwatch watch;
  int backoff_ms = 20;
  for (;;) {
    const int fd = dist::connect_to(parsed);
    if (fd >= 0) {
      conn_ = std::make_unique<dist::Conn>(fd);
      return;
    }
    if (watch.seconds() >= retry_seconds) {
      throw Error("service: cannot connect to " + address);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 500);
  }
}

Client::~Client() {
  if (conn_) conn_->close();
}

Json Client::request(const Json& message, int timeout_ms) {
  if (!conn_ || !conn_->valid()) throw Error("service: connection is closed");
  if (!conn_->send(message)) throw Error("service: send failed (daemon gone?)");
  Json reply;
  const dist::FrameStatus status = conn_->recv(&reply, timeout_ms);
  if (status != dist::FrameStatus::kOk) {
    throw Error(std::string("service: no reply from daemon (") + dist::to_string(status) +
                ")");
  }
  return reply;
}

Json Client::submit(const SubmitRequest& request) {
  Json message = Json::Object{
      {"type", "submit"},
      {"protocol", kServiceProtocolVersion},
      {"tenant", request.tenant},
      {"priority", request.priority},
      {"model_text", request.model_text},
      {"properties", dist::specs_to_json(request.specs)},
      {"options", dist::options_to_json(request.options)},
      {"threads", request.options.workers}};
  Json reply = this->request(message);
  const Json* type = reply.find("type");
  if (type != nullptr && type->as_string() == "error") {
    throw Error("service: " + reply.at("message").as_string());
  }
  return reply;
}

Json Client::status(std::int64_t job) {
  Json message = Json::Object{{"type", "status"}};
  if (job >= 0) message.set("job", job);
  return request(message);
}

Json Client::result(std::int64_t job, bool wait,
                    const std::function<void(const Json&)>& on_progress) {
  if (!conn_ || !conn_->valid()) throw Error("service: connection is closed");
  const Json message =
      Json::Object{{"type", "result"}, {"job", job}, {"wait", wait}};
  if (!conn_->send(message)) throw Error("service: send failed (daemon gone?)");
  for (;;) {
    Json frame;
    // Generous per-frame deadline: the daemon streams progress every ~200ms
    // while a waited job runs, so silence this long means it died.
    const dist::FrameStatus status = conn_->recv(&frame, 60'000);
    if (status != dist::FrameStatus::kOk) {
      throw Error(std::string("service: result stream broken (") + dist::to_string(status) +
                  ")");
    }
    const Json* type = frame.find("type");
    if (type != nullptr && type->as_string() == "progress") {
      if (on_progress) on_progress(frame);
      if (!wait) return frame;
      continue;
    }
    return frame;  // result or error
  }
}

Json Client::cancel(std::int64_t job) {
  return request(Json::Object{{"type", "cancel"}, {"job", job}});
}

}  // namespace hv::service
