// Client side of the verification service: a thin frame-speaking wrapper
// used by `hvc submit`/`hvc status`/`hvc result`/`hvc cancel`, the service
// tests and the throughput bench. One Client is one connection; requests
// are synchronous (send one frame, read the reply), and result waits stream
// progress frames through a callback until the terminal result frame.
#ifndef HV_SERVICE_CLIENT_H
#define HV_SERVICE_CLIENT_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hv/checker/parameterized.h"
#include "hv/dist/protocol.h"
#include "hv/util/json.h"

namespace hv::service {

/// One submission as the client assembles it. `options.workers` travels as
/// the extra "threads" field (the dist options vocabulary deliberately
/// omits it: there it means connected processes, here in-process threads).
struct SubmitRequest {
  std::string tenant;
  int priority = 0;
  std::string model_text;
  std::vector<dist::PropertySpec> specs;
  checker::CheckOptions options;
};

class Client {
 public:
  /// Connects to "unix:/path" or "tcp:host:port", retrying for up to
  /// `retry_seconds` (the daemon may still be binding). Throws hv::Error
  /// when no connection could be made.
  explicit Client(const std::string& address, double retry_seconds = 5.0);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one frame and returns the next reply frame. Throws hv::Error on
  /// any transport failure or timeout. An "error" reply is returned, not
  /// thrown — callers decide whether it is fatal.
  Json request(const Json& message, int timeout_ms = 60'000);

  /// Submits a job. Returns the "submitted" frame ({job, state, cached});
  /// throws hv::Error carrying the daemon's message on an error frame
  /// (quota rejection, bad model, protocol mismatch).
  Json submit(const SubmitRequest& request);

  /// Queue/cache snapshot; `job` >= 0 restricts the jobs array to that id.
  Json status(std::int64_t job = -1);

  /// Fetches a job's result. With `wait`, blocks until the job is terminal,
  /// invoking `on_progress` for every streamed progress frame; without it,
  /// returns immediately (a non-terminal job yields its progress frame).
  /// Error frames (unknown job, daemon shutdown) are returned as-is.
  Json result(std::int64_t job, bool wait,
              const std::function<void(const Json&)>& on_progress = nullptr);

  /// Cancels a job (idempotent); returns the "ok" or "error" frame.
  Json cancel(std::int64_t job);

 private:
  std::unique_ptr<dist::Conn> conn_;
};

}  // namespace hv::service

#endif  // HV_SERVICE_CLIENT_H
