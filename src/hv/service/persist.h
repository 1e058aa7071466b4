// Crash-safe persistence of the service daemon's job queue.
//
// The daemon records every queue transition in an append-only JSONL event
// log under its state directory, fsync'd per event (events are orders of
// magnitude rarer than schema verdicts, so unlike the schema journal there
// is no batching — a submission acknowledged to a client is durable).
// Replaying the log after a SIGKILL rebuilds the exact queue: jobs with a
// terminal event re-serve their recorded response (and re-seed the result
// cache); jobs without one go back to queued, and their per-job *schema*
// journal (the existing checker journal, one file per job) lets the re-run
// resume from close to the kill point instead of starting over.
//
// Events (one object per line, after a {"hv_service_log": 1, ...} header):
//   submit    {job, tenant, priority, model_text, properties[], options{},
//              threads, key}
//   done      {job, code, cached, response}
//   failed    {job, error}
//   cancelled {job}
// A torn trailing line — the kill-between-write-and-sync signature — is
// skipped on load, like the schema journal's loader.
#ifndef HV_SERVICE_PERSIST_H
#define HV_SERVICE_PERSIST_H

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "hv/util/json.h"

namespace hv::service {

class EventLog {
 public:
  /// Opens `path` for append, writing the header line iff the file is new
  /// or empty. Throws hv::Error when the file cannot be opened.
  explicit EventLog(std::string path);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one event line and makes it durable (fflush + fdatasync)
  /// before returning. Thread-safe.
  void append(const Json& event);

  const std::string& path() const noexcept { return path_; }

  /// Loads every well-formed event of an existing log, skipping the header
  /// and a torn tail. Returns an empty vector for a missing file (a fresh
  /// daemon). Throws hv::Error on an unreadable file or a foreign header.
  static std::vector<Json> load(const std::string& path);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace hv::service

#endif  // HV_SERVICE_PERSIST_H
