#include "hv/service/persist.h"

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <utility>

#include "hv/checker/journal.h"
#include "hv/util/error.h"
#include "hv/util/version.h"

namespace hv::service {

EventLog::EventLog(std::string path) : path_(std::move(path)) {
  bool fresh = true;
  {
    struct stat st = {};
    if (::stat(path_.c_str(), &st) == 0 && st.st_size > 0) fresh = false;
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw Error("service: cannot open event log: " + path_);
  if (fresh) {
    const Json header = Json::Object{{"hv_service_log", 1},
                                                 {"hvc_version", std::string(kHvcVersion)}};
    const std::string line = header.to_string() + "\n";
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
    checker::sync_to_disk(file_);
  }
}

EventLog::~EventLog() {
  if (file_ != nullptr) {
    std::fflush(file_);
    checker::sync_to_disk(file_);
    std::fclose(file_);
  }
}

void EventLog::append(const Json& event) {
  const std::string line = event.to_string() + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  checker::sync_to_disk(file_);
}

std::vector<Json> EventLog::load(const std::string& path) {
  std::vector<Json> events;
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0) return events;  // fresh daemon
    throw Error("service: cannot read event log: " + path);
  }
  std::string line;
  bool saw_header = false;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    Json parsed;
    try {
      parsed = Json::parse(line);
    } catch (const std::exception&) {
      // Torn tail (or a corrupt line): stop trusting anything after it —
      // the log is append-only, so everything before is intact.
      break;
    }
    if (!saw_header) {
      if (parsed.find("hv_service_log") == nullptr) {
        throw Error("service: " + path + " is not a service event log");
      }
      saw_header = true;
      continue;
    }
    if (parsed.find("event") != nullptr) events.push_back(std::move(parsed));
  }
  if (!saw_header && !events.empty()) {
    throw Error("service: " + path + " is not a service event log");
  }
  return events;
}

}  // namespace hv::service
