#include "hv/util/lanes.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

namespace hv {

std::string run_catching(const std::function<void()>& work) {
  // Empty means "returned", so a throw never records an empty text.
  std::string error = "unknown exception";
  try {
    work();
    return {};
  } catch (const std::exception& e) {
    if (*e.what() != '\0') error = e.what();
  } catch (...) {
  }
  return error;
}

std::vector<std::string> run_lanes(std::size_t n, int lanes,
                                   const std::function<void(std::size_t)>& task) {
  std::vector<std::string> errors(n);
  std::atomic<std::size_t> next{0};
  const auto lane = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      errors[i] = run_catching([&] { task(i); });
    }
  };
  const std::size_t wanted = std::min(n, static_cast<std::size_t>(std::max(1, lanes)));
  std::vector<std::thread> threads;
  try {
    for (std::size_t k = 1; k < wanted; ++k) threads.emplace_back(lane);
  } catch (const std::system_error&) {
    // Fewer lanes than asked for still run every index.
  }
  lane();
  for (std::thread& thread : threads) thread.join();
  return errors;
}

}  // namespace hv
