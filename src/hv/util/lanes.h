// A fixed-size lane pool for the few concurrent stages of the tool: the
// holistic pipeline's property stages and the certificate audit's phases.
#ifndef HV_UTIL_LANES_H
#define HV_UTIL_LANES_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace hv {

/// Runs `work` and returns what it threw: the what() text, or "unknown
/// exception" when it has none; empty when `work` returned.
std::string run_catching(const std::function<void()>& work);

/// Runs task(i) once for every i in [0, n) on up to `lanes` threads (clamped
/// to [1, n]); idle lanes take the lowest index not yet started, so one lane
/// runs the indices in order. The calling thread is lane 0: one lane spawns
/// no thread. A task that throws does not stop the others. Returns, per
/// index, what its task threw, as run_catching reports it.
std::vector<std::string> run_lanes(std::size_t n, int lanes,
                                   const std::function<void(std::size_t)>& task);

}  // namespace hv

#endif  // HV_UTIL_LANES_H
