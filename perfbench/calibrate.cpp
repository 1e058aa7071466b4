#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "trace.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 3;
constexpr int kOperations = 20000;
/// Keys are the top bits of a 64-bit generator: 2^14 distinct keys, so the
/// table stays under 1 MB.
constexpr int kKeyShift = 50;

volatile std::uint64_t sink = 0;

double kernel_once() {
  const std::int64_t start = now_ns();
  std::map<std::uint64_t, std::uint64_t> table;
  std::uint64_t x = 7;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
  };
  for (int i = 0; i < kOperations; ++i) {
    const std::uint64_t key = next() >> kKeyShift;
    table[key] += static_cast<std::uint64_t>((static_cast<unsigned __int128>(x) * (x | 1)) >> 64);
  }
  std::uint64_t found = 0;
  for (int i = 0; i < kOperations; ++i) {
    const auto it = table.find(next() >> kKeyShift);
    if (it != table.end()) found += it->second;
  }
  sink = sink + found;
  return static_cast<double>(now_ns() - start) * 1e-9;
}

}  // namespace

double reference_kernel_seconds() {
  double fastest = kernel_once();
  for (int i = 1; i < kRepeats; ++i) fastest = std::min(fastest, kernel_once());
  return fastest;
}

}  // namespace perfbench
