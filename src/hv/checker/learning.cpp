#include "hv/checker/learning.h"

#include <algorithm>

namespace hv::checker {

bool CutIndex::is_prefix(const std::vector<int>& prefix, const std::vector<int>& chain) {
  return prefix.size() <= chain.size() &&
         std::equal(prefix.begin(), prefix.end(), chain.begin());
}

bool CutIndex::add(const std::vector<int>& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::vector<int>& cut : cuts_) {
    if (is_prefix(cut, prefix)) return false;  // already covered
  }
  // Drop strictly longer prefixes the new cut subsumes.
  cuts_.erase(std::remove_if(cuts_.begin(), cuts_.end(),
                             [&](const std::vector<int>& cut) {
                               return is_prefix(prefix, cut);
                             }),
              cuts_.end());
  cuts_.push_back(prefix);
  return true;
}

bool CutIndex::covers(const std::vector<int>& chain) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::vector<int>& cut : cuts_) {
    if (is_prefix(cut, chain)) return true;
  }
  return false;
}

std::optional<std::vector<int>> cut_prefix(const std::vector<int>& unlock_order,
                                           std::int64_t cut) {
  if (cut < 0 || cut > static_cast<std::int64_t>(unlock_order.size())) return std::nullopt;
  return std::vector<int>(unlock_order.begin(), unlock_order.begin() + cut);
}

std::vector<std::vector<int>> CutIndex::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cuts_;
}

std::size_t CutIndex::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cuts_.size();
}

}  // namespace hv::checker
