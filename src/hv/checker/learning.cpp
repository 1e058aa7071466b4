#include "hv/checker/learning.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace hv::checker {

int CutIndex::child(int node, int element) const {
  for (int next = nodes_[node].first_child; next >= 0; next = nodes_[next].next_sibling) {
    if (nodes_[next].element == element) return next;
  }
  return -1;
}

std::size_t CutIndex::count_cuts(int node) const {
  std::size_t count = nodes_[node].order >= 0 ? 1 : 0;
  for (int next = nodes_[node].first_child; next >= 0; next = nodes_[next].next_sibling) {
    count += count_cuts(next);
  }
  return count;
}

bool CutIndex::add(const std::vector<int>& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  int node = 0;
  for (const int element : prefix) {
    if (nodes_[node].order >= 0) return false;  // covered by a shorter cut
    int next = child(node, element);
    if (next < 0) {
      next = static_cast<int>(nodes_.size());
      nodes_.push_back({element, -1, nodes_[node].first_child, -1});
      nodes_[node].first_child = next;
    }
    node = next;
  }
  if (nodes_[node].order >= 0) return false;  // already recorded
  // Drop the strictly longer cuts the new one subsumes.
  size_ -= count_cuts(node);
  nodes_[node].first_child = -1;
  nodes_[node].order = next_order_++;
  ++size_;
  return true;
}

bool CutIndex::covers(const std::vector<int>& chain) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int node = 0;
  for (const int element : chain) {
    if (nodes_[node].order >= 0) return true;
    node = child(node, element);
    if (node < 0) return false;
  }
  return nodes_[node].order >= 0;
}

std::optional<std::vector<int>> cut_prefix(const std::vector<int>& unlock_order,
                                           std::int64_t cut) {
  if (cut < 0 || cut > static_cast<std::int64_t>(unlock_order.size())) return std::nullopt;
  return std::vector<int>(unlock_order.begin(), unlock_order.begin() + cut);
}

std::vector<std::vector<int>> CutIndex::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::int64_t, std::vector<int>>> cuts;
  std::vector<int> path;
  const std::function<void(int)> walk = [&](int node) {
    if (nodes_[node].order >= 0) cuts.emplace_back(nodes_[node].order, path);
    for (int next = nodes_[node].first_child; next >= 0; next = nodes_[next].next_sibling) {
      path.push_back(nodes_[next].element);
      walk(next);
      path.pop_back();
    }
  };
  walk(0);
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::vector<int>> out;
  out.reserve(cuts.size());
  for (auto& entry : cuts) out.push_back(std::move(entry.second));
  return out;
}

std::size_t CutIndex::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

}  // namespace hv::checker
