#include "hv/smt/lemma.h"

#include <algorithm>
#include <utility>

namespace hv::smt {

LemmaPool::LemmaPool(std::size_t capacity) : capacity_(capacity) {}

std::string LemmaPool::key_of(const Lemma& lemma) {
  std::string key;
  std::size_t total = 0;
  for (const std::string& premise : lemma.premises) total += premise.size() + 1;
  key.reserve(total);
  for (const std::string& premise : lemma.premises) {
    key += premise;
    key += '\x1f';  // unit separator: premises never contain control bytes
  }
  return key;
}

bool LemmaPool::insert(Lemma lemma, bool fresh) {
  if (lemma.premises.empty()) return false;
  std::sort(lemma.premises.begin(), lemma.premises.end());
  lemma.premises.erase(std::unique(lemma.premises.begin(), lemma.premises.end()),
                       lemma.premises.end());
  std::string key = key_of(lemma);
  std::lock_guard<std::mutex> lock(mutex_);
  if (lemmas_.size() >= capacity_) return false;
  if (!seen_.insert(std::move(key)).second) return false;
  if (fresh) fresh_.push_back(lemma);
  lemmas_.push_back(std::move(lemma));
  return true;
}

std::vector<Lemma> LemmaPool::take_fresh() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(fresh_, {});
}

std::vector<Lemma> LemmaPool::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lemmas_;
}

bool LemmaPool::probe(const std::function<int(const std::string&)>& min_depth,
                      int* depth) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int best = -1;
  for (const Lemma& lemma : lemmas_) {
    int lemma_depth = 0;
    bool matched = true;
    for (const std::string& premise : lemma.premises) {
      const int d = min_depth(premise);
      if (d < 0) {
        matched = false;
        break;
      }
      lemma_depth = std::max(lemma_depth, d);
    }
    if (!matched) continue;
    if (best < 0 || lemma_depth < best) best = lemma_depth;
    if (best == 0) break;  // cannot improve
  }
  if (best < 0) return false;
  if (depth != nullptr) *depth = best;
  return true;
}

std::size_t LemmaPool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lemmas_.size();
}

}  // namespace hv::smt
