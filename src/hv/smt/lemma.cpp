#include "hv/smt/lemma.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <utility>

namespace hv::smt {

namespace {

// The integer_key of a decimal token, or nullopt when it is not one.
std::optional<std::uint64_t> integer_key_of(std::string_view token) {
  std::int64_t value = 0;
  const char* const last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (end != last) return std::nullopt;
  if (error == std::errc()) return static_cast<std::uint64_t>(value);
  if (error == std::errc::result_out_of_range) return fnv1a(token);  // BigInt::to_string's digits
  return std::nullopt;
}

}  // namespace

std::uint64_t name_key(std::string_view name) { return splitmix64_mix(fnv1a(name)); }

std::uint64_t premise_key(std::uint64_t terms, Relation rel, std::uint64_t bound) {
  const std::uint64_t relation = (static_cast<std::uint64_t>(rel) + 1) * kGoldenGamma;
  const std::uint64_t key = splitmix64_mix(splitmix64_mix(terms ^ relation) + bound);
  return key == kNoPremise ? 1 : key;
}

std::uint64_t premise_key(std::string_view canonical) {
  static constexpr std::pair<std::string_view, Relation> kRelations[] = {
      {"<=", Relation::kLe}, {">=", Relation::kGe}, {"==", Relation::kEq}};
  std::uint64_t terms = 0;
  for (std::string_view rest = canonical;;) {
    for (const auto& [token, rel] : kRelations) {
      if (!rest.starts_with(token)) continue;
      const std::optional<std::uint64_t> bound = integer_key_of(rest.substr(token.size()));
      return bound ? premise_key(terms, rel, *bound) : kNoPremise;
    }
    // One "c*name+" term: names never hold '+'.
    const std::size_t star = rest.find('*');
    const std::size_t plus = rest.find('+', star);
    if (plus == std::string_view::npos) return kNoPremise;
    const std::optional<std::uint64_t> coeff = integer_key_of(rest.substr(0, star));
    if (!coeff) return kNoPremise;
    terms += *coeff * name_key(rest.substr(star + 1, plus - star - 1));
    rest.remove_prefix(plus + 1);
  }
}

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
  // Keyed only once the lemma is known to be new.
  std::vector<std::uint64_t> keys;
  keys.reserve(lemma.premises.size());
  for (const std::string& premise : lemma.premises) keys.push_back(premise_key(premise));
  if (fresh) fresh_.push_back(lemma);
  lemmas_.push_back({std::move(lemma), std::move(keys)});
  return true;
}

std::vector<Lemma> LemmaPool::take_fresh() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(fresh_, {});
}

std::vector<Lemma> LemmaPool::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Lemma> out;
  out.reserve(lemmas_.size());
  for (const Stored& stored : lemmas_) out.push_back(stored.lemma);
  return out;
}

bool LemmaPool::probe(const PremiseIndex& asserted, int* depth) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int best = -1;
  for (const Stored& stored : lemmas_) {
    // Keys first: most lemmas miss on one, and a miss costs one lookup.
    const bool nominated = std::all_of(stored.keys.begin(), stored.keys.end(), [&](auto key) {
      return key != kNoPremise && asserted.nominates(key);
    });
    if (!nominated) continue;
    // Every premise nominated: the strings decide, and give the depths.
    int lemma_depth = 0;
    for (std::size_t i = 0; i < stored.keys.size() && lemma_depth >= 0; ++i) {
      const int d = asserted.depth_of(stored.keys[i], stored.lemma.premises[i]);
      lemma_depth = d < 0 ? -1 : std::max(lemma_depth, d);
    }
    if (lemma_depth < 0) continue;
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
