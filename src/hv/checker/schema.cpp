#include "hv/checker/schema.h"

#include <algorithm>
#include <limits>
#include <string_view>

#include "hv/util/error.h"
#include "hv/util/text.h"

namespace hv::checker {

namespace {

// GuardSet is a plain 64-bit mask and the enumerator shifts `1 << guard`;
// the top bit is kept unusable so `unlocked >> g` never touches the sign
// boundary of intermediate int arithmetic. Reject oversized automata with a
// real diagnostic instead of silently aliasing guard bits.
constexpr int kMaxGuards = std::numeric_limits<GuardSet>::digits - 1;

void check_guard_width(const GuardAnalysis& analysis) {
  if (analysis.guard_count() > kMaxGuards) {
    throw InvalidArgument("schema enumeration supports at most " + std::to_string(kMaxGuards) +
                          " threshold guards (GuardSet is a 64-bit mask); automaton has " +
                          std::to_string(analysis.guard_count()));
  }
}

// Shared between the enumerator and the subtree partitioner so both walk the
// same pruned chain tree.
bool may_unlock_next(const GuardAnalysis& analysis, const EnumerationOptions& options,
                     GuardSet unlocked, int g) {
  if ((unlocked >> g) & 1) return false;
  if (options.prune_implications) {
    // g cannot become true while a guard it implies is still false.
    for (int h = 0; h < analysis.guard_count(); ++h) {
      if (h == g || ((unlocked >> h) & 1)) continue;
      if (analysis.implies(g, h)) return false;
    }
  }
  if (options.prune_dead_unlocks && !analysis.can_hold_at_zero(g) &&
      !analysis.incrementable(g, unlocked)) {
    return false;
  }
  return true;
}

class Enumerator {
 public:
  Enumerator(const GuardAnalysis& analysis, int cut_count, const EnumerationOptions& options,
             const std::function<bool(const Schema&)>& visit)
      : analysis_(analysis), cut_count_(cut_count), options_(options), visit_(visit) {}

  EnumerationOutcome run() {
    Schema schema;
    chain(schema, 0);
    return outcome_;
  }

  EnumerationOutcome run_under(const SubtreeTask& task) {
    Schema schema;
    schema.unlock_order = task.prefix;
    GuardSet unlocked = 0;
    for (const int g : task.prefix) unlocked |= GuardSet{1} << g;
    if (task.include_extensions) {
      chain(schema, unlocked);
    } else {
      cuts(schema, 0, 0);
    }
    return outcome_;
  }

 private:
  bool exhausted() const {
    return outcome_.budget_exhausted || outcome_.stopped_by_callback;
  }

  // Extends the chain in all admissible ways; every prefix is itself a
  // schema (guards that never unlock are simply asserted false at the end).
  void chain(Schema& schema, GuardSet unlocked) {
    if (exhausted()) return;
    cuts(schema, 0, 0);
    if (exhausted()) return;
    for (int g = 0; g < analysis_.guard_count(); ++g) {
      if (!may_unlock_next(analysis_, options_, unlocked, g)) continue;
      schema.unlock_order.push_back(g);
      chain(schema, unlocked | (GuardSet{1} << g));
      schema.unlock_order.pop_back();
      if (exhausted()) return;
    }
  }

  // Places `cut_count_` cuts into segments 0..k, non-decreasing.
  void cuts(Schema& schema, int cut_index, int min_segment) {
    if (exhausted()) return;
    if (cut_index == cut_count_) {
      ++outcome_.schemas;
      if (outcome_.schemas > options_.max_schemas) {
        outcome_.budget_exhausted = true;
        return;
      }
      if (!visit_(schema)) outcome_.stopped_by_callback = true;
      return;
    }
    for (int segment = min_segment; segment < schema.segment_count(); ++segment) {
      schema.cut_positions.push_back(segment);
      cuts(schema, cut_index + 1, segment);
      schema.cut_positions.pop_back();
      if (exhausted()) return;
    }
  }

  const GuardAnalysis& analysis_;
  const int cut_count_;
  const EnumerationOptions& options_;
  const std::function<bool(const Schema&)>& visit_;
  EnumerationOutcome outcome_;
};

}  // namespace

EnumerationOutcome enumerate_schemas(const GuardAnalysis& analysis, int cut_count,
                                     const EnumerationOptions& options,
                                     const std::function<bool(const Schema&)>& visit) {
  check_guard_width(analysis);
  Enumerator enumerator(analysis, cut_count, options, visit);
  return enumerator.run();
}

std::vector<SubtreeTask> partition_subtrees(const GuardAnalysis& analysis, int depth,
                                            const EnumerationOptions& options) {
  check_guard_width(analysis);
  HV_REQUIRE(depth >= 0);
  std::vector<SubtreeTask> tasks;
  std::vector<int> prefix;
  const auto collect = [&](const auto& self, GuardSet unlocked) -> void {
    if (static_cast<int>(prefix.size()) == depth) {
      tasks.push_back({prefix, /*include_extensions=*/true});
      return;
    }
    tasks.push_back({prefix, /*include_extensions=*/false});
    for (int g = 0; g < analysis.guard_count(); ++g) {
      if (!may_unlock_next(analysis, options, unlocked, g)) continue;
      prefix.push_back(g);
      self(self, unlocked | (GuardSet{1} << g));
      prefix.pop_back();
    }
  };
  collect(collect, 0);
  return tasks;
}

std::vector<SubtreeTask> plan_tasks(const GuardAnalysis& analysis, int workers,
                                    const EnumerationOptions& options) {
  const std::size_t want = static_cast<std::size_t>(std::max(1, workers)) * 4;
  for (int depth = 1;; ++depth) {
    std::vector<SubtreeTask> tasks = partition_subtrees(analysis, depth, options);
    if (tasks.size() >= want || depth >= analysis.guard_count()) return tasks;
  }
}

EnumerationOutcome enumerate_schemas_under(const GuardAnalysis& analysis,
                                           const SubtreeTask& task, int cut_count,
                                           const EnumerationOptions& options,
                                           const std::function<bool(const Schema&)>& visit) {
  check_guard_width(analysis);
  Enumerator enumerator(analysis, cut_count, options, visit);
  return enumerator.run_under(task);
}

std::int64_t count_chains(const GuardAnalysis& analysis, const EnumerationOptions& options) {
  const EnumerationOutcome outcome =
      enumerate_schemas(analysis, /*cut_count=*/0, options, [](const Schema&) { return true; });
  return outcome.schemas;
}

std::string schema_cursor(std::size_t query_index, const Schema& schema) {
  std::string out = numbered("q", static_cast<std::int64_t>(query_index)) + "|";
  for (std::size_t i = 0; i < schema.unlock_order.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(schema.unlock_order[i]);
  }
  out += '|';
  for (std::size_t i = 0; i < schema.cut_positions.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(schema.cut_positions[i]);
  }
  return out;
}

bool parse_schema_cursor(const std::string& cursor, std::size_t* query_index, Schema* schema) {
  if (cursor.size() < 2 || cursor[0] != 'q') return false;
  const std::size_t first_bar = cursor.find('|');
  const std::size_t second_bar = first_bar == std::string::npos
                                     ? std::string::npos
                                     : cursor.find('|', first_bar + 1);
  if (second_bar == std::string::npos) return false;
  const auto parse_int_list = [](std::string_view text, std::vector<int>* out) -> bool {
    out->clear();
    if (text.empty()) return true;
    int value = 0;
    bool in_number = false;
    for (const char c : text) {
      if (c == ',') {
        if (!in_number) return false;
        out->push_back(value);
        value = 0;
        in_number = false;
      } else if (c >= '0' && c <= '9') {
        // Reject rather than overflow: a cursor can come from a journal
        // file or a remote worker, so a long digit run must not be UB.
        if (value > (std::numeric_limits<int>::max() - (c - '0')) / 10) return false;
        value = value * 10 + (c - '0');
        in_number = true;
      } else {
        return false;
      }
    }
    if (!in_number) return false;
    out->push_back(value);
    return true;
  };
  const std::string_view index_text = std::string_view(cursor).substr(1, first_bar - 1);
  if (index_text.empty()) return false;
  std::size_t index = 0;
  for (const char c : index_text) {
    if (c < '0' || c > '9') return false;
    if (index > (std::numeric_limits<std::size_t>::max() - 9) / 10) return false;
    index = index * 10 + static_cast<std::size_t>(c - '0');
  }
  Schema parsed;
  if (!parse_int_list(
          std::string_view(cursor).substr(first_bar + 1, second_bar - first_bar - 1),
          &parsed.unlock_order)) {
    return false;
  }
  if (!parse_int_list(std::string_view(cursor).substr(second_bar + 1),
                      &parsed.cut_positions)) {
    return false;
  }
  *query_index = index;
  *schema = std::move(parsed);
  return true;
}

}  // namespace hv::checker
