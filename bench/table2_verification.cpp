// Regenerates Table 2 of the paper — the central experiment:
//
//   TA                     Property      # schemas  Avg. length   Time
//   bv-broadcast           BV-Just0 ...
//   Naive consensus        Inv1_0   ...  (budget/timeout, like ByMC's >24h)
//   Simplified consensus   Inv1_0   ...
//
// Absolute numbers differ from the paper (different machine, reimplemented
// checker and SMT backend), but the shape must match: the bv-broadcast and
// the simplified consensus verify within seconds each — the whole positive
// part in well under the paper's 70 seconds budget on this hardware class —
// while the naive composite automaton exhausts any reasonable budget.
//
// Each verifying property is additionally re-run with certificate emission
// (CheckOptions::certify) to measure the proof-carrying overhead — the
// "certify" column reports certified-time / plain-time.
//
// Flags:
//   --fast             skip the naive attempts (they deliberately time out)
//   --naive-timeout S  per-property timeout for the naive TA (default 60)
//   --no-certify       skip the certify-overhead re-runs
//   --out FILE         also write the results as machine-readable JSON

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "hv/checker/parameterized.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/naive_consensus.h"
#include "hv/models/simplified_consensus.h"
#include "hv/util/json.h"
#include "hv/util/text.h"

namespace {

struct PaperRow {
  const char* property;
  const char* schemas;
  const char* avg_length;
  const char* time;
};

struct Row {
  std::string ta;
  std::string property;
  std::string verdict;
  std::string note;
  long long schemas = 0;
  long long pruned = 0;
  long long cut = 0;
  long long lemma_hits = 0;
  long long lemmas_learned = 0;
  double avg_length = 0.0;
  double seconds = 0.0;
  long long pivots = 0;
  /// Rational arithmetic split: machine-word fast-path ops vs BigInt
  /// fallbacks inside the simplex (see Simplex::Stats).
  long long fast_ops = 0;
  long long big_ops = 0;
  /// Wall-clock of the same check with certificate emission; < 0 when the
  /// certify re-run was skipped.
  double certify_seconds = -1.0;
};

double pivots_per_second(const Row& row) {
  return row.seconds > 0.0 ? static_cast<double>(row.pivots) / row.seconds : 0.0;
}

void print_header() {
  std::printf("  %-22s %-12s %10s %8s %10s %8s %10s   %s\n", "TA", "Property", "#schemas",
              "avg.len", "time", "certify", "verdict", "paper: #schemas/len/time");
}

void print_section(const char* ta_name, const char* size_line,
                   const hv::ta::ThresholdAutomaton& ta,
                   const std::vector<hv::spec::Property>& properties,
                   const hv::checker::CheckOptions& options, bool certify,
                   const std::vector<PaperRow>& paper, std::vector<Row>& rows) {
  std::printf("%s  (%s)\n", ta_name, size_line);
  bool first = true;
  for (const hv::spec::Property& property : properties) {
    const hv::checker::PropertyResult result = hv::checker::check_property(ta, property, options);
    Row row;
    row.ta = ta_name;
    row.property = property.name;
    row.verdict = hv::checker::to_string(result.verdict);
    row.note = result.note;
    row.schemas = static_cast<long long>(result.schemas_checked);
    row.pruned = static_cast<long long>(result.schemas_pruned);
    row.cut = static_cast<long long>(result.schemas_cut);
    row.lemma_hits = static_cast<long long>(result.lemma_hits);
    row.lemmas_learned = static_cast<long long>(result.lemmas_learned);
    row.avg_length = result.avg_schema_length;
    row.seconds = result.seconds;
    row.pivots = static_cast<long long>(result.simplex_pivots);
    row.fast_ops = static_cast<long long>(result.rational_fast_ops);
    row.big_ops = static_cast<long long>(result.rational_big_ops);
    if (certify) {
      hv::checker::CheckOptions certify_options = options;
      certify_options.certify = true;
      row.certify_seconds =
          hv::checker::check_property(ta, property, certify_options).seconds;
    }
    const PaperRow* reference = nullptr;
    for (const PaperRow& entry : paper) {
      if (property.name == entry.property) reference = &entry;
    }
    char avg[32];
    std::snprintf(avg, sizeof avg, "%.0f", row.avg_length);
    char time[32];
    std::snprintf(time, sizeof time, "%.2fs", row.seconds);
    char overhead[32];
    if (row.certify_seconds >= 0.0 && row.seconds > 0.0) {
      std::snprintf(overhead, sizeof overhead, "%.2fx", row.certify_seconds / row.seconds);
    } else {
      std::snprintf(overhead, sizeof overhead, "-");
    }
    std::printf("  %-22s %-12s %10lld %8s %10s %8s %10s   %s\n", first ? ta_name : "",
                row.property.c_str(), row.schemas, avg, time, overhead, row.verdict.c_str(),
                reference ? (std::string(reference->schemas) + " / " + reference->avg_length +
                             " / " + reference->time)
                                .c_str()
                          : "-");
    if (!row.note.empty()) std::printf("  %34s[%s]\n", "", row.note.c_str());
    first = false;
    rows.push_back(std::move(row));
  }
  std::puts("");
}

std::string size_line(const hv::ta::ThresholdAutomaton& ta) {
  return std::to_string(ta.unique_guard_atoms().size()) + " unique guards, " +
         std::to_string(ta.location_count()) + " locations, " +
         std::to_string(ta.rule_count()) + " rules";
}

int write_json(const std::string& path, const std::vector<Row>& rows) {
  using hv::Json;
  Json::Array out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    Json item = Json(Json::Object{});
    item.set("ta", row.ta);
    item.set("property", row.property);
    item.set("verdict", row.verdict);
    if (!row.note.empty()) item.set("note", row.note);
    item.set("schemas", static_cast<std::int64_t>(row.schemas));
    item.set("pruned", static_cast<std::int64_t>(row.pruned));
    item.set("cut", static_cast<std::int64_t>(row.cut));
    item.set("lemma_hits", static_cast<std::int64_t>(row.lemma_hits));
    item.set("lemmas_learned", static_cast<std::int64_t>(row.lemmas_learned));
    item.set("avg_length", row.avg_length);
    item.set("seconds", row.seconds);
    item.set("pivots", static_cast<std::int64_t>(row.pivots));
    item.set("pivots_per_second", pivots_per_second(row));
    item.set("rational_fast_ops", static_cast<std::int64_t>(row.fast_ops));
    item.set("rational_big_ops", static_cast<std::int64_t>(row.big_ops));
    if (row.certify_seconds >= 0.0) {
      item.set("certify_seconds", row.certify_seconds);
      if (row.seconds > 0.0) item.set("certify_overhead", row.certify_seconds / row.seconds);
    }
    out.push_back(std::move(item));
  }
  Json top = Json(Json::Object{});
  top.set("bench", "table2_verification");
  top.set("rows", Json(std::move(out)));
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  file << top.to_pretty_string() << "\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  bool certify = true;
  double naive_timeout = 60.0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--no-certify") == 0) {
      certify = false;
    } else if (std::strcmp(argv[i], "--naive-timeout") == 0 && i + 1 < argc) {
      naive_timeout = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--fast] [--naive-timeout seconds] [--no-certify] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::puts("Table 2: parameterized verification results (any n > 3t, any f <= t)\n");
  print_header();

  hv::checker::CheckOptions options;
  std::vector<Row> rows;

  // --- bv-broadcast ----------------------------------------------------------
  const hv::ta::ThresholdAutomaton bv = hv::models::bv_broadcast();
  print_section("bv-broadcast (Fig.2)", size_line(bv).c_str(), bv, hv::models::bv_properties(bv),
                options, certify,
                {{"BV-Just0", "90", "54", "5.61s"},
                 {"BV-Obl0", "90", "79", "6.87s"},
                 {"BV-Unif0", "760", "97", "27.64s"},
                 {"BV-Term", "90", "79", "6.75s"}},
                rows);

  // --- naive composite consensus ----------------------------------------------
  if (!fast) {
    const hv::ta::ThresholdAutomaton naive = hv::models::naive_consensus_one_round();
    hv::checker::CheckOptions naive_options = options;
    naive_options.timeout_seconds = naive_timeout;
    // No certify re-run: the point of these rows is the timeout.
    print_section("Naive consensus (Fig.3)", size_line(naive).c_str(), naive,
                  hv::models::naive_table2_properties(naive), naive_options, false,
                  {{"Inv1_0", ">100000", "-", ">24h"},
                   {"Inv2_0", ">100000", "-", ">24h"},
                   {"SRoundTerm", ">100000", "-", ">24h"}},
                  rows);
  } else {
    std::puts("  Naive consensus (Fig.3): skipped (--fast); expected outcome: timeouts\n");
  }

  // --- simplified consensus -----------------------------------------------------
  const hv::ta::ThresholdAutomaton simplified = hv::models::simplified_consensus_one_round();
  print_section("Simplified (Fig.4)", size_line(simplified).c_str(), simplified,
                hv::models::simplified_table2_properties(simplified), options, certify,
                {{"Inv1_0", "6", "102", "4.68s"},
                 {"Inv2_0", "2", "73", "4.56s"},
                 {"SRoundTerm", "2", "109", "4.13s"},
                 {"Good_0", "2", "67", "4.55s"},
                 {"Dec_0", "2", "73", "4.62s"}},
                rows);

  std::puts("Expected shape: bv-broadcast and the simplified consensus verify in seconds");
  std::puts("per property; the naive composite automaton exhausts its budget (paper: >24h).");
  std::puts("The certify column is certified-time / plain-time (proof-carrying overhead).");
  if (!out_path.empty()) return write_json(out_path, rows);
  return 0;
}
