#include "hv/checker/journal.h"

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "hv/util/error.h"
#include "hv/util/hash.h"
#include "hv/util/text.h"
#include "hv/util/version.h"

namespace hv::checker {

namespace {

// Minimal scanner for the flat one-line objects this file writes. Returns
// false on malformed input (the torn-tail case) instead of throwing.
class LineScanner {
 public:
  explicit LineScanner(const std::string& line) : line_(line) {}

  // Parses `{"k":v, ...}` into the two output maps.
  bool parse(std::unordered_map<std::string, std::string>* strings,
             std::unordered_map<std::string, std::int64_t>* numbers) {
    skip_space();
    if (!consume('{')) return false;
    skip_space();
    if (consume('}')) return done();
    for (;;) {
      std::string key;
      if (!parse_string(&key)) return false;
      skip_space();
      if (!consume(':')) return false;
      skip_space();
      if (at_ < line_.size() && line_[at_] == '"') {
        std::string value;
        if (!parse_string(&value)) return false;
        (*strings)[key] = std::move(value);
      } else {
        std::int64_t value = 0;
        if (!parse_number(&value)) return false;
        (*numbers)[key] = value;
      }
      skip_space();
      if (consume(',')) {
        skip_space();
        continue;
      }
      if (consume('}')) return done();
      return false;
    }
  }

 private:
  bool done() {
    skip_space();
    return at_ == line_.size();
  }

  void skip_space() {
    while (at_ < line_.size() && (line_[at_] == ' ' || line_[at_] == '\t' ||
                                  line_[at_] == '\r')) {
      ++at_;
    }
  }

  bool consume(char c) {
    if (at_ < line_.size() && line_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (at_ < line_.size()) {
      const char c = line_[at_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (at_ >= line_.size()) return false;
      const char next = line_[at_++];
      switch (next) {
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          // Only \u00XX controls are ever written.
          unsigned code = 0;
          const char* first = line_.data() + at_;
          if (at_ + 4 > line_.size() ||
              std::from_chars(first, first + 4, code, 16).ptr != first + 4 || code > 0xff) {
            return false;
          }
          at_ += 4;
          *out += static_cast<char>(code);
          break;
        }
        default:
          *out += next;  // \" and \\ (and pass anything else through)
      }
    }
    return false;  // unterminated: torn line
  }

  // The whole token must be an integer that fits int64: a bare "-" or an
  // overlong digit run is a malformed line, not an exception.
  bool parse_number(std::int64_t* out) {
    const std::size_t start = at_;
    if (at_ < line_.size() && line_[at_] == '-') ++at_;
    while (at_ < line_.size() && line_[at_] >= '0' && line_[at_] <= '9') ++at_;
    const char* first = line_.data() + start;
    const char* last = line_.data() + at_;
    const auto [end, error] = std::from_chars(first, last, *out);
    return error == std::errc() && end == last;
  }

  const std::string& line_;
  std::size_t at_ = 0;
};

}  // namespace

void sync_to_disk(std::FILE* file) {
#if defined(__linux__)
  ::fdatasync(fileno(file));
#else
  ::fsync(fileno(file));
#endif
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

std::string model_content_hash(const ta::ThresholdAutomaton& ta) {
  std::uint64_t hash = kFnvOffsetBasis;
  const auto mix = [&hash](std::string_view text) {
    // Field separator so "ab"+"c" and "a"+"bc" hash differently.
    hash = fnv1a("\x1f", fnv1a(text, hash));
  };
  const auto name_of = [&ta](ta::VarId id) { return ta.variable_name(id); };
  mix(ta.name());
  for (const ta::Location& location : ta.locations()) {
    mix(location.name);
    mix(location.initial ? "1" : "0");
  }
  for (int v = 0; v < ta.variable_count(); ++v) {
    mix(ta.variable_name(v));
    mix(ta.is_parameter(v) ? "p" : "s");
  }
  for (const ta::Rule& rule : ta.rules()) {
    mix(rule.name);
    mix(std::to_string(rule.from));
    mix(std::to_string(rule.to));
    mix(ta.guard_to_string(rule.guard));
    for (const auto& [var, amount] : rule.update.increments) {
      mix(ta.variable_name(var));
      mix(amount.to_string());
    }
  }
  for (const smt::LinearConstraint& constraint : ta.resilience()) {
    mix(constraint.to_string(name_of));
  }
  mix(ta.process_count().to_string(name_of));
  return hex16(hash);
}

JournalHeader::JournalHeader(std::string automaton_name)
    : automaton(std::move(automaton_name)), hvc_version(kHvcVersion) {}

JournalHeader::JournalHeader(const char* automaton_name)
    : JournalHeader(std::string(automaton_name)) {}

JournalHeader::JournalHeader(std::string automaton_name, std::string hash)
    : automaton(std::move(automaton_name)),
      model_hash(std::move(hash)),
      hvc_version(kHvcVersion) {}

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

ProgressJournal::ProgressJournal(std::string path, const JournalHeader& header,
                                 int flush_batch)
    : path_(std::move(path)), flush_batch_(flush_batch < 1 ? 1 : flush_batch) {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw Error("journal: cannot open " + path_ + " for append");
  std::string line = "{\"hv_journal\":2,\"automaton\":\"" + json_escape(header.automaton) + "\"";
  if (!header.model_hash.empty()) {
    line += ",\"model_hash\":\"" + json_escape(header.model_hash) + "\"";
  }
  if (!header.hvc_version.empty()) {
    line += ",\"hvc_version\":\"" + json_escape(header.hvc_version) + "\"";
  }
  if (!header.node.empty()) {
    line += ",\"node\":\"" + json_escape(header.node) + "\"";
  }
  line += "}\n";
  std::fputs(line.c_str(), file_);
  flush();
}

ProgressJournal::~ProgressJournal() {
  if (file_ != nullptr) {
    flush();
    std::fclose(file_);
  }
}

void journal_append(ProgressJournal* journal, const std::string& property,
                    const SchemaRecord& record) {
  if (journal != nullptr) journal->append(property, record);
}

void ProgressJournal::append(const std::string& property, const SchemaRecord& record) {
  std::string line = "{\"p\":\"" + json_escape(property) + "\",\"c\":\"" +
                     json_escape(record.cursor) + "\",\"v\":\"" + json_escape(record.verdict) +
                     "\"";
  if (record.length != 0) line += ",\"len\":" + std::to_string(record.length);
  if (record.pivots != 0) line += ",\"piv\":" + std::to_string(record.pivots);
  if (record.cut >= 0) line += ",\"cut\":" + std::to_string(record.cut);
  if (!record.note.empty()) line += ",\"note\":\"" + json_escape(record.note) + "\"";
  line += "}\n";
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs(line.c_str(), file_);
  ++records_;
  if (++unflushed_ >= flush_batch_) {
    std::fflush(file_);
    sync_to_disk(file_);
    unflushed_ = 0;
  }
}

void ProgressJournal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  sync_to_disk(file_);
  unflushed_ = 0;
}

std::string ResumeState::key(const std::string& property, const std::string& cursor) {
  return property + '\x1f' + cursor;
}

const JournalRecord* ResumeState::find(const std::string& property,
                                       const std::string& cursor) const {
  const auto it = settled.find(key(property, cursor));
  return it == settled.end() ? nullptr : &it->second;
}

ResumeState load_journal(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw Error("journal: cannot read " + path);
  ResumeState state;
  bool header_seen = false;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    std::unordered_map<std::string, std::string> strings;
    std::unordered_map<std::string, std::int64_t> numbers;
    if (!LineScanner(line).parse(&strings, &numbers)) {
      // Torn tail (or stray corruption): count and move on — the schema the
      // line described is simply re-solved.
      ++state.skipped_lines;
      continue;
    }
    if (numbers.contains("hv_journal")) {
      const auto automaton = strings.find("automaton");
      if (automaton == strings.end()) {
        ++state.skipped_lines;
        continue;
      }
      if (header_seen && state.automaton != automaton->second) {
        throw Error("journal: " + path + " mixes automatons '" + state.automaton +
                    "' and '" + automaton->second + "'");
      }
      state.automaton = automaton->second;
      // Identity fields appeared with header version 2; a file resumed
      // across versions keeps the strictest (non-empty) values and refuses
      // outright contradictions.
      const auto adopt = [&](const char* key, std::string* slot) {
        const auto it = strings.find(key);
        if (it == strings.end()) return;
        if (!slot->empty() && *slot != it->second) {
          throw Error("journal: " + path + " mixes " + key + " '" + *slot + "' and '" +
                      it->second + "'");
        }
        *slot = it->second;
      };
      adopt("model_hash", &state.model_hash);
      adopt("hvc_version", &state.hvc_version);
      adopt("node", &state.node);
      header_seen = true;
      continue;
    }
    JournalRecord record;
    const auto field = [&](const char* name) -> std::string {
      const auto it = strings.find(name);
      return it == strings.end() ? std::string() : it->second;
    };
    record.property = field("p");
    record.cursor = field("c");
    record.verdict = field("v");
    record.note = field("note");
    if (const auto it = numbers.find("len"); it != numbers.end()) record.length = it->second;
    if (const auto it = numbers.find("piv"); it != numbers.end()) record.pivots = it->second;
    if (const auto it = numbers.find("cut"); it != numbers.end()) record.cut = it->second;
    if (record.property.empty() || record.cursor.empty() || record.verdict.empty()) {
      ++state.skipped_lines;
      continue;
    }
    if (record.verdict == "revoked") {
      // Compensating record written by older distributed coordinators: the
      // original verdict came from a worker later caught lying, so a resumed
      // run must re-solve this cursor as if it had never been settled.
      state.settled.erase(ResumeState::key(record.property, record.cursor));
      continue;
    }
    state.settled[ResumeState::key(record.property, record.cursor)] = std::move(record);
  }
  if (!header_seen) throw Error("journal: " + path + " has no valid header line");
  return state;
}

void require_resume_compatible(const ResumeState& resume, const std::string& automaton,
                               const std::string& model_hash, const std::string& node) {
  if (resume.automaton != automaton) {
    throw InvalidArgument("checker: resume journal was recorded for automaton '" +
                          resume.automaton + "', not '" + automaton + "'");
  }
  if (!resume.model_hash.empty() && !model_hash.empty() && resume.model_hash != model_hash) {
    throw InvalidArgument(
        "checker: resume journal was recorded for a different model: journal model hash " +
        resume.model_hash + ", current model hash " + model_hash +
        " — its schema cursors would not line up; re-run against the original model or "
        "start a fresh journal");
  }
  if (!resume.hvc_version.empty() && resume.hvc_version != kHvcVersion) {
    throw InvalidArgument(
        "checker: resume journal was written by hvc " + resume.hvc_version +
        ", but this is hvc " + std::string(kHvcVersion) +
        " — cursors are only comparable within one version; start a fresh journal");
  }
  if (!resume.node.empty() && !node.empty() && resume.node != node) {
    throw InvalidArgument("checker: resume journal belongs to pipeline node '" + resume.node +
                          "', not '" + node +
                          "' — per-node journals are not interchangeable even within one "
                          "automaton; point --resume at this node's own journal");
  }
}

}  // namespace hv::checker
