#include "hv/checker/journal.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "hv/util/error.h"
#include "hv/util/hash.h"
#include "hv/util/version.h"

namespace hv::checker {

namespace {

// The header's format version. Version 3 made each record line the
// settled-schema object of record.h; version 4 records the schema space in
// the header. Older journals are refused, not half-read.
constexpr std::int64_t kJournalVersion = 4;

// The schema-space options, in header and diagnostic order.
constexpr std::pair<const char*, bool SchemaSpace::*> kSpaceOptions[] = {
    {"prune_implications", &SchemaSpace::prune_implications},
    {"prune_dead_unlocks", &SchemaSpace::prune_dead_unlocks},
    {"property_directed_pruning", &SchemaSpace::property_directed_pruning},
};

}  // namespace

void sync_to_disk(std::FILE* file) {
#if defined(__linux__)
  ::fdatasync(fileno(file));
#else
  ::fsync(fileno(file));
#endif
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

ProgressJournal::ProgressJournal(std::string path, const JournalHeader& header,
                                 int flush_batch)
    : path_(std::move(path)), flush_batch_(flush_batch < 1 ? 1 : flush_batch) {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw Error("journal: cannot open " + path_ + " for append");
  Json line = Json::Object{{"hv_journal", kJournalVersion}, {"automaton", header.automaton}};
  if (!header.model_hash.empty()) line.set("model_hash", header.model_hash);
  if (!header.hvc_version.empty()) line.set("hvc_version", header.hvc_version);
  if (!header.node.empty()) line.set("node", header.node);
  for (const auto& [key, option] : kSpaceOptions) line.set(key, header.space.*option);
  std::fputs((line.to_string() + "\n").c_str(), file_);
  flush();
}

ProgressJournal::~ProgressJournal() {
  if (file_ != nullptr) {
    flush();
    std::fclose(file_);
  }
}

void ProgressJournal::append(const std::string& property, const SchemaRecord& record,
                             const UnitOutcome& solve) {
  const std::string line =
      record_to_json(record, solve, {{"property", property}}).to_string() + "\n";
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
    Json json;
    try {
      json = Json::parse(line);
    } catch (const Error&) {
      // Torn tail (or stray corruption): count and move on — the schema the
      // line described is simply re-solved.
      ++state.skipped_lines;
      continue;
    }
    if (const Json* version = json.find("hv_journal")) {
      if (version->kind() == Json::Kind::kInt && version->as_int() != kJournalVersion) {
        throw Error("journal: " + path + " is a version-" + std::to_string(version->as_int()) +
                    " journal, and this hvc reads only version " +
                    std::to_string(kJournalVersion) + "; start a fresh journal");
      }
      const Json* automaton = json.find("automaton");
      const auto text = [&](const char* key) {
        const Json* field = json.find(key);
        return field == nullptr || field->kind() == Json::Kind::kString;
      };
      SchemaSpace space;
      bool flags = true;
      for (const auto& [key, option] : kSpaceOptions) {
        const Json* field = json.find(key);
        flags = flags && field != nullptr && field->kind() == Json::Kind::kBool;
        if (flags) space.*option = field->as_bool();
      }
      if (version->kind() != Json::Kind::kInt || automaton == nullptr || !flags ||
          !text("automaton") || !text("model_hash") || !text("hvc_version") || !text("node")) {
        ++state.skipped_lines;
        continue;
      }
      if (header_seen && state.automaton != automaton->as_string()) {
        throw Error("journal: " + path + " mixes automatons '" + state.automaton + "' and '" +
                    automaton->as_string() + "'");
      }
      state.automaton = automaton->as_string();
      // A file resumed across runs keeps the strictest (non-empty) identity
      // values and refuses outright contradictions.
      const auto adopt = [&](const char* key, std::string* slot) {
        const Json* field = json.find(key);
        if (field == nullptr) return;
        if (!slot->empty() && *slot != field->as_string()) {
          throw Error("journal: " + path + " mixes " + key + " '" + *slot + "' and '" +
                      field->as_string() + "'");
        }
        *slot = field->as_string();
      };
      adopt("model_hash", &state.model_hash);
      adopt("hvc_version", &state.hvc_version);
      adopt("node", &state.node);
      if (header_seen && state.space != space) {
        throw Error("journal: " + path + " mixes headers of different pruning options");
      }
      state.space = space;
      header_seen = true;
      continue;
    }
    JournalRecord record;
    try {
      static_cast<SchemaRecord&>(record) = record_from_json(json, &record.solve);
      record.property = json.at("property").as_string();
    } catch (const Error&) {
      ++state.skipped_lines;
      continue;
    }
    if (record.property.empty() || record.cursor.empty()) {
      ++state.skipped_lines;
      continue;
    }
    std::string key = ResumeState::key(record.property, record.cursor);
    const auto [slot, first] = state.settled.try_emplace(key);
    slot->second = std::move(record);
    if (first) state.order.push_back(std::move(key));
  }
  if (!header_seen) throw Error("journal: " + path + " has no valid header line");
  return state;
}

void require_resume_compatible(const ResumeState& resume, const std::string& automaton,
                               const std::string& model_hash, const std::string& node,
                               const SchemaSpace& space) {
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
  for (const auto& [key, option] : kSpaceOptions) {
    if (resume.space.*option == space.*option) continue;
    throw InvalidArgument("checker: resume journal was written with " + std::string(key) +
                          (resume.space.*option ? " on" : " off") + ", but this run has it " +
                          (space.*option ? "on" : "off") +
                          " — its records settle another schema space; resume with the "
                          "journal's pruning options or start a fresh journal");
  }
}

}  // namespace hv::checker
