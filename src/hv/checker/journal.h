// Crash-safe progress journal for long checking campaigns.
//
// The paper's hardest workloads (the naive multi-round DBFT automaton of
// Table 2) run for days before timing out; a process kill must not destroy
// the accumulated schema verdicts. The journal is an append-only JSONL file:
// one record per settled schema, keyed by a *stable cursor* derived from the
// schema content (unlock order + cut positions), which the deterministic
// enumeration order reproduces run after run. Records are buffered and
// fsync'd in batches, so a kill -9 at any point loses at most one batch; a
// torn trailing line (the only possible corruption of an append-only file)
// is skipped on load.
//
// Resume (`hvc check --resume`) loads the journal into a ResumeState and the
// checker skips every already-settled schema, replaying its recorded
// verdict, length and pivot count into the run statistics — an interrupted
// run continued this way reports the same verdicts as an uninterrupted one.
#ifndef HV_CHECKER_JOURNAL_H
#define HV_CHECKER_JOURNAL_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>

#include "hv/checker/schema.h"

namespace hv::checker {

/// Stable identity of one (query, schema) work unit within a property run:
/// the enumeration is deterministic, so the cursor names the same schema in
/// every run over the same automaton and property.
std::string schema_cursor(std::size_t query_index, const Schema& schema);

/// Inverse of schema_cursor: parses "q<idx>|a,b,c|d,e" back into the query
/// index and schema content. Returns false on malformed input. Used by the
/// distributed coordinator to reconstruct schemas from streamed verdict
/// records (and by tests).
bool parse_schema_cursor(const std::string& cursor, std::size_t* query_index, Schema* schema);

/// Stable content hash of an automaton (locations, variables, rules, guards,
/// resilience, process count), independent of source formatting. Journals
/// record it so a resume against a *different* model — whose cursors would
/// silently fail to line up — is refused instead of ignored; the distributed
/// handshake uses it to verify the worker reconstructed the coordinator's
/// automaton. 16 lowercase hex digits (FNV-1a 64).
std::string model_content_hash(const ta::ThresholdAutomaton& ta);

/// Identity block written into a journal's header line. Implicitly
/// constructible from an automaton name alone (tests, legacy callers); the
/// checker fills all fields.
struct JournalHeader {
  std::string automaton;
  std::string model_hash;   // empty: not recorded (legacy)
  std::string hvc_version;  // defaults to the running version
  /// DAG node identity ("<stage>.<property>#<options-fingerprint-hash>")
  /// when the journal belongs to one pipeline node; empty for whole-run
  /// journals. Resume refuses to feed one node's journal to another —
  /// two nodes of the same automaton share cursors, so the mixup would be
  /// silent otherwise.
  std::string node;

  JournalHeader(std::string automaton_name);  // NOLINT(google-explicit-constructor)
  JournalHeader(const char* automaton_name);  // NOLINT(google-explicit-constructor)
  JournalHeader(std::string automaton_name, std::string hash);
};

/// One journal line: a SchemaRecord (schema.h) of `property` whose fast,
/// big and retries counters are not journaled. `verdict` is one of "unsat",
/// "sat", "pruned", "unknown" or "revoked"; sat records exist for
/// completeness but are re-solved on resume (the counterexample itself is
/// not journaled). A "revoked" record is legacy input: older distributed
/// coordinators appended one when they caught a worker lying after its
/// records had merged. On load it still *erases* any earlier record for the
/// same cursor, so a resumed run re-solves the schema; no current writer
/// emits one. An unsat record
/// whose refutation only referenced the first `cut` elements of the
/// schema's unlock chain carries `cut >= 0`: the whole subtree below that
/// prefix is infeasible, and resume rebuilds the subtree-cut index from
/// the field instead of re-deriving it. Riding on the unsat record (rather
/// than a separate line) keeps the verdict and the cut atomic — a kill
/// can lose both, never one without the other.
struct JournalRecord : SchemaRecord {
  std::string property;
};

/// Append-only JSONL writer shared by all workers of a run. Thread-safe;
/// flush+fsync every `flush_batch` records and on destruction.
class ProgressJournal {
 public:
  /// Opens `path` for append and writes a header line recording the
  /// automaton name, model content hash and hvc version (resume refuses a
  /// journal recorded for a different model or version). Throws hv::Error if
  /// the file cannot be opened.
  ProgressJournal(std::string path, const JournalHeader& header, int flush_batch = 256);
  ~ProgressJournal();
  ProgressJournal(const ProgressJournal&) = delete;
  ProgressJournal& operator=(const ProgressJournal&) = delete;

  void append(const std::string& property, const SchemaRecord& record);
  void append(const JournalRecord& record) { append(record.property, record); }
  /// Durability point: fflush + fsync.
  void flush();

  const std::string& path() const noexcept { return path_; }
  std::int64_t records_written() const noexcept { return records_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  int flush_batch_ = 256;
  int unflushed_ = 0;
  std::int64_t records_ = 0;
};

/// Durability point of an append-only file after fflush. For appends
/// fdatasync gives the same durability as fsync (it flushes the size
/// metadata needed to read the appended data back) at a fraction of the cost
/// on journaling filesystems.
void sync_to_disk(std::FILE* file);

/// Appends one record to `journal`; a no-op when journaling is off (null).
void journal_append(ProgressJournal* journal, const std::string& property,
                    const SchemaRecord& record);

/// Parsed journal contents: settled verdicts keyed by (property, cursor).
/// Later records for the same key win (a schema re-solved after a degraded
/// attempt supersedes the earlier record).
struct ResumeState {
  std::string automaton;
  /// Model content hash / hvc version / DAG node identity from the header;
  /// empty when the journal predates their introduction (or, for `node`,
  /// when it was not a per-node journal).
  std::string model_hash;
  std::string hvc_version;
  std::string node;
  std::unordered_map<std::string, JournalRecord> settled;
  /// Torn or malformed lines skipped during load (a torn tail is the
  /// expected signature of a kill between write and fsync).
  std::int64_t skipped_lines = 0;

  /// The settled record for (property, cursor), or nullptr.
  const JournalRecord* find(const std::string& property, const std::string& cursor) const;

  static std::string key(const std::string& property, const std::string& cursor);
};

/// Loads a journal; tolerant of a torn trailing line. Throws hv::Error if
/// the file cannot be read or contains no valid header.
ResumeState load_journal(const std::string& path);

/// Refuses a resume whose journal does not match the run: automaton name,
/// model content hash (when the journal recorded one) and hvc version (when
/// recorded) must all agree, each with a precise diagnostic — a journal from
/// a different model would silently fail to line up cursors otherwise.
/// When both the run and the journal carry a DAG node identity, those must
/// agree too (two nodes over the same automaton share cursor space, so the
/// name/hash checks alone cannot catch the mixup). Throws
/// hv::InvalidArgument on any mismatch.
void require_resume_compatible(const ResumeState& resume, const std::string& automaton,
                               const std::string& model_hash, const std::string& node = {});

}  // namespace hv::checker

#endif  // HV_CHECKER_JOURNAL_H
