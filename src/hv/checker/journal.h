// Crash-safe progress journal for long checking campaigns.
//
// The paper's hardest workloads (the naive multi-round DBFT automaton of
// Table 2) run for days before timing out; a process kill must not destroy
// the accumulated schema verdicts. The journal is an append-only JSONL file
// (format version 4): a header line {"hv_journal":4, automaton, model_hash,
// hvc_version, node?, prune_implications, prune_dead_unlocks,
// property_directed_pruning}, then one line per settled schema, keyed by a
// *stable cursor* derived from the schema content (unlock order + cut
// positions), which the deterministic enumeration order reproduces run
// after run. Each record line is the settled-schema object of record.h,
// with the property's name as its head field: the very object a fleet
// worker sends in a record frame. It carries the verdict, the solve's
// counters (length, pivots, rational fast/big ops, retries, lemma hits and
// lemmas learned), the note, the subtree cut, and the evidence when there is
// some: an unsat schema's proof and a sat schema's model in certify mode, a
// sat schema's counterexample always.
// Records are buffered and fsync'd in batches, so a kill -9 at any point
// loses at most one batch; a torn trailing line (the only possible
// corruption of an append-only file) is skipped on load, as is any line
// that does not decode.
//
// Resume (`hvc check --resume`) loads the journal into a ResumeState and the
// checker skips every already-settled schema, replaying its recorded
// verdict and counters into the run statistics: an interrupted run
// continued this way reports the same verdicts and schema totals as an
// uninterrupted one. The header's pruning options decide which schemas
// exist and which the cone prunes, so a resume under other values is
// refused; certify, lemmas, budgets and thread counts may change. A
// certifying resume replays only the records that
// carry their evidence (an unsat with its proof, or a pruned schema, which
// the auditor re-derives from the cone) and re-solves the rest, so the
// resumed proofs land in the certificate and `hvc audit` checks them like
// any other. Sat records are always re-solved.
#ifndef HV_CHECKER_JOURNAL_H
#define HV_CHECKER_JOURNAL_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "hv/checker/record.h"
#include "hv/checker/result.h"
#include "hv/checker/schema.h"

namespace hv::checker {

/// Stable content hash of an automaton (locations, variables, rules, guards,
/// resilience, process count), independent of source formatting. Journals
/// record it so a resume against a *different* model — whose cursors would
/// silently fail to line up — is refused instead of ignored; the distributed
/// handshake uses it to verify the worker reconstructed the coordinator's
/// automaton. 16 lowercase hex digits (FNV-1a 64).
std::string model_content_hash(const ta::ThresholdAutomaton& ta);

/// The options that decide a property's schema space and the cone's
/// pruning decisions. A journal's records hold for the values it was
/// written under and no others: a pruned record is no claim at all without
/// the cone, and the enumeration prunings decide which cursors exist.
struct SchemaSpace {
  bool prune_implications = true;
  bool prune_dead_unlocks = true;
  bool property_directed_pruning = true;

  bool operator==(const SchemaSpace&) const = default;
};

/// Identity block written into a journal's header line. Implicitly
/// constructible from an automaton name alone (tests); the checker fills all
/// fields.
struct JournalHeader {
  std::string automaton;
  std::string model_hash;   // empty: not recorded
  std::string hvc_version;  // defaults to the running version
  /// Pipeline node identity ("<stage>.<property>#<options-fingerprint-hash>")
  /// when the journal belongs to one pipeline node; empty for whole-run
  /// journals. Resume refuses to feed one node's journal to another —
  /// two nodes of the same automaton share cursors, so the mixup would be
  /// silent otherwise.
  std::string node;
  SchemaSpace space;

  JournalHeader(std::string automaton_name);  // NOLINT(google-explicit-constructor)
  JournalHeader(const char* automaton_name);  // NOLINT(google-explicit-constructor)
  JournalHeader(std::string automaton_name, std::string hash);
};

/// One journal line: a SchemaRecord (schema.h) of `property`, with the
/// solve's counters, note and evidence the line carried in `solve` (its
/// kind and cut_prefix stay default). A line whose verdict record.h does
/// not decode is skipped on load like any other malformed line. An unsat
/// record whose refutation only referenced the first `cut` elements of the
/// schema's unlock chain carries `cut >= 0`: the whole subtree below that
/// prefix is infeasible, and resume rebuilds the subtree-cut index from the
/// field instead of re-deriving it. Riding on the unsat record (rather than a separate line)
/// keeps the verdict and the cut atomic — a kill can lose both, never one
/// without the other.
struct JournalRecord : SchemaRecord {
  std::string property;
  UnitOutcome solve;
};

/// Append-only JSONL writer shared by all workers of a run. Thread-safe;
/// flush+fsync every `flush_batch` records and on destruction.
class ProgressJournal {
 public:
  /// Opens `path` for append and writes a header line recording the format
  /// version, automaton name, model content hash and hvc version (resume
  /// refuses a journal recorded for a different model or version). Throws
  /// hv::Error if the file cannot be opened.
  ProgressJournal(std::string path, const JournalHeader& header, int flush_batch = 256);
  ~ProgressJournal();
  ProgressJournal(const ProgressJournal&) = delete;
  ProgressJournal& operator=(const ProgressJournal&) = delete;

  void append(const std::string& property, const SchemaRecord& record,
              const UnitOutcome& solve = {});
  void append(const JournalRecord& record) { append(record.property, record, record.solve); }
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

/// Parsed journal contents: settled verdicts keyed by (property, cursor).
/// Later records for the same key win (a schema re-solved after a degraded
/// attempt supersedes the earlier record).
struct ResumeState {
  std::string automaton;
  /// Model content hash / hvc version / pipeline node identity from the header;
  /// empty when the header did not record them (for `node`: when it was
  /// not a per-node journal).
  std::string model_hash;
  std::string hvc_version;
  std::string node;
  SchemaSpace space;
  std::unordered_map<std::string, JournalRecord> settled;
  /// The keys of `settled` in the order they first appear in the journal
  /// (a resume replays them so, and a certifying run then writes its
  /// evidence in the uninterrupted run's order).
  std::vector<std::string> order;
  /// Torn or malformed lines skipped during load (a torn tail is the
  /// expected signature of a kill between write and fsync).
  std::int64_t skipped_lines = 0;

  /// The settled record for (property, cursor), or nullptr.
  const JournalRecord* find(const std::string& property, const std::string& cursor) const;

  static std::string key(const std::string& property, const std::string& cursor);
};

/// Loads a journal; tolerant of a torn trailing line and of any other line
/// that does not decode (counted in skipped_lines). Throws hv::Error if the
/// file cannot be read, contains no valid header, mixes identities or
/// schema spaces, or has a header of another format version (an older
/// journal is refused with a "start a fresh journal" diagnostic, never
/// half-read).
ResumeState load_journal(const std::string& path);

/// Refuses a resume whose journal does not match the run: automaton name,
/// model content hash (when the journal recorded one) and hvc version (when
/// recorded) must all agree, each with a precise diagnostic — a journal from
/// a different model would silently fail to line up cursors otherwise.
/// When both the run and the journal carry a pipeline node identity, those must
/// agree too (two nodes over the same automaton share cursor space, so the
/// name/hash checks alone cannot catch the mixup). The schema space must
/// agree option by option, and the diagnostic names the first that does
/// not. Throws hv::InvalidArgument on any mismatch.
void require_resume_compatible(const ResumeState& resume, const std::string& automaton,
                               const std::string& model_hash, const std::string& node = {},
                               const SchemaSpace& space = {});

}  // namespace hv::checker

#endif  // HV_CHECKER_JOURNAL_H
