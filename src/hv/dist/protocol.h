// Wire protocol of the distributed verification service: addresses,
// connection handling and the JSON message vocabulary shared by the
// coordinator (coordinator.h) and the worker (worker.h).
//
// Addresses are "unix:/path/to.sock" or "tcp:host:port" (a bare
// "host:port" is accepted as TCP). Every message is one JSON object in one
// frame (frame.h) with a "type" field:
//
//   worker -> coordinator
//     hello      {protocol, label}
//     next       {}                     request a lease (pull model); the
//                                      coordinator may hold the reply until
//                                      a lease frees up (long poll)
//     record     {lease, property, cursor, verdict, length, pivots, fast?,
//                 big?, retries, hits?, learned?, note, cut?, proof?} one
//                 settled schema; cut = subtree-cut prefix length of an
//                 unsat refutation, hits/learned = its lemma-pool activity
//                 (omitted when zero)
//     sat        {lease, property, cursor, length, pivots, fast, big,
//                 retries, hits?, learned?, validation_error,
//                 counterexample?, model?}
//                (both checker/record.h's object, as a journal line is; its
//                counters are the solve's UnitOutcome, which the
//                coordinator's tally counts as it merges the record)
//     lease_done {lease, stats{...}, cut?, lemmas[]?}  lemmas = the Farkas
//                                      lemmas the worker banked since its
//                                      last lease_done (cuts ride on record
//                                      frames; the coordinator ignores a
//                                      cuts[] here)
//     heartbeat  {}                     liveness only; renews the deadline
//
//   coordinator -> worker
//     welcome    {protocol, model_hash, model_text, properties[], options{},
//                 lease_timeout}        options.lemmas: the run learns
//     lease      {lease, property, query, prefix[], extensions, skip[],
//                 cuts[]?, lemmas[]?}   cuts/lemmas: every fact the book
//                                      holds for that (property, query)
//     wait       {}                     a long poll ran out its bound with
//                                      nothing grantable; ask again at once
//     abandon    {lease}               stop that lease: the property is
//                                      settled or the lease reassigned; the
//                                      worker closes it with lease_done
//     shutdown   {reason}               run over; worker disconnects. Also
//                                      sent *instead of* welcome when the
//                                      worker's label is quarantined or
//                                      banned for this run (coordinator.h)
//
// The pull model keeps the coordinator passive between frames: a worker
// that dies simply stops asking, and *any* frame (heartbeats included)
// renews its lease deadline, so only a genuinely dead or wedged worker is
// expropriated. The coordinator sends a worker nothing but replies to that
// worker's own frames (welcome, lease/wait/shutdown, abandon), so a peer
// that stops reading can stall only its own session.
//
// The coordinator does not trust worker frames. A record or sat frame must
// cite a lease that was actually granted on its own connection, whose
// (property, query) matches and whose subtree covers the reported cursor;
// a definitive verdict that conflicts with an already-settled one is
// equally hostile. Any violation costs the connection (never the run) and
// feeds the sender's health score. The welcome's `lease_timeout` (seconds)
// lets the worker refuse heartbeat periods that the coordinator would
// mistake for death.
//
// Compatibility: the protocol revision (util/version.h) is the only
// mechanism. It is bumped on any frame or message change, and a
// coordinator and a worker of different revisions never pair: the
// coordinator answers such a hello with a shutdown naming both revisions,
// and a worker stops on such a welcome without reconnecting. Learning is
// the run's, not the peer's: the welcome's options carry the coordinator's
// effective lemmas_enabled, a worker's book folds in its own HV_NO_LEMMAS,
// and a worker that does not learn ignores the cuts[] and lemmas[] it is
// sent and omits lease_done's cut and lemmas[]. The coordinator takes a
// record's cut and lease_done's cut and lemmas[] only when the run learns.
// A fact reaches a worker only in a grant: one learned during a lease is
// seen by the grants after it.
//
//   cuts entries:   {q, prefix[]}       — the chain prefix is unsat, every
//                                         schema extending it too
//   lemmas entries: {q, premises[]}     — a pooled Farkas refutation, keyed
//                                         by constraint content
//   (both sides write and read them through LearnPayload and fold_learn)
//   lease_done cut: schemas skipped by cuts while holding the lease (sent
//                   only by a learning worker)
#ifndef HV_DIST_PROTOCOL_H
#define HV_DIST_PROTOCOL_H

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hv/checker/parameterized.h"
#include "hv/checker/record.h"
#include "hv/checker/result.h"
#include "hv/checker/schema_solver.h"
#include "hv/dist/frame.h"
#include "hv/spec/query.h"
#include "hv/ta/automaton.h"
#include "hv/util/json.h"

namespace hv::dist {

class ChaosLink;

/// A parsed listen/connect address.
struct Address {
  bool unix_domain = false;
  std::string path;  // unix: socket path
  std::string host;  // tcp: host (empty = all interfaces when listening)
  int port = 0;      // tcp
};

/// Parses "unix:/path", "tcp:host:port" or "host:port". Throws
/// hv::InvalidArgument on anything else.
Address parse_address(const std::string& text);

/// Binds and listens; returns the listening fd. Throws hv::Error on
/// failure (address in use, bad path, ...). Unix sockets unlink a stale
/// path first.
int listen_on(const Address& address);

/// Connects; returns the fd or -1 (no throw — workers retry).
int connect_to(const Address& address);

/// One protocol connection: a frame stream carrying JSON objects. Reads
/// are single-threaded per connection; writes are serialized internally so
/// a worker's heartbeat thread can share the fd with its lease loop.
class Conn {
 public:
  /// `subject_to_chaos` opts this connection into the deterministic
  /// network-fault plan from the environment (chaos.h). Only the
  /// coordinator/worker data path passes true; the daemon's tenant RPC and
  /// raw test fixtures stay fault-free.
  explicit Conn(int fd, bool subject_to_chaos = false);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }

  /// Serializes and sends one message. Returns false on any send failure.
  bool send(const Json& message);

  /// Receives one message. Returns the frame status; on kOk `*message` is
  /// the parsed object. A frame that is not valid JSON returns kBadMagic's
  /// cousin: status kOk is only returned for parseable payloads, anything
  /// else comes back as kError with the message left null. A kTimeout loses
  /// no bytes: a frame cut by the deadline completes on the next call.
  FrameStatus recv(Json* message, int timeout_ms);

  /// True when a frame is in flight: part of one is already read, or at
  /// least one byte is waiting (or the peer closed). Never consumes data —
  /// safe to poll mid-lease.
  bool readable() const;

  /// Closes the fd (idempotent).
  void close();
  /// shutdown(2) both directions without closing: unblocks a reader in
  /// another thread.
  void shutdown();

 private:
  int fd_ = -1;
  FrameReader reader_;
  std::mutex write_mutex_;
  std::unique_ptr<ChaosLink> chaos_;  // armed only via the env fault plan
};

// --- property resolution ----------------------------------------------------

/// How one property travels in the welcome message. Workers recompile it
/// against their own parse of the shipped model text, so both sides check
/// the *same* compiled queries ("ltl": compile `formula`; bundled: look
/// `name` up in the model's bundled property set).
struct PropertySpec {
  std::string name;
  std::string formula;   // ltl source; informational when bundled
  bool bundled = false;
};

/// Resolves specs into compiled properties, identically on the coordinator
/// and on every worker. Throws hv::InvalidArgument on an unknown bundled
/// name or an uncompilable formula.
std::vector<spec::Property> resolve_properties(const ta::ThresholdAutomaton& ta,
                                               const std::vector<PropertySpec>& specs);

Json specs_to_json(const std::vector<PropertySpec>& specs);
std::vector<PropertySpec> specs_from_json(const Json& json);

// --- wire conversions -------------------------------------------------------

/// Solver settings a worker needs to reproduce the coordinator's checking
/// semantics; the subset of checker::CheckOptions that travels.
Json options_to_json(const checker::CheckOptions& options);
checker::CheckOptions options_from_json(const Json& json);

/// A settled schema as a worker frame: the settled-schema object of
/// checker/record.h (decoded by checker::record_from_json) with the lease and
/// the property's index as its head fields.
Json record_frame(const checker::SchemaRecord& record, const checker::UnitOutcome& solve,
                  std::int64_t lease, std::size_t property);

/// The learned facts of one property on the wire: the cuts[] ({q, prefix[]})
/// and lemmas[] ({q, premises[]}) entries of a lease grant, and the lemmas[]
/// of a lease_done.
struct LearnPayload {
  Json::Array cuts;
  Json::Array lemmas;

  void add_cut(std::size_t q, const std::vector<int>& prefix);
  void add_lemma(std::size_t q, const smt::Lemma& lemma);
  /// Moves the non-empty arrays into `frame`.
  void put(Json& frame);
};

/// Folds the lemmas[] entries of a lease grant or lease_done into
/// `learning`, and its cuts[] entries too when `with_cuts`. Lemmas go in as
/// remote facts (LemmaPool::insert with fresh=false), so take_fresh never
/// echoes them back. Entries naming a query `learning` lacks, and lemmas
/// without premises, are skipped. Throws on a mistyped entry, keeping the
/// entries folded before it.
void fold_learn(const Json& frame, checker::PropertyLearning& learning, bool with_cuts);

}  // namespace hv::dist

#endif  // HV_DIST_PROTOCOL_H
