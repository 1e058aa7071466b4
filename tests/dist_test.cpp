#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hv/cert/audit.h"
#include "hv/cert/emit.h"
#include "hv/checker/cone.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/journal.h"
#include "hv/checker/parameterized.h"
#include "hv/checker/schema_solver.h"
#include "hv/dist/coordinator.h"
#include "hv/dist/frame.h"
#include "hv/dist/local.h"
#include "hv/dist/protocol.h"
#include "hv/dist/worker.h"
#include "hv/spec/compile.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/text.h"
#include "hv/util/version.h"

namespace hv::dist {
namespace {

constexpr const char* kEchoModel = R"(
ta Echo {
  parameters n, t, f;
  shared x;
  resilience n > 3*t;
  resilience t >= f;
  resilience f >= 0;
  processes n - f;
  initial A;
  locations B, W, D;
  rule announce: A -> B do x += 1;
  rule wait: A -> W;
  rule proceed: W -> D when x >= t + 1 - f;
  selfloop B;
  selfloop D;
}
)";

constexpr const char* kHoldsFormula = "[](locB == 0) -> [](locD == 0)";
constexpr const char* kViolatedFormula = "<>(locA == 0 && locW == 0)";

// The pid keeps concurrent runs of the same test binary apart.
std::string temp_path(const char* name) {
  const std::string path = ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

// --- frame codec ------------------------------------------------------------

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void close_writer() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }
  int writer() const { return fds_[0]; }
  int reader() const { return fds_[1]; }

  void raw(const std::string& bytes) {
    ASSERT_EQ(::write(writer(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  int fds_[2] = {-1, -1};
};

TEST_F(FramePair, RoundTripsPayloads) {
  for (const std::string& payload : {std::string("{\"type\":\"hello\"}"), std::string(),
                                    std::string(1000, 'x')}) {
    ASSERT_TRUE(write_frame(writer(), payload));
    std::string got;
    ASSERT_EQ(read_frame(reader(), &got, 1000), FrameStatus::kOk);
    EXPECT_EQ(got, payload);
  }
}

TEST_F(FramePair, RoundTripsLargePayloadAcrossThreads) {
  // Bigger than a socket buffer, so the write blocks until the reader drains.
  const std::string payload(512 * 1024, 'y');
  std::thread sender([&] { write_frame(writer(), payload); });
  std::string got;
  EXPECT_EQ(read_frame(reader(), &got, 5000), FrameStatus::kOk);
  sender.join();
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
}

TEST_F(FramePair, CleanCloseIsClosedNotTorn) {
  close_writer();
  std::string got;
  EXPECT_EQ(read_frame(reader(), &got, 1000), FrameStatus::kClosed);
  EXPECT_TRUE(got.empty());
}

TEST_F(FramePair, TruncatedFrameIsTorn) {
  // Magic + declared length 100, then die after 3 payload bytes.
  raw(std::string(kFrameMagic, 4) + std::string{0, 0, 0, 100} + "abc");
  close_writer();
  std::string got;
  EXPECT_EQ(read_frame(reader(), &got, 1000), FrameStatus::kTorn);
  EXPECT_TRUE(got.empty());
}

TEST_F(FramePair, TruncatedHeaderIsTorn) {
  raw("HV");  // died two bytes into the magic
  close_writer();
  std::string got;
  EXPECT_EQ(read_frame(reader(), &got, 1000), FrameStatus::kTorn);
}

TEST_F(FramePair, GarbageMagicIsRejected) {
  raw(std::string("JUNK\x00\x00\x00\x04psst", 12));
  std::string got;
  EXPECT_EQ(read_frame(reader(), &got, 1000), FrameStatus::kBadMagic);
}

TEST_F(FramePair, OversizedLengthIsRejectedWithoutAllocating) {
  // Declared length 2^31: must be refused by the cap, not attempted.
  raw(std::string(kFrameMagic, 4) + std::string{'\x80', 0, 0, 0});
  std::string got;
  EXPECT_EQ(read_frame(reader(), &got, 1000), FrameStatus::kOversized);
  // A tighter caller-supplied cap also applies.
  ASSERT_TRUE(write_frame(writer(), std::string(64, 'z')));
  EXPECT_EQ(read_frame(reader(), &got, 1000, /*max_bytes=*/16), FrameStatus::kOversized);
}

TEST_F(FramePair, SilenceTimesOut) {
  std::string got;
  EXPECT_EQ(read_frame(reader(), &got, 50), FrameStatus::kTimeout);
  // A partial frame that stalls also times out rather than blocking forever.
  raw(std::string(kFrameMagic, 4) + std::string{0, 0, 0, 100} + "partial");
  EXPECT_EQ(read_frame(reader(), &got, 50), FrameStatus::kTimeout);
}

TEST_F(FramePair, FuzzedGarbageNeverReadsAsAFrame) {
  // Deterministic garbage: whatever the bytes, the codec must classify (not
  // crash, not hand back a bogus payload). None of these start with the
  // magic, so every verdict is kBadMagic/kTorn/kTimeout.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 32; ++round) {
    std::string noise;
    const int len = 1 + static_cast<int>(state % 200);
    for (int i = 0; i < len; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      char byte = static_cast<char>(state >> 56);
      if (i < 4 && byte == kFrameMagic[i]) byte ^= 0x55;  // never spell the magic
      noise += byte;
    }
    raw(noise);
    std::string got;
    const FrameStatus status = read_frame(reader(), &got, 50);
    EXPECT_NE(status, FrameStatus::kOk);
    EXPECT_TRUE(got.empty());
    // Drain whatever the failed parse left behind so rounds are independent.
    TearDown();
    SetUp();
  }
}

TEST(DistProtocol, RecvTimeoutKeepsAPartialFrame) {
  // A deadline that expires mid-frame must lose no bytes: the next recv
  // completes the same frame instead of starting mid-stream on bad magic.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Conn writer(fds[0]);
  Conn reader(fds[1]);
  const std::string payload =
      Json(Json::Object{{"type", "record"}, {"note", std::string(4000, 'n')}})
          .to_string();
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string frame(kFrameMagic, 4);
  for (const int shift : {24, 16, 8, 0}) frame += static_cast<char>((size >> shift) & 0xff);
  frame += payload;
  const std::size_t cut = 8 + payload.size() / 2;  // header plus half the payload
  ASSERT_EQ(::write(fds[0], frame.data(), cut), static_cast<ssize_t>(cut));

  Json message;
  EXPECT_EQ(reader.recv(&message, 50), FrameStatus::kTimeout);
  EXPECT_TRUE(reader.readable());  // the partial frame is still in flight
  ASSERT_EQ(::write(fds[0], frame.data() + cut, frame.size() - cut),
            static_cast<ssize_t>(frame.size() - cut));
  ASSERT_EQ(reader.recv(&message, 1000), FrameStatus::kOk);
  EXPECT_EQ(message.to_string(), payload);

  // The stream stays aligned for the frame after it.
  ASSERT_TRUE(writer.send(Json::Object{{"type", "heartbeat"}}));
  ASSERT_EQ(reader.recv(&message, 1000), FrameStatus::kOk);
  EXPECT_EQ(message.at("type").as_string(), "heartbeat");
  EXPECT_FALSE(reader.readable());
}

// --- addresses and wire conversions ----------------------------------------

TEST(DistProtocol, ParsesAddresses) {
  const Address unix_addr = parse_address("unix:/tmp/x.sock");
  EXPECT_TRUE(unix_addr.unix_domain);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");

  const Address tcp = parse_address("tcp:127.0.0.1:9999");
  EXPECT_FALSE(tcp.unix_domain);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9999);

  const Address bare = parse_address("localhost:4000");
  EXPECT_FALSE(bare.unix_domain);
  EXPECT_EQ(bare.host, "localhost");
  EXPECT_EQ(bare.port, 4000);

  EXPECT_THROW(parse_address(""), InvalidArgument);
  EXPECT_THROW(parse_address("unix:"), InvalidArgument);
  EXPECT_THROW(parse_address("tcp:nohost"), InvalidArgument);
  EXPECT_THROW(parse_address("tcp:host:notaport"), InvalidArgument);
  EXPECT_THROW(parse_address("justahost"), InvalidArgument);
}

TEST(DistProtocol, OptionsSurviveTheWire) {
  checker::CheckOptions options;
  options.enumeration.max_schemas = 1234;
  options.enumeration.prune_implications = false;
  options.enumeration.prune_dead_unlocks = false;
  options.timeout_seconds = 7.5;
  options.incremental = false;
  options.property_directed_pruning = false;
  options.certify = true;
  options.schema_timeout_seconds = 3.25;
  options.pivot_budget = 777;
  options.memory_budget_mb = 42;
  options.lemmas = false;

  const checker::CheckOptions back = options_from_json(options_to_json(options));
  EXPECT_EQ(back.enumeration.max_schemas, 1234);
  EXPECT_FALSE(back.enumeration.prune_implications);
  EXPECT_FALSE(back.enumeration.prune_dead_unlocks);
  EXPECT_DOUBLE_EQ(back.timeout_seconds, 7.5);
  EXPECT_FALSE(back.incremental);
  EXPECT_FALSE(back.property_directed_pruning);
  EXPECT_TRUE(back.certify);
  EXPECT_DOUBLE_EQ(back.schema_timeout_seconds, 3.25);
  EXPECT_EQ(back.pivot_budget, 777);
  EXPECT_EQ(back.memory_budget_mb, 42);
  EXPECT_FALSE(back.lemmas);
}

TEST(DistProtocol, CounterexamplesSurviveTheWire) {
  checker::Counterexample cex;
  cex.property = "everyone_proceeds";
  cex.query_description = "reach a bad configuration";
  cex.params[0] = 4;
  cex.params[2] = 1;
  cex.initial.counters = {3, 0, 0, 1};
  cex.initial.shared = {0, 7};
  cex.steps.push_back({1, 3});
  cex.steps.push_back({0, 1});

  checker::SchemaRecord sat;
  sat.cursor = "q0||";
  sat.verdict = checker::SchemaVerdict::kSat;
  checker::UnitOutcome witness;
  witness.counterexample = cex;
  checker::UnitOutcome decoded;
  checker::record_from_json(record_frame(sat, witness, 0, 0), &decoded);
  ASSERT_TRUE(decoded.counterexample.has_value());
  const checker::Counterexample& back = *decoded.counterexample;
  EXPECT_EQ(back.property, cex.property);
  EXPECT_EQ(back.query_description, cex.query_description);
  EXPECT_EQ(back.params, cex.params);
  EXPECT_EQ(back.initial.counters, cex.initial.counters);
  EXPECT_EQ(back.initial.shared, cex.initial.shared);
  ASSERT_EQ(back.steps.size(), 2u);
  EXPECT_EQ(back.steps[0].rule, 1u);
  EXPECT_EQ(back.steps[0].factor, 3);
  EXPECT_EQ(back.steps[1].rule, 0u);
  EXPECT_EQ(back.steps[1].factor, 1);
}

TEST(DistProtocol, RecordFrameBytesArePinned) {
  // A worker's record frames, byte for byte: the settled-schema codec the
  // journal shares must not add, drop or reorder a field on the wire.
  const checker::UnitOutcome none;
  checker::SchemaRecord unsat;
  unsat.cursor = "q0|2,0,1|1";
  unsat.verdict = checker::SchemaVerdict::kUnsat;
  unsat.cut = 2;
  checker::UnitOutcome refuted;
  refuted.length = 7;
  refuted.pivots = 23;
  refuted.rational_fast_ops = 1200;
  refuted.rational_big_ops = 3;
  refuted.retries = 1;
  EXPECT_EQ(record_frame(unsat, refuted, 4, 1).to_string(),
            R"({"type":"record","lease":4,"property":1,"cursor":"q0|2,0,1|1","verdict":"unsat",)"
            R"("length":7,"pivots":23,"fast":1200,"big":3,"retries":1,"note":"","cut":2})");

  checker::SchemaRecord pruned;
  pruned.cursor = "q1|0|0";
  pruned.verdict = checker::SchemaVerdict::kPruned;
  EXPECT_EQ(record_frame(pruned, none, 5, 0).to_string(),
            R"({"type":"record","lease":5,"property":0,"cursor":"q1|0|0","verdict":"pruned",)"
            R"("length":0,"pivots":0,"retries":0,"note":""})");

  checker::SchemaRecord sat;
  sat.cursor = "q0|1|1";
  sat.verdict = checker::SchemaVerdict::kSat;
  checker::UnitOutcome witness;
  witness.length = 3;
  witness.pivots = 11;
  witness.rational_fast_ops = 400;
  checker::Counterexample cex;
  cex.property = "safe";
  cex.query_description = "reach locD";
  cex.params[0] = 4;
  cex.params[2] = 1;
  cex.initial.counters = {3, 0, 1};
  cex.initial.shared = {0, 2};
  cex.steps.push_back({1, 3});
  cex.steps.push_back({0, 1});
  witness.counterexample = cex;
  EXPECT_EQ(record_frame(sat, witness, 6, 2).to_string(),
            R"({"type":"sat","lease":6,"property":2,"cursor":"q0|1|1","length":3,"pivots":11,)"
            R"("fast":400,"big":0,"retries":0,"validation_error":"","counterexample":)"
            R"({"property":"safe","query_description":"reach locD","params":[[0,4],[2,1]],)"
            R"("counters":[3,0,1],"shared":[0,2],"steps":[[1,3],[0,1]]}})");
}

TEST(DistProtocol, LemmaCountersRideOnTheRecordWhenNonzero) {
  // A learning solve's lemma-pool activity travels on its record, after
  // the retries, and decodes back into the outcome the tally counts.
  checker::SchemaRecord unsat;
  unsat.cursor = "q0|1|0";
  unsat.verdict = checker::SchemaVerdict::kUnsat;
  checker::UnitOutcome learned;
  learned.pivots = 5;
  learned.lemma_hits = 2;
  learned.lemmas_learned = 1;
  const Json frame = record_frame(unsat, learned, 3, 0);
  EXPECT_EQ(frame.to_string(),
            R"({"type":"record","lease":3,"property":0,"cursor":"q0|1|0","verdict":"unsat",)"
            R"("length":0,"pivots":5,"fast":0,"big":0,"retries":0,"hits":2,"learned":1,)"
            R"("note":""})");
  checker::UnitOutcome decoded;
  checker::record_from_json(frame, &decoded);
  EXPECT_EQ(decoded.pivots, 5);
  EXPECT_EQ(decoded.lemma_hits, 2);
  EXPECT_EQ(decoded.lemmas_learned, 1);
}

TEST(DistProtocol, PropertySpecsSurviveTheWire) {
  const std::vector<PropertySpec> specs = {{"safe", kHoldsFormula, false},
                                           {"Inv1_0", "", true}};
  const std::vector<PropertySpec> back = specs_from_json(specs_to_json(specs));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "safe");
  EXPECT_EQ(back[0].formula, kHoldsFormula);
  EXPECT_FALSE(back[0].bundled);
  EXPECT_EQ(back[1].name, "Inv1_0");
  EXPECT_TRUE(back[1].bundled);
}

// --- end to end over a unix socket ------------------------------------------

/// A coordinator serving on its own thread. Destruction cancels a run still
/// in progress and joins it, so a failed ASSERT_* ends the test with one
/// failure instead of std::terminate on a joinable thread.
struct ServeRun {
  std::string model = kEchoModel;
  std::vector<checker::PropertyResult> results;
  DistStats stats;
  std::string error;
  std::atomic<bool> cancel{false};
  std::thread thread;

  ~ServeRun() {
    cancel = true;
    if (thread.joinable()) thread.join();
  }

  void start(const std::string& address, const std::vector<PropertySpec>& specs,
             DistOptions options) {
    options.check.cancel = &cancel;
    thread = std::thread([this, address, specs, options] {
      try {
        results = serve(model, specs, address, options, &stats);
      } catch (const Error& e) {
        error = e.what();
      }
    });
  }
  void join() { thread.join(); }
};

std::vector<checker::PropertyResult> reference_check(const std::string& name,
                                                     const std::string& formula,
                                                     checker::CheckOptions options) {
  const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
  const std::vector<spec::Property> properties = {spec::compile(ta, name, formula)};
  return checker::check_properties(ta, properties, options);
}

WorkerReport run_one_worker(const std::string& address, const char* label,
                            std::int64_t drop_after = 0) {
  WorkerOptions options;
  options.connect = address;
  options.label = label;
  options.drop_after_records = drop_after;
  return run_worker(options);
}

/// The coordinator thread may still be binding when a test connects; retry
/// like a worker would.
int connect_with_retry(const std::string& address) {
  int fd = -1;
  for (int spin = 0; spin < 500 && fd < 0; ++spin) {
    fd = connect_to(parse_address(address));
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fd;
}

void hello_and_welcome(Conn& conn, const std::string& label) {
  ASSERT_TRUE(conn.send(Json::Object{
      {"type", "hello"}, {"protocol", kDistProtocolVersion}, {"label", label}}));
  Json welcome;
  ASSERT_EQ(conn.recv(&welcome, 5'000), FrameStatus::kOk);
  ASSERT_EQ(welcome.at("type").as_string(), "welcome");
}

/// One frame from a freshly helloed connection, then wait for the
/// coordinator to drop us (a timeout still exercises the survival property
/// the caller asserts afterwards).
void send_hostile_frame(const std::string& address, const std::string& label,
                        const Json& frame) {
  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  Conn conn(fd);
  ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, label));
  ASSERT_TRUE(conn.send(frame));
  Json reply;
  conn.recv(&reply, 2'000);
  conn.close();
}

struct LeaseGrant {
  std::int64_t id = -1;
  std::int64_t property = 0;
  std::int64_t query = 0;
  std::vector<std::int64_t> prefix;
  bool extensions = false;
};

/// Asks for leases until one is granted; `*frame` (optional) receives the
/// grant as sent.
bool acquire_lease(Conn& conn, LeaseGrant* grant, Json* frame = nullptr) {
  for (int spin = 0; spin < 100; ++spin) {
    if (!conn.send(Json::Object{{"type", "next"}})) return false;
    Json reply;
    if (conn.recv(&reply, 5'000) != FrameStatus::kOk) return false;
    const std::string& type = reply.at("type").as_string();
    if (type == "wait") {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (type != "lease") return false;
    grant->id = reply.at("lease").as_int();
    grant->property = reply.at("property").as_int();
    grant->query = reply.at("query").as_int();
    grant->prefix.clear();
    for (const Json& g : reply.at("prefix").as_array()) {
      grant->prefix.push_back(g.as_int());
    }
    grant->extensions = reply.at("extensions").as_bool();
    if (frame != nullptr) *frame = std::move(reply);
    return true;
  }
  return false;
}

std::string chain_cursor(std::int64_t query, const std::vector<std::int64_t>& unlock_order) {
  std::string cursor = "q" + std::to_string(query) + "|";
  for (std::size_t i = 0; i < unlock_order.size(); ++i) {
    if (i > 0) cursor += ',';
    cursor += std::to_string(unlock_order[i]);
  }
  cursor += '|';
  return cursor;
}

Json bare_record_frame(std::int64_t lease, std::int64_t property, const std::string& cursor,
                       const char* verdict) {
  return Json::Object{{"type", "record"},          {"lease", lease},
                      {"property", property},      {"cursor", cursor},
                      {"verdict", verdict},        {"length", std::int64_t{1}},
                      {"pivots", std::int64_t{0}}, {"retries", std::int64_t{0}},
                      {"note", ""}};
}

TEST(DistEndToEnd, HoldsVerdictMatchesInProcess) {
  const std::string address = "unix:" + temp_path("dist_holds.sock");
  ServeRun run;
  DistOptions options;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);
  const WorkerReport report = run_one_worker(address, "t1");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  EXPECT_GT(report.records, 0);

  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(run.results[0].verdict, reference[0].verdict);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
  EXPECT_EQ(run.results[0].schemas_unknown, reference[0].schemas_unknown);
  EXPECT_EQ(run.stats.workers_joined, 1);
  EXPECT_EQ(run.stats.workers_lost, 0);
}

TEST(DistEndToEnd, ViolationShipsTheCounterexample) {
  const std::string address = "unix:" + temp_path("dist_sat.sock");
  ServeRun run;
  DistOptions options;
  run.start(address, {{"everyone_proceeds", kViolatedFormula, false}}, options);
  run_one_worker(address, "t1");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;

  const auto reference = reference_check("everyone_proceeds", kViolatedFormula, options.check);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kViolated);
  EXPECT_EQ(reference[0].verdict, checker::Verdict::kViolated);
  ASSERT_TRUE(run.results[0].counterexample.has_value());
  // The single-worker run replays the deterministic enumeration order, so
  // even the witness matches the in-process one.
  const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
  EXPECT_EQ(run.results[0].counterexample->to_string(ta),
            reference[0].counterexample->to_string(ta));
}

TEST(DistEndToEnd, DroppedWorkerLosesTheLeaseNotTheRun) {
  const std::string address = "unix:" + temp_path("dist_drop.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;  // reassignment must come from the EOF, not time
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  // Worker one dies abruptly after its first streamed record (no lease_done,
  // no goodbye — the moral equivalent of kill -9).
  const WorkerReport dropped = run_one_worker(address, "doomed", /*drop_after=*/1);
  EXPECT_FALSE(dropped.completed);
  EXPECT_EQ(dropped.note, "dropped connection (test hook)");

  // Worker two picks up the reassigned lease and finishes the run.
  const WorkerReport survivor = run_one_worker(address, "survivor");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;

  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
  EXPECT_EQ(run.stats.workers_joined, 2);
  EXPECT_EQ(run.stats.workers_lost, 1);
  EXPECT_GE(run.stats.leases_reassigned, 1);
}

TEST(DistEndToEnd, MalformedMessagesCostTheConnectionNotTheRun) {
  const std::string address = "unix:" + temp_path("dist_malformed.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  // Peers that pass the hello handshake and then send syntactically valid
  // JSON frames with missing or mistyped fields (version skew, worker bug,
  // hostile client). Each must cost that peer its connection only — never
  // the coordinator, which used to std::terminate on the escaping throw.
  const std::vector<std::string> malformed = {
      R"({"type":"record"})",                          // every field missing
      R"({"type":"record","lease":0,"property":"zero","cursor":"q0|1|",)"
      R"("verdict":"unsat","length":0,"pivots":0,"retries":0,"note":""})",
      R"({"type":"sat","lease":0,"property":0,"cursor":"q0|1|"})",
      R"({"type":"lease_done","lease":"zero"})",
      R"({"type":42})",
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    const std::string& payload = malformed[i];
    // The coordinator thread may still be binding; retry like a worker would.
    int fd = -1;
    for (int spin = 0; spin < 500 && fd < 0; ++spin) {
      fd = connect_to(parse_address(address));
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GE(fd, 0);
    Conn conn(fd);
    // Distinct labels: a repeat offender under one label would trip the
    // health quarantine (its own test below) and be refused the welcome.
    ASSERT_TRUE(conn.send(Json::Object{{"type", "hello"},
                                       {"protocol", kDistProtocolVersion},
                                       {"label", "hostile-" + std::to_string(i)}}));
    Json welcome;
    ASSERT_EQ(conn.recv(&welcome, 5'000), FrameStatus::kOk);
    ASSERT_EQ(welcome.at("type").as_string(), "welcome");
    ASSERT_TRUE(write_frame(fd, payload));
    // The coordinator drops the connection; wait for the EOF (a timeout here
    // still exercises the survival property below).
    std::string tail;
    read_frame(fd, &tail, 2'000);
    conn.close();
  }

  // A well-behaved worker still completes the run with the right verdict.
  const WorkerReport report = run_one_worker(address, "good");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
}

TEST(DistEndToEnd, SelfSolveMatchesInProcess) {
  // A self-hosted fleet that never joins: once a lease timeout passes with
  // nobody connected, the coordinator settles every lease itself through
  // step_schema and the merge a worker frame takes. Its solver learns like
  // an in-process thread, so it must land on the in-process coverage, and a
  // violation must carry its witness.
  for (const bool pruning : {true, false}) {
    for (const auto& [name, formula] : {std::pair{"safe", kHoldsFormula},
                                        std::pair{"everyone_proceeds", kViolatedFormula}}) {
      SCOPED_TRACE(std::string(name) + (pruning ? " with pruning" : " without pruning"));
      const std::string address = "unix:" + temp_path("dist_self_solve.sock");
      ServeRun run;
      DistOptions options;
      options.self_hosted_fleet = true;
      options.lease_timeout_seconds = 0.1;
      options.check.property_directed_pruning = pruning;
      run.start(address, {{name, formula, false}}, options);
      run.join();
      ASSERT_TRUE(run.error.empty()) << run.error;

      const auto reference = reference_check(name, formula, options.check);
      ASSERT_EQ(run.results.size(), 1u);
      EXPECT_EQ(run.results[0].verdict, reference[0].verdict);
      EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
      EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
      EXPECT_EQ(run.results[0].schemas_unknown, reference[0].schemas_unknown);
      EXPECT_EQ(run.results[0].counterexample.has_value(),
                reference[0].verdict == checker::Verdict::kViolated);
      EXPECT_EQ(run.stats.workers_joined, 0);
      EXPECT_GE(run.stats.leases_self_solved, 1);
      EXPECT_EQ(run.stats.leases_self_solved, run.stats.leases_granted);
      // Every solved schema went through an incremental encoder, whose
      // counters each self-solved lease folds into the tally.
      if (!pruning) {
        ASSERT_TRUE(run.results[0].incremental.has_value());
        EXPECT_EQ(run.results[0].incremental->schemas_encoded, run.results[0].schemas_checked);
      }
    }
  }
}

TEST(DistEndToEnd, ShutdownDoesNotWaitForTheHeartbeat) {
  // The heartbeat thread must stop at once when the run is over, not sleep
  // out its period: with a 60-s beat, a sleeping heartbeat would hold the
  // worker's exit for a full minute.
  const std::string address = "unix:" + temp_path("dist_heartbeat_exit.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 300.0;  // admits a 60-s heartbeat period
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  WorkerOptions worker;
  worker.connect = address;
  worker.label = "slow-beat";
  worker.heartbeat_ms = 60'000;
  const auto before = std::chrono::steady_clock::now();
  const WorkerReport report = run_worker(worker);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before).count();
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  EXPECT_LT(elapsed, 10.0) << "worker exit waited on its heartbeat period";
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
}

TEST(DistEndToEnd, ParkedWorkerIsWokenByReassignment) {
  // A scripted peer takes a lease and holds it; a real worker drains the
  // rest and parks on `next` (long poll, crossing the park bound at least
  // once). When the peer drops, its lease goes pending and must reach the
  // parked worker at once, not after the lease timeout.
  const std::string address = "unix:" + temp_path("dist_parked.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 120.0;  // reassignment must come from the EOF
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  Conn holder(fd);
  ASSERT_NO_FATAL_FAILURE(hello_and_welcome(holder, "holder"));
  LeaseGrant grant;
  ASSERT_TRUE(acquire_lease(holder, &grant));

  WorkerReport report;
  std::thread worker([&] { report = run_one_worker(address, "parked"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  const auto dropped = std::chrono::steady_clock::now();
  holder.close();
  worker.join();
  const double after_drop =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - dropped).count();
  run.join();

  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  EXPECT_LT(after_drop, 30.0) << "the re-pended lease waited for a timeout";
  EXPECT_GE(run.stats.leases_reassigned, 1);
  EXPECT_EQ(run.stats.workers_lost, 1);
  EXPECT_EQ(run.stats.lease_timeouts, 0);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, reference[0].verdict);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
}

TEST(DistEndToEnd, ResumesFromAJournal) {
  const std::string journal = temp_path("dist_resume.jsonl");
  const std::string address1 = "unix:" + temp_path("dist_resume1.sock");
  {
    ServeRun first;
    DistOptions options;
    options.check.journal_path = journal;
    first.start(address1, {{"safe", kHoldsFormula, false}}, options);
    run_one_worker(address1, "t1");
    first.join();
    ASSERT_TRUE(first.error.empty()) << first.error;
    ASSERT_EQ(first.results[0].verdict, checker::Verdict::kHolds);
  }

  // Restarting from the journal replays every settled schema; the worker has
  // nothing left to solve, and the verdict is unchanged.
  const std::string address2 = "unix:" + temp_path("dist_resume2.sock");
  ServeRun second;
  DistOptions options;
  options.check.resume_path = journal;
  options.check.journal_path = journal;
  second.start(address2, {{"safe", kHoldsFormula, false}}, options);
  const WorkerReport report = run_one_worker(address2, "t2");
  second.join();
  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(report.completed) << report.note;
  EXPECT_EQ(second.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_GT(second.results[0].schemas_resumed, 0);

  const auto reference = reference_check("safe", kHoldsFormula, checker::CheckOptions());
  EXPECT_EQ(second.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(second.results[0].schemas_pruned, reference[0].schemas_pruned);
}

TEST(DistEndToEnd, ResumeRefusesAForeignJournal) {
  // A journal recorded for a different automaton must be refused up front.
  const std::string journal = temp_path("dist_foreign.jsonl");
  {
    checker::ProgressJournal j(journal, "SomethingElse");
  }
  DistOptions options;
  options.check.resume_path = journal;
  EXPECT_THROW(
      serve(kEchoModel, {{"safe", kHoldsFormula, false}},
            "unix:" + temp_path("dist_foreign.sock"), options),
      InvalidArgument);
}

TEST(DistEndToEnd, WorkerReportsAMalformedWelcome) {
  // worker.h promises network-side problems surface in the report note, not
  // as exceptions; a welcome with missing fields must honor that (run_worker
  // also runs as a plain thread, where an escaping throw kills the host).
  const std::string path = temp_path("dist_badwelcome.sock");
  Address addr;
  addr.unix_domain = true;
  addr.path = path;
  const int listen_fd = listen_on(addr);
  std::thread fake([&] {
    const int cfd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(cfd, 0);
    Conn conn(cfd);
    Json hello;
    EXPECT_EQ(conn.recv(&hello, 5'000), FrameStatus::kOk);
    conn.send(Json::Object{{"type", "welcome"}, {"protocol", kDistProtocolVersion}});
    conn.close();
  });
  WorkerOptions options;
  options.connect = "unix:" + path;
  const WorkerReport report = run_worker(options);
  fake.join();
  ::close(listen_fd);
  std::remove(path.c_str());
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.note.find("malformed welcome"), std::string::npos) << report.note;
}

TEST(DistEndToEnd, WorkerFindsTheShutdownBehindQueuedFrames) {
  // A coordinator that sends its shutdown and stops reading before the
  // worker asks leaves the shutdown in the worker's receive buffer, here
  // behind the welcome and a late abandon. The worker's first `next` fails
  // to send; it must read past the abandon to the shutdown and end cleanly,
  // not take the closed connection for a lost one (which, with a reconnect
  // budget, spins until the budget runs out).
  const std::string path = temp_path("dist_queued_shutdown.sock");
  Address addr;
  addr.unix_domain = true;
  addr.path = path;
  const int listen_fd = listen_on(addr);
  std::thread fake([&] {
    const int cfd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(cfd, 0);
    Conn conn(cfd);
    Json msg;
    ASSERT_EQ(conn.recv(&msg, 5'000), FrameStatus::kOk);  // hello
    // From here on every frame the worker sends fails, the first `next`
    // included, however early it comes.
    ASSERT_EQ(::shutdown(conn.fd(), SHUT_RD), 0);
    const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
    ASSERT_TRUE(conn.send(Json::Object{
        {"type", "welcome"},
        {"protocol", kDistProtocolVersion},
        {"model_hash", checker::model_content_hash(ta)},
        {"model_text", kEchoModel},
        {"properties", specs_to_json({{"safe", kHoldsFormula, false}})},
        {"options", options_to_json(checker::CheckOptions{})},
        {"lease_timeout", 30.0}}));
    ASSERT_TRUE(conn.send(Json::Object{{"type", "abandon"}, {"lease", std::int64_t{0}}}));
    ASSERT_TRUE(conn.send(Json::Object{{"type", "shutdown"}, {"reason", "run over"}}));
    conn.close();
  });
  WorkerOptions options;
  options.connect = "unix:" + path;
  const WorkerReport report = run_worker(options);
  fake.join();
  ::close(listen_fd);
  std::remove(path.c_str());
  EXPECT_TRUE(report.completed) << report.note;
}

TEST(DistReconnect, WorkerStartedBeforeTheCoordinatorEventuallyCompletes) {
  // `hvc work --reconnect`: the whole lifecycle retries, so a worker fleet
  // can be brought up before the coordinator exists. The worker spins on
  // connect-refused until serve() binds, then completes normally.
  const std::string address = "unix:" + temp_path("dist_reconn.sock");
  WorkerOptions options;
  options.connect = address;
  options.label = "early";
  options.connect_retry_seconds = 0.2;  // each attempt gives up fast...
  options.reconnect_seconds = 20.0;     // ...but the budget keeps re-trying
  WorkerReport report;
  std::thread worker([&] { report = run_worker(options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ServeRun run;
  run.start(address, {{"safe", kHoldsFormula, false}}, DistOptions{});
  worker.join();
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  EXPECT_GT(report.records, 0);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
}

TEST(DistReconnect, BudgetExpiryReportsTheConnectFailure) {
  // Nothing ever listens: the reconnect loop must give up once the budget
  // elapses without a successful connection and surface the transport note.
  WorkerOptions options;
  options.connect = "unix:" + temp_path("dist_noone.sock");
  options.connect_retry_seconds = 0.05;
  options.reconnect_seconds = 0.3;
  const WorkerReport report = run_worker(options);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.note.find("cannot connect"), std::string::npos) << report.note;
}

TEST(DistReconnect, SemanticStopsNeverRetry) {
  // A malformed welcome, or one of another protocol revision, is a semantic
  // stop: retrying would hammer a coordinator that will never speak our
  // dialect. With a generous reconnect budget the worker must still stop
  // after ONE attempt — the fake below accepts exactly once, so a retry
  // would stall until the 30s budget drained; returning promptly with the
  // welcome's own note proves it didn't.
  const std::pair<Json, const char*> welcomes[] = {
      {Json::Object{{"type", "welcome"}, {"protocol", kDistProtocolVersion}},
       "malformed welcome"},
      {Json::Object{{"type", "welcome"}, {"protocol", kDistProtocolVersion + 1}},
       "speaks protocol"},
  };
  for (const auto& [welcome, note] : welcomes) {
    SCOPED_TRACE(note);
    const std::string path = temp_path("dist_reconn_bad.sock");
    Address addr;
    addr.unix_domain = true;
    addr.path = path;
    const int listen_fd = listen_on(addr);
    std::thread fake([&] {
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      ASSERT_GE(cfd, 0);
      Conn conn(cfd);
      Json hello;
      EXPECT_EQ(conn.recv(&hello, 5'000), FrameStatus::kOk);
      conn.send(welcome);
      conn.close();
    });
    WorkerOptions options;
    options.connect = "unix:" + path;
    options.reconnect_seconds = 30.0;
    const WorkerReport report = run_worker(options);
    fake.join();
    ::close(listen_fd);
    std::remove(path.c_str());
    EXPECT_FALSE(report.completed);
    EXPECT_NE(report.note.find(note), std::string::npos) << report.note;
  }
}

TEST(DistEndToEnd, HelloOfAnotherRevisionIsRefusedNamingBoth) {
  // The protocol revision is the fleet's only compatibility mechanism: a
  // peer of another revision is answered with a shutdown that names both
  // revisions, never a welcome, and the run goes on without it.
  const std::string address = "unix:" + temp_path("dist_revision.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);
  const int other = kDistProtocolVersion + 1;
  {
    const int fd = connect_with_retry(address);
    ASSERT_GE(fd, 0);
    Conn conn(fd);
    ASSERT_TRUE(conn.send(
        Json::Object{{"type", "hello"}, {"protocol", other}, {"label", "other-revision"}}));
    Json reply;
    ASSERT_EQ(conn.recv(&reply, 5'000), FrameStatus::kOk);
    EXPECT_EQ(reply.at("type").as_string(), "shutdown");
    const std::string& reason = reply.at("reason").as_string();
    EXPECT_NE(reason.find("worker speaks " + std::to_string(other)), std::string::npos)
        << reason;
    EXPECT_NE(reason.find("coordinator speaks " + std::to_string(kDistProtocolVersion)),
              std::string::npos)
        << reason;
    conn.close();
  }
  const WorkerReport report = run_one_worker(address, "current");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  EXPECT_EQ(run.stats.workers_joined, 1);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
}

TEST(DistEndToEnd, ForkLocalModeMatchesInProcess) {
  DistOptions options;
  DistStats stats;
  const std::vector<checker::PropertyResult> results = check_distributed_local(
      kEchoModel, {{"safe", kHoldsFormula, false}}, /*worker_count=*/2, options, &stats);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(results[0].schemas_pruned, reference[0].schemas_pruned);
  EXPECT_EQ(stats.workers_joined, 2);
}

TEST(DistEndToEnd, ExactSchemaBudgetHoldsLikeInProcess) {
  // A budget of exactly the schemas the property visits is not exhausted:
  // only a schema beyond it would be, in-process and in a fleet alike.
  DistOptions options;
  const auto unbounded = reference_check("safe", kHoldsFormula, options.check);
  ASSERT_EQ(unbounded[0].verdict, checker::Verdict::kHolds);
  options.check.enumeration.max_schemas = unbounded[0].schemas_checked +
                                          unbounded[0].schemas_pruned + unbounded[0].schemas_cut +
                                          unbounded[0].schemas_unknown;
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(reference[0].verdict, checker::Verdict::kHolds) << reference[0].note;
  const std::vector<checker::PropertyResult> results = check_distributed_local(
      kEchoModel, {{"safe", kHoldsFormula, false}}, /*worker_count=*/2, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, checker::Verdict::kHolds) << results[0].note;
}

// Three independent guards: a chain subtree holds schemas a cut on its
// prefix covers, so a fleet worker skips some schemas as cut inside its own
// lease and the coordinator settles some pending leases as moot.
constexpr const char* kThreeGuardModel = R"(
ta ThreeGuards {
  parameters n, t, f;
  shared x, y, z;
  resilience n > 3*t;
  resilience t >= f;
  resilience f >= 0;
  processes n - f;
  initial A;
  locations B, C, E, D, F, G;
  rule ax: A -> B do x += 1;
  rule ay: A -> C do y += 1;
  rule az: A -> E do z += 1;
  rule dx: B -> D when x >= t + 1 - f;
  rule fy: C -> F when y >= t + 1 - f;
  rule gz: E -> G when z >= t + 1 - f;
  selfloop D;
  selfloop F;
  selfloop G;
}
)";

TEST(DistEndToEnd, ForkLocalFleetChargesEveryCutSchema) {
  // The schemas a worker's cuts skip (reported in lease_done) and those of
  // leases a cut settles before any grant are charged like a thread's: the
  // live enumerated counter ends at the tally's total, which is the
  // in-process run's, however the cuts fell.
  DistOptions options;
  if (!checker::lemmas_enabled(options.check)) {
    GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  }
  options.check.property_directed_pruning = false;
  const std::string formula = "[](locB == 0) -> [](locD == 0)";
  const ta::ThresholdAutomaton ta = ta::parse_ta(kThreeGuardModel).one_round_reduction();
  const auto reference =
      checker::check_properties(ta, {spec::compile(ta, "safe", formula)}, options.check);
  const auto total = [](const checker::PropertyResult& r) {
    return r.schemas_checked + r.schemas_pruned + r.schemas_cut + r.schemas_unknown;
  };
  ASSERT_GT(reference[0].schemas_cut, 0);
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(std::to_string(workers) + " worker(s)");
    checker::ProgressCounters progress;
    options.check.progress = &progress;
    const std::vector<checker::PropertyResult> results = check_distributed_local(
        kThreeGuardModel, {{"safe", formula, false}}, workers, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].verdict, checker::Verdict::kHolds) << results[0].note;
    EXPECT_EQ(progress.enumerated.load(), total(results[0]));
    EXPECT_EQ(progress.cut.load(), results[0].schemas_cut);
    EXPECT_EQ(total(results[0]), total(reference[0]));
  }
}

TEST(DistEndToEnd, ForkLocalFleetCountsLemmasFromItsMergedRecords) {
  // A worker's lemma-pool counters ride on its record frames and count as
  // the coordinator merges them, like every other counter of a settled
  // schema: the fleet's totals are the sums over the records its journal
  // holds, one per merged schema (a duplicate dropped by dedup counts
  // nothing).
  DistOptions options;
  if (!checker::lemmas_enabled(options.check)) {
    GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  }
  options.check.property_directed_pruning = false;
  options.check.journal_path = temp_path("dist_lemma_sums.jsonl");
  const std::vector<checker::PropertyResult> results = check_distributed_local(
      kThreeGuardModel, {{"safe", "[](locB == 0) -> [](locD == 0)", false}}, 2, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, checker::Verdict::kHolds) << results[0].note;
  const checker::ResumeState journal = checker::load_journal(options.check.journal_path);
  std::int64_t hits = 0;
  std::int64_t learned = 0;
  std::int64_t pivots = 0;
  for (const auto& [key, record] : journal.settled) {
    hits += record.solve.lemma_hits;
    learned += record.solve.lemmas_learned;
    pivots += record.solve.pivots;
  }
  EXPECT_GT(learned, 0);
  EXPECT_EQ(results[0].lemma_hits, hits);
  EXPECT_EQ(results[0].lemmas_learned, learned);
  EXPECT_EQ(results[0].simplex_pivots, pivots);
  std::remove(options.check.journal_path.c_str());
}

TEST(DistEndToEnd, AbortedWorkerLeavesItsLeaseToAnHonestOne) {
  // An injected abort kills the first worker at its second solve attempt:
  // it reports the abort and ships neither the schema nor a lease_done, so
  // its lease goes back to the pool when the connection drops, and the
  // honest worker lands on the in-process verdict and totals.
  const std::string address = "unix:" + temp_path("dist_abort.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;  // reassignment must come from the EOF
  options.check.property_directed_pruning = false;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);
  WorkerOptions doomed;
  doomed.connect = address;
  doomed.label = "doomed";
  doomed.fault.kind = checker::FaultKind::kWorkerAbort;
  doomed.fault.at = 1;
  const WorkerReport aborted = run_worker(doomed);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_FALSE(aborted.completed);
  EXPECT_EQ(aborted.note, "worker aborted mid-schema");
  EXPECT_EQ(aborted.records, 1);  // the first solve only

  const WorkerReport survivor = run_one_worker(address, "survivor");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds) << run.results[0].note;
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
  EXPECT_EQ(run.results[0].schemas_unknown, 0);
  EXPECT_EQ(run.stats.workers_joined, 2);
  EXPECT_EQ(run.stats.workers_lost, 1);
  EXPECT_GE(run.stats.leases_reassigned, 1);
}

// --- Byzantine workers ------------------------------------------------------

TEST(DistByzantine, FramesCitingNeverGrantedLeasesAreHostile) {
  const std::string address = "unix:" + temp_path("dist_forged.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  // A verdict record citing lease 0 — a real lease, but never granted on
  // this connection — and a forged sat citing a lease that cannot exist.
  // Each costs exactly its connection; the forged witness must not flip the
  // headline verdict of a property that holds.
  ASSERT_NO_FATAL_FAILURE(send_hostile_frame(
      address, "forger-record", bare_record_frame(0, 0, "q0||", "unsat")));
  ASSERT_NO_FATAL_FAILURE(send_hostile_frame(
      address, "forger-sat",
      Json::Object{{"type", "sat"},
                   {"lease", std::int64_t{-1}},
                   {"property", std::int64_t{0}},
                   {"cursor", "q0||"}}));

  const WorkerReport survivor = run_one_worker(address, "honest");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(run.stats.hostile_frames, 2);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
}

TEST(DistByzantine, ConflictingDuplicateVerdictsAreHostile) {
  const std::string address = "unix:" + temp_path("dist_conflict.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  {
    Conn conn(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, "twister"));
    LeaseGrant grant;
    ASSERT_TRUE(acquire_lease(conn, &grant));
    // A cursor the granted subtree definitely covers: the chain prefix
    // itself (exact match passes both the node-only and the extensions
    // variants of task_covers).
    const std::string cursor = chain_cursor(grant.query, grant.prefix);
    // First record lands (in-lease, covered); the second reports a
    // conflicting definitive verdict for the very same cursor — someone is
    // lying, and it costs the connection.
    ASSERT_TRUE(conn.send(bare_record_frame(grant.id, grant.property, cursor, "unsat")));
    ASSERT_TRUE(conn.send(bare_record_frame(grant.id, grant.property, cursor, "pruned")));
    Json reply;
    conn.recv(&reply, 2'000);
    conn.close();
  }

  const WorkerReport survivor = run_one_worker(address, "honest");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_GE(run.stats.hostile_frames, 1);
  EXPECT_GE(run.stats.leases_reassigned, 1);
}

TEST(DistByzantine, CursorOutsideTheGrantedSubtreeIsHostile) {
  const std::string address = "unix:" + temp_path("dist_stray.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  {
    Conn conn(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, "strayer"));
    LeaseGrant grant;
    ASSERT_TRUE(acquire_lease(conn, &grant));
    // Escape the subtree: a node-only lease covers exactly its chain, so
    // any extension strays; a full-subtree lease is escaped by mutating the
    // last prefix element.
    std::vector<std::int64_t> stray = grant.prefix;
    if (!grant.extensions) {
      stray.push_back(999);
    } else if (!stray.empty()) {
      ++stray.back();
    } else {
      GTEST_SKIP() << "single all-covering lease; no stray cursor exists";
    }
    const std::string cursor = chain_cursor(grant.query, stray);
    ASSERT_TRUE(conn.send(bare_record_frame(grant.id, grant.property, cursor, "unsat")));
    Json reply;
    conn.recv(&reply, 2'000);
    conn.close();
  }

  const WorkerReport survivor = run_one_worker(address, "honest");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(run.stats.hostile_frames, 1);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
}

TEST(DistByzantine, LeaseDoneCutsAreIgnored) {
  // Subtree cuts enter the coordinator only on unsat record frames, which
  // cite a granted lease and a schema of its subtree. A lease_done carries
  // lemmas, not cuts: folding its cuts[] would let any peer settle a whole
  // property (an empty prefix covers every schema of the query) without one
  // schema solved. Here the frame names a lease the peer was never granted,
  // so it closes nothing either.
  const std::string address = "unix:" + temp_path("dist_learn_cuts.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;  // reassignment must come from the EOF
  if (!checker::lemmas_enabled(options.check)) {
    GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  }
  checker::ProgressCounters progress;
  options.check.progress = &progress;
  run.start(address, {{"everyone_proceeds", kViolatedFormula, false}}, options);
  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  {
    Conn conn(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, "forger"));
    ASSERT_TRUE(conn.send(Json::Object{
        {"type", "lease_done"},
        {"lease", 0},
        {"cuts",
         Json::Array{Json::Object{{"q", 0}, {"prefix", Json::Array{}}}}}}));
    // Frames are handled in order: once `next` is answered, the lease_done
    // has been processed.
    ASSERT_TRUE(conn.send(Json::Object{{"type", "next"}}));
    Json reply;
    ASSERT_EQ(conn.recv(&reply, 5'000), FrameStatus::kOk);
    conn.close();
  }
  // The honest worker joins only once the coordinator dropped the forger:
  // the session releases lease 0 in the critical section that leaves the
  // fleet, so the honest worker is granted lease 0 first, as in-process.
  for (int spin = 0; spin < 500 && progress.workers.load() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(progress.workers.load(), 0);

  const WorkerReport report = run_one_worker(address, "honest");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  const auto reference = reference_check("everyone_proceeds", kViolatedFormula, options.check);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kViolated);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_TRUE(run.results[0].counterexample.has_value());
}

// --- fleet learning -----------------------------------------------------------
//
// Scripted peers against the coordinator's share of the lease
// book's learning: cuts arrive on unsat records, lemmas on lease_done, and
// both ride on later grants.

// Two independent guards (x and y), so the chain tree has subtrees a cut
// under one guard's prefix does not touch.
constexpr const char* kTwoGuardModel = R"(
ta TwoGuards {
  parameters n, t, f;
  shared x, y;
  resilience n > 3*t;
  resilience t >= f;
  resilience f >= 0;
  processes n - f;
  initial A;
  locations B, C, D, E;
  rule ax: A -> B do x += 1;
  rule ay: A -> C do y += 1;
  rule dx: B -> D when x >= t + 1 - f;
  rule ey: C -> E when y >= t + 1 - f;
  selfloop D;
  selfloop E;
}
)";
constexpr const char* kTwoGuardFormula = "[](locB == 0) -> [](locD == 0)";

// A run of kTwoGuardModel served for one expected worker, plus its lease
// plan, which the coordinator builds the same way.
struct LearningRun {
  LearningRun() {
    const ta::ThresholdAutomaton ta = ta::parse_ta(kTwoGuardModel).one_round_reduction();
    queries = spec::compile(ta, "safe", kTwoGuardFormula).queries.size();
    tasks = checker::plan_tasks(checker::GuardAnalysis(ta), 1, checker::EnumerationOptions{});
    options.expected_workers = 1;
    options.lease_timeout_seconds = 30.0;
    run.model = kTwoGuardModel;
  }
  void start(const std::string& address) {
    run.start(address, {{"safe", kTwoGuardFormula, false}}, options);
  }

  DistOptions options;
  ServeRun run;
  std::size_t queries = 0;
  std::vector<checker::SubtreeTask> tasks;
};

bool extends(const std::vector<std::int64_t>& chain, const std::vector<std::int64_t>& prefix) {
  return chain.size() >= prefix.size() && std::equal(prefix.begin(), prefix.end(), chain.begin());
}

// Completes leases without records until one with a non-empty chain prefix
// is granted, then refutes that prefix with a cut-bearing unsat record
// (the cut spans the whole prefix) and completes it too, shipping
// `lemmas` on that lease_done.
void grant_and_cut(Conn& conn, LeaseGrant* cut_lease, Json::Array lemmas = {}) {
  for (;;) {
    ASSERT_TRUE(acquire_lease(conn, cut_lease));
    if (!cut_lease->prefix.empty()) break;
    ASSERT_TRUE(conn.send(Json::Object{{"type", "lease_done"}, {"lease", cut_lease->id}}));
  }
  Json record = bare_record_frame(cut_lease->id, cut_lease->property,
                                   chain_cursor(cut_lease->query, cut_lease->prefix), "unsat");
  record.set("cut", static_cast<std::int64_t>(cut_lease->prefix.size()));
  ASSERT_TRUE(conn.send(record));
  Json done = Json::Object{{"type", "lease_done"}, {"lease", cut_lease->id}};
  if (!lemmas.empty()) done.set("lemmas", std::move(lemmas));
  ASSERT_TRUE(conn.send(done));
}

// One lemmas[] entry of query 0.
Json lemma_entry(std::vector<std::string> premises) {
  return Json::Object{{"q", 0}, {"premises", Json::Array(premises.begin(), premises.end())}};
}

TEST(DistLearning, GrantCarriesTheCutsAndLemmasOfEarlierFrames) {
  const std::string address = "unix:" + temp_path("dist_learn_grant.sock");
  LearningRun fleet;
  if (!checker::lemmas_enabled(fleet.options.check)) {
    GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  }
  ASSERT_EQ(fleet.queries, 1u);
  fleet.start(address);
  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  {
    Conn conn(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, "scripted"));
    LeaseGrant cut_lease;
    ASSERT_NO_FATAL_FAILURE(
        grant_and_cut(conn, &cut_lease, Json::Array{lemma_entry({"y<=0", "x>=1"})}));
    // The next grant lies outside the refuted subtree and carries both
    // facts, the lemma as the book's pool stores it (premises sorted).
    LeaseGrant next;
    Json grant;
    ASSERT_TRUE(acquire_lease(conn, &next, &grant));
    EXPECT_FALSE(extends(next.prefix, cut_lease.prefix));
    ASSERT_NE(grant.find("cuts"), nullptr) << grant.to_string();
    ASSERT_NE(grant.find("lemmas"), nullptr) << grant.to_string();
    const Json expected_cut = Json::Object{
        {"q", 0}, {"prefix", Json::Array(cut_lease.prefix.begin(), cut_lease.prefix.end())}};
    EXPECT_EQ(grant.at("cuts").to_string(),
              Json(Json::Array{expected_cut}).to_string());
    EXPECT_EQ(grant.at("lemmas").to_string(),
              Json(Json::Array{Json::Object{
                             {"q", 0}, {"premises", Json::Array{"x>=1", "y<=0"}}}})
                  .to_string());
    conn.close();
  }
  const WorkerReport survivor = run_one_worker(address, "honest");
  fleet.run.join();
  ASSERT_TRUE(fleet.run.error.empty()) << fleet.run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  ASSERT_EQ(fleet.run.results.size(), 1u);
  EXPECT_EQ(fleet.run.results[0].verdict, checker::Verdict::kHolds);
}

TEST(DistLearning, CutSettlesCoveredPendingLeasesWithoutAGrant) {
  const std::string address = "unix:" + temp_path("dist_learn_settle.sock");
  LearningRun fleet;
  if (!checker::lemmas_enabled(fleet.options.check)) {
    GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  }
  ASSERT_EQ(fleet.queries, 1u);
  fleet.start(address);
  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  LeaseGrant cut_lease;
  std::int64_t granted = 0;
  {
    Conn conn(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, "scripted"));
    ASSERT_NO_FATAL_FAILURE(grant_and_cut(conn, &cut_lease));
    granted = cut_lease.id + 1;  // leases are granted first-fit, in plan order
    // Drain the rest of the run: no lease inside the refuted subtree is
    // ever granted.
    for (;;) {
      ASSERT_TRUE(conn.send(Json::Object{{"type", "next"}}));
      Json reply;
      ASSERT_EQ(conn.recv(&reply, 5'000), FrameStatus::kOk);
      const std::string& type = reply.at("type").as_string();
      if (type == "shutdown") break;
      if (type == "wait") continue;
      ASSERT_EQ(type, "lease");
      ++granted;
      std::vector<std::int64_t> prefix;
      for (const Json& g : reply.at("prefix").as_array()) prefix.push_back(g.as_int());
      EXPECT_FALSE(extends(prefix, cut_lease.prefix)) << reply.to_string();
      ASSERT_TRUE(
          conn.send(Json::Object{{"type", "lease_done"}, {"lease", reply.at("lease")}}));
    }
    conn.close();
  }
  fleet.run.join();
  ASSERT_TRUE(fleet.run.error.empty()) << fleet.run.error;
  std::vector<std::int64_t> cut_prefix(cut_lease.prefix);
  std::int64_t covered = 0;
  for (const checker::SubtreeTask& task : fleet.tasks) {
    const std::vector<std::int64_t> prefix(task.prefix.begin(), task.prefix.end());
    if (prefix != cut_prefix && extends(prefix, cut_prefix)) ++covered;
  }
  ASSERT_GE(covered, 1) << "the plan has no subtree under the cut";
  EXPECT_EQ(fleet.run.stats.leases_granted, granted);
  EXPECT_EQ(granted, static_cast<std::int64_t>(fleet.tasks.size()) - covered);
}

TEST(DistLearning, LemmasOnLeaseDoneReachTheNextGrantPastAPeerThatNeverReads) {
  // One peer completes its handshake and then never reads; another ships
  // more than a megabyte of lemmas on its lease_done, far more than a socket
  // buffer holds. The coordinator pushes nothing to a peer that did not ask,
  // so the silent peer stalls nobody: the lemmas reach the next grant and
  // the run completes.
  const std::string address = "unix:" + temp_path("dist_learn_silent_peer.sock");
  LearningRun fleet;
  if (!checker::lemmas_enabled(fleet.options.check)) {
    GTEST_SKIP() << "learning disabled (HV_NO_LEMMAS)";
  }
  fleet.start(address);
  const int silent_fd = connect_with_retry(address);
  ASSERT_GE(silent_fd, 0);
  Conn silent(silent_fd);
  ASSERT_NO_FATAL_FAILURE(hello_and_welcome(silent, "silent"));

  // 200 lemmas of 64 premises each, listed in the order the pool sorts
  // them into: about 1.3 MB on the wire.
  Json::Array lemmas;
  std::size_t bytes = 0;
  for (int l = 0; l < 200; ++l) {
    std::vector<std::string> premises;
    for (int k = 0; k < 64; ++k) {
      char name[32];
      std::snprintf(name, sizeof name, "l%03d_p%02d_", l, k);
      premises.push_back(name + std::string(90, 'x'));
      bytes += premises.back().size();
    }
    lemmas.push_back(lemma_entry(std::move(premises)));
  }
  ASSERT_GE(bytes, std::size_t{1} << 20);
  const Json expected = Json(lemmas);
  {
    const int fd = connect_with_retry(address);
    ASSERT_GE(fd, 0);
    Conn sender(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(sender, "sender"));
    LeaseGrant grant;
    ASSERT_TRUE(acquire_lease(sender, &grant));
    ASSERT_TRUE(sender.send(Json::Object{
        {"type", "lease_done"}, {"lease", grant.id}, {"lemmas", std::move(lemmas)}}));
    // Frames are handled in order: once `next` is answered, the lease_done
    // has been folded. The lease this grants re-pends when the sender goes.
    ASSERT_TRUE(acquire_lease(sender, &grant));
    sender.close();
  }
  {
    const int fd = connect_with_retry(address);
    ASSERT_GE(fd, 0);
    Conn receiver(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(receiver, "receiver"));
    LeaseGrant grant;
    Json frame;
    ASSERT_TRUE(acquire_lease(receiver, &grant, &frame));
    ASSERT_NE(frame.find("lemmas"), nullptr);
    EXPECT_EQ(frame.at("lemmas").to_string(), expected.to_string());
    receiver.close();
  }
  const WorkerReport survivor = run_one_worker(address, "honest");
  fleet.run.join();
  silent.close();
  ASSERT_TRUE(fleet.run.error.empty()) << fleet.run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  ASSERT_EQ(fleet.run.results.size(), 1u);
  EXPECT_EQ(fleet.run.results[0].verdict, checker::Verdict::kHolds);
}

TEST(DistByzantine, RepeatOffendersAreQuarantinedOnRejoin) {
  const std::string address = "unix:" + temp_path("dist_quarantine.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  // One hostile frame pushes the label's health score to the quarantine
  // threshold...
  ASSERT_NO_FATAL_FAILURE(send_hostile_frame(
      address, "repeat", bare_record_frame(0, 0, "q0||", "unsat")));

  // ...so the rejoin under the same label is refused before any lease.
  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  {
    Conn conn(fd);
    ASSERT_TRUE(conn.send(Json::Object{
        {"type", "hello"}, {"protocol", kDistProtocolVersion}, {"label", "repeat"}}));
    Json reply;
    ASSERT_EQ(conn.recv(&reply, 5'000), FrameStatus::kOk);
    EXPECT_EQ(reply.at("type").as_string(), "shutdown");
    EXPECT_NE(reply.at("reason").as_string().find("quarantined"), std::string::npos)
        << reply.at("reason").as_string();
    conn.close();
  }

  const WorkerReport survivor = run_one_worker(address, "honest");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(run.stats.workers_quarantined, 1);
}

TEST(DistByzantine, LyingWorkerIsCaughtBannedAndTheRunSelfHeals) {
  // The full Byzantine story end to end, plain and certifying: a worker
  // that forges a counterexample-free "sat" for an unsat schema is caught
  // by the merge check before the record merges, its label is banned, and
  // — the fleet now exhausted — the coordinator degrades to solving the
  // re-pended leases itself. The run slows down; it never wrongs.
  for (const bool certify : {false, true}) {
    SCOPED_TRACE(certify ? "certify" : "plain");
    const std::string address =
        "unix:" + temp_path(certify ? "dist_liar_certify.sock" : "dist_liar.sock");
    ServeRun run;
    DistOptions options;
    options.check.certify = certify;
    options.lease_timeout_seconds = 0.75;  // also paces the degradation probe
    // With the cone armed every schema of this property is statically
    // pruned and an unsat solve — the thing the liar forges a sat for —
    // never happens; disable it so the worker actually solves (and lies).
    options.check.property_directed_pruning = false;
    run.start(address, {{"safe", kHoldsFormula, false}}, options);

    WorkerOptions liar;
    liar.connect = address;
    liar.label = "liar";
    liar.heartbeat_ms = 100;  // pass the heartbeat-vs-lease-timeout gate
    liar.lie_about_verdicts = true;
    const WorkerReport report = run_worker(liar);
    run.join();

    ASSERT_TRUE(run.error.empty()) << run.error;
    EXPECT_FALSE(report.completed);
    ASSERT_EQ(run.results.size(), 1u);
    EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
    EXPECT_TRUE(run.results[0].note.empty()) << run.results[0].note;
    EXPECT_EQ(run.stats.hostile_frames, 1);
    EXPECT_EQ(run.stats.workers_banned, 1);
    EXPECT_GE(run.stats.leases_self_solved, 1);

    // The self-solved remainder lands on exactly the in-process coverage.
    const auto reference = reference_check("safe", kHoldsFormula, options.check);
    EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
    EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
  }
}

/// The certificate of one Echo property's fleet results, audited.
cert::AuditReport audit_fleet(const std::string& name, const std::string& formula,
                              const std::vector<checker::PropertyResult>& results) {
  const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
  cert::Certificate certificate;
  certificate.components.push_back(cert::make_component_cert(
      cert::text_model_source(kEchoModel), {spec::compile(ta, name, formula)}, results, "ltl"));
  return cert::audit_certificate(certificate);
}

TEST(DistByzantine, HonestCertifyingFleetPassesTheMergeCheck) {
  // Two forked workers (the fleet forms before the first grant), every
  // record checked at merge: nobody is banned and the counts and the
  // certificate are an in-process certifying run's.
  DistOptions options;
  options.check.certify = true;
  options.check.property_directed_pruning = false;  // so records carry proofs
  DistStats stats;
  const std::vector<checker::PropertyResult> results = check_distributed_local(
      kEchoModel, {{"safe", kHoldsFormula, false}}, /*worker_count=*/2, options, &stats);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(stats.workers_joined, 2);
  EXPECT_EQ(stats.hostile_frames, 0);
  EXPECT_EQ(stats.workers_banned, 0);
  EXPECT_TRUE(results[0].note.empty()) << results[0].note;

  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_GT(reference[0].schemas_checked, 0);
  EXPECT_EQ(results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(results[0].schemas_pruned, reference[0].schemas_pruned);
  EXPECT_EQ(results[0].schemas_unknown, reference[0].schemas_unknown);
  const cert::AuditReport audit = audit_fleet("safe", kHoldsFormula, results);
  EXPECT_TRUE(audit.ok) << audit.to_string();
}

TEST(DistByzantine, NegativeLeaseDoneCountersAreHostile) {
  // A lease_done adds the peer's counters to the tally; a negative one
  // would drive them below zero (and close the lease with no records).
  const std::string address = "unix:" + temp_path("dist_negative_done.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);
  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  {
    Conn conn(fd);
    ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, "negative"));
    LeaseGrant grant;
    ASSERT_TRUE(acquire_lease(conn, &grant));
    ASSERT_TRUE(conn.send(Json::Object{
        {"type", "lease_done"}, {"lease", grant.id}, {"cut", std::int64_t{-1000}}}));
    Json reply;
    EXPECT_NE(conn.recv(&reply, 5'000), FrameStatus::kOk) << reply.to_string();
    conn.close();
  }
  const WorkerReport survivor = run_one_worker(address, "honest");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  EXPECT_EQ(run.stats.hostile_frames, 1);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_GE(run.results[0].schemas_cut, 0);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
}

TEST(DistByzantine, NegativeRecordCountersAreHostile) {
  // A record frame's counters add to the tally, the lemma-pool ones
  // included; a negative one would drive the run's totals below zero. Its
  // verdict is pruned, unsat or unknown: a sat claim must come as a sat
  // frame, whose counterexample the merge check replays. The shared record
  // decoder refuses every frame below, each citing a lease granted on its
  // own connection, so each is hostile: the connection drops and the lease
  // re-pends.
  const std::string address = "unix:" + temp_path("dist_negative_record.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);
  const std::pair<const char*, Json> mutations[] = {{"pivots", std::int64_t{-1000}},
                                                    {"hits", std::int64_t{-1000}},
                                                    {"learned", std::int64_t{-1000}},
                                                    {"verdict", "maybe"},
                                                    {"verdict", "sat"}};
  for (std::size_t i = 0; i < std::size(mutations); ++i) {
    const auto& [field, value] = mutations[i];
    SCOPED_TRACE(value.to_string());
    const int fd = connect_with_retry(address);
    ASSERT_GE(fd, 0);
    Conn conn(fd);
    ASSERT_NO_FATAL_FAILURE(
        hello_and_welcome(conn, numbered("refused-", static_cast<std::int64_t>(i))));
    LeaseGrant grant;
    ASSERT_TRUE(acquire_lease(conn, &grant));
    const std::string cursor = chain_cursor(grant.query, grant.prefix);
    Json::Object frame = bare_record_frame(grant.id, grant.property, cursor, "unsat").as_object();
    std::erase_if(frame, [&](const auto& entry) { return entry.first == field; });
    frame.emplace_back(field, value);
    ASSERT_TRUE(conn.send(Json(std::move(frame))));
    Json reply;
    EXPECT_NE(conn.recv(&reply, 5'000), FrameStatus::kOk) << reply.to_string();
    conn.close();
  }
  const WorkerReport survivor = run_one_worker(address, "honest");
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  EXPECT_EQ(run.stats.hostile_frames, static_cast<std::int64_t>(std::size(mutations)));
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  EXPECT_GE(run.results[0].simplex_pivots, 0);
  EXPECT_GE(run.results[0].lemma_hits, 0);
  EXPECT_GE(run.results[0].lemmas_learned, 0);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
}

// --- the merge check of a certifying fleet ------------------------------------
//
// A scripted certifying peer settles its leases with its own solver and
// streams honest records until it commits one forgery; the coordinator must
// ban it on that very frame, and an honest worker must then finish the run
// exactly like an in-process certifying run, with a certificate that
// audits.

enum class Forgery {
  kAlteredMultiplier,   // an unsat whose proof has one Farkas multiplier negated
  kMissingProof,        // an unsat without its proof
  kPrunedKept,          // "pruned" for a schema the cone keeps
  kViolatingModel,      // a sat whose model violates the re-encoding
  kFailingReplay,       // a sat whose counterexample fails replay
  kUnsettledLeaseDone,  // a lease_done over a subtree with an unsettled schema
};

smt::proof::Node* first_farkas(smt::proof::Node& node) {
  if (node.kind == smt::proof::NodeKind::kFarkas) return &node;
  for (const auto& child : {node.first.get(), node.second.get()}) {
    if (child == nullptr) continue;
    if (smt::proof::Node* found = first_farkas(*child)) return found;
  }
  return nullptr;
}

/// Applies a record `forgery` to one honestly settled `step`, or returns
/// false when the step is no target for it. The forged frame lands in
/// `*frame`.
bool forge_record(Forgery forgery, const ta::ThresholdAutomaton& ta, checker::SchemaStep step,
                  std::int64_t lease, Json* frame) {
  using checker::SchemaVerdict;
  const SchemaVerdict verdict = step.record.verdict;
  checker::UnitOutcome& outcome = step.outcome;
  switch (forgery) {
    case Forgery::kAlteredMultiplier: {
      if (verdict != SchemaVerdict::kUnsat || outcome.proof == nullptr) return false;
      std::unique_ptr<smt::proof::Node> proof = smt::proof::clone(*outcome.proof);
      smt::proof::Node* farkas = first_farkas(*proof);
      if (farkas == nullptr || farkas->farkas.empty()) return false;
      farkas->farkas[0].multiplier = -farkas->farkas[0].multiplier;
      outcome.proof = std::move(proof);
      break;
    }
    case Forgery::kMissingProof:
      if (verdict != SchemaVerdict::kUnsat) return false;
      outcome.proof = nullptr;
      break;
    case Forgery::kPrunedKept:
      if (verdict != SchemaVerdict::kUnsat && verdict != SchemaVerdict::kSat) return false;
      step.record.verdict = SchemaVerdict::kPruned;
      outcome = checker::UnitOutcome{};
      break;
    case Forgery::kViolatingModel: {
      if (verdict != SchemaVerdict::kSat || outcome.model == nullptr) return false;
      auto model = *outcome.model;
      for (auto& entry : model) entry.second = entry.second + BigInt(7);
      outcome.model =
          std::make_shared<const std::vector<std::pair<std::string, BigInt>>>(std::move(model));
      break;
    }
    case Forgery::kFailingReplay: {
      if (verdict != SchemaVerdict::kSat || !outcome.counterexample) return false;
      // Fire a rule more often than there are processes to move.
      ta::RuleId rule = 0;
      while (ta.rule(rule).is_self_loop()) ++rule;
      outcome.counterexample->steps.push_back({rule, 1000});
      break;
    }
    case Forgery::kUnsettledLeaseDone:
      return false;
  }
  *frame = record_frame(step.record, outcome, lease, /*property=*/0);
  return true;
}

/// Runs the forging peer against the coordinator at `address`; returns once
/// the coordinator dropped it after its forged frame.
void run_forger(const std::string& address, const std::string& formula,
                const checker::CheckOptions& options, Forgery forgery) {
  const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
  const spec::Property property = spec::compile(ta, "p", formula);
  const checker::GuardAnalysis analysis(ta);
  checker::SchemaSolver solver(analysis, property, options, checker::SolveHooks{});
  const int fd = connect_with_retry(address);
  ASSERT_GE(fd, 0);
  Conn conn(fd);
  ASSERT_NO_FATAL_FAILURE(hello_and_welcome(conn, "forger"));
  bool forged = false;
  while (!forged) {
    LeaseGrant grant;
    ASSERT_TRUE(acquire_lease(conn, &grant)) << "no lease left to forge in";
    const std::size_t q = static_cast<std::size_t>(grant.query);
    std::optional<checker::QueryCone> cone;
    if (options.property_directed_pruning) cone.emplace(analysis, property.queries[q]);
    checker::SubtreeTask task;
    task.prefix.assign(grant.prefix.begin(), grant.prefix.end());
    task.include_extensions = grant.extensions;
    const bool lease_forgery = forgery == Forgery::kUnsettledLeaseDone;
    bool sat = false;
    checker::enumerate_schemas_under(
        analysis, task, static_cast<int>(property.queries[q].cuts.size()), options.enumeration,
        [&](const checker::Schema& schema) {
          checker::SchemaStep step =
              checker::step_schema(solver, cone ? &*cone : nullptr, q, schema, 0.0);
          EXPECT_EQ(step.kind, checker::SchemaStep::Kind::kSettled);
          step.record.cursor = checker::schema_cursor(q, schema);
          sat = step.record.verdict == checker::SchemaVerdict::kSat;
          if (lease_forgery && !forged) {
            forged = true;  // this schema never settles: the lease_done below is forged
            return true;
          }
          Json frame;
          const bool forged_here =
              !lease_forgery && forge_record(forgery, ta, step, grant.id, &frame);
          if (!forged_here) frame = record_frame(step.record, step.outcome, grant.id, 0);
          EXPECT_TRUE(conn.send(frame));
          forged = forged || forged_here;
          return !forged_here && !sat;
        });
    if (forged && !lease_forgery) break;
    ASSERT_FALSE(sat) << "the run settled before the forgery";
    ASSERT_TRUE(conn.send(Json::Object{{"type", "lease_done"}, {"lease", grant.id}}));
  }
  // Dropped on the forged frame: nothing but (at most) an abandon before EOF.
  Json reply;
  FrameStatus status = FrameStatus::kOk;
  while ((status = conn.recv(&reply, 5'000)) == FrameStatus::kOk) {
    EXPECT_EQ(reply.at("type").as_string(), "abandon") << reply.to_string();
  }
  EXPECT_NE(status, FrameStatus::kTimeout) << "the coordinator kept the forger";
  conn.close();
}

void expect_forgery_caught(Forgery forgery, const char* socket, const std::string& formula,
                           bool pruning) {
  const std::string address = "unix:" + temp_path(socket);
  ServeRun run;
  DistOptions options;
  options.check.certify = true;
  options.check.property_directed_pruning = pruning;
  options.lease_timeout_seconds = 30.0;
  run.start(address, {{"p", formula, false}}, options);
  ASSERT_NO_FATAL_FAILURE(run_forger(address, formula, options.check, forgery));
  const WorkerReport survivor = run_one_worker(address, "honest");
  run.join();

  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(survivor.completed) << survivor.note;
  EXPECT_EQ(run.stats.hostile_frames, 1);
  EXPECT_EQ(run.stats.workers_banned, 1);
  const auto reference = reference_check("p", formula, options.check);
  EXPECT_GT(reference[0].schemas_checked, 0);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, reference[0].verdict);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
  const cert::AuditReport audit = audit_fleet("p", formula, run.results);
  EXPECT_TRUE(audit.ok) << audit.to_string();
}

TEST(DistByzantine, UnsatWithAnAlteredFarkasMultiplierIsCaught) {
  expect_forgery_caught(Forgery::kAlteredMultiplier, "dist_forge_multiplier.sock",
                        kHoldsFormula, /*pruning=*/false);
}

TEST(DistByzantine, UnsatWithoutAProofIsCaught) {
  expect_forgery_caught(Forgery::kMissingProof, "dist_forge_no_proof.sock", kHoldsFormula,
                        /*pruning=*/false);
}

TEST(DistByzantine, PrunedClaimTheConeRefutesIsCaught) {
  expect_forgery_caught(Forgery::kPrunedKept, "dist_forge_pruned.sock", kViolatedFormula,
                        /*pruning=*/true);
}

TEST(DistByzantine, SatWhoseModelViolatesTheReEncodingIsCaught) {
  expect_forgery_caught(Forgery::kViolatingModel, "dist_forge_model.sock", kViolatedFormula,
                        /*pruning=*/true);
}

TEST(DistByzantine, SatWhoseCounterexampleFailsReplayIsCaught) {
  expect_forgery_caught(Forgery::kFailingReplay, "dist_forge_replay.sock", kViolatedFormula,
                        /*pruning=*/true);
}

TEST(DistByzantine, LeaseDoneOverAnUnsettledSubtreeIsCaught) {
  expect_forgery_caught(Forgery::kUnsettledLeaseDone, "dist_forge_lease_done.sock",
                        kHoldsFormula, /*pruning=*/false);
}

// --- reconnect jitter and heartbeat validation ------------------------------

TEST(DistReconnect, BackoffJitterStaysWithinBounds) {
  // base_ms +/- 25%, deterministic in (seed, attempt), never below 1ms.
  bool seeds_differ = false;
  for (const std::uint64_t seed : {1ull, 0x9e37ull}) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      const std::int64_t ms = jittered_backoff_ms(400, seed, attempt);
      EXPECT_GE(ms, 300) << "seed " << seed << " attempt " << attempt;
      EXPECT_LE(ms, 500) << "seed " << seed << " attempt " << attempt;
      EXPECT_EQ(ms, jittered_backoff_ms(400, seed, attempt));  // deterministic
      seeds_differ =
          seeds_differ || ms != jittered_backoff_ms(400, seed ^ 0xffffull, attempt);
    }
  }
  EXPECT_TRUE(seeds_differ) << "jitter ignores the seed";
  // Tiny bases round toward zero; the floor keeps the loop from spinning.
  EXPECT_GE(jittered_backoff_ms(1, 7, 0), 1);
}

TEST(DistReconnect, BackoffJitterDrawsArePinned) {
  // The draws are a pure function of (base, seed, attempt); pinned so a
  // change to the shared hash helpers cannot move them unnoticed.
  EXPECT_EQ(jittered_backoff_ms(1000, 42, 0), 1120);
  EXPECT_EQ(jittered_backoff_ms(1000, 0xdeadbeef, 3), 977);
  EXPECT_EQ(jittered_backoff_ms(50, 7, 1), 37);
}

TEST(DistReconnect, JitteredSleepsStayWithinTheReconnectBudget) {
  // Nothing ever listens; the jittered backoff must still respect the total
  // reconnect budget (each sleep is clamped to the remaining budget), so
  // the worker returns promptly instead of overshooting by a jittered tail.
  WorkerOptions options;
  options.connect = "unix:" + temp_path("dist_jitter_budget.sock");
  options.connect_retry_seconds = 0.05;
  options.reconnect_seconds = 0.4;
  const auto before = std::chrono::steady_clock::now();
  const WorkerReport report = run_worker(options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before).count();
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.note.find("cannot connect"), std::string::npos) << report.note;
  EXPECT_LT(elapsed, 2.5) << "reconnect loop overshot its budget";
}

TEST(DistEndToEnd, OversizedHeartbeatPeriodIsRefused) {
  // The welcome carries the coordinator's lease timeout; a worker whose
  // heartbeat period exceeds half of it would look dead mid-solve, so it
  // refuses to run (a semantic stop — reconnecting cannot fix it).
  const std::string address = "unix:" + temp_path("dist_heartbeat.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 1.0;
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  WorkerOptions slow;
  slow.connect = address;
  slow.label = "slow-heart";
  slow.heartbeat_ms = 600;  // > 1000ms / 2
  const WorkerReport refused = run_worker(slow);
  EXPECT_FALSE(refused.completed);
  EXPECT_NE(refused.note.find("exceeds half"), std::string::npos) << refused.note;
  EXPECT_EQ(refused.leases, 0);

  WorkerOptions fast;
  fast.connect = address;
  fast.label = "fast-heart";
  fast.heartbeat_ms = 100;
  const WorkerReport report = run_worker(fast);
  run.join();
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(report.completed) << report.note;
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
}

// --- network chaos ----------------------------------------------------------

TEST(DistChaos, MixedFaultsPreserveVerdictAndAccounting) {
  // Frame-level chaos on every coordinator and worker connection: delays,
  // drops, duplication, reordering, truncation, one-sided partitions. With
  // a reconnecting worker (and the coordinator's graceful degradation as
  // the backstop) the run must land on exactly the in-process verdict and
  // accounting.
  ASSERT_EQ(::setenv("HV_NET_FAULT_KIND", "mix", 1), 0);
  ASSERT_EQ(::setenv("HV_NET_FAULT_RATE", "0.05", 1), 0);
  ASSERT_EQ(::setenv("HV_NET_FAULT_SEED", "1234", 1), 0);

  const std::string address = "unix:" + temp_path("dist_chaos.sock");
  ServeRun run;
  DistOptions options;
  options.lease_timeout_seconds = 2.0;
  options.check.lemmas = false;  // learning replay depends on connection order
  run.start(address, {{"safe", kHoldsFormula, false}}, options);

  WorkerOptions worker;
  worker.connect = address;
  worker.label = "chaotic";
  worker.connect_retry_seconds = 0.2;
  worker.reconnect_seconds = 30.0;  // chaos kills connections; keep rejoining
  const WorkerReport report = run_worker(worker);
  run.join();

  ASSERT_EQ(::unsetenv("HV_NET_FAULT_KIND"), 0);
  ASSERT_EQ(::unsetenv("HV_NET_FAULT_RATE"), 0);
  ASSERT_EQ(::unsetenv("HV_NET_FAULT_SEED"), 0);
  (void)report;  // the worker may end refused (churn quarantine) or clean

  ASSERT_TRUE(run.error.empty()) << run.error;
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].verdict, checker::Verdict::kHolds);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(run.results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(run.results[0].schemas_pruned, reference[0].schemas_pruned);
  EXPECT_EQ(run.results[0].schemas_unknown, reference[0].schemas_unknown);
  EXPECT_GE(run.stats.workers_joined, 1);
}

TEST(DistChaos, FleetThatNeverJoinsDegradesToInProcessSolving) {
  // drop at rate 1.0 tears every connection on its first frame, so no forked
  // worker ever survives the hello/welcome handshake. A fork-local run owns
  // its fleet: with nobody left to wait for, it must degrade to in-process
  // solving and terminate with the right verdict instead of hanging forever.
  ASSERT_EQ(::setenv("HV_NET_FAULT_KIND", "drop", 1), 0);
  ASSERT_EQ(::setenv("HV_NET_FAULT_RATE", "1.0", 1), 0);
  ASSERT_EQ(::setenv("HV_NET_FAULT_SEED", "5", 1), 0);

  DistOptions options;
  options.lease_timeout_seconds = 0.5;  // degradation arms after this long
  options.check.property_directed_pruning = false;  // leave schemas to solve
  DistStats stats;
  std::vector<checker::PropertyResult> results;
  try {
    results = check_distributed_local(kEchoModel, {{"safe", kHoldsFormula, false}},
                                      /*worker_count=*/2, options, &stats);
  } catch (...) {
    ::unsetenv("HV_NET_FAULT_KIND");
    ::unsetenv("HV_NET_FAULT_RATE");
    ::unsetenv("HV_NET_FAULT_SEED");
    throw;
  }
  ASSERT_EQ(::unsetenv("HV_NET_FAULT_KIND"), 0);
  ASSERT_EQ(::unsetenv("HV_NET_FAULT_RATE"), 0);
  ASSERT_EQ(::unsetenv("HV_NET_FAULT_SEED"), 0);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, checker::Verdict::kHolds);
  EXPECT_EQ(stats.workers_joined, 0);
  EXPECT_GE(stats.leases_self_solved, 1);
  const auto reference = reference_check("safe", kHoldsFormula, options.check);
  EXPECT_EQ(results[0].schemas_checked, reference[0].schemas_checked);
  EXPECT_EQ(results[0].schemas_pruned, reference[0].schemas_pruned);
}

// --- TMPDIR handling in fork-local mode -------------------------------------

TEST(DistLocal, HonorsTmpdirForThePrivateSocketDirectory) {
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  const std::string scratch = ::testing::TempDir() + "hv_tmpdir_scratch";
  ::mkdir(scratch.c_str(), 0700);
  // Trailing slashes must not produce "//hvc-XXXXXX" paths.
  ASSERT_EQ(::setenv("TMPDIR", (scratch + "/").c_str(), 1), 0);

  DistOptions options;
  std::vector<checker::PropertyResult> results;
  try {
    results = check_distributed_local(kEchoModel, {{"safe", kHoldsFormula, false}},
                                      /*worker_count=*/2, options);
  } catch (...) {
    if (old != nullptr) ::setenv("TMPDIR", saved.c_str(), 1);
    else ::unsetenv("TMPDIR");
    throw;
  }
  if (old != nullptr) ::setenv("TMPDIR", saved.c_str(), 1);
  else ::unsetenv("TMPDIR");

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, checker::Verdict::kHolds);
  // The private mkdtemp directory was cleaned up after the run.
  ASSERT_EQ(::rmdir(scratch.c_str()), 0) << "socket directory left behind in TMPDIR";
}

TEST(DistLocal, OverlongTmpdirIsRefusedWithAPreciseError) {
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  const std::string overlong = "/" + std::string(200, 'x');
  ASSERT_EQ(::setenv("TMPDIR", overlong.c_str(), 1), 0);

  std::string message;
  try {
    check_distributed_local(kEchoModel, {{"safe", kHoldsFormula, false}},
                            /*worker_count=*/1, DistOptions{});
  } catch (const InvalidArgument& error) {
    message = error.what();
  }
  if (old != nullptr) ::setenv("TMPDIR", saved.c_str(), 1);
  else ::unsetenv("TMPDIR");

  // Refused before mkdtemp/bind, with the culprit and the fix named.
  EXPECT_NE(message.find("unix-socket limit"), std::string::npos) << message;
  EXPECT_NE(message.find("TMPDIR"), std::string::npos) << message;
}

}  // namespace
}  // namespace hv::dist
