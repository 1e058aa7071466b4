#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hv/checker/journal.h"
#include "hv/checker/parameterized.h"
#include "hv/dist/protocol.h"
#include "hv/service/cache.h"
#include "hv/service/client.h"
#include "hv/service/daemon.h"
#include "hv/service/persist.h"
#include "hv/service/queue.h"
#include "hv/service/response.h"
#include "hv/spec/compile.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/json.h"
#include "hv/util/rational.h"
#include "hv/util/version.h"

namespace hv::service {
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

/// For daemon state directories: a stale dir from a previous test-binary
/// run would replay its event log and pre-seed the cache.
std::string temp_state(const char* name) {
  const std::string path = ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(path);
  return path;
}

// --- options fingerprint (the cache-key contract) ---------------------------

TEST(OptionsFingerprint, PlumbingNeverChangesTheKey) {
  checker::CheckOptions a;
  checker::CheckOptions b;
  b.journal_path = "/tmp/somewhere.jsonl";
  b.resume_path = "/tmp/somewhere.jsonl";
  b.journal_flush_batch = 1;
  checker::ProgressCounters counters;
  b.progress = &counters;
  std::atomic<bool> cancel{false};
  b.cancel = &cancel;
  EXPECT_EQ(checker::options_fingerprint(a), checker::options_fingerprint(b));
}

TEST(OptionsFingerprint, EverySemanticKnobGetsItsOwnKey) {
  const checker::CheckOptions base;
  const std::string reference = checker::options_fingerprint(base);
  // Twice on the same options: deterministic.
  EXPECT_EQ(reference, checker::options_fingerprint(base));

  // --no-lemmas keys on the EFFECTIVE lemma state, so it only splits the
  // fingerprint when learning was on to begin with (HV_NO_LEMMAS unset).
  {
    checker::CheckOptions o = base;
    o.lemmas = false;
    if (checker::lemmas_enabled(base)) {
      EXPECT_NE(reference, checker::options_fingerprint(o));
    } else {
      EXPECT_EQ(reference, checker::options_fingerprint(o));
    }
  }

  std::vector<checker::CheckOptions> variants;
  {
    checker::CheckOptions o = base;
    o.certify = true;  // --certify
    variants.push_back(o);
  }
  {
    checker::CheckOptions o = base;
    o.enumeration.max_schemas = 7;  // --max-schemas (schema budget)
    variants.push_back(o);
  }
  {
    checker::CheckOptions o = base;
    o.pivot_budget = 12345;  // --pivot-budget
    variants.push_back(o);
  }
  {
    checker::CheckOptions o = base;
    o.schema_timeout_seconds = 1.5;
    variants.push_back(o);
  }
  {
    checker::CheckOptions o = base;
    o.incremental = false;
    variants.push_back(o);
  }
  {
    checker::CheckOptions o = base;
    o.workers = 8;
    variants.push_back(o);
  }
  std::vector<std::string> fingerprints = {reference};
  for (const checker::CheckOptions& variant : variants) {
    fingerprints.push_back(checker::options_fingerprint(variant));
  }
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    for (std::size_t j = i + 1; j < fingerprints.size(); ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j]) << "variants " << i << " and " << j;
    }
  }
}

TEST(OptionsFingerprint, FoldsTheRationalFastPathSwitch) {
  // HV_NO_FAST_RATIONAL changes which arithmetic path runs (and its
  // reported op counts), so it must change the cache key. The test drives
  // the same process-wide switch the env var initializes.
  const checker::CheckOptions base;
  const bool saved = Rational::fast_path_enabled();
  const std::string with_fast = checker::options_fingerprint(base);
  Rational::set_fast_path_enabled(!saved);
  const std::string without_fast = checker::options_fingerprint(base);
  Rational::set_fast_path_enabled(saved);
  EXPECT_NE(with_fast, without_fast);
}

TEST(OptionsFingerprint, FoldsTheLemmaEnvironmentSwitch) {
  // HV_NO_LEMMAS is read per run, not latched at startup, so the
  // fingerprint — and with it the service cache key — must split on it.
  const char* saved = std::getenv("HV_NO_LEMMAS");
  const std::string saved_value = saved == nullptr ? "" : saved;
  ::unsetenv("HV_NO_LEMMAS");
  const std::string learning_on = checker::options_fingerprint(checker::CheckOptions{});
  ::setenv("HV_NO_LEMMAS", "1", 1);
  const std::string learning_off = checker::options_fingerprint(checker::CheckOptions{});
  if (saved == nullptr) {
    ::unsetenv("HV_NO_LEMMAS");
  } else {
    ::setenv("HV_NO_LEMMAS", saved_value.c_str(), 1);
  }
  EXPECT_NE(learning_on, learning_off);
}

TEST(OptionsFingerprint, FoldsEffectiveLemmaState) {
  // Certify mode force-disables learning, so certify+lemmas and
  // certify+no-lemmas must share an effective lemma key (they differ via
  // the certify key itself).
  checker::CheckOptions certify_lemmas;
  certify_lemmas.certify = true;
  checker::CheckOptions certify_nolemmas = certify_lemmas;
  certify_nolemmas.lemmas = false;
  if (checker::lemmas_enabled(checker::CheckOptions{})) {
    EXPECT_EQ(checker::options_fingerprint(certify_lemmas),
              checker::options_fingerprint(certify_nolemmas));
  }
}

TEST(JobKey, CoversModelPropertiesOptionsAndWorkerMode) {
  const std::vector<dist::PropertySpec> specs = {{"safe", kHoldsFormula, false}};
  const std::vector<dist::PropertySpec> other = {{"live", kViolatedFormula, false}};
  const std::string fp = checker::options_fingerprint(checker::CheckOptions{});
  const std::string base = job_key("hashA", specs, fp, 0);
  EXPECT_EQ(base, job_key("hashA", specs, fp, 0));
  EXPECT_NE(base, job_key("hashB", specs, fp, 0));
  EXPECT_NE(base, job_key("hashA", other, fp, 0));
  EXPECT_NE(base, job_key("hashA", specs, fp + "x=1;", 0));
  EXPECT_NE(base, job_key("hashA", specs, fp, 4));
  // Worker modes below 2 all run in-process: one identity.
  EXPECT_EQ(base, job_key("hashA", specs, fp, 1));
}

// --- result cache -----------------------------------------------------------

TEST(ResultCache, HitsRefreshRecency) {
  ResultCache cache(10'000);
  ASSERT_TRUE(cache.insert("a", 0, "ra"));
  ASSERT_TRUE(cache.insert("b", 1, "rb"));
  EXPECT_EQ(cache.entries(), 2);
  const ResultCache::Entry* hit = cache.find("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->code, 0);
  EXPECT_EQ(hit->response, "ra");
  EXPECT_EQ(cache.find("missing"), nullptr);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry costs key + response + 64 overhead; budget fits two.
  const std::string payload(100, 'x');
  const std::int64_t each = ResultCache::charge("k1", payload);
  ResultCache cache(2 * each);
  ASSERT_TRUE(cache.insert("k1", 0, payload));
  ASSERT_TRUE(cache.insert("k2", 0, payload));
  EXPECT_EQ(cache.entries(), 2);
  // Touch k1 so k2 is the LRU victim.
  ASSERT_NE(cache.find("k1"), nullptr);
  ASSERT_TRUE(cache.insert("k3", 0, payload));
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_NE(cache.find("k1"), nullptr);
  EXPECT_EQ(cache.find("k2"), nullptr);
  EXPECT_NE(cache.find("k3"), nullptr);
  EXPECT_LE(cache.bytes(), 2 * each);
}

TEST(ResultCache, RefreshingAKeyReplacesItsBytes) {
  ResultCache cache(10'000);
  ASSERT_TRUE(cache.insert("k", 0, "first"));
  ASSERT_TRUE(cache.insert("k", 1, "second response"));
  EXPECT_EQ(cache.entries(), 1);
  const ResultCache::Entry* hit = cache.find("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->code, 1);
  EXPECT_EQ(hit->response, "second response");
  EXPECT_EQ(cache.bytes(), ResultCache::charge("k", "second response"));
}

TEST(ResultCache, OversizedEntryIsRefusedAndZeroBudgetDisables) {
  ResultCache tiny(10);
  EXPECT_FALSE(tiny.insert("key", 0, std::string(100, 'x')));
  EXPECT_EQ(tiny.entries(), 0);

  ResultCache disabled(0);
  EXPECT_FALSE(disabled.insert("key", 0, "r"));
  EXPECT_EQ(disabled.find("key"), nullptr);
}

// --- job queue --------------------------------------------------------------

std::unique_ptr<Job> make_job(std::int64_t id, const std::string& tenant, int priority = 0,
                              std::int64_t max_schemas = 100) {
  auto job = std::make_unique<Job>();
  job->id = id;
  job->tenant = tenant;
  job->priority = priority;
  job->options.enumeration.max_schemas = max_schemas;
  return job;
}

TEST(JobQueueTest, AdmissionEnforcesTenantQuotas) {
  QueueLimits limits;
  limits.tenant_max_queued = 2;
  limits.tenant_schema_budget = 500;
  JobQueue queue(limits);
  EXPECT_FALSE(queue.admit("", 10).empty());  // anonymous submissions refused
  EXPECT_TRUE(queue.admit("alice", 100).empty());
  queue.enqueue(make_job(1, "alice"));
  queue.enqueue(make_job(2, "alice"));
  // Two in flight: the queue quota is exhausted for alice but not for bob.
  EXPECT_NE(queue.admit("alice", 100), "");
  EXPECT_TRUE(queue.admit("bob", 100).empty());
  // Schema budget: bob has 0 in flight, but a single oversized ask is over.
  EXPECT_NE(queue.admit("bob", 501), "");
  queue.enqueue(make_job(3, "bob", 0, 400));
  EXPECT_NE(queue.admit("bob", 200), "");  // 400 + 200 > 500
  EXPECT_TRUE(queue.admit("bob", 100).empty());
}

TEST(JobQueueTest, FairShareDispatchAlternatesTenants) {
  QueueLimits limits;
  limits.max_running = 4;
  limits.tenant_max_running = 4;
  JobQueue queue(limits);
  queue.enqueue(make_job(1, "alice"));
  queue.enqueue(make_job(2, "alice"));
  queue.enqueue(make_job(3, "bob"));
  queue.enqueue(make_job(4, "bob"));
  // Both idle: FIFO insertion order picks alice first, then the fewest-
  // running rule alternates to bob, and the round-robin stamp keeps
  // alternating instead of draining one tenant.
  Job* first = queue.dispatch(1.0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->tenant, "alice");
  Job* second = queue.dispatch(2.0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->tenant, "bob");
  Job* third = queue.dispatch(3.0);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->tenant, "alice");
  Job* fourth = queue.dispatch(4.0);
  ASSERT_NE(fourth, nullptr);
  EXPECT_EQ(fourth->tenant, "bob");
  EXPECT_EQ(queue.dispatch(5.0), nullptr);  // global limit reached
}

TEST(JobQueueTest, TenantRunningCapCannotMonopolizeTheFleet) {
  QueueLimits limits;
  limits.max_running = 4;
  limits.tenant_max_running = 1;
  JobQueue queue(limits);
  queue.enqueue(make_job(1, "alice"));
  queue.enqueue(make_job(2, "alice"));
  Job* first = queue.dispatch(1.0);
  ASSERT_NE(first, nullptr);
  // Alice is at her per-tenant running cap: global room stays unused.
  EXPECT_EQ(queue.dispatch(2.0), nullptr);
  queue.enqueue(make_job(3, "bob"));
  Job* second = queue.dispatch(3.0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->tenant, "bob");
  // Finishing alice's job frees her slot.
  first->state = JobState::kDone;
  queue.finished(*first);
  Job* third = queue.dispatch(4.0);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->id, 2);
}

TEST(JobQueueTest, PriorityThenFifoWithinATenant) {
  QueueLimits limits;
  limits.max_running = 4;
  limits.tenant_max_running = 4;
  JobQueue queue(limits);
  queue.enqueue(make_job(1, "alice", /*priority=*/0));
  queue.enqueue(make_job(2, "alice", /*priority=*/5));
  queue.enqueue(make_job(3, "alice", /*priority=*/5));
  Job* first = queue.dispatch(1.0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 2);  // highest priority wins
  Job* second = queue.dispatch(2.0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, 3);  // FIFO among equals
  Job* third = queue.dispatch(3.0);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->id, 1);
}

// --- event log --------------------------------------------------------------

TEST(EventLogTest, RoundTripsEventsAndSkipsHeader) {
  const std::string path = temp_path("service_events.jsonl");
  {
    EventLog log(path);
    log.append(Json::Object{{"event", "submit"}, {"job", 1}});
    log.append(Json::Object{{"event", "done"}, {"job", 1}, {"code", 0}});
  }
  const std::vector<Json> events = EventLog::load(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("event").as_string(), "submit");
  EXPECT_EQ(events[1].at("event").as_string(), "done");

  // Re-opening appends instead of rewriting the header.
  {
    EventLog log(path);
    log.append(Json::Object{{"event", "cancelled"}, {"job", 1}});
  }
  EXPECT_EQ(EventLog::load(path).size(), 3u);
}

TEST(EventLogTest, TornTailIsSkippedNotFatal) {
  const std::string path = temp_path("service_torn.jsonl");
  {
    EventLog log(path);
    log.append(Json::Object{{"event", "submit"}, {"job", 1}});
  }
  {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file << "{\"event\": \"done\", \"job\"";  // killed mid-write
  }
  const std::vector<Json> events = EventLog::load(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("event").as_string(), "submit");
}

TEST(EventLogTest, MissingFileIsFreshAndForeignFileIsRefused) {
  EXPECT_TRUE(EventLog::load(temp_path("service_missing.jsonl")).empty());

  const std::string foreign = temp_path("service_foreign.jsonl");
  {
    std::ofstream file(foreign, std::ios::binary);
    file << "{\"something_else\": true}\n";
  }
  EXPECT_THROW(EventLog::load(foreign), Error);
}

// --- daemon end to end ------------------------------------------------------

struct DaemonRun {
  std::string address;
  DaemonOptions options;
  std::atomic<bool> stop{false};
  DaemonStats stats;
  std::ostringstream log;
  std::string error;
  std::thread thread;

  void start(const std::string& socket_path, const std::string& state_dir) {
    address = "unix:" + socket_path;
    options.state_dir = state_dir;
    options.stop = &stop;
    thread = std::thread([this] {
      try {
        run_daemon(address, options, log, &stats);
      } catch (const Error& e) {
        error = e.what();
      }
    });
  }
  void shutdown() {
    stop.store(true);
    thread.join();
  }
};

SubmitRequest echo_request(const std::string& tenant, const char* name, const char* formula) {
  SubmitRequest request;
  request.tenant = tenant;
  request.model_text = kEchoModel;
  request.specs = {{name, formula, /*bundled=*/false}};
  return request;
}

std::string reference_response(const char* name, const char* formula,
                               const checker::CheckOptions& options) {
  const ta::ThresholdAutomaton ta = ta::parse_ta(kEchoModel).one_round_reduction();
  const std::vector<spec::Property> properties = {spec::compile(ta, name, formula)};
  return render_results_json(ta, checker::check_properties(ta, properties, options));
}

/// Strips the only run-dependent field (wall-clock seconds) so fresh runs
/// are comparable. Cache hits are compared WITHOUT this: served bytes are
/// verbatim.
std::string strip_seconds(std::string text) {
  const auto start = text.find("\"seconds\": ");
  if (start == std::string::npos) return text;
  const auto end = text.find(',', start);
  text.erase(start, end - start + 2);
  return text;
}

TEST(ServiceEndToEnd, SubmitMatchesInProcessAndResubmitIsACacheHit) {
  DaemonRun daemon;
  daemon.start(temp_path("svc_e2e.sock"), temp_state("svc_e2e_state"));

  Client client(daemon.address);
  const Json submitted = client.submit(echo_request("alice", "safe", kHoldsFormula));
  EXPECT_EQ(submitted.at("type").as_string(), "submitted");
  EXPECT_FALSE(submitted.at("cached").as_bool());
  const std::int64_t job = submitted.at("job").as_int();

  int progress_frames = 0;
  const Json result =
      client.result(job, /*wait=*/true, [&](const Json&) { ++progress_frames; });
  ASSERT_EQ(result.at("type").as_string(), "result");
  EXPECT_EQ(result.at("state").as_string(), "done");
  EXPECT_EQ(result.at("code").as_int(), 0);
  EXPECT_FALSE(result.at("cached").as_bool());
  const std::string response = result.at("response").as_string();
  EXPECT_EQ(strip_seconds(response),
            strip_seconds(reference_response("safe", kHoldsFormula, checker::CheckOptions{})));

  // Identical submission from another tenant: instant, cached, and the
  // response bytes are verbatim the original run's.
  const Json resubmitted = client.submit(echo_request("bob", "safe", kHoldsFormula));
  EXPECT_TRUE(resubmitted.at("cached").as_bool());
  EXPECT_EQ(resubmitted.at("state").as_string(), "done");
  const std::int64_t hit_job = resubmitted.at("job").as_int();
  const Json hit = client.result(hit_job, /*wait=*/true);
  EXPECT_TRUE(hit.at("cached").as_bool());
  EXPECT_EQ(hit.at("response").as_string(), response);

  // Zero schemas were solved for the cache hit: its counters never moved.
  const Json status = client.status(hit_job);
  ASSERT_EQ(status.at("type").as_string(), "status");
  const Json::Array& rows = status.at("jobs").as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("solved").as_int(), 0);
  EXPECT_EQ(rows[0].at("enumerated").as_int(), 0);
  EXPECT_TRUE(rows[0].at("cached").as_bool());

  // A different property is a different key: miss, fresh run, exit 1.
  const Json other = client.submit(echo_request("alice", "live", kViolatedFormula));
  EXPECT_FALSE(other.at("cached").as_bool());
  const Json other_result = client.result(other.at("job").as_int(), /*wait=*/true);
  EXPECT_EQ(other_result.at("code").as_int(), 1);

  daemon.shutdown();
  EXPECT_TRUE(daemon.error.empty()) << daemon.error;
  EXPECT_EQ(daemon.stats.cache_hits, 1);
  EXPECT_EQ(daemon.stats.jobs_done, 3);
}

TEST(ServiceEndToEnd, RestartReservesFinishedJobsFromTheEventLog) {
  const std::string sock = temp_path("svc_restart.sock");
  const std::string state = temp_state("svc_restart_state");
  std::string response;
  std::int64_t job = 0;
  {
    DaemonRun daemon;
    daemon.start(sock, state);
    Client client(daemon.address);
    const Json submitted = client.submit(echo_request("alice", "safe", kHoldsFormula));
    job = submitted.at("job").as_int();
    response = client.result(job, /*wait=*/true).at("response").as_string();
    daemon.shutdown();
  }
  {
    DaemonRun daemon;
    daemon.start(sock, state);
    Client client(daemon.address);
    // The finished job survives the restart byte-for-byte...
    const Json replayed = client.result(job, /*wait=*/false);
    ASSERT_EQ(replayed.at("type").as_string(), "result");
    EXPECT_EQ(replayed.at("state").as_string(), "done");
    EXPECT_EQ(replayed.at("response").as_string(), response);
    // ...and re-seeded the cache: an identical submission is a hit.
    const Json resubmitted = client.submit(echo_request("carol", "safe", kHoldsFormula));
    EXPECT_TRUE(resubmitted.at("cached").as_bool());
    daemon.shutdown();
    EXPECT_EQ(daemon.stats.cache_hits, 1);
  }
}

TEST(ServiceEndToEnd, QuotaRejectionIsAPreciseErrorFrame) {
  DaemonRun daemon;
  daemon.options.limits.tenant_schema_budget = 50;
  daemon.start(temp_path("svc_quota.sock"), temp_state("svc_quota_state"));
  Client client(daemon.address);
  SubmitRequest request = echo_request("alice", "safe", kHoldsFormula);
  request.options.enumeration.max_schemas = 1000;  // over the 50-schema budget
  try {
    client.submit(request);
    FAIL() << "expected a quota rejection";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("schema budget"), std::string::npos)
        << error.what();
  }
  daemon.shutdown();
  EXPECT_EQ(daemon.stats.jobs_done, 0);
}

TEST(ServiceEndToEnd, CancelQueuedJobAndUnknownJobErrors) {
  DaemonRun daemon;
  daemon.options.limits.max_running = 0;  // nothing ever dispatches: jobs stay queued
  daemon.start(temp_path("svc_cancel.sock"), temp_state("svc_cancel_state"));
  Client client(daemon.address);
  const Json submitted = client.submit(echo_request("alice", "safe", kHoldsFormula));
  const std::int64_t job = submitted.at("job").as_int();
  EXPECT_EQ(submitted.at("state").as_string(), "queued");

  const Json cancelled = client.cancel(job);
  EXPECT_EQ(cancelled.at("type").as_string(), "ok");
  EXPECT_EQ(cancelled.at("state").as_string(), "cancelled");
  // Idempotent.
  EXPECT_EQ(client.cancel(job).at("type").as_string(), "ok");

  const Json result = client.result(job, /*wait=*/true);
  ASSERT_EQ(result.at("type").as_string(), "result");
  EXPECT_EQ(result.at("state").as_string(), "cancelled");

  const Json unknown = client.result(999, /*wait=*/false);
  EXPECT_EQ(unknown.at("type").as_string(), "error");
  daemon.shutdown();
  EXPECT_EQ(daemon.stats.jobs_cancelled, 1);
}

TEST(ServiceEndToEnd, BadSubmissionsAndProtocolMismatchAreErrorFrames) {
  DaemonRun daemon;
  daemon.start(temp_path("svc_bad.sock"), temp_state("svc_bad_state"));

  {
    Client client(daemon.address);
    SubmitRequest request = echo_request("alice", "broken", "<>(nonsense == 1)");
    EXPECT_THROW(client.submit(request), Error);  // uncompilable property
  }
  {
    // A client from the future: wrong service protocol number.
    Client client(daemon.address);
    const Json reply = client.request(Json::Object{
        {"type", "submit"}, {"protocol", kServiceProtocolVersion + 1}, {"tenant", "x"}});
    ASSERT_EQ(reply.at("type").as_string(), "error");
    EXPECT_NE(reply.at("message").as_string().find("protocol"), std::string::npos);
  }
  daemon.shutdown();
  EXPECT_EQ(daemon.stats.jobs_submitted, 0);
}

TEST(ServiceEndToEnd, ConcurrentTenantsAllCompleteUnderQuotas) {
  DaemonRun daemon;
  daemon.options.limits.max_running = 2;
  daemon.options.limits.tenant_max_running = 1;
  daemon.start(temp_path("svc_conc.sock"), temp_state("svc_conc_state"));

  // Two tenants, two distinct jobs each (distinct property names: distinct
  // cache keys), submitted over concurrent connections.
  std::vector<std::thread> clients;
  std::vector<int> codes(4, -1);
  const char* tenants[] = {"alice", "alice", "bob", "bob"};
  const char* names[] = {"safe_a", "live_a", "safe_b", "live_b"};
  const char* formulas[] = {kHoldsFormula, kViolatedFormula, kHoldsFormula,
                            kViolatedFormula};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      Client client(daemon.address);
      const Json submitted =
          client.submit(echo_request(tenants[i], names[i], formulas[i]));
      const Json result = client.result(submitted.at("job").as_int(), /*wait=*/true);
      codes[static_cast<std::size_t>(i)] = static_cast<int>(result.at("code").as_int());
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 1);
  EXPECT_EQ(codes[2], 0);
  EXPECT_EQ(codes[3], 1);
  daemon.shutdown();
  EXPECT_EQ(daemon.stats.jobs_done, 4);
  EXPECT_EQ(daemon.stats.jobs_failed, 0);
}

}  // namespace
}  // namespace hv::service
