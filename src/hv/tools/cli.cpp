#include "hv/tools/cli.h"

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "hv/cert/audit.h"
#include "hv/cert/emit.h"
#include "hv/checker/explicit_checker.h"
#include "hv/checker/parameterized.h"
#include "hv/dist/coordinator.h"
#include "hv/dist/local.h"
#include "hv/dist/worker.h"
#include "hv/models/registry.h"
#include "hv/pipeline/certify.h"
#include "hv/pipeline/holistic.h"
#include "hv/service/client.h"
#include "hv/service/daemon.h"
#include "hv/service/response.h"
#include "hv/sim/lemma7.h"
#include "hv/sim/runner.h"
#include "hv/spec/compile.h"
#include "hv/ta/dot.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"
#include "hv/util/json.h"
#include "hv/util/text.h"

namespace hv::tools {

namespace {

constexpr const char* kUsage = R"(usage:
  hvc check <model.ta> [--prop "<ltl>"]... [--name N]... [--timeout S]
                       [--max-schemas K] [--workers N] [--threads W]
                       [--no-pruning] [--no-incremental] [--no-lemmas]
                       [--json] [--certify] [--cert-out cert.json]
                       [--journal run.jsonl] [--resume run.jsonl]
                       [--schema-timeout S] [--pivot-budget K]
                       [--memory-budget MB]
       (without --prop it checks the model's bundled default properties,
        e.g. the five Table-2 properties of the simplified consensus
        automaton; --certify emits a proof-carrying certificate.
        --workers N (N >= 2) forks N local worker *processes* sharding the
        schema space over a private socket — a crashed worker costs one
        lease, not the run; --threads W instead uses W in-process threads.
        With --certify the forked fleet is proof-checked as under hvc
        serve.
        --journal appends settled schema verdicts (with their counters,
        and their proofs under --certify) to a crash-safe JSONL file;
        --resume skips the schemas an earlier journal settled and keeps
        appending to it; it refuses a journal written under another
        --no-pruning setting. --certify --resume replays only the schemas
        whose proof was journaled, and the certificate carries those proofs.
        --schema-timeout/--pivot-budget are per-schema watchdogs and
        --memory-budget a soft RSS cap: a schema that trips one is retried
        on a fresh solver, then recorded as unknown — the run continues.
        SIGINT/SIGTERM flush the journal and print the partial results.
        --no-lemmas (or HV_NO_LEMMAS=1) disables cross-schema learning —
        the Farkas lemma pool and core-based subtree cuts; verdicts are
        identical either way. HV_FAULT_KIND/_AT/_EVERY/_STALL_MS arm
        deterministic fault injection for testing.
        --prop may repeat; the i-th --name names the i-th property.)
  hvc serve <model.ta> --listen <addr> [--prop "<ltl>"]... [--name N]...
                       [--expected-workers N] [--lease-timeout S]
                       [... same checking flags as hvc check ...]
       (distributed coordinator: shards the schema space into subtree
        leases and merges verdicts streamed by hvc work processes. <addr>
        is unix:/path or tcp:host:port. Without --prop it checks the
        model's bundled default properties. A worker that dies loses its
        lease to the next worker; kill -9 the coordinator and restart with
        --resume to continue from the journal (with --certify too). Every
        sat claim's counterexample is replayed before it merges. Untrusted
        workers call for --certify: the coordinator then checks every
        worker record with hvc audit's per-schema check (proofs, models,
        pruned claims, whole leases) before it merges, and a forged record
        bans its worker at once; a worker can still make a property
        unknown, never wrong.
        Hostile frames, chronic lease timeouts and reconnect churn feed a
        per-label health score that escalates from cool-down quarantine to
        a permanent ban; with the fleet exhausted the coordinator solves the
        remainder itself.
        HV_NET_FAULT_KIND/_RATE/_SEED (delay, drop, dup, reorder, truncate,
        partition, mix) arm deterministic network-fault injection on every
        coordinator/worker connection for testing.)
  hvc work --connect <addr> [--label NAME] [--retry S] [--reconnect S]
           [--heartbeat-ms MS]
       (distributed worker: pulls schema subtree leases from an hvc serve
        coordinator and streams back per-schema verdicts; runs until the
        coordinator sends shutdown. The model and properties arrive over
        the wire — nothing is configured locally. --reconnect S keeps
        retrying lost/refused connections with jittered exponential backoff
        for up to S idle seconds, so a worker fleet survives coordinator
        restarts. --heartbeat-ms must stay under half the coordinator's
        lease timeout (refused otherwise). HV_LIE_VERDICTS=1 makes the
        worker forge sat verdicts — an adversarial test hook for the
        coordinator's merge check.)
  hvc daemon --listen <addr> --state <dir> [--cache-mb MB] [--job-workers N]
             [--max-running N] [--tenant-max-queued N]
             [--tenant-max-running N] [--tenant-schema-budget K]
       (multi-tenant verification service: accepts hvc submit jobs from
        many clients, schedules them fairly under per-tenant quotas, and
        answers repeated submissions from a content-addressed result cache
        with zero schemas solved. The queue lives in <dir> as a crash-safe
        event log plus one schema journal per job: kill -9 the daemon and
        restart it with the same --state to resume queued and running jobs
        and re-serve finished ones from the cache. SIGINT/SIGTERM shut
        down gracefully (interrupted jobs re-run on the next start).
        --job-workers N >= 2 runs every job on N forked worker processes.)
  hvc submit <model.ta> --connect <addr> --tenant NAME [--priority P]
             [--wait] [--json] [--prop "<ltl>"]... [--name N]...
             [... same checking flags as hvc check ...]
       (submits a job to an hvc daemon and prints its id; --wait streams
        progress and exits with the job's own exit code, printing the same
        --json output hvc check would have. Without --prop the model's
        bundled default properties are submitted.)
  hvc status --connect <addr> [--job ID] [--json]
       (queue, per-job progress/ETA and cache statistics of a daemon)
  hvc result <job-id> --connect <addr> [--wait]
       (fetches a finished job's result — byte-identical to hvc check
        --json — and exits with the job's exit code; --wait blocks)
  hvc cancel <job-id> --connect <addr>
       (cancels a queued or running job; idempotent)
  hvc audit <cert.json> [--json] [--jobs N]
       (re-validates a certificate with exact arithmetic only; exit 0 iff
        every verdict is substantiated. --jobs N (alias --workers, default
        1) runs the audit's phases on N concurrent lanes and shards each
        evidence list N ways; the merged report is byte-identical at
        every N.)
  hvc explicit <model.ta> --prop "<ltl>" --params n=4,t=1,f=1 [--max-states K]
                       [--json]
  hvc dot <model.ta>
  hvc print <model.ta>
  hvc redbelly [--naive] [--certify] [--cert-out cert.json]
               [--journal prefix] [--resume] [--dag-workers N]
       (runs the pipeline in stages: the bv-broadcast properties, then the
        consensus properties, which a bv property that does not hold
        cancels before they start, then Theorem 6. --journal writes one
        crash-safe journal per property node,
        <prefix>.<stage>.<property>.jsonl; --resume continues from whatever
        those files already settled. --dag-workers N (default 1) runs each
        stage's properties on N concurrent lanes and streams node progress
        and an ETA to stderr. Verdicts, accounting and certificates are
        identical at every N.)
  hvc simulate [--n N] [--t T] [--inputs 0,1,1,0] [--byzantine 3]
               [--scheduler fair|random|fifo] [--seed S] [--max-steps K]
  hvc simulate --lemma7 [--rounds R]

exit codes: 0 holds / fully verified / audit passed, 1 violated or audit
failed, 2 usage or input error, 3 inconclusive (budget or timeout
exhausted)
)";

// Set by SIGINT/SIGTERM; polled by the checker as its cancellation flag.
std::atomic<bool> g_interrupted{false};

void handle_interrupt(int) { g_interrupted.store(true); }

/// `text` as a T. The whole text must be one number that fits in T, or
/// the InvalidArgument names `what` (a flag such as "--threads").
template <typename T>
T parse_number(const std::string& what, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range) {
    throw InvalidArgument(what + ": value '" + text + "' is out of range");
  }
  if (error != std::errc() || stop != end) {
    throw InvalidArgument(what + ": invalid number '" + text + "'");
  }
  return value;
}

/// The fleet summary of `check --workers` and `serve`: the "distributed:"
/// line, then one line of Byzantine-defense counters, printed only when
/// something actually happened, so trusted-fleet runs keep their exact
/// pre-existing output.
void print_distributed_stats(const dist::DistStats& stats, std::ostream& out) {
  out << "distributed: " << stats.workers_joined << " workers joined, " << stats.workers_lost
      << " lost, " << stats.leases_granted << " leases granted, " << stats.leases_reassigned
      << " reassigned\n";
  if (stats.hostile_frames == 0 && stats.lease_timeouts == 0 && stats.workers_quarantined == 0 &&
      stats.workers_banned == 0 && stats.leases_self_solved == 0) {
    return;
  }
  out << "byzantine: " << stats.hostile_frames << " hostile frames, " << stats.lease_timeouts << " lease timeouts, " << stats.workers_quarantined
      << " quarantined, " << stats.workers_banned << " banned, " << stats.leases_self_solved
      << " leases self-solved\n";
}

// Simple flag cursor over the argument vector.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  bool empty() const noexcept { return position_ >= args_.size(); }

  /// Consumes the next word unless it is a flag: a word starting with
  /// "--" is never a positional argument.
  std::optional<std::string> next_positional() {
    if (empty() || args_[position_].starts_with("--")) return std::nullopt;
    return args_[position_++];
  }

  /// Consumes "--flag value"; returns nullopt if the next token is not
  /// this flag. Throws on a flag without its value.
  std::optional<std::string> option(const std::string& flag) {
    if (empty() || args_[position_] != flag) return std::nullopt;
    ++position_;
    if (empty()) throw InvalidArgument(flag + " requires a value");
    return args_[position_++];
  }

  /// Consumes "--flag value" where the value must be a T (parse_number).
  template <typename T>
  std::optional<T> number(const std::string& flag) {
    const auto value = option(flag);
    if (!value) return std::nullopt;
    return parse_number<T>(flag, *value);
  }

  bool boolean(const std::string& flag) {
    if (empty() || args_[position_] != flag) return false;
    ++position_;
    return true;
  }

  const std::string& peek() const { return args_[position_]; }

 private:
  std::vector<std::string> args_;
  std::size_t position_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw InvalidArgument("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw InvalidArgument("cannot write file: " + path);
  file << text;
  if (!file) throw InvalidArgument("failed writing file: " + path);
}

ta::MultiRoundTa load_model(const std::string& path) { return ta::parse_ta(read_file(path)); }

ta::ParamValuation parse_params(const ta::ThresholdAutomaton& ta, const std::string& text) {
  ta::ParamValuation params;
  for (const std::string_view assignment : split(text, ',')) {
    const auto parts = split(assignment, '=');
    if (parts.size() != 2) {
      throw InvalidArgument("bad --params entry '" + std::string(assignment) +
                            "' (expected name=value)");
    }
    const auto var = ta.find_variable(std::string(trim(parts[0])));
    if (!var || !ta.is_parameter(*var)) {
      throw InvalidArgument("unknown parameter '" + std::string(trim(parts[0])) + "'");
    }
    params[*var] = BigInt::from_string(trim(parts[1])).to_int64();
  }
  return params;
}

int exit_code(checker::Verdict verdict) {
  switch (verdict) {
    case checker::Verdict::kHolds:
      return 0;
    case checker::Verdict::kViolated:
      return 1;
    case checker::Verdict::kUnknown:
      return 3;
  }
  return 2;
}

/// Pairs repeated --prop values with their --name values: the i-th --name
/// names the i-th --prop; unnamed properties default to "property",
/// "property2", "property3", ... (the first keeps the historical name, so
/// single-property invocations are unchanged).
std::vector<dist::PropertySpec> ltl_specs(const std::vector<std::string>& props,
                                          const std::vector<std::string>& names) {
  if (names.size() > props.size()) {
    throw InvalidArgument("more --name values than --prop values");
  }
  std::vector<dist::PropertySpec> specs;
  for (std::size_t i = 0; i < props.size(); ++i) {
    std::string name = i < names.size()
                           ? names[i]
                           : (i == 0 ? "property" : "property" + std::to_string(i + 1));
    specs.push_back({std::move(name), props[i], /*bundled=*/false});
  }
  return specs;
}

/// The automaton's bundled default properties (the Table-2 set for the
/// simplified consensus automaton): what check, serve and submit run without
/// --prop. Throws "<command>: --prop is required (...)" when it bundles none.
std::vector<spec::Property> default_properties(const std::string& command,
                                               const ta::ThresholdAutomaton& ta) {
  if (!models::has_bundled_properties(ta.name())) {
    throw InvalidArgument(command + ": --prop is required (no bundled properties for automaton '" +
                          ta.name() + "')");
  }
  return models::bundled_properties(ta, /*table2_defaults=*/true);
}

/// Bundled properties travel to workers and the daemon by name.
std::vector<dist::PropertySpec> bundled_specs(const std::vector<spec::Property>& properties) {
  std::vector<dist::PropertySpec> specs;
  for (const spec::Property& property : properties) {
    specs.push_back({property.name, "", /*bundled=*/true});
  }
  return specs;
}

/// Writes the one-component certificate of a `check` or `serve --certify`
/// run to --cert-out (default: next to the model) and returns its path.
/// `ltl`: the properties came from --prop rather than the bundled set.
std::string write_certificate(const std::string& model_path, const std::string& model_text,
                              const std::vector<spec::Property>& properties,
                              const std::vector<checker::PropertyResult>& results, bool ltl,
                              const std::optional<std::string>& cert_out) {
  cert::Certificate certificate;
  certificate.components.push_back(cert::make_component_cert(
      cert::text_model_source(model_text), properties, results, ltl ? "ltl" : "bundled"));
  const std::string path = cert_out.value_or(model_path + ".cert.json");
  write_file(path, cert::to_json_text(certificate));
  return path;
}

void print_result_text(const ta::ThresholdAutomaton& ta, const checker::PropertyResult& result,
                       std::ostream& out) {
  out << result.property << ": " << checker::to_string(result.verdict) << " ("
      << result.schemas_checked << " schemas, " << result.schemas_pruned << " pruned, "
      << result.simplex_pivots << " pivots, " << result.seconds << "s)\n";
  if (result.rational_fast_ops + result.rational_big_ops > 0) {
    out << "arithmetic: " << result.rational_fast_ops << " fast-path ops, "
        << result.rational_big_ops << " bigint ops ("
        << static_cast<int>(service::rational_fast_ratio(result) * 100.0) << "% fast)\n";
  }
  if (result.schemas_cut > 0 || result.lemma_hits > 0 || result.lemmas_learned > 0) {
    out << "learning: " << result.schemas_cut << " schemas cut, " << result.lemma_hits
        << " lemma hits, " << result.lemmas_learned << " lemmas learned\n";
  }
  if (result.schemas_unknown > 0 || result.schemas_resumed > 0 || result.retries > 0) {
    out << "robustness: " << result.schemas_unknown << " schemas unknown, "
        << result.schemas_resumed << " resumed from journal, " << result.retries
        << " fresh-solver retries\n";
  }
  if (result.incremental) {
    out << "incremental: " << result.incremental->segments_pushed << " segments pushed, "
        << result.incremental->segments_reused << " reused ("
        << static_cast<int>(result.incremental->prefix_reuse_ratio() * 100.0)
        << "% prefix reuse)\n";
  }
  if (!result.note.empty()) out << "note: " << result.note << "\n";
  if (result.counterexample) out << result.counterexample->to_string(ta);
}

/// Consumes one of the checking flags hvc check, serve and submit share;
/// false when the next argument is none of them.
bool check_option(Args& args, checker::CheckOptions& options) {
  if (const auto value = args.number<double>("--timeout")) {
    options.timeout_seconds = *value;
  } else if (const auto value = args.number<std::int64_t>("--max-schemas")) {
    options.enumeration.max_schemas = *value;
  } else if (args.boolean("--no-pruning")) {
    options.property_directed_pruning = false;
  } else if (args.boolean("--no-incremental")) {
    options.incremental = false;
  } else if (args.boolean("--no-lemmas")) {
    options.lemmas = false;
  } else if (const auto value = args.number<double>("--schema-timeout")) {
    options.schema_timeout_seconds = *value;
  } else if (const auto value = args.number<std::int64_t>("--pivot-budget")) {
    options.pivot_budget = *value;
  } else if (const auto value = args.number<std::int64_t>("--memory-budget")) {
    options.memory_budget_mb = *value;
  } else if (args.boolean("--certify")) {
    options.certify = true;
  } else {
    return false;
  }
  return true;
}

/// --resume keeps extending the same journal, so a later resume sees the
/// whole run; a fresh --journal starts empty (append is for resume only).
void normalize_journal_paths(checker::CheckOptions& options) {
  if (!options.resume_path.empty() && options.journal_path.empty()) {
    options.journal_path = options.resume_path;
  } else if (!options.journal_path.empty() && options.journal_path != options.resume_path) {
    std::remove(options.journal_path.c_str());
  }
}

int command_check(Args& args, std::ostream& out) {
  const auto model_path = args.next_positional();
  if (!model_path) throw InvalidArgument("check: missing model file");
  std::vector<std::string> props;
  std::vector<std::string> names;
  bool json = false;
  int fork_workers = 0;
  std::optional<std::string> cert_out;
  checker::CheckOptions options;
  while (!args.empty()) {
    if (check_option(args, options)) continue;
    if (const auto value = args.option("--prop")) {
      props.push_back(*value);
    } else if (const auto value = args.option("--name")) {
      names.push_back(*value);
    } else if (const auto value = args.number<int>("--workers")) {
      fork_workers = *value;
    } else if (const auto value = args.number<int>("--threads")) {
      options.workers = *value;
    } else if (args.boolean("--json")) {
      json = true;
    } else if (const auto value = args.option("--cert-out")) {
      cert_out = *value;
    } else if (const auto value = args.option("--journal")) {
      options.journal_path = *value;
    } else if (const auto value = args.option("--resume")) {
      options.resume_path = *value;
    } else {
      throw InvalidArgument("check: unexpected argument '" + args.peek() + "'");
    }
  }
  normalize_journal_paths(options);
  options.cancel = &g_interrupted;
  options.fault = checker::fault_plan_from_env();

  const std::string model_text = read_file(*model_path);
  const ta::ThresholdAutomaton ta = ta::parse_ta(model_text).one_round_reduction();
  const std::vector<dist::PropertySpec> ltl = ltl_specs(props, names);
  std::vector<spec::Property> properties;
  if (ltl.empty()) properties = default_properties("check", ta);
  for (const dist::PropertySpec& spec : ltl) {
    properties.push_back(spec::compile(ta, spec.name, spec.formula));
  }

  std::vector<checker::PropertyResult> results;
  dist::DistStats dist_stats;
  if (fork_workers >= 2) {
    // Fork-local distributed mode: N worker processes over a private unix
    // socket. The specs travel by name/formula; workers recompile them
    // against their own parse of the model text.
    const std::vector<dist::PropertySpec> specs = ltl.empty() ? bundled_specs(properties) : ltl;
    dist::DistOptions dist_options;
    dist_options.check = options;
    results = dist::check_distributed_local(model_text, specs, fork_workers, dist_options,
                                            &dist_stats);
  } else {
    results = checker::check_properties(ta, properties, options);
  }

  const std::string cert_path =
      options.certify ? write_certificate(*model_path, model_text, properties, results,
                                          !props.empty(), cert_out)
                      : "";

  if (json) {
    out << service::render_results_json(ta, results);
  } else {
    for (const checker::PropertyResult& result : results) print_result_text(ta, result, out);
    if (fork_workers >= 2) print_distributed_stats(dist_stats, out);
    if (options.certify) out << "certificate: " << cert_path << "\n";
  }
  return service::exit_code(results);
}

int command_serve(Args& args, std::ostream& out) {
  const auto model_path = args.next_positional();
  if (!model_path) throw InvalidArgument("serve: missing model file");
  std::string listen;
  std::vector<std::string> props;
  std::vector<std::string> names;
  bool json = false;
  std::optional<std::string> cert_out;
  dist::DistOptions dist_options;
  checker::CheckOptions& options = dist_options.check;
  while (!args.empty()) {
    if (check_option(args, options)) continue;
    if (const auto value = args.option("--listen")) {
      listen = *value;
    } else if (const auto value = args.option("--prop")) {
      props.push_back(*value);
    } else if (const auto value = args.option("--name")) {
      names.push_back(*value);
    } else if (const auto value = args.number<int>("--expected-workers")) {
      dist_options.expected_workers = *value;
    } else if (const auto value = args.number<double>("--lease-timeout")) {
      dist_options.lease_timeout_seconds = *value;
    } else if (args.boolean("--json")) {
      json = true;
    } else if (const auto value = args.option("--cert-out")) {
      cert_out = *value;
    } else if (const auto value = args.option("--journal")) {
      options.journal_path = *value;
    } else if (const auto value = args.option("--resume")) {
      options.resume_path = *value;
    } else {
      throw InvalidArgument("serve: unexpected argument '" + args.peek() + "'");
    }
  }
  if (listen.empty()) throw InvalidArgument("serve: --listen is required");
  normalize_journal_paths(options);
  options.cancel = &g_interrupted;

  const std::string model_text = read_file(*model_path);
  const ta::ThresholdAutomaton ta = ta::parse_ta(model_text).one_round_reduction();
  // LTL properties from the command line travel by formula.
  std::vector<dist::PropertySpec> specs = ltl_specs(props, names);
  if (specs.empty()) specs = bundled_specs(default_properties("serve", ta));

  dist::DistStats stats;
  const std::vector<checker::PropertyResult> results =
      dist::serve(model_text, specs, listen, dist_options, &stats);

  const std::string cert_path =
      options.certify ? write_certificate(*model_path, model_text,
                                          dist::resolve_properties(ta, specs), results,
                                          !props.empty(), cert_out)
                      : "";

  if (json) {
    out << service::render_results_json(ta, results);
  } else {
    for (const checker::PropertyResult& result : results) print_result_text(ta, result, out);
    print_distributed_stats(stats, out);
    if (options.certify) out << "certificate: " << cert_path << "\n";
  }
  return service::exit_code(results);
}

int command_work(Args& args, std::ostream& out) {
  dist::WorkerOptions options;
  while (!args.empty()) {
    if (const auto value = args.option("--connect")) {
      options.connect = *value;
    } else if (const auto value = args.option("--label")) {
      options.label = *value;
    } else if (const auto value = args.number<double>("--retry")) {
      options.connect_retry_seconds = *value;
    } else if (const auto value = args.number<double>("--reconnect")) {
      options.reconnect_seconds = *value;
    } else if (const auto value = args.option("--heartbeat-ms")) {
      options.heartbeat_ms = parse_number<int>("--heartbeat-ms", *value);
      if (options.heartbeat_ms <= 0) {
        throw InvalidArgument("work: --heartbeat-ms must be a positive period, got " + *value);
      }
    } else {
      throw InvalidArgument("work: unexpected argument '" + args.peek() + "'");
    }
  }
  if (options.connect.empty()) throw InvalidArgument("work: --connect is required");
  options.fault = checker::fault_plan_from_env();
  options.cancel = &g_interrupted;
  // Adversarial test hook: forge sat verdicts so the coordinator's merge
  // check can be exercised end-to-end from the shell.
  if (const char* lie = std::getenv("HV_LIE_VERDICTS"); lie != nullptr && *lie == '1') {
    options.lie_about_verdicts = true;
  }
  const dist::WorkerReport report = dist::run_worker(options);
  out << "worker '" << options.label << "': " << report.leases << " leases, "
      << report.records << " records"
      << (report.completed ? ", run complete" : "") << "\n";
  if (!report.note.empty()) out << "note: " << report.note << "\n";
  // 0 only for a clean shutdown from the coordinator; anything else (lost
  // connection, cancellation, injected abort) is inconclusive for this
  // worker — the coordinator's exit code is the run's verdict.
  return report.completed ? 0 : 3;
}

int command_daemon(Args& args, std::ostream& out) {
  std::string listen;
  service::DaemonOptions options;
  while (!args.empty()) {
    if (const auto value = args.option("--listen")) {
      listen = *value;
    } else if (const auto value = args.option("--state")) {
      options.state_dir = *value;
    } else if (const auto value = args.number<int>("--cache-mb")) {
      options.cache_bytes = static_cast<std::int64_t>(*value) * 1024 * 1024;
    } else if (const auto value = args.number<int>("--job-workers")) {
      options.job_workers = *value;
    } else if (const auto value = args.number<int>("--max-running")) {
      options.limits.max_running = *value;
    } else if (const auto value = args.number<int>("--tenant-max-queued")) {
      options.limits.tenant_max_queued = *value;
    } else if (const auto value = args.number<int>("--tenant-max-running")) {
      options.limits.tenant_max_running = *value;
    } else if (const auto value = args.number<std::int64_t>("--tenant-schema-budget")) {
      options.limits.tenant_schema_budget = *value;
    } else {
      throw InvalidArgument("daemon: unexpected argument '" + args.peek() + "'");
    }
  }
  if (listen.empty()) throw InvalidArgument("daemon: --listen is required");
  if (options.state_dir.empty()) throw InvalidArgument("daemon: --state is required");
  options.stop = &g_interrupted;
  return service::run_daemon(listen, options, out);
}

/// Shared by submit/status/result/cancel: prints a daemon progress frame
/// as a one-line human summary.
void print_progress(const Json& frame, std::ostream& out) {
  out << "job " << frame.at("job").as_int() << " " << frame.at("state").as_string() << ": "
      << frame.at("solved").as_int() << " solved / " << frame.at("enumerated").as_int()
      << " enumerated, " << frame.at("properties_done").as_int() << "/"
      << frame.at("properties").as_int() << " properties";
  const double eta = frame.at("eta_seconds").as_double();
  if (eta >= 0.0) out << ", eta " << eta << "s";
  out << "\n";
}

int command_submit(Args& args, std::ostream& out) {
  const auto model_path = args.next_positional();
  if (!model_path) throw InvalidArgument("submit: missing model file");
  std::string connect;
  std::vector<std::string> props;
  std::vector<std::string> names;
  bool wait = false;
  bool json = false;
  service::SubmitRequest request;
  checker::CheckOptions& options = request.options;
  while (!args.empty()) {
    if (check_option(args, options)) continue;
    if (const auto value = args.option("--connect")) {
      connect = *value;
    } else if (const auto value = args.option("--tenant")) {
      request.tenant = *value;
    } else if (const auto value = args.number<int>("--priority")) {
      request.priority = *value;
    } else if (args.boolean("--wait")) {
      wait = true;
    } else if (const auto value = args.option("--prop")) {
      props.push_back(*value);
    } else if (const auto value = args.option("--name")) {
      names.push_back(*value);
    } else if (const auto value = args.number<int>("--threads")) {
      options.workers = *value;
    } else if (args.boolean("--json")) {
      json = true;
    } else {
      throw InvalidArgument("submit: unexpected argument '" + args.peek() + "'");
    }
  }
  if (connect.empty()) throw InvalidArgument("submit: --connect is required");
  if (request.tenant.empty()) throw InvalidArgument("submit: --tenant is required");

  request.model_text = read_file(*model_path);
  request.specs = ltl_specs(props, names);
  if (request.specs.empty()) {
    const ta::ThresholdAutomaton ta = ta::parse_ta(request.model_text).one_round_reduction();
    request.specs = bundled_specs(default_properties("submit", ta));
  }

  service::Client client(connect);
  const Json submitted = client.submit(request);
  const std::int64_t job = submitted.at("job").as_int();
  const bool cached = submitted.at("cached").as_bool();
  if (!wait) {
    if (json) {
      out << submitted.to_string() << "\n";
    } else {
      out << "job " << job << " " << submitted.at("state").as_string()
          << (cached ? " (cache hit)" : "") << "\n";
    }
    return 0;
  }
  const Json final_frame =
      client.result(job, /*wait=*/true, [&](const Json& frame) {
        if (!json) print_progress(frame, out);
      });
  const Json* type = final_frame.find("type");
  if (type == nullptr || type->as_string() != "result") {
    throw Error("submit: " + final_frame.at("message").as_string());
  }
  const std::string& state = final_frame.at("state").as_string();
  if (state == "done") {
    // The daemon's response is the byte-identical `hvc check --json`
    // output; in human mode it still tells the whole story compactly.
    out << final_frame.at("response").as_string();
    if (!json && cached) out << "(served from result cache)\n";
    return static_cast<int>(final_frame.at("code").as_int());
  }
  out << "job " << job << " " << state << ": " << final_frame.at("response").as_string()
      << "\n";
  return static_cast<int>(final_frame.at("code").as_int());
}

int command_status(Args& args, std::ostream& out) {
  std::string connect;
  std::int64_t job = -1;
  bool json = false;
  while (!args.empty()) {
    if (const auto value = args.option("--connect")) {
      connect = *value;
    } else if (const auto value = args.number<std::int64_t>("--job")) {
      job = *value;
    } else if (args.boolean("--json")) {
      json = true;
    } else {
      throw InvalidArgument("status: unexpected argument '" + args.peek() + "'");
    }
  }
  if (connect.empty()) throw InvalidArgument("status: --connect is required");
  service::Client client(connect);
  const Json status = client.status(job);
  const Json* type = status.find("type");
  if (type == nullptr || type->as_string() != "status") {
    throw Error("status: " + status.at("message").as_string());
  }
  if (json) {
    out << status.to_string() << "\n";
    return 0;
  }
  const Json& cache = status.at("cache");
  out << "daemon: " << status.at("running").as_int() << " running, "
      << status.at("queued").as_int() << " queued; cache " << cache.at("entries").as_int()
      << " entries / " << cache.at("bytes").as_int() << " bytes ("
      << cache.at("hits").as_int() << " hits, " << cache.at("misses").as_int()
      << " misses, " << cache.at("evictions").as_int() << " evictions)\n";
  for (const Json& row : status.at("jobs").as_array()) {
    out << "  job " << row.at("job").as_int() << " [" << row.at("tenant").as_string()
        << "] " << row.at("state").as_string();
    if (row.at("cached").as_bool()) out << " (cache hit)";
    if (const Json* code = row.find("code")) out << " exit " << code->as_int();
    if (row.at("state").as_string() == "running") {
      out << ": " << row.at("solved").as_int() << " solved / "
          << row.at("enumerated").as_int() << " enumerated, "
          << row.at("properties_done").as_int() << "/" << row.at("properties").as_int()
          << " properties, " << row.at("workers").as_int() << " workers";
      const double eta = row.at("eta_seconds").as_double();
      if (eta >= 0.0) out << ", eta " << eta << "s";
    }
    out << "\n";
  }
  return 0;
}

int command_result(Args& args, std::ostream& out) {
  const auto job_text = args.next_positional();
  if (!job_text) throw InvalidArgument("result: missing job id");
  std::string connect;
  bool wait = false;
  while (!args.empty()) {
    if (const auto value = args.option("--connect")) {
      connect = *value;
    } else if (args.boolean("--wait")) {
      wait = true;
    } else {
      throw InvalidArgument("result: unexpected argument '" + args.peek() + "'");
    }
  }
  if (connect.empty()) throw InvalidArgument("result: --connect is required");
  service::Client client(connect);
  const Json frame =
      client.result(parse_number<std::int64_t>("result: job id", *job_text), wait);
  const Json* type = frame.find("type");
  if (type == nullptr) throw Error("result: malformed reply");
  if (type->as_string() == "error") throw Error("result: " + frame.at("message").as_string());
  if (type->as_string() == "progress") {
    print_progress(frame, out);
    return 3;  // still running: inconclusive, like a budget-exhausted check
  }
  const std::string& state = frame.at("state").as_string();
  if (state == "done") {
    out << frame.at("response").as_string();
  } else {
    out << "job " << frame.at("job").as_int() << " " << state << ": "
        << frame.at("response").as_string() << "\n";
  }
  return static_cast<int>(frame.at("code").as_int());
}

int command_cancel(Args& args, std::ostream& out) {
  const auto job_text = args.next_positional();
  if (!job_text) throw InvalidArgument("cancel: missing job id");
  std::string connect;
  while (!args.empty()) {
    if (const auto value = args.option("--connect")) {
      connect = *value;
    } else {
      throw InvalidArgument("cancel: unexpected argument '" + args.peek() + "'");
    }
  }
  if (connect.empty()) throw InvalidArgument("cancel: --connect is required");
  service::Client client(connect);
  const Json reply = client.cancel(parse_number<std::int64_t>("cancel: job id", *job_text));
  const Json* type = reply.find("type");
  if (type == nullptr || type->as_string() != "ok") {
    throw Error("cancel: " + reply.at("message").as_string());
  }
  out << "job " << reply.at("job").as_int() << " " << reply.at("state").as_string() << "\n";
  return 0;
}

int command_audit(Args& args, std::ostream& out) {
  const auto cert_path = args.next_positional();
  if (!cert_path) throw InvalidArgument("audit: missing certificate file");
  bool json = false;
  cert::AuditOptions audit_options;
  while (!args.empty()) {
    if (args.boolean("--json")) {
      json = true;
    } else if (const auto value = args.number<int>("--jobs")) {
      audit_options.jobs = *value;
    } else if (const auto value = args.number<int>("--workers")) {
      audit_options.jobs = *value;  // alias, mirrors hvc check
    } else {
      throw InvalidArgument("audit: unexpected argument '" + args.peek() + "'");
    }
  }
  if (audit_options.jobs < 1) {
    throw InvalidArgument("audit: --jobs must be >= 1");
  }
  const cert::Certificate certificate = cert::parse_certificate(read_file(*cert_path));
  const cert::AuditReport report = cert::audit_certificate(certificate, audit_options);
  if (json) {
    Json::Array issues;
    for (const std::string& issue : report.issues) issues.push_back(issue);
    Json::Array warnings;
    for (const std::string& warning : report.warnings) warnings.push_back(warning);
    const Json summary = Json::Object{
        {"ok", report.ok},
        {"properties_audited", report.properties_audited},
        {"schemas_covered", report.schemas_covered},
        {"schemas_pruned", report.schemas_pruned},
        {"models_checked", report.models_checked},
        {"farkas_nodes", report.farkas_nodes},
        {"issues", std::move(issues)},
        {"warnings", std::move(warnings)},
    };
    out << summary.to_pretty_string() << "\n";
  } else {
    out << report.to_string();
  }
  return report.ok ? 0 : 1;
}

int command_explicit(Args& args, std::ostream& out) {
  const auto model_path = args.next_positional();
  if (!model_path) throw InvalidArgument("explicit: missing model file");
  std::string prop;
  std::string params_text;
  bool json = false;
  checker::ExplicitOptions options;
  while (!args.empty()) {
    if (const auto value = args.option("--prop")) {
      prop = *value;
    } else if (const auto value = args.option("--params")) {
      params_text = *value;
    } else if (const auto value = args.number<std::int64_t>("--max-states")) {
      options.max_states = *value;
    } else if (args.boolean("--json")) {
      json = true;
    } else {
      throw InvalidArgument("explicit: unexpected argument '" + args.peek() + "'");
    }
  }
  if (prop.empty() || params_text.empty()) {
    throw InvalidArgument("explicit: --prop and --params are required");
  }
  const ta::MultiRoundTa model = load_model(*model_path);
  const ta::ThresholdAutomaton ta = model.one_round_reduction();
  const spec::Property property = spec::compile(ta, "property", prop);
  const checker::ExplicitResult result =
      checker::check_explicit(ta, property, parse_params(ta, params_text), options);
  if (json) {
    out << "{\"verdict\": \"" << checker::to_string(result.verdict)
        << "\", \"states\": " << result.states_explored << ", \"seconds\": "
        << result.seconds << ", \"note\": \"" << json_escape(result.note) << "\"}\n";
    return exit_code(result.verdict);
  }
  out << "explicit: " << checker::to_string(result.verdict) << " ("
      << result.states_explored << " states, " << result.seconds << "s)";
  if (!result.note.empty()) out << " [" << result.note << "]";
  out << "\n";
  return exit_code(result.verdict);
}

int command_dot(Args& args, std::ostream& out) {
  const auto model_path = args.next_positional();
  if (!model_path) throw InvalidArgument("dot: missing model file");
  out << ta::to_dot(load_model(*model_path));
  return 0;
}

int command_print(Args& args, std::ostream& out) {
  const auto model_path = args.next_positional();
  if (!model_path) throw InvalidArgument("print: missing model file");
  out << ta::to_text(load_model(*model_path));
  return 0;
}

int command_simulate(Args& args, std::ostream& out) {
  sim::RunnerConfig config;
  config.n = 4;
  config.t = 1;
  std::string scheduler_name = "fair";
  std::string inputs_text;
  std::string byzantine_text;
  bool lemma7 = false;
  int lemma7_rounds = 10;
  std::int64_t max_steps = 1'000'000;
  while (!args.empty()) {
    if (const auto value = args.number<int>("--n")) {
      config.n = *value;
    } else if (const auto value = args.number<int>("--t")) {
      config.t = *value;
    } else if (const auto value = args.option("--inputs")) {
      inputs_text = *value;
    } else if (const auto value = args.option("--byzantine")) {
      byzantine_text = *value;
    } else if (const auto value = args.option("--scheduler")) {
      scheduler_name = *value;
    } else if (const auto value = args.number<std::uint64_t>("--seed")) {
      config.seed = *value;
    } else if (const auto value = args.number<std::int64_t>("--max-steps")) {
      max_steps = *value;
    } else if (args.boolean("--lemma7")) {
      lemma7 = true;
    } else if (const auto value = args.number<int>("--rounds")) {
      lemma7_rounds = *value;
    } else {
      throw InvalidArgument("simulate: unexpected argument '" + args.peek() + "'");
    }
  }

  if (lemma7) {
    sim::Lemma7Script script;
    const std::string diagnostic = script.play_rounds(lemma7_rounds);
    if (!diagnostic.empty()) {
      out << "lemma 7 replay diverged: " << diagnostic << "\n";
      return 1;
    }
    out << "lemma 7 oscillation sustained for " << lemma7_rounds
        << " rounds; no process decided\n";
    for (const sim::ProcessId id : script.runner().correct_ids()) {
      const auto& process = script.runner().process(id);
      out << "  p" << id << ": round=" << process.current_round()
          << " est=" << process.estimate() << "\n";
    }
    return 0;
  }

  config.inputs.assign(static_cast<std::size_t>(config.n), 0);
  if (inputs_text.empty()) {
    for (int i = 0; i < config.n; i += 2) config.inputs[static_cast<std::size_t>(i)] = 1;
  } else {
    const auto fields = split(inputs_text, ',');
    if (static_cast<int>(fields.size()) != config.n) {
      throw InvalidArgument("simulate: --inputs must list exactly n values");
    }
    for (int i = 0; i < config.n; ++i) {
      config.inputs[static_cast<std::size_t>(i)] =
          static_cast<int>(BigInt::from_string(trim(fields[static_cast<std::size_t>(i)]))
                               .to_int64());
    }
  }
  std::unique_ptr<sim::Adversary> adversary;
  if (!byzantine_text.empty()) {
    for (const std::string_view field : split(byzantine_text, ',')) {
      config.byzantine.push_back(
          static_cast<int>(BigInt::from_string(trim(field)).to_int64()));
    }
    adversary = std::make_unique<sim::EquivocatingAdversary>();
  }
  std::unique_ptr<sim::Scheduler> scheduler;
  if (scheduler_name == "fair") {
    scheduler = std::make_unique<sim::GoodRoundScheduler>();
  } else if (scheduler_name == "random") {
    scheduler = std::make_unique<sim::RandomScheduler>();
  } else if (scheduler_name == "fifo") {
    scheduler = std::make_unique<sim::FifoScheduler>();
  } else {
    throw InvalidArgument("simulate: unknown scheduler '" + scheduler_name + "'");
  }

  sim::Runner runner(std::move(config), std::move(adversary));
  runner.start();
  const std::int64_t steps = runner.run(*scheduler, max_steps);
  out << "deliveries: " << steps << "\n";
  for (const sim::ProcessId id : runner.correct_ids()) {
    const auto& process = runner.process(id);
    out << "  p" << id << ": round=" << process.current_round()
        << " est=" << process.estimate() << " decision=";
    if (process.decision()) {
      out << *process.decision();
    } else {
      out << "-";
    }
    out << "\n";
  }
  const std::string agreement = runner.agreement_violation();
  const std::string validity = runner.validity_violation();
  out << "agreement: " << (agreement.empty() ? "ok" : agreement) << "\n";
  out << "validity: " << (validity.empty() ? "ok" : validity) << "\n";
  if (!agreement.empty() || !validity.empty()) return 1;
  return runner.all_correct_decided() ? 0 : 3;
}

int command_redbelly(Args& args, std::ostream& out, std::ostream& err) {
  pipeline::HolisticOptions options;
  std::optional<std::string> cert_out;
  while (!args.empty()) {
    if (args.boolean("--naive")) {
      options.include_naive_attempt = true;
    } else if (args.boolean("--certify")) {
      options.check.certify = true;
    } else if (const auto value = args.option("--cert-out")) {
      cert_out = *value;
    } else if (const auto value = args.option("--journal")) {
      options.journal_prefix = *value;
    } else if (args.boolean("--resume")) {
      options.resume = true;
    } else if (const auto value = args.number<int>("--dag-workers")) {
      options.dag_workers = *value;
      if (options.dag_workers < 1) {
        throw InvalidArgument("redbelly: --dag-workers must be >= 1");
      }
      // Node progress goes to stderr so stdout stays the stable report
      // that scripts diff across lane counts.
      options.on_progress = [&err](const std::string& line) { err << line << "\n"; };
    } else {
      throw InvalidArgument("redbelly: unexpected argument '" + args.peek() + "'");
    }
  }
  if (options.resume && options.journal_prefix.empty()) {
    throw InvalidArgument("redbelly: --resume requires --journal <prefix>");
  }
  options.check.cancel = &g_interrupted;
  options.check.fault = checker::fault_plan_from_env();
  const pipeline::HolisticReport report = pipeline::verify_red_belly_consensus(options);
  out << report.to_string();
  if (options.check.certify) {
    const std::string path = cert_out.value_or("redbelly.cert.json");
    write_file(path, cert::to_json_text(pipeline::certify_report(report)));
    out << "certificate: " << path << "\n";
  }
  return report.fully_verified() ? 0 : 3;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  // A leftover flag from an earlier command in the same process (tests) must
  // not cancel this one.
  g_interrupted.store(false);
  if (args.empty()) {
    out << kUsage;
    return 2;
  }
  const std::string& command = args[0];
  if (command == "--help" || command == "help") {
    out << kUsage;
    return 0;
  }
  Args cursor(std::vector<std::string>(args.begin() + 1, args.end()));
  try {
    if (command == "check") return command_check(cursor, out);
    if (command == "serve") return command_serve(cursor, out);
    if (command == "work") return command_work(cursor, out);
    if (command == "daemon") return command_daemon(cursor, out);
    if (command == "submit") return command_submit(cursor, out);
    if (command == "status") return command_status(cursor, out);
    if (command == "result") return command_result(cursor, out);
    if (command == "cancel") return command_cancel(cursor, out);
    if (command == "audit") return command_audit(cursor, out);
    if (command == "explicit") return command_explicit(cursor, out);
    if (command == "dot") return command_dot(cursor, out);
    if (command == "print") return command_print(cursor, out);
    if (command == "redbelly") return command_redbelly(cursor, out, err);
    if (command == "simulate") return command_simulate(cursor, out);
    err << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const Error& error) {
    err << "error: " << error.what() << "\n";
    return 2;
  }
}

void install_interrupt_handlers() {
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
}

}  // namespace hv::tools
