// daemon-mixed: an in-process service::Server on a Unix socket driven by a
// closed loop of one client connection from this process.  Every request
// characterizes the whole 16-cell library at one MCML operating point, in
// sessions of kSessionRequests as the daemon's documented use sends them:
// one cold request for a fresh operating point (it misses, runs SPICE and
// stores its results), then warm repeats that the shared cache answers.
// The only workload through service, config, cache, mcml and spice, with
// cache reads beside cache writes.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "load.hpp"
#include "pgmcml/cache/cache.hpp"
#include "pgmcml/config/experiment.hpp"
#include "pgmcml/mcml/cells.hpp"
#include "pgmcml/service/client.hpp"
#include "pgmcml/service/server.hpp"
#include "workloads.hpp"

namespace repobench {

namespace {

using namespace pgmcml;
namespace json = obs::json;

// One closed-loop client and one server worker, the whole process pinned to
// one CPU: a request's hand-offs (client, connection reader, worker, and
// back) are then same-CPU context switches.  Spread over CPUs, each hand-off
// is a cross-CPU wake-up whose cost follows the host's load, and the
// request rate of the same build moved by 2x between runs.
constexpr std::size_t kClients = 1;
constexpr std::size_t kServerWorkers = 1;
constexpr int kSetupReps = 5;
constexpr std::size_t kMinRequests = 1000;
// Each traced slice runs a fixed number of sessions, so the per-request
// counts it reports do not depend on how fast the host ran.
constexpr std::size_t kTracedSliceRequests = 5 * kSessionRequests;
// The host-speed probe runs between sessions, once every this many
// requests (about a second of load), while no request is in flight.
constexpr std::size_t kProbeEvery = 4 * kSessionRequests;

/// Pins the calling process (and the threads it starts later) to the last
/// CPU it may run on; returns that CPU.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return cpu;
}

/// One request as the load generator saw it.
struct Sample {
  double rtt_s = 0.0;
  double server_s = 0.0;
  std::uint64_t queue_depth = 0;
  bool cold = false;
  ResponseClass cls = ResponseClass::kError;
};

/// A running daemon with a freshly filled warm tier.
struct Daemon {
  std::string dir;
  std::string socket;
  std::unique_ptr<service::Server> server;
};

Daemon start_daemon(const std::string& dir) {
  Daemon d;
  d.dir = dir;
  d.socket = dir + "/d.sock";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  cache::CacheOptions co;
  co.enabled = true;
  co.dir = dir + "/cache";
  cache::ResultCache::global().configure(co);
  service::ServerOptions so;
  so.socket_path = d.socket;
  so.workers = kServerWorkers;
  so.queue_depth = 64;
  d.server = std::make_unique<service::Server>(so);
  d.server->start();
  // Fill the warm tier: the whole library at the nominal design point.
  service::Client c = service::Client::connect_unix(d.socket);
  const RequestSpec fill = warm_fill_spec();
  const config::Response r = config::response_from_json(
      c.call(service::make_run_request(fill.id, experiment_doc(fill))));
  if (!r.ok()) throw std::runtime_error("warm fill failed: " + r.error);
  return d;
}

void stop_daemon(Daemon& d) {
  d.server->drain();
  d.server->wait();
  d.server.reset();
  std::filesystem::remove_all(d.dir);
}

/// What the closed-loop client saw.  Every report is checked against the
/// first report seen for the same operating point.
struct ClientRun {
  std::vector<Sample> samples;
  std::string first_cold_report, first_warm_report;
  RequestSpec first_cold, first_warm;
  double wall_s = 0.0;  ///< host time of the loop, probes left out
  double peak_rss_mb = 0.0;  ///< read once kMinRequests have completed
  SpanRecorder rec;
};

/// Cache key of a request's experiment in the load generator's own table.
std::string point_key(const RequestSpec& spec) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", spec.iss);
  return buf;
}

/// Closed loop: sends request k + 1 only after response k arrived, for at
/// least `min_requests` requests and, when `seconds` > 0, for `seconds`.
/// `client` keys the request sequence.  A non-null `speed` is probed every
/// kProbeEvery requests.
ClientRun drive(const Daemon& d, std::uint64_t seed, std::uint64_t client,
                std::size_t min_requests, double seconds, bool traced,
                HostSpeed* speed = nullptr) {
  ClientRun run;
  SpanRecorder* rec = traced ? &run.rec : nullptr;
  service::Client conn = service::Client::connect_unix(d.socket);
  // First report per operating point: a warm repeat must equal its cold
  // answer byte for byte.
  std::map<std::string, std::string> reports;
  const double t_begin = now_s();
  double probe_s = 0.0;
  for (std::uint64_t k = 0;
       k < min_requests || now_s() - t_begin < seconds; ++k) {
    if (speed != nullptr && k % kProbeEvery == 0) probe_s += speed->sample();
    const RequestSpec spec = request_at(seed, client, k);
    const json::Value request =
        service::make_run_request(spec.id, experiment_doc(spec));
    ScopedSpan req_span(rec, "service.request", k);
    req_span.set_units(1);
    const double t0 = now_s();
    json::Value doc;
    {
      ScopedSpan s(rec, "service.call", k);
      s.set_units(1);
      doc = conn.call(request);
    }
    const double rtt = now_s() - t0;
    config::Response r;
    {
      ScopedSpan s(rec, "config.parse_response", k);
      r = config::response_from_json(doc);
    }
    Sample smp;
    smp.rtt_s = rtt;
    smp.server_s = r.stats.latency_s;
    smp.queue_depth = r.stats.queue_depth;
    smp.cold = spec.cold;
    {
      ScopedSpan s(rec, "bench.check", k);
      const std::string* expected = nullptr;
      const std::string key = point_key(spec);
      const auto it = reports.find(key);
      if (it != reports.end()) expected = &it->second;
      smp.cls = classify(r, spec.id, expected);
      if (smp.cls == ResponseClass::kOk) {
        if (expected == nullptr) reports.emplace(key, r.report.dump());
        if (spec.cold && run.first_cold_report.empty()) {
          run.first_cold_report = r.report.dump();
          run.first_cold = spec;
        }
        if (!spec.cold && run.first_warm_report.empty()) {
          run.first_warm_report = r.report.dump();
          run.first_warm = spec;
        }
      }
    }
    run.samples.push_back(smp);
    if (k + 1 == kMinRequests) run.peak_rss_mb = peak_rss_mb_self();
  }
  if (speed != nullptr) probe_s += speed->sample();
  run.wall_s = now_s() - t_begin - probe_s;
  return run;
}

/// With the load stopped, warm requests sent one at a time must be served
/// from the cache: zero Newton iterations and zero misses, with exact stats.
/// They repeat the warm requests of client 0's first session, which every
/// run has served.
void check_warm_solve_free(Outcome& out, const Daemon& d, std::uint64_t seed) {
  service::Client conn = service::Client::connect_unix(d.socket);
  for (std::uint64_t k = 1; k < kSessionRequests; ++k) {
    RequestSpec spec = request_at(seed, 0, k);
    spec.id = "probe-" + std::to_string(k);
    const config::Response r = config::response_from_json(
        conn.call(service::make_run_request(spec.id, experiment_doc(spec))));
    if (!r.ok() || !r.stats.exact || r.stats.newton_iterations != 0 ||
        r.stats.cache_misses != 0) {
      out.fail_check("warm request " + spec.id + " was not solve-free");
    }
  }
}

/// Counts every request as attempted and every non-ok response as failed;
/// any failed response fails the run's checks.
void count_responses(Outcome& out, const ClientRun& run) {
  std::uint64_t bad = 0;
  for (const Sample& s : run.samples) {
    if (is_failure(s.cls)) ++bad;
  }
  out.attempted += run.samples.size();
  out.failed += bad;
  if (bad != 0) out.fail_check(std::to_string(bad) + " failed responses");
}

/// One cold and one warm report bitwise equal to an in-process
/// config::run_experiment with the cache off (call after the daemon stops).
void check_bitwise(Outcome& out, const ClientRun& r0) {
  if (r0.first_cold_report.empty() || r0.first_warm_report.empty()) {
    out.fail_check("no cold or no warm response to compare");
    return;
  }
  cache::ResultCache::global().configure(cache::CacheOptions{});
  for (const auto& [spec, report] :
       {std::pair{r0.first_cold, r0.first_cold_report},
        std::pair{r0.first_warm, r0.first_warm_report}}) {
    const config::Experiment e =
        config::experiment_from_json(experiment_doc(spec), spec.id, ".");
    if (config::run_experiment(e).dump() != report) {
      out.fail_check("response " + spec.id +
                     " differs from config::run_experiment");
    }
  }
}

Outcome run_untraced(const RunConfig& cfg) {
  Outcome out;
  const int cpu = pin_to_one_cpu();
  // Set-up: server start plus the warm-tier fill, from an empty cache each
  // time; the last daemon serves the timed phase.
  Daemon d;
  HostSpeed setup_speed, speed;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) stop_daemon(d);
    setup_speed.sample();
    const double t0 = now_s();
    d = start_daemon(cfg.work_dir + "/daemon");
    setups.push_back(now_s() - t0);
  }
  setup_speed.sample();

  const ClientRun run =
      drive(d, cfg.seed, 0, kMinRequests, cfg.seconds, false, &speed);
  check_warm_solve_free(out, d, cfg.seed);
  stop_daemon(d);

  // Time metrics at reference speed (see HostSpeed).
  const double scale = speed.scale();
  const std::vector<Sample>& samples = run.samples;
  std::vector<double> rtt_ms;
  std::uint64_t colds = 0;
  for (const Sample& s : samples) {
    rtt_ms.push_back(s.rtt_s * 1e3 * scale);
    colds += s.cold ? 1 : 0;
  }
  count_responses(out, run);
  check_bitwise(out, run);

  const Percentile p99 = tail_percentile(rtt_ms, 0.99);
  out.metric("setup_s", median(setups) * setup_speed.scale(), "s");
  out.metric("work_per_s",
             static_cast<double>(samples.size()) / (run.wall_s * scale), "1/s");
  out.metric("latency_p50_ms", median(rtt_ms), "ms");
  out.metric("latency_p99_ms", p99.value, "ms");
  out.metric("peak_rss_mb", run.peak_rss_mb, "MB");
  out.info.emplace_back("loop", "closed");
  out.info.emplace_back("pinned_cpu", cpu);
  out.info.emplace_back("clients", static_cast<std::uint64_t>(kClients));
  out.info.emplace_back("server_workers",
                        static_cast<std::uint64_t>(kServerWorkers));
  out.info.emplace_back("requests", static_cast<std::uint64_t>(samples.size()));
  out.info.emplace_back("cold_requests", colds);
  out.info.emplace_back("latency_p99_reported_q", p99.q);
  out.info.emplace_back("latency_p99_beyond", static_cast<std::uint64_t>(p99.beyond));
  out.info.emplace_back("setup_reps", kSetupReps);
  out.info.emplace_back("host_speed", speed.to_json());
  out.info.emplace_back("setup_host_speed", setup_speed.to_json());
  return out;
}

Outcome run_traced(const RunConfig& cfg) {
  Outcome out;
  pin_to_one_cpu();
  Daemon d = start_daemon(cfg.work_dir + "/daemon");
  // Untraced and traced slices alternate, so drift in the host's speed
  // falls on both sides of the tracing-overhead ratio alike.  Each slice is
  // a new client number, hence a new request sequence whose colds miss.
  constexpr int kSlices = 6;
  std::vector<ClientRun> runs;
  const obs::Snapshot before = obs::Registry::global().snapshot();
  for (int i = 0; i < kSlices; ++i) {
    runs.push_back(
        drive(d, cfg.seed, i, kTracedSliceRequests, 0.0, i % 2 == 1));
  }
  const obs::Snapshot after = obs::Registry::global().snapshot();
  check_warm_solve_free(out, d, cfg.seed);
  stop_daemon(d);

  std::vector<double> server_ms, transport_ms, queue, cold_server_ms;
  std::uint64_t colds = 0;
  double rate[2] = {0.0, 0.0}, wall[2] = {0.0, 0.0};
  std::vector<Span> spans;
  for (int i = 0; i < kSlices; ++i) {
    const ClientRun& run = runs[i];
    count_responses(out, run);
    rate[i % 2] += static_cast<double>(run.samples.size());
    wall[i % 2] += run.wall_s;
    for (const Sample& s : run.samples) {
      server_ms.push_back(s.server_s * 1e3);
      transport_ms.push_back((s.rtt_s - s.server_s) * 1e3);
      queue.push_back(static_cast<double>(s.queue_depth));
      if (s.cold) {
        ++colds;
        cold_server_ms.push_back(s.server_s * 1e3);
      }
    }
    const int offset = static_cast<int>(spans.size());
    for (Span sp : run.rec.spans()) {
      if (sp.parent >= 0) sp.parent += offset;
      spans.push_back(std::move(sp));
    }
  }
  check_bitwise(out, runs.front());
  const double u_rate = rate[0] / wall[0];
  const double t_rate = rate[1] / wall[1];

  const LayerTable table = layer_table(spans, wall[1]);
  out.report = table.format(
      "daemon-mixed layer table (traced slices; wall = their timed wall)");
  char line[256];
  std::snprintf(line, sizeof line,
                "  service.call split by the response envelope: server "
                "p50 %.4f ms, transport p50 %.4f ms\n",
                median(server_ms), median(transport_ms));
  out.report += line;

  // Work counters are normalized per request (cold requests for the solver
  // counts), so they do not grow with the number of requests a slice ran.
  const double hits = double(counter_delta(before, after, "cache.hit"));
  const double misses = double(counter_delta(before, after, "cache.miss"));
  const double cold_n = double(std::max<std::uint64_t>(colds, 1));
  const double requests = double(std::max<std::uint64_t>(out.attempted, 1));
  auto per = [&](const char* counter, double n) {
    return double(counter_delta(before, after, counter)) / n;
  };
  emit_layer_metrics(
      out,
      {{"spice.newton_per_cold_request",
        per("spice.newton_iterations", cold_n)},
       {"spice.lu_factorizations_per_cold_request",
        per("spice.lu_factorizations", cold_n)},
       {"spice.numeric_refactors_per_cold_request",
        per("spice.numeric_refactors", cold_n)},
       {"mcml.characterize_ms_per_cell", median(cold_server_ms) /
                                             double(mcml::all_cells().size())},
       {"cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0},
       {"cache.misses_per_request", misses / requests},
       {"cache.bytes_written_per_request",
        per("cache.bytes_written", requests)},
       {"service.server_ms_p50", median(server_ms)},
       {"service.transport_ms_p50", median(transport_ms)},
       {"service.queue_depth_p50", median(queue)},
       {"service.rejected",
        double(counter_delta(before, after, "service.rejected"))},
       {"service.expired",
        double(counter_delta(before, after, "service.expired"))},
       {"obs.tracing_overhead_frac", u_rate / t_rate - 1.0}});
  out.info.emplace_back("clients", static_cast<std::uint64_t>(kClients));
  out.info.emplace_back("requests", out.attempted);
  out.info.emplace_back("cold_requests", colds);
  out.info.emplace_back("untraced_requests_per_s", u_rate);
  out.info.emplace_back("traced_requests_per_s", t_rate);
  out.spans = std::move(spans);
  return out;
}

}  // namespace

Outcome run_daemon_mixed(const RunConfig& cfg) {
  return cfg.trace ? run_traced(cfg) : run_untraced(cfg);
}

}  // namespace repobench
