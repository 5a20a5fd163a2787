// Service benchmark: an in-process pgmcmld core serving characterization
// requests over a Unix-domain socket, measuring the cold-vs-warm request
// pair against the shared result cache and a concurrent client burst.
//
// The deterministic receipts gate regressions in CI; the timing metrics are
// machine-dependent and ignored by the compare:
//   * service.warm_hit_rate       -- warm request served from the cache
//   * service.warm_solve_free     -- 1.0 when the warm request performed
//                                    zero Newton iterations
//   * service.responses_bitwise_equal -- cold, warm, and every burst
//                                    response identical to the serial
//                                    run_experiment() report
//   * service.burst_ok_fraction   -- every burst request admitted and ok
//
// PGMCML_BENCH_SMOKE=1 shrinks the plan to four cells; the full run
// characterizes the whole library.  The cache honours PGMCML_CACHE_DIR when
// set (the CI job sets it); otherwise a fresh temporary directory keeps the
// run self-contained and genuinely cold.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_manifest.hpp"
#include "pgmcml/cache/cache.hpp"
#include "pgmcml/config/experiment.hpp"
#include "pgmcml/config/request.hpp"
#include "pgmcml/config/technology.hpp"
#include "pgmcml/service/client.hpp"
#include "pgmcml/service/server.hpp"
#include "pgmcml/util/table.hpp"

namespace {

using namespace pgmcml;
namespace json = obs::json;

double now_seconds() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/pgmcml-bench-service-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp failed\n");
    std::exit(1);
  }
  return dir;
}

/// The benchmark workload: the builtin 90 nm typical corner, the paper's
/// MCML operating point, characterize (smoke: four cells; full: the whole
/// library).
json::Value make_experiment(bool smoke) {
  json::Object variant;
  variant.emplace_back("pgmcml_schema", std::int64_t{1});
  variant.emplace_back("kind", "cell_variant");
  variant.emplace_back("name", "bench-service-variant");
  variant.emplace_back("style", "mcml");

  json::Object plan;
  plan.emplace_back("pgmcml_schema", std::int64_t{1});
  plan.emplace_back("kind", "plan");
  plan.emplace_back("name", "bench-service-plan");
  plan.emplace_back("task", "characterize");
  if (smoke) {
    json::Array cells;
    for (const char* cell : {"BUF", "XOR2", "AND2", "DLATCH"}) {
      cells.emplace_back(cell);
    }
    plan.emplace_back("cells", json::Value(std::move(cells)));
  }

  json::Object e;
  e.emplace_back("pgmcml_schema", std::int64_t{1});
  e.emplace_back("kind", "experiment");
  e.emplace_back("name", "bench-service");
  e.emplace_back("technology",
                 config::technology_to_json(spice::TechnologyParams::builtin90(
                     spice::Corner::kTypical)));
  e.emplace_back("design", json::Value(std::move(variant)));
  e.emplace_back("plan", json::Value(std::move(plan)));
  return json::Value(std::move(e));
}

}  // namespace

int main() {
  bench::Manifest manifest("service");
  const bool smoke = bench::smoke_mode();

  const std::string dir = make_temp_dir();
  if (std::getenv("PGMCML_CACHE_DIR") == nullptr) {
    cache::CacheOptions cache_options;
    cache_options.enabled = true;
    cache_options.dir = dir + "/cache";
    cache::ResultCache::global().configure(cache_options);
  } else {
    cache::ResultCache::global();  // configure from the environment
  }

  service::ServerOptions options;
  options.socket_path = dir + "/pgmcmld.sock";
  options.workers = 4;
  options.queue_depth = 64;
  service::Server server(options);
  server.start();

  const json::Value experiment = make_experiment(smoke);
  std::printf("service bench: %s plan, socket %s\n\n",
              smoke ? "smoke (4 cells)" : "full library",
              options.socket_path.c_str());

  // Cold/warm pair on one connection: the second request must be served
  // entirely from the result cache the first one populated.
  service::Client client = service::Client::connect_unix(options.socket_path);
  double t0 = now_seconds();
  const config::Response cold = config::response_from_json(
      client.call(service::make_run_request("cold", experiment)));
  const double cold_s = now_seconds() - t0;
  t0 = now_seconds();
  const config::Response warm = config::response_from_json(
      client.call(service::make_run_request("warm", experiment)));
  const double warm_s = now_seconds() - t0;
  if (!cold.ok() || !warm.ok()) {
    std::fprintf(stderr, "FAIL: cold/warm request failed: %s / %s\n",
                 cold.error.c_str(), warm.error.c_str());
    return 1;
  }

  // Concurrent burst against the warm tier: every request should be
  // admitted (queue_depth 64 >> 16) and answered identically.
  constexpr int kBurst = 16;
  constexpr int kClients = 4;
  std::vector<config::Response> burst(kBurst);
  t0 = now_seconds();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      service::Client cl = service::Client::connect_unix(options.socket_path);
      for (int i = c; i < kBurst; i += kClients) {
        std::string id = "b";
        id += std::to_string(i);
        burst[i] = config::response_from_json(
            cl.call(service::make_run_request(id, experiment)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double burst_s = now_seconds() - t0;

  // The serial reference runs last so the daemon's first request was
  // genuinely cold; cold-vs-warm bitwise equivalence of the cached flows
  // makes the reference bytes independent of that ordering.
  const config::Experiment parsed =
      config::experiment_from_json(experiment, "bench-service", ".");
  const std::string reference = config::run_experiment(parsed).dump(2);

  int burst_ok = 0;
  bool bitwise = cold.report.dump(2) == reference &&
                 warm.report.dump(2) == reference;
  for (const config::Response& r : burst) {
    if (r.ok()) ++burst_ok;
    bitwise = bitwise && r.ok() && r.report.dump(2) == reference;
  }
  const bool solve_free = warm.stats.newton_iterations == 0;

  server.drain();
  server.wait();

  util::Table table("Service: cold/warm pair and burst");
  table.header({"request", "seconds", "cache hits", "misses", "newton",
                "bitwise==serial"});
  table.row({"cold", util::Table::num(cold_s, 4),
             std::to_string(cold.stats.cache_hits),
             std::to_string(cold.stats.cache_misses),
             std::to_string(cold.stats.newton_iterations),
             cold.report.dump(2) == reference ? "yes" : "NO"});
  table.row({"warm", util::Table::num(warm_s, 4),
             std::to_string(warm.stats.cache_hits),
             std::to_string(warm.stats.cache_misses),
             std::to_string(warm.stats.newton_iterations),
             warm.report.dump(2) == reference ? "yes" : "NO"});
  table.row({"burst x" + std::to_string(kBurst),
             util::Table::num(burst_s, 4), "-", "-", "-",
             burst_ok == kBurst && bitwise ? "yes" : "NO"});
  table.print();
  std::printf(
      "\nReading: the warm request must hit the cache for every cell "
      "(hit rate %.2f) with zero Newton iterations, and every response "
      "must equal the serial runner bit for bit.\n\n",
      warm.stats.cache_hit_rate());

  manifest.metric("service.cold_request_s", cold_s, bench::Better::kNone);
  manifest.metric("service.warm_request_s", warm_s, bench::Better::kLower);
  manifest.metric("service.warm_speedup",
                  warm_s > 0.0 ? cold_s / warm_s : 0.0,
                  bench::Better::kHigher);
  manifest.metric("service.requests_per_sec",
                  burst_s > 0.0 ? kBurst / burst_s : 0.0,
                  bench::Better::kHigher);
  manifest.metric("service.warm_hit_rate", warm.stats.cache_hit_rate(),
                  bench::Better::kHigher);
  manifest.metric("service.warm_solve_free", solve_free ? 1.0 : 0.0,
                  bench::Better::kHigher);
  manifest.metric("service.responses_bitwise_equal", bitwise ? 1.0 : 0.0,
                  bench::Better::kHigher);
  manifest.metric("service.burst_ok_fraction",
                  static_cast<double>(burst_ok) / kBurst,
                  bench::Better::kHigher);

  obs::json::Object setup;
  setup.emplace_back("smoke", smoke);
  setup.emplace_back("workers", static_cast<std::uint64_t>(options.workers));
  setup.emplace_back("queue_depth",
                     static_cast<std::uint64_t>(options.queue_depth));
  setup.emplace_back("burst", static_cast<std::uint64_t>(kBurst));
  setup.emplace_back("clients", static_cast<std::uint64_t>(kClients));
  setup.emplace_back("digest", cold.digest);
  manifest.section("setup", obs::json::Value(std::move(setup)));
  manifest.write();

  if (!bitwise || !solve_free || warm.stats.cache_hit_rate() <= 0.9 ||
      burst_ok != kBurst) {
    std::fprintf(stderr,
                 "FAIL: warm/burst serving contract violated "
                 "(bitwise=%d solve_free=%d hit_rate=%.3f burst_ok=%d)\n",
                 bitwise ? 1 : 0, solve_free ? 1 : 0,
                 warm.stats.cache_hit_rate(), burst_ok);
    return 1;
  }
  return 0;
}
