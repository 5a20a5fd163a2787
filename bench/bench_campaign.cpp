// Distributed-campaign benchmark: throughput scaling of the forked-worker
// coordinator against the serial reference, plus a crash-recovery run with
// an injected worker SIGKILL.  Every distributed run is checked bitwise
// against the serial reference with campaign::bitwise_equal (every
// scorer's guess scores, TVLA max |t|, key rank, MTDs) -- the
// `campaign.*.bitwise_equal` metrics are the receipt, and they gate
// regressions; the timing metrics are machine-dependent and ignored by
// the CI compare.
//
// Two geometries.  The first (`campaign.workers_<n>.*`) publishes a
// checkpoint every few batches of short shards, so it measures publish
// cost: fsync, checksum and the coordinator's fold.  The second
// (`campaign.shard_bound.workers_<n>.*`) publishes once per shard of 512
// traces (smoke), so shard work dominates and
// `campaign.shard_bound.workers_<n>.speedup` over its one-thread serial
// run is the scaling number.
//
// PGMCML_BENCH_SMOKE=1 shrinks the workload to a CI-sized run.  The full
// run defaults to a 100k-trace campaign; PGMCML_CAMPAIGN_BENCH_TRACES and
// PGMCML_CAMPAIGN_BENCH_SAMPLES override either mode (the traces of the
// first geometry, the samples of both).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_manifest.hpp"
#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/env.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/table.hpp"

namespace {

using namespace pgmcml;

double now_seconds() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

struct RunMeasurement {
  std::string label;
  std::size_t workers = 0;
  double seconds = 0.0;
  bool equal = false;
  /// Memo fills (core.acquisition.simulations) the run's workers made.
  std::uint64_t memo_fills = 0;
  campaign::CampaignResult result;
  double traces_per_second(std::size_t traces) const {
    return seconds > 0.0 ? static_cast<double>(traces) / seconds : 0.0;
  }
};

/// Runs `o` distributed on a fresh spool and checks it against `serial`.
RunMeasurement measure(campaign::CampaignOptions o, std::string label,
                       std::size_t workers, const std::string& spool,
                       const campaign::CampaignResult& serial) {
  // Workers ship their obs snapshots home, so this counts their fills.
  const obs::Counter simulations =
      obs::Registry::global().counter("core.acquisition.simulations");
  o.num_workers = workers;
  o.spool_dir = spool;
  std::filesystem::remove_all(o.spool_dir);
  RunMeasurement m;
  m.label = std::move(label);
  m.workers = workers;
  const std::uint64_t fills_before = simulations.value();
  const double t0 = now_seconds();
  m.result = campaign::run_campaign(o);
  m.seconds = now_seconds() - t0;
  m.memo_fills = simulations.value() - fills_before;
  m.equal = campaign::bitwise_equal(m.result, serial);
  return m;
}

/// The serial reference of `o` and its wall time.
std::pair<campaign::CampaignResult, double> run_serial(
    const campaign::CampaignOptions& o) {
  const double t0 = now_seconds();
  campaign::CampaignResult r = campaign::run_campaign_serial(o);
  return {std::move(r), now_seconds() - t0};
}

void add_row(util::Table& table, const std::string& run,
             const RunMeasurement& m, std::size_t traces, double serial_s) {
  table.row({run, std::to_string(m.workers), util::Table::num(m.seconds, 2),
             util::Table::num(m.traces_per_second(traces), 0),
             util::Table::num(serial_s / m.seconds, 2),
             std::to_string(m.result.restarts),
             std::to_string(m.result.shards_skipped),
             m.equal ? "yes" : "NO"});
}

}  // namespace

int main() {
  bench::Manifest manifest("campaign");
  const bool smoke = bench::smoke_mode();

  campaign::CampaignOptions base;
  base.style = cells::LogicStyle::kCmos;  // disclosing style: MTD is live
  base.num_traces = static_cast<std::size_t>(
      util::env_u64("PGMCML_CAMPAIGN_BENCH_TRACES", 16, std::uint64_t{1} << 30)
          .value_or(smoke ? 768 : 100000));
  base.samples = static_cast<std::size_t>(
      util::env_u64("PGMCML_CAMPAIGN_BENCH_SAMPLES", 8, 1u << 20)
          .value_or(smoke ? 96 : 128));
  base.checkpoint_every = smoke ? 32 : 1024;
  base.batch_size = smoke ? 16 : 64;
  base.poll_interval_s = 0.002;
  base.backoff_base_s = 0.01;
  base.backoff_cap_s = 0.1;

  // Shard work dominates: 16 shards of 512 traces (smoke) or of 4,096,
  // each published once, when its last phase ends.
  campaign::CampaignOptions bound = base;
  bound.shard_size = smoke ? 512 : 4096;
  bound.num_traces = bound.shard_size * 16;
  bound.checkpoint_every = bound.num_traces;  // > shard size
  bound.batch_size = 64;

  std::printf("campaign bench: %zu traces x %zu samples, %zu shards (%s)\n\n",
              base.num_traces, base.samples, base.shard_count(),
              smoke ? "smoke" : "full");

  const auto [serial, serial_s] = run_serial(base);

  util::Table table("Distributed campaign: throughput and recovery");
  table.header({"run", "workers", "seconds", "traces/s", "speedup",
                "restarts", "skipped", "bitwise==serial"});
  table.row({"serial", "-", util::Table::num(serial_s, 2),
             util::Table::num(base.num_traces / serial_s, 0), "1.00", "0", "0",
             "(reference)"});

  const std::size_t worker_counts[] = {1, 2, 4};
  std::vector<RunMeasurement> runs;
  for (const std::size_t workers : worker_counts) {
    runs.push_back(measure(base, "workers_" + std::to_string(workers),
                           workers,
                           "bench-campaign-spool/w" + std::to_string(workers),
                           serial));
    add_row(table, runs.back().label, runs.back(), base.num_traces, serial_s);
  }

  // Crash-recovery run: 4 workers, one worker SIGKILLed right after its
  // first durable checkpoint -- the coordinator must restart it from that
  // checkpoint and still land bitwise on the serial result.  The killed
  // incarnation's snapshot (and its memo fills) is lost with it.
  {
    campaign::CampaignOptions o = base;
    o.post_checkpoint_hook = [](std::uint64_t shard, int restart,
                                std::uint64_t ordinal) {
      if (shard == 1 && restart == 0 && ordinal >= 1) raise(SIGKILL);
    };
    runs.push_back(
        measure(o, "crash", 4, "bench-campaign-spool/crash", serial));
    add_row(table, "crash (shard 1)", runs.back(), base.num_traces, serial_s);
  }
  table.print();
  std::printf(
      "\nReading: every distributed row must be bitwise equal to the serial "
      "reference; the crash row additionally shows restarts > 0 (the "
      "injected SIGKILL) with no shards skipped.\n\n");

  // Its serial reference runs at one thread, as each worker does
  // (worker_threads = 1): the speedup is what the workers add, not the
  // thread pool.
  const std::size_t threads = util::set_parallel_threads(1);
  const auto [bound_serial, bound_serial_s] = run_serial(bound);
  util::set_parallel_threads(threads);
  util::Table bound_table(
      "Shard-bound geometry: " + std::to_string(bound.shard_count()) +
      " shards of " + std::to_string(bound.shard_size) +
      " traces, one publish each");
  bound_table.header({"run", "workers", "seconds", "traces/s", "speedup",
                      "restarts", "skipped", "bitwise==serial"});
  bound_table.row({"serial", "-", util::Table::num(bound_serial_s, 2),
                   util::Table::num(bound.num_traces / bound_serial_s, 0),
                   "1.00", "0", "0", "(reference)"});
  std::vector<RunMeasurement> bound_runs;
  for (const std::size_t workers : worker_counts) {
    bound_runs.push_back(measure(
        bound, "shard_bound.workers_" + std::to_string(workers), workers,
        "bench-campaign-spool/bound-w" + std::to_string(workers),
        bound_serial));
    add_row(bound_table, bound_runs.back().label, bound_runs.back(),
            bound.num_traces, bound_serial_s);
  }
  bound_table.print();
  std::printf("\n");

  manifest.metric("campaign.serial.seconds", serial_s, bench::Better::kLower);
  manifest.metric("campaign.serial.traces_per_s", base.num_traces / serial_s,
                  bench::Better::kHigher);
  manifest.metric("campaign.shard_bound.serial.seconds", bound_serial_s,
                  bench::Better::kLower);
  obs::json::Array scaling;
  bool all_equal = true;
  for (const RunMeasurement& m : runs) {
    const std::string prefix = "campaign." + m.label;
    manifest.metric(prefix + ".seconds", m.seconds, bench::Better::kLower);
    manifest.metric(prefix + ".traces_per_s",
                    m.traces_per_second(base.num_traces),
                    bench::Better::kHigher);
    manifest.metric(prefix + ".bitwise_equal", m.equal ? 1.0 : 0.0,
                    bench::Better::kHigher);
    manifest.metric(prefix + ".restarts",
                    static_cast<double>(m.result.restarts),
                    bench::Better::kNone);
    manifest.metric(prefix + ".shards_skipped",
                    static_cast<double>(m.result.shards_skipped),
                    bench::Better::kNone);
    if (m.label != "crash") {
      // Work counts of the clean runs: one fork per worker, and fills of
      // the memo each worker keeps across its shards.  (The crash run's
      // replacement fork depends on timing, so it is not gated.)
      manifest.metric(prefix + ".spawns",
                      static_cast<double>(m.result.workers_spawned),
                      bench::Better::kLower);
      manifest.metric(prefix + ".memo_fills",
                      static_cast<double>(m.memo_fills),
                      bench::Better::kLower);
    }
    all_equal = all_equal && m.equal;

    obs::json::Object row;
    row.emplace_back("run", m.label);
    row.emplace_back("workers", static_cast<std::uint64_t>(m.workers));
    row.emplace_back("seconds", m.seconds);
    row.emplace_back("traces_per_s", m.traces_per_second(base.num_traces));
    row.emplace_back("speedup_vs_serial",
                     m.seconds > 0.0 ? serial_s / m.seconds : 0.0);
    row.emplace_back("bitwise_equal_serial", m.equal);
    row.emplace_back("workers_spawned", m.result.workers_spawned);
    row.emplace_back("memo_fills", m.memo_fills);
    row.emplace_back("restarts", m.result.restarts);
    row.emplace_back("heartbeat_timeouts", m.result.heartbeat_timeouts);
    row.emplace_back("shards_skipped", m.result.shards_skipped);
    row.emplace_back("key_rank", m.result.key_rank);
    row.emplace_back("mtd", static_cast<std::uint64_t>(m.result.mtd));
    scaling.emplace_back(std::move(row));
  }
  for (const RunMeasurement& m : bound_runs) {
    const std::string prefix = "campaign." + m.label;
    manifest.metric(prefix + ".seconds", m.seconds, bench::Better::kLower);
    manifest.metric(prefix + ".speedup",
                    m.seconds > 0.0 ? bound_serial_s / m.seconds : 0.0,
                    bench::Better::kHigher);
    manifest.metric(prefix + ".bitwise_equal", m.equal ? 1.0 : 0.0,
                    bench::Better::kHigher);
    manifest.metric(prefix + ".spawns",
                    static_cast<double>(m.result.workers_spawned),
                    bench::Better::kLower);
    all_equal = all_equal && m.equal;
  }
  obs::json::Object setup;
  setup.emplace_back("traces", static_cast<std::uint64_t>(base.num_traces));
  setup.emplace_back("samples", static_cast<std::uint64_t>(base.samples));
  setup.emplace_back("shards",
                     static_cast<std::uint64_t>(base.shard_count()));
  setup.emplace_back("shard_bound_traces",
                     static_cast<std::uint64_t>(bound.num_traces));
  setup.emplace_back("shard_bound_shards",
                     static_cast<std::uint64_t>(bound.shard_count()));
  setup.emplace_back("smoke", smoke);
  manifest.section("setup", obs::json::Value(std::move(setup)));
  manifest.section("scaling", obs::json::Value(std::move(scaling)));
  manifest.write();

  if (!all_equal) {
    std::fprintf(stderr,
                 "FAIL: a distributed run diverged from the serial "
                 "reference\n");
    return 1;
  }
  return 0;
}
