// Distributed-campaign benchmark: throughput scaling of the forked-worker
// coordinator against the serial reference, plus a crash-recovery run with
// an injected worker SIGKILL.  Every distributed run is checked bitwise
// against the serial reference with campaign::bitwise_equal (every
// scorer's guess scores, TVLA max |t|, key rank, MTDs) -- the
// `campaign.*.bitwise_equal` metrics are the receipt, and they gate
// regressions; the timing metrics are machine-dependent and ignored by
// the CI compare.
//
// PGMCML_BENCH_SMOKE=1 shrinks the workload to a CI-sized run.  The full
// run defaults to a 100k-trace campaign; PGMCML_CAMPAIGN_BENCH_TRACES and
// PGMCML_CAMPAIGN_BENCH_SAMPLES override either mode.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_manifest.hpp"
#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/util/env.hpp"
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
  campaign::CampaignResult result;
  double traces_per_second(std::size_t traces) const {
    return seconds > 0.0 ? static_cast<double>(traces) / seconds : 0.0;
  }
};

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

  std::printf("campaign bench: %zu traces x %zu samples, %zu shards (%s)\n\n",
              base.num_traces, base.samples, base.shard_count(),
              smoke ? "smoke" : "full");

  const double t_serial0 = now_seconds();
  const campaign::CampaignResult serial = campaign::run_campaign_serial(base);
  const double serial_s = now_seconds() - t_serial0;

  util::Table table("Distributed campaign: throughput and recovery");
  table.header({"run", "workers", "seconds", "traces/s", "speedup",
                "restarts", "skipped", "bitwise==serial"});
  table.row({"serial", "-", util::Table::num(serial_s, 2),
             util::Table::num(base.num_traces / serial_s, 0), "1.00", "0", "0",
             "(reference)"});

  std::vector<RunMeasurement> runs;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    campaign::CampaignOptions o = base;
    o.num_workers = workers;
    o.spool_dir = "bench-campaign-spool/w" + std::to_string(workers);
    std::filesystem::remove_all(o.spool_dir);
    RunMeasurement m;
    m.label = "workers_" + std::to_string(workers);
    m.workers = workers;
    const double t0 = now_seconds();
    m.result = campaign::run_campaign(o);
    m.seconds = now_seconds() - t0;
    m.equal = campaign::bitwise_equal(m.result, serial);
    table.row({m.label, std::to_string(workers),
               util::Table::num(m.seconds, 2),
               util::Table::num(m.traces_per_second(base.num_traces), 0),
               util::Table::num(serial_s / m.seconds, 2),
               std::to_string(m.result.restarts),
               std::to_string(m.result.shards_skipped),
               m.equal ? "yes" : "NO"});
    runs.push_back(std::move(m));
  }

  // Crash-recovery run: 4 workers, one worker SIGKILLed right after its
  // first durable checkpoint -- the coordinator must restart it from that
  // checkpoint and still land bitwise on the serial result.
  {
    campaign::CampaignOptions o = base;
    o.num_workers = 4;
    o.spool_dir = "bench-campaign-spool/crash";
    std::filesystem::remove_all(o.spool_dir);
    o.post_checkpoint_hook = [](std::uint64_t shard, int restart,
                                std::uint64_t ordinal) {
      if (shard == 1 && restart == 0 && ordinal >= 1) raise(SIGKILL);
    };
    RunMeasurement m;
    m.label = "crash";
    m.workers = 4;
    const double t0 = now_seconds();
    m.result = campaign::run_campaign(o);
    m.seconds = now_seconds() - t0;
    m.equal = campaign::bitwise_equal(m.result, serial);
    table.row({"crash (shard 1)", "4", util::Table::num(m.seconds, 2),
               util::Table::num(m.traces_per_second(base.num_traces), 0),
               util::Table::num(serial_s / m.seconds, 2),
               std::to_string(m.result.restarts),
               std::to_string(m.result.shards_skipped),
               m.equal ? "yes" : "NO"});
    runs.push_back(std::move(m));
  }
  table.print();
  std::printf(
      "\nReading: every distributed row must be bitwise equal to the serial "
      "reference; the crash row additionally shows restarts > 0 (the "
      "injected SIGKILL) with no shards skipped.\n\n");

  manifest.metric("campaign.serial.seconds", serial_s, bench::Better::kLower);
  manifest.metric("campaign.serial.traces_per_s", base.num_traces / serial_s,
                  bench::Better::kHigher);
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
    row.emplace_back("restarts", m.result.restarts);
    row.emplace_back("heartbeat_timeouts", m.result.heartbeat_timeouts);
    row.emplace_back("shards_skipped", m.result.shards_skipped);
    row.emplace_back("key_rank", m.result.key_rank);
    row.emplace_back("mtd", static_cast<std::uint64_t>(m.result.mtd));
    scaling.emplace_back(std::move(row));
  }
  obs::json::Object setup;
  setup.emplace_back("traces", static_cast<std::uint64_t>(base.num_traces));
  setup.emplace_back("samples", static_cast<std::uint64_t>(base.samples));
  setup.emplace_back("shards",
                     static_cast<std::uint64_t>(base.shard_count()));
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
