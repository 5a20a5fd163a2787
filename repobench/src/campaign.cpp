// campaign-fork: campaign::run_campaign on PG-MCML with the static-power and
// MLPA attacks on top of the default TVLA and MTD, executed by forked
// worker processes (one thread each) over several shards per worker, with
// a fresh spool every call.  The only workload through campaign (fork,
// heartbeats, fsync'd checkpoints, merge), and it uses core, power and sca
// differently from fig6-stream: quiescent holds without trace composition,
// static-power accumulators, and checkpoint save().
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "expected.hpp"
#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/rng.hpp"
#include "workloads.hpp"

namespace repobench {

namespace {

using namespace pgmcml;
namespace json = obs::json;

constexpr std::size_t kTraces = 1536;   // per phase per campaign
constexpr std::size_t kShardsPerWorker = 4;
constexpr std::size_t kMaxWorkers = 2;  // + the coordinator, within nproc
constexpr std::size_t kWarmTraces = 256;
constexpr int kSetupReps = 3;
constexpr std::size_t kReplayHolds = 256;

std::size_t worker_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return std::clamp<std::size_t>(n > 0 ? static_cast<std::size_t>(n) : 1, 1,
                                 kMaxWorkers);
}

campaign::CampaignOptions options_for(std::uint64_t seed, std::size_t traces,
                                      const std::string& spool) {
  campaign::CampaignOptions o;
  o.style = cells::LogicStyle::kPgMcml;
  o.num_traces = traces;
  o.samples = 600;
  o.key = 0x2b;
  o.seed = derive(seed, 22);
  o.fixed_plaintext = static_cast<std::uint8_t>(derive(seed, 23) & 0xff);
  o.static_power = true;
  o.mlpa = true;
  o.num_workers = worker_count();
  o.shard_size = traces / (o.num_workers * kShardsPerWorker);
  o.worker_threads = 1;
  o.spool_dir = spool;
  return o;
}

/// Units of work one campaign attempts: random + fixed + static holds.
std::uint64_t units_of(const campaign::CampaignOptions& o) {
  return o.num_traces * (1 + (o.tvla ? 1 : 0) + (o.static_power ? 1 : 0));
}

json::Value record_of(const campaign::CampaignResult& r,
                      std::uint8_t key) {
  json::Object o;
  o.emplace_back("key_rank", r.key_rank);
  o.emplace_back("best_guess", r.cpa.best_guess);
  o.emplace_back("cpa_peak_true", r.cpa.peak_correlation[key]);
  o.emplace_back("mtd", static_cast<std::uint64_t>(r.mtd));
  o.emplace_back("tvla_max_abs_t", r.tvla.max_abs_t);
  o.emplace_back("static_awake_rank", r.static_awake_rank);
  o.emplace_back("static_awake_mtd",
                 static_cast<std::uint64_t>(r.static_awake_mtd));
  o.emplace_back("static_asleep_rank", r.static_asleep_rank);
  o.emplace_back("mlpa_rank", r.mlpa_rank);
  o.emplace_back("traces_accumulated", r.traces_accumulated);
  o.emplace_back("static_traces_accumulated", r.static_traces_accumulated);
  return json::Value(std::move(o));
}

/// Failed units of a campaign: traces of skipped shards plus skipped
/// traces.
std::uint64_t failed_units(const campaign::CampaignResult& r) {
  std::uint64_t n = r.diagnostics.skipped;
  for (const campaign::SkippedRange& s : r.skipped_ranges) n += s.hi - s.lo;
  return n;
}

/// The paper's verdicts on the campaign.
void check_verdicts(Outcome& out, const RunConfig& cfg,
                    const campaign::CampaignResult& r) {
  const bool gated = cfg.gate_verdicts();
  out.verdict(r.static_awake_rank == 0, gated,
              "static awake window discloses the key (rank " +
                  std::to_string(r.static_awake_rank) + ")");
  out.verdict(r.static_asleep_rank != 0, gated,
              "static asleep window is starved (rank " +
                  std::to_string(r.static_asleep_rank) + ")");
  out.verdict(r.key_rank != 0, gated,
              "dynamic CPA does not disclose the key (rank " +
                  std::to_string(r.key_rank) + ")");
}

/// A clean supervision record for campaign `round`: no restarts, no
/// skipped shards, no skipped traces.
void check_supervision(Outcome& out, const campaign::CampaignResult& r,
                       int round) {
  const std::string which = "campaign " + std::to_string(round) + ": ";
  if (r.restarts != 0) {
    out.fail_check(which + std::to_string(r.restarts) + " worker restarts");
  }
  if (r.shards_skipped != 0 || !r.skipped_ranges.empty()) {
    out.fail_check(which + std::to_string(r.shards_skipped) +
                   " shards skipped");
  }
  if (r.diagnostics.skipped != 0) {
    out.fail_check(which + std::to_string(r.diagnostics.skipped) +
                   " traces skipped");
  }
}

campaign::CampaignResult run_fresh(const campaign::CampaignOptions& o) {
  std::filesystem::remove_all(o.spool_dir);
  campaign::CampaignResult r = campaign::run_campaign(o);
  std::filesystem::remove_all(o.spool_dir);
  return r;
}

Outcome run_untraced(const RunConfig& cfg) {
  Outcome out;
  const std::string spool = cfg.work_dir + "/campaign-spool";
  // Set-up: spool creation plus a small forked warm-up campaign (fork,
  // libraries in the workers, first checkpoints).
  HostSpeed setup_speed, speed;
  const double setup_s = median_setup_s(kSetupReps, setup_speed, [&](int) {
    run_fresh(options_for(cfg.seed, kWarmTraces, spool));
  });

  const campaign::CampaignOptions o = options_for(cfg.seed, kTraces, spool);
  std::vector<double> round_ms;
  double peak_rss_mb = 0.0;  // over set-up and the first campaign
  json::Value first;
  const double t_begin = now_s();
  int rounds = 0;
  while (another_round(t_begin, rounds, cfg.seconds)) {
    speed.sample();
    std::filesystem::remove_all(o.spool_dir);
    const double c0 = now_s();
    const campaign::CampaignResult r = campaign::run_campaign(o);
    round_ms.push_back((now_s() - c0) * 1e3);
    std::filesystem::remove_all(o.spool_dir);
    out.attempted += units_of(o);
    out.failed += failed_units(r);
    const json::Value rec = record_of(r, o.key);
    check_supervision(out, r, rounds);
    if (rounds == 0) {
      check_verdicts(out, cfg, r);
      first = rec;
      peak_rss_mb = std::max(peak_rss_mb_self(), peak_rss_mb_children());
    } else if (rec.dump() != first.dump()) {
      out.fail_check("campaign " + std::to_string(rounds) +
                     " differs from campaign 0");
    }
    ++rounds;
  }
  speed.sample();
  out.record = first;
  if (cfg.expected != nullptr) {
    compare_pinned(out, *cfg.expected, out.record, "campaign-fork");
  }

  out.metric("setup_s", setup_s, "s");
  out.round_metrics(rounds * static_cast<double>(units_of(o)), round_ms, speed,
                    "one run_campaign call");
  out.metric("peak_rss_mb", peak_rss_mb, "MB");
  out.info.emplace_back("key", static_cast<std::int64_t>(o.key));
  out.info.emplace_back("campaign_seed", std::to_string(o.seed));
  out.info.emplace_back("workers", static_cast<std::uint64_t>(o.num_workers));
  out.info.emplace_back("worker_threads",
                        static_cast<std::uint64_t>(o.worker_threads));
  out.info.emplace_back("shards", static_cast<std::uint64_t>(o.shard_count()));
  out.info.emplace_back("traces_per_phase", static_cast<std::uint64_t>(kTraces));
  out.info.emplace_back("units_per_campaign", units_of(o));
  out.info.emplace_back("campaigns", rounds);
  out.info.emplace_back("setup_reps", kSetupReps);
  out.info.emplace_back("setup_host_speed", setup_speed.to_json());
  return out;
}

/// A counter in shared anonymous memory: forked workers inherit the
/// mapping, so their increments reach the coordinator.
class SharedCounter {
 public:
  SharedCounter() {
    void* p = mmap(nullptr, sizeof(std::atomic<std::uint64_t>),
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    value_ = new (p) std::atomic<std::uint64_t>(0);
  }
  ~SharedCounter() { munmap(value_, sizeof(*value_)); }
  SharedCounter(const SharedCounter&) = delete;
  SharedCounter& operator=(const SharedCounter&) = delete;
  std::atomic<std::uint64_t>& value() { return *value_; }

 private:
  std::atomic<std::uint64_t>* value_;
};

/// In-process replay of the static phase and of the TVLA fold on a sample,
/// which the forked workers hide from the benchmark's spans.
struct ReplayCounts {
  std::uint64_t holds = 0, traces = 0;
};

ReplayCounts replay_in_process(const campaign::CampaignOptions& o,
                               SpanRecorder& rec) {
  ReplayCounts counts;
  const cells::CellLibrary lib = cells::CellLibrary::pgmcml90();
  const auto model = sca::LeakageModel::kHammingWeight;

  core::DpaFlowOptions st;
  st.num_traces = kReplayHolds;
  st.samples = o.samples;
  st.key = o.key;
  st.seed = o.seed + 2;  // the campaign's static-phase stream
  st.acquisition = core::AcquisitionMode::kStatic;
  auto static_source = core::make_acquisition_source(lib, st);
  sca::StaticPowerAccumulator awake(model, o.samples, sca::StaticWindow::kAwake);
  sca::StaticPowerAccumulator asleep(model, o.samples,
                                     sca::StaticWindow::kAsleep);
  sca::TraceBatch batch;
  for (;;) {
    {
      ScopedSpan s(&rec, "core.acquire_static");
      if (!static_source->next(batch)) break;
      s.set_units(batch.size());
    }
    ScopedSpan s(&rec, "sca.static");
    awake.add_batch(batch);
    asleep.add_batch(batch);
    s.set_units(batch.size());
    counts.holds += batch.size();
  }

  // The quiescent-current evaluation inside each hold, on its own.
  synth::MapResult mapped;
  {
    ScopedSpan s(&rec, "synth.map");
    mapped = core::map_reduced_aes(lib);
  }
  power::TraceOptions topt;
  topt.t_start = 0.4e-9;
  topt.dt = o.dt;
  topt.samples = o.samples;
  topt.seed = st.seed;
  const power::PowerTracer tracer(mapped.design, lib, power::default_kernels(),
                                  topt);
  netlist::LogicSim sim(mapped.design, &lib);
  std::vector<std::pair<netlist::NetId, bool>> init;
  for (netlist::NetId n : mapped.design.inputs()) init.emplace_back(n, false);
  sim.apply_and_settle(init);
  {
    ScopedSpan s(&rec, "power.quiescent");
    double sink = 0.0;
    for (std::size_t h = 0; h < kReplayHolds; ++h) {
      sink += tracer.quiescent_current(sim, true);
      sink += tracer.quiescent_current(sim, false);
    }
    s.set_units(kReplayHolds);
    if (!(sink > 0.0)) throw std::runtime_error("non-positive leakage");
  }

  core::DpaFlowOptions dyn;
  dyn.num_traces = kReplayHolds;
  dyn.samples = o.samples;
  dyn.key = o.key;
  dyn.seed = o.seed;
  auto dyn_source = core::make_acquisition_source(lib, dyn);
  sca::TvlaAccumulator tvla(o.samples);
  for (;;) {
    {
      ScopedSpan s(&rec, "core.acquire");
      if (!dyn_source->next(batch)) break;
      s.set_units(batch.size());
    }
    ScopedSpan s(&rec, "sca.tvla");
    tvla.add_batch(batch, o.fixed_plaintext);
    s.set_units(batch.size());
    counts.traces += batch.size();
  }
  return counts;
}

Outcome run_traced(const RunConfig& cfg) {
  Outcome out;
  const std::string spool = cfg.work_dir + "/campaign-spool";
  campaign::CampaignOptions o = options_for(cfg.seed, kTraces, spool);
  run_fresh(options_for(cfg.seed, kWarmTraces, spool));

  double t0 = now_s();
  const campaign::CampaignResult reference = run_fresh(o);
  const double untraced_s = now_s() - t0;

  SharedCounter checkpoints;
  std::atomic<std::uint64_t>* ckpt = &checkpoints.value();
  o.post_checkpoint_hook = [ckpt](std::uint64_t, int, std::uint64_t) {
    ckpt->fetch_add(1, std::memory_order_relaxed);
  };
  const obs::Snapshot before = obs::Registry::global().snapshot();
  SpanRecorder rec;
  t0 = now_s();
  campaign::CampaignResult r;
  {
    ScopedSpan s(&rec, "campaign.run");
    r = run_fresh(o);
    s.set_units(units_of(o));
  }
  const double traced_campaign_s = now_s() - t0;
  campaign::CampaignResult serial;
  {
    ScopedSpan s(&rec, "campaign.serial");
    serial = campaign::run_campaign_serial(o);
    s.set_units(units_of(o));
  }
  const ReplayCounts replay = replay_in_process(o, rec);
  const double wall_s = now_s() - t0;
  const obs::Snapshot after = obs::Registry::global().snapshot();

  out.attempted = units_of(o);
  out.failed = failed_units(r);
  check_supervision(out, r, 0);
  check_verdicts(out, cfg, r);
  if (record_of(r, o.key).dump() != record_of(reference, o.key).dump() ||
      record_of(serial, o.key).dump() != record_of(reference, o.key).dump()) {
    out.fail_check("traced or serial campaign differs from the untraced one");
  }

  double merge_s = 0.0;
  for (const auto& [name, h] : after.histograms) {
    if (name.size() >= 14 &&
        name.compare(name.size() - 14, 14, "campaign.merge") == 0) {
      merge_s += histogram_sum_delta(before, after, name);
    }
  }
  const LayerTable table = layer_table(rec.spans(), wall_s);
  out.report = table.format("campaign-fork layer table (traced run)");
  const double serial_rate =
      units_of(o) / table.self_of("campaign.serial");
  const double dist_rate = units_of(o) / table.self_of("campaign.run");
  const double shards = static_cast<double>(o.shard_count());
  emit_layer_metrics(
      out,
      {{"synth.map_ms", table.self_of("synth.map") * 1e3},
       {"core.acquire_us_per_trace",
        table.self_of("core.acquire") * 1e6 / double(replay.traces)},
       {"core.retries", double(r.diagnostics.retries)},
       {"core.skips", double(r.diagnostics.skipped)},
       {"power.quiescent_us_per_hold",
        table.self_of("power.quiescent") * 1e6 / double(kReplayHolds)},
       {"sca.static_us_per_hold",
        table.self_of("sca.static") * 1e6 / double(replay.holds)},
       {"sca.tvla_us_per_trace",
        table.self_of("sca.tvla") * 1e6 / double(replay.traces)},
       {"campaign.workers_spawned", double(r.workers_spawned)},
       {"campaign.spawns_per_shard", double(r.workers_spawned) / shards},
       {"campaign.checkpoints", double(ckpt->load())},
       {"campaign.merge_ms", merge_s * 1e3},
       {"campaign.restarts", double(r.restarts)},
       {"campaign.parallel_efficiency",
        dist_rate / (static_cast<double>(o.num_workers) * serial_rate)},
       {"obs.tracing_overhead_frac", traced_campaign_s / untraced_s - 1.0}});
  out.info.emplace_back("workers", static_cast<std::uint64_t>(o.num_workers));
  out.info.emplace_back("shards", static_cast<std::uint64_t>(o.shard_count()));
  out.info.emplace_back("distributed_units_per_s", dist_rate);
  out.info.emplace_back("serial_units_per_s", serial_rate);
  out.info.emplace_back("replayed_holds", replay.holds);
  out.info.emplace_back("replayed_traces", replay.traces);
  out.spans = rec.spans();
  return out;
}

}  // namespace

Outcome run_campaign_fork(const RunConfig& cfg) {
  return cfg.trace ? run_traced(cfg) : run_untraced(cfg);
}

}  // namespace repobench
