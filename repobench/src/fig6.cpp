// fig6-stream: the paper's Fig. 6 path.  core::run_dpa_flow on the reduced
// AES for CMOS, MCML and PG-MCML in turn (dynamic acquisition, 600 samples,
// CPA + DPA + MLPA + MTD, keep_traces off, one thread).  Acquisition
// (netlist + power) and the attack accumulators (sca) cost about the same
// per trace here, so per-plaintext memoization and accumulator refactors
// both show on this workload.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "expected.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "workloads.hpp"

namespace repobench {

namespace {

using namespace pgmcml;
namespace json = obs::json;

// Traces per call.  CMOS gets 3000 so that its disclosure verdict holds for
// every seed (its MTD reaches 2000 on some plaintext streams); MCML and
// PG-MCML get 1000.
constexpr std::size_t kTraces[] = {3000, 1000, 1000};
constexpr std::size_t kSamples = 600;
constexpr std::size_t kWarmTraces = 100;  // per style, inside set-up
constexpr int kSetupReps = 5;
constexpr std::size_t kMtdGrid = 16;      // MtdTracker's default grid
constexpr std::size_t kReplayPerStyle = 200;

core::DpaFlowOptions flow_options(std::uint64_t seed, std::size_t traces) {
  core::DpaFlowOptions o;
  o.num_traces = traces;
  o.samples = kSamples;
  o.key = 0x2b;            // the flow's fixed secret key byte
  o.seed = fig6_flow_seed(seed);  // plaintext and noise streams
  o.compute_mtd = true;
  o.compute_mlpa = true;
  o.keep_traces = false;
  return o;
}

/// The statistics a style's run is judged on.
struct Verdict {
  int key_rank = -1;
  int best_guess = -1;
  std::size_t mtd = 0;
  double peak_true = 0.0;
  double peak_best = 0.0;
  int dpa_best_guess = -1;
  int mlpa_rank = -1;
  std::size_t mlpa_mtd = 0;
  std::size_t skipped = 0;

  bool operator==(const Verdict&) const = default;

  json::Value to_json() const {
    json::Object o;
    o.emplace_back("key_rank", key_rank);
    o.emplace_back("best_guess", best_guess);
    o.emplace_back("mtd", static_cast<std::uint64_t>(mtd));
    o.emplace_back("cpa_peak_true", peak_true);
    o.emplace_back("cpa_peak_best", peak_best);
    o.emplace_back("dpa_best_guess", dpa_best_guess);
    o.emplace_back("mlpa_rank", mlpa_rank);
    o.emplace_back("mlpa_mtd", static_cast<std::uint64_t>(mlpa_mtd));
    return json::Value(std::move(o));
  }
};

Verdict verdict_of(const sca::CpaResult& cpa, const sca::DpaResult& dpa,
                   const sca::MlpaResult& mlpa, std::size_t mtd,
                   std::size_t mlpa_mtd, std::uint8_t key) {
  Verdict v;
  v.key_rank = cpa.key_rank(key);
  v.best_guess = cpa.best_guess;
  v.mtd = mtd;
  v.peak_true = cpa.peak_correlation[key];
  v.peak_best = cpa.peak_correlation[cpa.best_guess];
  v.dpa_best_guess = dpa.best_guess;
  v.mlpa_rank = mlpa.key_rank(key);
  v.mlpa_mtd = mlpa_mtd;
  return v;
}

Verdict run_style(const cells::CellLibrary& lib,
                  const core::DpaFlowOptions& o) {
  const core::DpaFlowResult r = core::run_dpa_flow(lib, o);
  Verdict v = verdict_of(r.cpa, r.dpa, r.mlpa, r.mtd, r.mlpa_mtd, o.key);
  v.skipped = r.diagnostics.skipped;
  return v;
}

/// The paper's verdicts: CMOS discloses the key, MCML and PG-MCML do not.
void check_verdict(Outcome& out, const RunConfig& cfg, const char* style,
                   const Verdict& v) {
  if (v.skipped != 0) {
    out.fail_check(std::string(style) + ": " + std::to_string(v.skipped) +
                   " traces skipped");
  }
  const std::string stats = " (rank " + std::to_string(v.key_rank) +
                            ", MTD " + std::to_string(v.mtd) + ")";
  if (std::string(style) == "CMOS") {
    out.verdict(v.key_rank == 0 && v.mtd != 0, cfg.gate_verdicts(),
                "CMOS discloses the key" + stats);
  } else {
    out.verdict(v.key_rank != 0, cfg.gate_verdicts(),
                std::string(style) + " does not disclose the key" + stats);
  }
}

/// MTD grid of sca::MtdTracker: max(4, g n / grid) for g = 1..grid.
std::vector<std::size_t> mtd_grid(std::size_t n) {
  std::vector<std::size_t> grid;
  for (std::size_t g = 1; g <= kMtdGrid; ++g) {
    grid.push_back(std::max<std::size_t>(4, g * n / kMtdGrid));
  }
  return grid;
}

/// Smallest grid point from which every later point disclosed.
std::size_t mtd_from(const std::vector<std::size_t>& grid,
                     const std::vector<char>& success) {
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    bool stable = true;
    for (std::size_t gj = gi; gj < grid.size(); ++gj) {
      stable = stable && success[gj] != 0;
    }
    if (stable) return grid[gi];
  }
  return 0;
}

/// run_dpa_flow driven batch by batch from the benchmark, with a span
/// around every call into core and sca.  The MTD trackers' checkpoints are
/// taken here at the same grid points as snapshots, so their cost lands in
/// sca.snapshot instead of inside the add_batch spans.
Verdict traced_flow(const cells::CellLibrary& lib,
                    const core::DpaFlowOptions& o, SpanRecorder& rec) {
  std::unique_ptr<core::AcquisitionSource> source;
  {
    ScopedSpan s(&rec, "core.source_setup");
    source = core::make_acquisition_source(lib, o);
  }
  const auto model = sca::LeakageModel::kHammingWeight;
  sca::CpaAccumulator cpa(model, o.samples);
  sca::DpaAccumulator dpa(o.samples);
  sca::MlpaAccumulator mlpa(o.samples);
  const std::vector<std::size_t> grid = mtd_grid(o.num_traces);
  std::vector<char> cpa_ok(grid.size(), 0), mlpa_ok(grid.size(), 0);
  std::size_t next_grid = 0;
  std::uint64_t trace_id = 0;

  sca::TraceBatch batch, part;
  for (;;) {
    {
      ScopedSpan s(&rec, "core.acquire", trace_id);
      if (!source->next(batch)) break;
      s.set_units(batch.size());
    }
    trace_id += batch.size();
    // Feed in pieces cut at the MTD grid points (the accumulators are
    // invariant to batching), snapshotting at each point.
    std::size_t pos = 0;
    while (pos < batch.size()) {
      std::size_t take = batch.size() - pos;
      if (next_grid < grid.size()) {
        take = std::min(take, grid[next_grid] - cpa.num_traces());
      }
      const sca::TraceBatch* piece = &batch;
      if (pos != 0 || take != batch.size()) {
        part.clear();
        for (std::size_t i = pos; i < pos + take; ++i) {
          part.add(batch.plaintexts[i], batch.traces[i]);
        }
        piece = &part;
      }
      {
        ScopedSpan s(&rec, "sca.cpa");
        cpa.add_batch(*piece);
        s.set_units(take);
      }
      {
        ScopedSpan s(&rec, "sca.dpa");
        dpa.add_batch(*piece);
        s.set_units(take);
      }
      {
        ScopedSpan s(&rec, "sca.mlpa");
        mlpa.add_batch(*piece);
        s.set_units(take);
      }
      pos += take;
      while (next_grid < grid.size() && grid[next_grid] <= cpa.num_traces()) {
        ScopedSpan s(&rec, "sca.snapshot");
        cpa_ok[next_grid] = cpa.snapshot().key_rank(o.key) == 0;
        mlpa_ok[next_grid] = mlpa.snapshot().key_rank(o.key) == 0;
        ++next_grid;
      }
    }
  }
  ScopedSpan s(&rec, "sca.snapshot");
  while (next_grid < grid.size()) {
    cpa_ok[next_grid] = cpa.snapshot().key_rank(o.key) == 0;
    mlpa_ok[next_grid] = mlpa.snapshot().key_rank(o.key) == 0;
    ++next_grid;
  }
  Verdict v = verdict_of(cpa.snapshot(), dpa.snapshot(), mlpa.snapshot(),
                         mtd_from(grid, cpa_ok), mtd_from(grid, mlpa_ok),
                         o.key);
  v.skipped = source->diagnostics().skipped;
  return v;
}

/// Port nets of the mapped reduced AES, as ReducedAesSource finds them.
struct Ports {
  std::vector<netlist::NetId> p, k;
  netlist::NetId konst = netlist::kNoNet;
};

Ports find_ports(const netlist::Design& d) {
  Ports ports;
  ports.p.assign(8, netlist::kNoNet);
  ports.k.assign(8, netlist::kNoNet);
  for (std::size_t i = 0; i < d.inputs().size(); ++i) {
    const std::string& name = d.port_name(i, true);
    if (name.size() >= 4 && (name[0] == 'p' || name[0] == 'k') &&
        name[1] == '[') {
      const int b = std::stoi(name.substr(2, name.size() - 3));
      (name[0] == 'p' ? ports.p : ports.k)[b] = d.inputs()[i];
    } else {
      ports.konst = d.inputs()[i];
    }
  }
  return ports;
}

/// Replays sampled traces of the acquisition through synth, netlist and
/// power directly, so core.acquire splits into its layers.  The first
/// replayed trace of each style is compared bitwise against the source's.
struct ReplayTotals {
  std::uint64_t traces = 0, events = 0;
  bool bitwise = true;
};

void replay_style(const cells::CellLibrary& lib,
                  const core::DpaFlowOptions& o, SpanRecorder& rec,
                  ReplayTotals& totals) {
  synth::MapResult mapped;
  {
    ScopedSpan s(&rec, "synth.map");
    mapped = core::map_reduced_aes(lib);
  }
  const netlist::Design& design = mapped.design;
  const Ports ports = find_ports(design);
  power::TraceOptions topt;
  topt.t_start = 0.4e-9;
  topt.dt = o.dt;
  topt.samples = o.samples;
  topt.noise_sigma = o.noise_sigma;
  topt.seed = o.seed;
  std::unique_ptr<power::PowerTracer> tracer;
  {
    ScopedSpan s(&rec, "power.tracer_setup");
    tracer = std::make_unique<power::PowerTracer>(
        design, lib, power::default_kernels(), topt);
  }
  power::SleepSchedule schedule;
  if (lib.power_gated() && o.gate_per_operation) {
    schedule.awake.push_back({0.2e-9, 0.4e-9 + o.dt * o.samples});
  }
  std::vector<double> row;
  const std::size_t stride = o.num_traces / kReplayPerStyle;
  for (std::size_t i = 0; i < kReplayPerStyle; ++i) {
    const std::size_t t = i * stride;
    const std::uint8_t plaintext = flow_plaintext(o.seed, t);
    std::unique_ptr<netlist::LogicSim> sim;
    {
      ScopedSpan s(&rec, "netlist.construct", t);
      sim = std::make_unique<netlist::LogicSim>(design, &lib);
      s.set_units(1);
    }
    {
      ScopedSpan s(&rec, "netlist.settle", t);
      std::vector<std::pair<netlist::NetId, bool>> init;
      for (int b = 0; b < 8; ++b) {
        init.emplace_back(ports.k[b], (o.key >> b) & 1);
        init.emplace_back(ports.p[b], false);
      }
      if (ports.konst != netlist::kNoNet) init.emplace_back(ports.konst, false);
      sim->apply_and_settle(init);
      sim->clear_events();
      sim->run_until(0.5e-9);
      std::vector<std::pair<netlist::NetId, bool>> stim;
      for (int b = 0; b < 8; ++b) {
        stim.emplace_back(ports.p[b], (plaintext >> b) & 1);
      }
      sim->apply_and_settle(stim);
      s.set_units(sim->events().size());
    }
    {
      ScopedSpan s(&rec, "power.compose", t);
      tracer->trace_into(sim->events(), schedule, t, row);
      s.set_units(1);
    }
    totals.traces += 1;
    totals.events += sim->events().size();
    if (i == 0) {
      core::DpaFlowOptions one = o;
      one.first_trace = t;
      one.num_traces = 1;
      auto source = core::make_acquisition_source(lib, one);
      sca::TraceBatch b;
      totals.bitwise = totals.bitwise && source->next(b) && b.size() == 1 &&
                       b.plaintexts[0] == plaintext &&
                       std::equal(row.begin(), row.end(),
                                  b.traces[0].begin(), b.traces[0].end());
    }
  }
}

constexpr double kRoundTraces = kTraces[0] + kTraces[1] + kTraces[2];

Outcome run_untraced(const RunConfig& cfg) {
  Outcome out;
  std::vector<cells::CellLibrary> libs;
  const core::DpaFlowOptions warm = flow_options(cfg.seed, kWarmTraces);
  // Set-up: libraries, then a short warm-up flow per style, which builds
  // what make_acquisition_source builds (synth mapping, tracer, kernels).
  HostSpeed setup_speed, speed;
  const double setup_s = median_setup_s(kSetupReps, setup_speed, [&](int) {
    libs = style_libraries();
    for (const cells::CellLibrary& lib : libs) run_style(lib, warm);
  });

  std::vector<double> round_ms;
  double peak_rss_mb = 0.0;  // over set-up and the first round
  std::vector<Verdict> first(3);
  json::Object record;
  const double t_begin = now_s();
  int rounds = 0;
  while (another_round(t_begin, rounds, cfg.seconds)) {
    speed.sample();
    const double r0 = now_s();
    for (std::size_t s = 0; s < libs.size(); ++s) {
      const core::DpaFlowOptions o = flow_options(cfg.seed, kTraces[s]);
      const Verdict v = run_style(libs[s], o);
      out.attempted += o.num_traces;
      out.failed += v.skipped;
      if (rounds == 0) {
        first[s] = v;
        check_verdict(out, cfg, kStyleNames[s], v);
        record.emplace_back(kStyleNames[s], v.to_json());
      } else if (!(v == first[s])) {
        out.fail_check(std::string(kStyleNames[s]) + ": round " +
                       std::to_string(rounds) + " differs from round 0");
      }
    }
    round_ms.push_back((now_s() - r0) * 1e3);
    if (rounds == 0) peak_rss_mb = peak_rss_mb_self();
    ++rounds;
  }
  speed.sample();
  out.record = json::Value(std::move(record));
  if (cfg.expected != nullptr) {
    compare_pinned(out, *cfg.expected, out.record, "fig6-stream");
  }

  out.metric("setup_s", setup_s, "s");
  out.round_metrics(rounds * kRoundTraces, round_ms, speed,
                    "run_dpa_flow for CMOS, MCML and PG-MCML");
  out.metric("peak_rss_mb", peak_rss_mb, "MB");
  const core::DpaFlowOptions o = flow_options(cfg.seed, 0);
  out.info.emplace_back("key", static_cast<std::int64_t>(o.key));
  out.info.emplace_back("flow_seed", std::to_string(o.seed));
  out.info.emplace_back("traces_per_round", kRoundTraces);
  out.info.emplace_back("samples", static_cast<std::uint64_t>(kSamples));
  out.info.emplace_back("rounds", rounds);
  out.info.emplace_back("setup_reps", kSetupReps);
  out.info.emplace_back("setup_host_speed", setup_speed.to_json());
  return out;
}

Outcome run_traced(const RunConfig& cfg) {
  Outcome out;
  const std::vector<cells::CellLibrary> libs = style_libraries();
  const core::DpaFlowOptions warm = flow_options(cfg.seed, kWarmTraces);
  for (const cells::CellLibrary& lib : libs) run_style(lib, warm);

  // Untraced reference round, then the same work traced.
  std::vector<Verdict> reference;
  const double u0 = now_s();
  for (std::size_t s = 0; s < libs.size(); ++s) {
    reference.push_back(run_style(libs[s], flow_options(cfg.seed, kTraces[s])));
  }
  const double untraced_s = now_s() - u0;

  const obs::Snapshot before = obs::Registry::global().snapshot();
  SpanRecorder rec;
  ReplayTotals replay;
  const double t0 = now_s();
  for (std::size_t s = 0; s < libs.size(); ++s) {
    const core::DpaFlowOptions o = flow_options(cfg.seed, kTraces[s]);
    const Verdict v = traced_flow(libs[s], o, rec);
    out.attempted += o.num_traces;
    out.failed += v.skipped;
    if (!(v == reference[s])) {
      out.fail_check(std::string(kStyleNames[s]) +
                     ": traced flow verdicts differ from run_dpa_flow");
    }
  }
  const double traced_flow_s = now_s() - t0;
  for (std::size_t s = 0; s < libs.size(); ++s) {
    replay_style(libs[s], flow_options(cfg.seed, kTraces[s]), rec, replay);
  }
  const double wall_s = now_s() - t0;
  const obs::Snapshot after = obs::Registry::global().snapshot();
  if (!replay.bitwise) {
    out.fail_check("replayed trace differs from the acquisition source");
  }

  const LayerTable table = layer_table(rec.spans(), wall_s);
  out.report = table.format("fig6-stream layer table (traced run)");
  const double traces = static_cast<double>(table.units_of("core.acquire"));
  const double rtr = static_cast<double>(replay.traces);
  const double styles = static_cast<double>(libs.size());
  emit_layer_metrics(
      out,
      {{"synth.map_ms", table.self_of("synth.map") * 1e3 / styles},
       {"core.acquire_us_per_trace", table.self_of("core.acquire") * 1e6 / traces},
       {"core.source_setup_ms", table.self_of("core.source_setup") * 1e3 / styles},
       {"core.retries", double(counter_delta(before, after, "core.acquisition.retries"))},
       {"core.skips", double(counter_delta(before, after, "core.acquisition.skips"))},
       {"netlist.construct_us_per_trace", table.self_of("netlist.construct") * 1e6 / rtr},
       {"netlist.settle_us_per_trace", table.self_of("netlist.settle") * 1e6 / rtr},
       {"netlist.events_per_trace", double(replay.events) / rtr},
       {"netlist.ns_per_event", table.self_of("netlist.settle") * 1e9 / double(replay.events)},
       {"power.compose_us_per_trace", table.self_of("power.compose") * 1e6 / rtr},
       {"power.ns_per_sample", table.self_of("power.compose") * 1e9 / (rtr * kSamples)},
       {"sca.cpa_us_per_trace", table.self_of("sca.cpa") * 1e6 / traces},
       {"sca.dpa_us_per_trace", table.self_of("sca.dpa") * 1e6 / traces},
       {"sca.mlpa_us_per_trace", table.self_of("sca.mlpa") * 1e6 / traces},
       {"sca.snapshot_ms", table.self_of("sca.snapshot") * 1e3 / styles},
       {"sca.rows_merged", double(counter_delta(before, after, "sca.cpa.rows_merged") +
                                  counter_delta(before, after, "sca.dpa.rows_merged") +
                                  counter_delta(before, after, "sca.mlpa.rows_merged"))},
       {"obs.tracing_overhead_frac", traced_flow_s / untraced_s - 1.0}});
  out.info.emplace_back("traced_flow_s", traced_flow_s);
  out.info.emplace_back("untraced_flow_s", untraced_s);
  out.info.emplace_back("replayed_traces", replay.traces);
  out.info.emplace_back("spans", static_cast<std::uint64_t>(rec.spans().size()));
  out.spans = rec.spans();
  return out;
}

}  // namespace

Outcome run_fig6_stream(const RunConfig& cfg) {
  return cfg.trace ? run_traced(cfg) : run_untraced(cfg);
}

}  // namespace repobench
