// Streaming acquisition through core::dpa_flow: the batched, bounded-memory
// source must reproduce the materialized acquisition bit for bit, the
// checkpointed MTD must equal the prefix-rerun scan, and diagnostics must
// flow through the streaming path unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::core {
namespace {

using cells::CellLibrary;

/// CPA over one pass of `source` into the per-plaintext statistic.
sca::CpaResult cpa_of(sca::TraceSource& source) {
  sca::BinnedMoments stat(source.samples_per_trace());
  sca::TraceBatch batch;
  while (source.next(batch)) stat.add_batch(batch);
  return sca::BinSpectrum(stat).cpa(sca::LeakageModel::kHammingWeight);
}

/// The retired prefix-rerun MTD scan, kept as the oracle for the
/// checkpointed single-pass implementation.
std::size_t prefix_rerun_mtd(const sca::TraceSet& traces,
                             std::uint8_t true_key, std::size_t grid_points) {
  const std::size_t n = traces.num_traces();
  if (n < 4 || grid_points < 2) return 0;
  std::vector<std::size_t> grid;
  for (std::size_t g = 1; g <= grid_points; ++g) {
    grid.push_back(std::max<std::size_t>(4, g * n / grid_points));
  }
  std::vector<bool> success(grid.size(), false);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    sca::TraceSetSource prefix(traces, grid[gi]);
    const sca::CpaResult r = cpa_of(prefix);
    success[gi] = r.key_rank(true_key) == 0;
  }
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    bool stable = true;
    for (std::size_t gj = gi; gj < grid.size(); ++gj) {
      stable = stable && success[gj];
    }
    if (stable) return grid[gi];
  }
  return 0;
}

TEST(StreamingFlow, SourceReproducesMaterializedAcquisitionBitwise) {
  DpaFlowOptions opt;
  opt.num_traces = 70;
  opt.samples = 200;
  const sca::TraceSet whole =
      run_dpa_flow(CellLibrary::pgmcml90(), opt).traces;

  // Stream the same campaign with a batch size that does not divide the
  // trace count: the concatenated stream must match trace for trace.
  DpaFlowOptions small = opt;
  small.batch_size = 17;
  auto source = make_acquisition_source(CellLibrary::pgmcml90(), small);
  EXPECT_EQ(source->samples_per_trace(), opt.samples);
  EXPECT_EQ(source->size_hint(), opt.num_traces);

  sca::TraceBatch batch;
  std::size_t seen = 0;
  while (source->next(batch)) {
    ASSERT_LE(batch.size(), 17u);
    for (std::size_t i = 0; i < batch.size(); ++i, ++seen) {
      ASSERT_LT(seen, whole.num_traces());
      EXPECT_EQ(batch.plaintexts[i], whole.plaintext(seen));
      const auto& expect = whole.trace(seen);
      ASSERT_EQ(batch.traces[i].size(), expect.size());
      for (std::size_t j = 0; j < expect.size(); ++j) {
        EXPECT_EQ(batch.traces[i][j], expect[j]);  // bitwise
      }
    }
  }
  EXPECT_EQ(seen, whole.num_traces());
  EXPECT_TRUE(source->diagnostics().clean());
  EXPECT_GT(source->mean_current(), 0.0);
  EXPECT_GT(source->design_stats().area, 0.0);
}

TEST(StreamingFlow, SourceResetReplaysTheCampaign) {
  DpaFlowOptions opt;
  opt.num_traces = 30;
  opt.samples = 150;
  auto source = make_acquisition_source(CellLibrary::cmos90(), opt);
  const sca::CpaResult first = cpa_of(*source);
  source->reset();
  const sca::CpaResult second = cpa_of(*source);
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(first.peak_correlation[k], second.peak_correlation[k]);
  }
  // Diagnostics rewound with the stream: one campaign's worth, not two.
  EXPECT_EQ(source->diagnostics().attempts, opt.num_traces);
}

TEST(StreamingFlow, KeepTracesFalseLeavesAttackResultsBitwiseIdentical) {
  DpaFlowOptions opt;
  opt.num_traces = 60;
  opt.samples = 180;
  opt.compute_mtd = true;
  DpaFlowOptions lean = opt;
  lean.keep_traces = false;
  lean.batch_size = 13;  // and a different batching, which must not matter

  const DpaFlowResult full = run_dpa_flow(CellLibrary::cmos90(), opt);
  const DpaFlowResult bounded = run_dpa_flow(CellLibrary::cmos90(), lean);

  EXPECT_EQ(full.traces.num_traces(), opt.num_traces);
  EXPECT_EQ(bounded.traces.num_traces(), 0u);  // never materialized
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(full.cpa.peak_correlation[k], bounded.cpa.peak_correlation[k]);
    EXPECT_EQ(full.dpa.peak_difference[k], bounded.dpa.peak_difference[k]);
  }
  EXPECT_EQ(full.key_rank, bounded.key_rank);
  EXPECT_EQ(full.margin, bounded.margin);
  EXPECT_EQ(full.mtd, bounded.mtd);
  EXPECT_EQ(full.mean_current, bounded.mean_current);
}

TEST(StreamingFlow, CheckpointedMtdMatchesPrefixRerunPerStyle) {
  // CMOS discloses within the campaign; the MCML styles never do.  In both
  // regimes the single-pass checkpoint scan must agree with the prefix-rerun
  // oracle on the very same traces.
  for (const CellLibrary& library :
       {CellLibrary::cmos90(), CellLibrary::mcml90(),
        CellLibrary::pgmcml90()}) {
    DpaFlowOptions opt;
    // 500 samples cover the full evaluation window (the CMOS leak sits past
    // sample 200); 300 traces are enough for CMOS to disclose mid-campaign.
    opt.num_traces = 300;
    opt.samples = 500;
    opt.compute_mtd = true;
    const DpaFlowResult r = run_dpa_flow(library, opt);
    const std::size_t oracle = prefix_rerun_mtd(r.traces, opt.key, 16);
    EXPECT_EQ(r.mtd, oracle) << library.name();
    if (library.style() == cells::LogicStyle::kCmos) {
      EXPECT_GT(r.mtd, 0u) << "CMOS should disclose within the campaign";
    } else {
      EXPECT_EQ(r.mtd, 0u) << library.name() << " should resist";
    }
  }
}

TEST(StreamingFlow, FaultedTracesAreSkippedAndRecordedWithoutMaterializing) {
  DpaFlowOptions opt;
  opt.num_traces = 26;
  opt.samples = 140;
  opt.keep_traces = false;
  opt.batch_size = 8;
  // Trace 4 fails both attempts (skipped); trace 9 recovers on retry.
  opt.acquisition_fault_hook = [](std::size_t t, int attempt) {
    if (t == 4) throw std::runtime_error("injected: trace 4");
    if (t == 9 && attempt == 0) throw std::runtime_error("injected: trace 9");
  };

  const auto run = [&] {
    return run_dpa_flow(CellLibrary::pgmcml90(), opt);
  };
  util::set_parallel_threads(1);
  const DpaFlowResult serial = run();
  util::set_parallel_threads(4);
  const DpaFlowResult parallel = run();
  util::set_parallel_threads(0);

  EXPECT_EQ(serial.diagnostics.attempts, 26u);
  EXPECT_EQ(serial.diagnostics.retries, 2u);
  EXPECT_EQ(serial.diagnostics.recovered, 1u);
  EXPECT_EQ(serial.diagnostics.skipped, 1u);
  EXPECT_FALSE(serial.diagnostics.clean());

  // The streaming path keeps the faults' bookkeeping thread-count invariant
  // and the attack statistics bitwise identical.
  EXPECT_EQ(parallel.diagnostics.attempts, serial.diagnostics.attempts);
  EXPECT_EQ(parallel.diagnostics.skipped, serial.diagnostics.skipped);
  EXPECT_EQ(parallel.diagnostics.recovered, serial.diagnostics.recovered);
  ASSERT_EQ(parallel.diagnostics.incidents.size(),
            serial.diagnostics.incidents.size());
  for (std::size_t i = 0; i < serial.diagnostics.incidents.size(); ++i) {
    EXPECT_EQ(parallel.diagnostics.incidents[i].stage,
              serial.diagnostics.incidents[i].stage);
  }
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(serial.cpa.peak_correlation[k], parallel.cpa.peak_correlation[k]);
  }
  EXPECT_EQ(serial.mean_current, parallel.mean_current);
}

TEST(StreamingFlow, StaticAcquisitionMountsTheQuiescentAttack) {
  // The paper's security story for the static channel: quiescent holds
  // disclose CMOS while the circuit holds power, and PG-MCML's gated-off
  // window starves the attack (state-independent sleep floor).
  DpaFlowOptions opt;
  opt.num_traces = 400;
  opt.samples = 200;
  opt.acquisition = AcquisitionMode::kStatic;  // mounts the static attack
  opt.compute_mtd = true;
  opt.keep_traces = false;

  const DpaFlowResult cmos = run_dpa_flow(CellLibrary::cmos90(), opt);
  EXPECT_EQ(cmos.static_awake.window, sca::StaticWindow::kAwake);
  EXPECT_EQ(cmos.static_asleep.window, sca::StaticWindow::kAsleep);
  EXPECT_EQ(cmos.static_awake.traces, opt.num_traces);
  EXPECT_EQ(cmos.static_awake.key_rank(opt.key), 0)
      << "CMOS leakage asymmetry should disclose under quiescent averaging";
  EXPECT_GT(cmos.static_awake_mtd, 0u);

  const DpaFlowResult pg = run_dpa_flow(CellLibrary::pgmcml90(), opt);
  EXPECT_EQ(pg.static_awake.key_rank(opt.key), 0)
      << "awake PG-MCML still holds power and leaks statically";
  EXPECT_NE(pg.static_asleep.key_rank(opt.key), 0)
      << "gated-off PG-MCML should starve the static attack";
  EXPECT_EQ(pg.static_asleep_mtd, 0u);
}

TEST(StreamingFlow, StaticSourceIsBatchInvariantAndResumable) {
  DpaFlowOptions opt;
  opt.num_traces = 50;
  opt.samples = 120;
  opt.acquisition = AcquisitionMode::kStatic;
  const sca::TraceSet whole =
      run_dpa_flow(CellLibrary::pgmcml90(), opt).traces;
  ASSERT_EQ(whole.num_traces(), opt.num_traces);

  // A source over the tail range [20, 50) reproduces traces 20..49 bitwise:
  // the contract that lets the campaign's static phase shard and resume.
  DpaFlowOptions tail = opt;
  tail.first_trace = 20;
  tail.num_traces = 30;
  tail.batch_size = 7;
  auto source = make_acquisition_source(CellLibrary::pgmcml90(), tail);
  sca::TraceBatch batch;
  std::size_t seen = 20;
  while (source->next(batch)) {
    for (std::size_t i = 0; i < batch.size(); ++i, ++seen) {
      EXPECT_EQ(batch.plaintexts[i], whole.plaintext(seen));
      for (std::size_t j = 0; j < opt.samples; ++j) {
        EXPECT_EQ(batch.traces[i][j], whole.trace(seen)[j]);  // bitwise
      }
    }
  }
  EXPECT_EQ(seen, 50u);
}

TEST(StreamingFlow, MlpaRidesTheDynamicFlow) {
  DpaFlowOptions opt;
  opt.num_traces = 120;
  opt.samples = 300;
  opt.compute_mlpa = true;
  opt.compute_mtd = true;
  opt.keep_traces = true;
  const DpaFlowResult r = run_dpa_flow(CellLibrary::cmos90(), opt);

  // The flow's streamed MLPA equals a batch accumulation of the kept traces.
  sca::BinnedMoments stat(opt.samples);
  for (std::size_t i = 0; i < r.traces.num_traces(); ++i) {
    stat.add(r.traces.plaintext(i), r.traces.trace(i));
  }
  const sca::MlpaResult batch = sca::BinSpectrum(stat).mlpa();
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(r.mlpa.score[k], batch.score[k]);  // bitwise
  }
  EXPECT_EQ(r.mlpa.best_guess, batch.best_guess);
}

TEST(StreamingFlow, RejectsZeroBatchSize) {
  DpaFlowOptions opt;
  opt.batch_size = 0;
  EXPECT_THROW(make_acquisition_source(CellLibrary::cmos90(), opt),
               std::invalid_argument);
}

TEST(StreamingFlow, RejectsZeroSamples) {
  DpaFlowOptions opt;
  opt.samples = 0;
  opt.num_traces = 8;
  EXPECT_THROW(make_acquisition_source(CellLibrary::cmos90(), opt),
               std::invalid_argument);
  EXPECT_THROW(run_dpa_flow(CellLibrary::cmos90(), opt), std::invalid_argument);
}

TEST(StreamingFlow, RejectsOutOfRangeFixedPlaintext) {
  for (const int bad : {256, -2, 1000, -100}) {
    DpaFlowOptions opt;
    opt.fixed_plaintext = bad;
    EXPECT_THROW(make_acquisition_source(CellLibrary::cmos90(), opt),
                 std::invalid_argument)
        << bad;
  }
  for (const int good : {-1, 0, 255}) {
    DpaFlowOptions opt;
    opt.fixed_plaintext = good;
    EXPECT_NO_THROW(make_acquisition_source(CellLibrary::cmos90(), opt))
        << good;
  }
}

/// One acquired trace: its plaintext and its samples.
using Trace = std::pair<std::uint8_t, std::vector<double>>;

/// The oracle for the memoized source, built without it: every trace is a
/// fresh LogicSim from the precharge state.  A dynamic trace is the
/// tracer's trace_into(); a static one is the two quiescent currents plus
/// the noise documented at kStaticNoiseStream.
std::vector<Trace> per_trace_reference(const CellLibrary& library,
                                       const DpaFlowOptions& opt) {
  const synth::MapResult mapped = map_reduced_aes(library);
  const netlist::Design& design = mapped.design;
  std::vector<netlist::NetId> p_nets(8, netlist::kNoNet);
  std::vector<netlist::NetId> k_nets(8, netlist::kNoNet);
  netlist::NetId const_net = netlist::kNoNet;
  for (std::size_t i = 0; i < design.inputs().size(); ++i) {
    const std::string& name = design.port_name(i, true);
    if (name[0] == 'p' || name[0] == 'k') {
      auto& nets = name[0] == 'p' ? p_nets : k_nets;
      nets[std::stoi(name.substr(2))] = design.inputs()[i];
    } else {
      const_net = design.inputs()[i];
    }
  }

  power::TraceOptions topt;
  topt.t_start = 0.4e-9;
  topt.dt = opt.dt;
  topt.samples = opt.samples;
  topt.noise_sigma = opt.noise_sigma;
  topt.seed = opt.seed;
  const power::PowerTracer tracer(design, library, power::default_kernels(),
                                  topt);
  power::SleepSchedule schedule;
  if (library.power_gated() && opt.gate_per_operation) {
    schedule.awake.push_back({0.2e-9, 0.4e-9 + opt.dt * opt.samples});
  }
  const std::size_t awake_end =
      sca::static_window_bounds(sca::StaticWindow::kAwake, opt.samples).second;

  std::vector<Trace> out;
  for (std::size_t t = opt.first_trace; t < opt.first_trace + opt.num_traces;
       ++t) {
    util::Rng rng = util::Rng::stream(opt.seed, t);
    const auto plaintext =
        opt.fixed_plaintext >= 0
            ? static_cast<std::uint8_t>(opt.fixed_plaintext)
            : static_cast<std::uint8_t>(rng.bounded(256));
    netlist::LogicSim sim(design, &library);
    std::vector<std::pair<netlist::NetId, bool>> init;
    for (int b = 0; b < 8; ++b) {
      init.emplace_back(k_nets[b], (opt.key >> b) & 1);
      init.emplace_back(p_nets[b], false);
    }
    if (const_net != netlist::kNoNet) init.emplace_back(const_net, false);
    sim.apply_and_settle(init);
    sim.clear_events();
    sim.run_until(0.5e-9);
    std::vector<std::pair<netlist::NetId, bool>> stimulus;
    for (int b = 0; b < 8; ++b) {
      stimulus.emplace_back(p_nets[b], (plaintext >> b) & 1);
    }
    sim.apply_and_settle(stimulus);

    std::vector<double> row;
    if (opt.acquisition == AcquisitionMode::kStatic) {
      const double awake = tracer.quiescent_current(sim, true);
      const double asleep = tracer.quiescent_current(sim, false);
      util::Rng noise = util::Rng::stream(opt.seed ^ kStaticNoiseStream, t);
      for (std::size_t j = 0; j < opt.samples; ++j) {
        const double level = j < awake_end ? awake : asleep;
        const double sigma =
            topt.noise_sigma + topt.supply_noise_ratio * level;
        row.push_back(level + noise.gaussian(0.0, sigma));
      }
    } else {
      tracer.trace_into(sim.events(), schedule, t, row);
    }
    out.emplace_back(plaintext, std::move(row));
  }
  return out;
}

/// Every trace a source produces, in order.
std::vector<Trace> drain(AcquisitionSource& source) {
  std::vector<Trace> out;
  sca::TraceBatch batch;
  while (source.next(batch)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.emplace_back(batch.plaintexts[i],
                       std::vector<double>(batch.traces[i].begin(),
                                           batch.traces[i].end()));
    }
  }
  return out;
}

/// Bitwise equality of two trace streams (vector == compares doubles with
/// ==, and no trace here holds a NaN).
void expect_same_stream(const std::vector<Trace>& got,
                        const std::vector<Trace>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << what << " trace " << i;
    EXPECT_TRUE(got[i].second == want[i].second) << what << " trace " << i;
  }
}

TEST(StreamingFlow, MemoizedSourceMatchesPerTraceSimulation) {
  for (const CellLibrary& library :
       {CellLibrary::cmos90(), CellLibrary::mcml90(),
        CellLibrary::pgmcml90()}) {
    for (const AcquisitionMode mode :
         {AcquisitionMode::kDynamic, AcquisitionMode::kStatic}) {
      for (const int fixed : {-1, 0x52}) {
        DpaFlowOptions opt;
        opt.num_traces = 48;  // random plaintexts repeat: memo hits
        opt.samples = 120;
        opt.acquisition = mode;
        opt.fixed_plaintext = fixed;
        const std::vector<Trace> reference =
            per_trace_reference(library, opt);
        for (const std::size_t threads : {1u, 4u}) {
          util::set_parallel_threads(threads);
          for (const std::size_t batch : {1u, 7u, 256u}) {
            DpaFlowOptions run = opt;
            run.batch_size = batch;
            auto source = make_acquisition_source(library, run);
            expect_same_stream(
                drain(*source), reference,
                library.name() + (mode == AcquisitionMode::kStatic
                                      ? " static"
                                      : " dynamic") +
                    " fixed=" + std::to_string(fixed) +
                    " threads=" + std::to_string(threads) +
                    " batch=" + std::to_string(batch));
          }
        }
      }
    }
  }
  util::set_parallel_threads(0);
}

TEST(StreamingFlow, FaultedTracesLeaveNoPoisonedMemoEntry) {
  for (const AcquisitionMode mode :
       {AcquisitionMode::kDynamic, AcquisitionMode::kStatic}) {
    DpaFlowOptions opt;
    opt.num_traces = 64;
    opt.samples = 120;
    opt.acquisition = mode;
    const std::vector<Trace> reference =
        per_trace_reference(CellLibrary::pgmcml90(), opt);

    // Two traces that are each the first of their plaintext, which a later
    // trace repeats: `flaky` fails only its first attempt, `dead` both.
    const auto first_repeated = [&](std::size_t from, int other) {
      for (std::size_t a = from; a < reference.size(); ++a) {
        bool first = true;
        bool repeated = false;
        for (std::size_t b = 0; b < reference.size(); ++b) {
          if (reference[b].first != reference[a].first) continue;
          first = first && b >= a;
          repeated = repeated || b > a;
        }
        if (first && repeated && reference[a].first != other) return a;
      }
      return reference.size();
    };
    const std::size_t flaky = first_repeated(0, -1);
    ASSERT_LT(flaky, reference.size());
    const std::size_t dead = first_repeated(flaky + 1, reference[flaky].first);
    ASSERT_LT(dead, reference.size());

    opt.batch_size = 7;
    opt.acquisition_fault_hook = [&](std::size_t t, int attempt) {
      if (t == dead || (t == flaky && attempt == 0)) {
        throw std::runtime_error("injected: trace " + std::to_string(t));
      }
    };
    std::vector<Trace> expect = reference;
    expect.erase(expect.begin() + static_cast<std::ptrdiff_t>(dead));
    for (const std::size_t threads : {1u, 4u}) {
      util::set_parallel_threads(threads);
      auto source = make_acquisition_source(CellLibrary::pgmcml90(), opt);
      expect_same_stream(drain(*source), expect,
                         "threads=" + std::to_string(threads));
      EXPECT_EQ(source->diagnostics().attempts, opt.num_traces);
      EXPECT_EQ(source->diagnostics().retries, 2u);
      EXPECT_EQ(source->diagnostics().recovered, 1u);
      EXPECT_EQ(source->diagnostics().skipped, 1u);
    }
    util::set_parallel_threads(0);
  }
}

TEST(StreamingFlow, SeekedSourceMatchesAFreshSource) {
  const obs::Counter simulations =
      obs::Registry::global().counter("core.acquisition.simulations");
  // Overlapping, disjoint, growing and shrinking ranges, in campaign order
  // and out of it.
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 30}, {20, 45}, {300, 9}, {5, 3}, {120, 64}, {64, 0}};
  const CellLibrary library = CellLibrary::pgmcml90();
  for (const AcquisitionMode mode :
       {AcquisitionMode::kDynamic, AcquisitionMode::kStatic}) {
    for (const int fixed : {-1, 0x52}) {
      if (mode == AcquisitionMode::kStatic && fixed >= 0) continue;
      for (const std::size_t threads : {1u, 4u}) {
        util::set_parallel_threads(threads);
        for (const std::size_t batch : {1u, 7u}) {
          const std::string what =
              std::string(mode == AcquisitionMode::kStatic ? "static"
                          : fixed >= 0                     ? "fixed"
                                                           : "dynamic") +
              " threads=" + std::to_string(threads) +
              " batch=" + std::to_string(batch);
          DpaFlowOptions opt;
          opt.samples = 60;
          opt.acquisition = mode;
          opt.fixed_plaintext = fixed;
          opt.batch_size = batch;
          opt.first_trace = ranges[0].first;
          opt.num_traces = ranges[0].second;
          auto seeked = make_acquisition_source(library, opt);
          std::vector<bool> seen(256, false);
          std::uint64_t distinct = 0;
          std::uint64_t fills = 0;
          for (std::size_t r = 0; r < ranges.size(); ++r) {
            const auto [first, n] = ranges[r];
            if (r > 0) seeked->seek(first, n);
            const std::uint64_t before = simulations.value();
            const std::vector<Trace> got = drain(*seeked);
            fills += simulations.value() - before;

            DpaFlowOptions fresh_opt = opt;
            fresh_opt.first_trace = first;
            fresh_opt.num_traces = n;
            auto fresh = make_acquisition_source(library, fresh_opt);
            const std::string at = what + " range [" + std::to_string(first) +
                                   ", +" + std::to_string(n) + ")";
            expect_same_stream(got, drain(*fresh), at);
            EXPECT_EQ(seeked->size_hint(), n) << at;
            EXPECT_EQ(seeked->traces_consumed(), fresh->traces_consumed())
                << at;
            EXPECT_EQ(seeked->diagnostics().to_json_value().dump(),
                      fresh->diagnostics().to_json_value().dump())
                << at;
            const double m_seeked = seeked->mean_current();
            const double m_fresh = fresh->mean_current();
            EXPECT_EQ(std::memcmp(&m_seeked, &m_fresh, sizeof(double)), 0)
                << at;
            for (const Trace& t : got) {
              if (!seen[t.first]) ++distinct;
              seen[t.first] = true;
            }
          }
          // The memo outlives every seek: each plaintext is simulated once
          // over the source's whole life.
          EXPECT_EQ(fills, distinct) << what;
        }
      }
    }
  }
  util::set_parallel_threads(0);
}

TEST(StreamingFlow, SimulationsCountMemoFillsNotTraces) {
  const obs::Counter simulations =
      obs::Registry::global().counter("core.acquisition.simulations");
  const auto simulated_by = [&](AcquisitionSource& source) {
    const std::uint64_t before = simulations.value();
    drain(source);
    return simulations.value() - before;
  };

  DpaFlowOptions opt;
  opt.samples = 60;
  opt.num_traces = 300;
  opt.fixed_plaintext = 0x52;
  auto fixed = make_acquisition_source(CellLibrary::cmos90(), opt);
  EXPECT_EQ(simulated_by(*fixed), 1u);
  fixed->reset();
  EXPECT_EQ(simulated_by(*fixed), 0u);  // the memo survives reset()

  opt.fixed_plaintext = -1;
  opt.num_traces = 1000;
  auto random = make_acquisition_source(CellLibrary::cmos90(), opt);
  const std::uint64_t fills = simulated_by(*random);
  EXPECT_GT(fills, 0u);
  EXPECT_LE(fills, 256u);
  random->reset();
  EXPECT_EQ(simulated_by(*random), 0u);
}

}  // namespace
}  // namespace pgmcml::core
