// Streaming acquisition through core::dpa_flow: the batched, bounded-memory
// source must reproduce the materialized acquisition bit for bit, the
// checkpointed MTD must equal the prefix-rerun scan, and diagnostics must
// flow through the streaming path unchanged.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::core {
namespace {

using cells::CellLibrary;

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
    const sca::CpaResult r = sca::cpa_attack(
        traces.prefix(grid[gi]), sca::LeakageModel::kHammingWeight);
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
      acquire_reduced_aes_traces(CellLibrary::pgmcml90(), opt);

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
  const sca::CpaResult first = sca::cpa_attack(*source);
  source->reset();
  const sca::CpaResult second = sca::cpa_attack(*source);
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
      acquire_reduced_aes_traces(CellLibrary::pgmcml90(), opt);
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
  sca::MlpaAccumulator acc(opt.samples);
  for (std::size_t i = 0; i < r.traces.num_traces(); ++i) {
    acc.add(r.traces.plaintext(i), r.traces.trace(i));
  }
  const sca::MlpaResult batch = acc.snapshot();
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

}  // namespace
}  // namespace pgmcml::core
