// Tier-1 determinism guarantee of the parallel-execution layer: the full
// DPA flow (acquisition -> CPA) run on >= 4 worker threads is bitwise
// identical to the serial run, for every logic style.  Built as its own test
// executable so the ThreadSanitizer preset can select it via `ctest -L tsan`.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::core {
namespace {

using cells::CellLibrary;

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(0); }
};

void expect_bitwise_equal_flow(const CellLibrary& library) {
  DpaFlowOptions opt;
  opt.num_traces = 96;
  opt.samples = 300;

  util::set_parallel_threads(1);
  const DpaFlowResult serial = run_dpa_flow(library, opt);
  util::set_parallel_threads(4);
  const DpaFlowResult parallel = run_dpa_flow(library, opt);

  // Acquisition: identical plaintexts and identical samples, bit for bit.
  ASSERT_EQ(serial.traces.num_traces(), parallel.traces.num_traces());
  ASSERT_EQ(serial.traces.samples_per_trace(),
            parallel.traces.samples_per_trace());
  for (std::size_t i = 0; i < serial.traces.num_traces(); ++i) {
    ASSERT_EQ(serial.traces.plaintext(i), parallel.traces.plaintext(i))
        << "trace " << i;
    const auto& a = serial.traces.trace(i);
    const auto& b = parallel.traces.trace(i);
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "trace " << i << " sample " << j;
    }
  }

  // Attack: every key guess's statistic, not just the ranking.
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(serial.cpa.peak_correlation[k], parallel.cpa.peak_correlation[k])
        << "guess " << k;
    EXPECT_EQ(serial.dpa.peak_difference[k], parallel.dpa.peak_difference[k])
        << "guess " << k;
  }
  EXPECT_EQ(serial.key_rank, parallel.key_rank);
  EXPECT_EQ(serial.margin, parallel.margin);
  EXPECT_EQ(serial.mean_current, parallel.mean_current);
}

TEST_F(ParallelDeterminismTest, CmosFlowIsThreadCountInvariant) {
  expect_bitwise_equal_flow(CellLibrary::cmos90());
}

TEST_F(ParallelDeterminismTest, McmlFlowIsThreadCountInvariant) {
  expect_bitwise_equal_flow(CellLibrary::mcml90());
}

TEST_F(ParallelDeterminismTest, PgMcmlFlowIsThreadCountInvariant) {
  expect_bitwise_equal_flow(CellLibrary::pgmcml90());
}

// The streaming refactor adds a second degree of freedom -- how the campaign
// is cut into batches -- which, like the thread count, must never reach the
// numbers.  Run the full flow over the 2x2 grid {1, 4 threads} x {two batch
// sizes} and require one bitwise-identical result.
TEST_F(ParallelDeterminismTest, StreamingFlowIsBatchAndThreadInvariant) {
  DpaFlowOptions base;
  base.num_traces = 96;
  base.samples = 300;
  base.compute_mtd = true;  // exercise the checkpointed MTD path too

  std::vector<DpaFlowResult> results;
  for (int threads : {1, 4}) {
    for (std::size_t batch_size : {std::size_t{29}, std::size_t{256}}) {
      DpaFlowOptions opt = base;
      opt.batch_size = batch_size;
      util::set_parallel_threads(threads);
      results.push_back(run_dpa_flow(CellLibrary::cmos90(), opt));
    }
  }

  const DpaFlowResult& ref = results.front();
  for (std::size_t r = 1; r < results.size(); ++r) {
    const DpaFlowResult& got = results[r];
    ASSERT_EQ(got.traces.num_traces(), ref.traces.num_traces());
    for (std::size_t i = 0; i < ref.traces.num_traces(); ++i) {
      ASSERT_EQ(got.traces.plaintext(i), ref.traces.plaintext(i));
      const auto& a = ref.traces.trace(i);
      const auto& b = got.traces.trace(i);
      for (std::size_t j = 0; j < a.size(); ++j) {
        ASSERT_EQ(a[j], b[j]) << "variant " << r << " trace " << i;
      }
    }
    for (int k = 0; k < 256; ++k) {
      EXPECT_EQ(got.cpa.peak_correlation[k], ref.cpa.peak_correlation[k]);
      EXPECT_EQ(got.dpa.peak_difference[k], ref.dpa.peak_difference[k]);
    }
    EXPECT_EQ(got.mtd, ref.mtd);
    EXPECT_EQ(got.key_rank, ref.key_rank);
    EXPECT_EQ(got.margin, ref.margin);
    EXPECT_EQ(got.mean_current, ref.mean_current);
    EXPECT_EQ(got.diagnostics.attempts, ref.diagnostics.attempts);
  }
}

// The simulator's work counters are flushed once per memo fill from the
// simulator's own totals, so a source's totals are a function of which
// plaintexts it fills, never of how many threads fill them.
TEST_F(ParallelDeterminismTest, LogicSimWorkCountersAreThreadCountInvariant) {
  const obs::Counter events =
      obs::Registry::global().counter("netlist.logicsim.events");
  const obs::Counter evaluations =
      obs::Registry::global().counter("netlist.logicsim.evaluations");
  DpaFlowOptions opt;
  opt.num_traces = 400;
  opt.samples = 60;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
  for (int threads : {1, 4}) {
    util::set_parallel_threads(threads);
    const std::uint64_t events_before = events.value();
    const std::uint64_t evaluations_before = evaluations.value();
    auto source = make_acquisition_source(CellLibrary::pgmcml90(), opt);
    sca::TraceBatch batch;
    while (source->next(batch)) {
    }
    totals.emplace_back(events.value() - events_before,
                        evaluations.value() - evaluations_before);
  }
  EXPECT_GT(totals[0].first, 0u);
  EXPECT_GT(totals[0].second, totals[0].first);
  EXPECT_EQ(totals[0], totals[1]);
}

// A flow's first-place checks (one per attack and MTD grid point before the
// last, which the final verdicts answer) and the ones among them that fell
// back to a full scoring depend on the stream alone: pinned exactly, and
// equal at any thread count.
TEST_F(ParallelDeterminismTest, FirstPlaceWorkCountersArePinned) {
  const obs::Counter checks =
      obs::Registry::global().counter("sca.first_place.checks");
  const obs::Counter transforms =
      obs::Registry::global().counter("sca.first_place.transforms");
  DpaFlowOptions opt;
  opt.num_traces = 800;
  opt.samples = 300;
  opt.compute_mtd = true;
  opt.compute_mlpa = true;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
  for (int threads : {1, 4}) {
    util::set_parallel_threads(threads);
    const std::uint64_t checks_before = checks.value();
    const std::uint64_t transforms_before = transforms.value();
    const DpaFlowResult r = run_dpa_flow(CellLibrary::cmos90(), opt);
    EXPECT_EQ(r.key_rank, 0);
    totals.emplace_back(checks.value() - checks_before,
                        transforms.value() - transforms_before);
  }
  EXPECT_EQ(totals[0].first, 2u * 15u);
  EXPECT_EQ(totals[0].second, 15u);
  EXPECT_EQ(totals[0], totals[1]);
}

// Composition's kernel and level adds are a function of the event streams
// the memo fills compose, never of how many threads fill them: pinned
// exactly for a fixed PG-MCML flow (per-operation window), and equal at 1
// and 4 threads.
TEST_F(ParallelDeterminismTest, ComposeWorkCountersArePinned) {
  const obs::Counter kernel_adds =
      obs::Registry::global().counter("power.compose.kernel_adds");
  const obs::Counter level_adds =
      obs::Registry::global().counter("power.compose.level_adds");
  DpaFlowOptions opt;
  opt.num_traces = 400;
  opt.samples = 300;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
  for (int threads : {1, 4}) {
    util::set_parallel_threads(threads);
    const std::uint64_t kernel_before = kernel_adds.value();
    const std::uint64_t level_before = level_adds.value();
    auto source = make_acquisition_source(CellLibrary::pgmcml90(), opt);
    sca::TraceBatch batch;
    while (source->next(batch)) {
    }
    totals.emplace_back(kernel_adds.value() - kernel_before,
                        level_adds.value() - level_before);
  }
  EXPECT_EQ(totals[0].first, 1907910u);
  EXPECT_EQ(totals[0].second, 1971507u);
  EXPECT_EQ(totals[0], totals[1]);
}

}  // namespace
}  // namespace pgmcml::core
