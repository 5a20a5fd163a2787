// Static-power and MLPA scorers vs naive textbook references: the transform
// scores must agree with the two-pass formulas to ~1e-12, batching and worker
// count must not change a single bit, merges must be associative, and the
// grid MTD tracker must reproduce the prefix-rerun scan on both.  The
// static scorer reads the add_window_means projection of the statistic, MLPA
// the statistic itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/sca/traces.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"
#include "trace_batches.hpp"

namespace pgmcml::sca {
namespace {

/// Synthetic quiescent traces in the static acquisition layout
/// [awake hold | asleep hold]: the awake window leaks
/// alpha * HW(sbox(p ^ key)) in its per-sample level, the asleep window is a
/// state-independent floor.  Window-averaging is what the attack exploits.
TraceSet synthetic_static_traces(std::uint8_t key, std::size_t n, double alpha,
                                 double noise, std::size_t samples = 20,
                                 std::uint64_t seed = 9) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  const auto [awake_lo, awake_hi] =
      static_window_bounds(StaticWindow::kAwake, samples);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    const double leak =
        alpha * util::hamming_weight(aes::reduced_target(p, key));
    std::vector<double> tr(samples);
    for (std::size_t j = 0; j < samples; ++j) {
      const bool awake = j >= awake_lo && j < awake_hi;
      tr[j] = (awake ? leak : 0.05) + rng.gaussian(0.0, noise);
    }
    ts.add(p, tr);
  }
  return ts;
}

/// Dynamic-style traces whose bits leak individually (the MLPA target).
TraceSet synthetic_bit_traces(std::uint8_t key, std::size_t n, double alpha,
                              double noise, std::size_t samples = 16,
                              std::uint64_t seed = 13) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    const std::uint8_t v = aes::reduced_target(p, key);
    std::vector<double> tr(samples);
    for (auto& s : tr) s = rng.gaussian(0.0, noise);
    // Spread the 8 hypothesis bits over distinct samples so no single-bit
    // partition dominates: the multi-linear combiner has to use all of them.
    for (int b = 0; b < 8; ++b) {
      tr[static_cast<std::size_t>(2 * b)] += ((v >> b) & 1) ? alpha : 0.0;
    }
    ts.add(p, tr);
  }
  return ts;
}

/// Byte form of a statistic: the "identical state" check.
std::string serialized(const BinnedMoments& stat) {
  SnapshotWriter w;
  stat.save(w);
  return w.take();
}

/// Streams `ts` into a fresh statistic with the given batch size.
BinnedMoments bin(const TraceSet& ts, std::size_t batch_size) {
  BinnedMoments stat(ts.samples_per_trace());
  for (const TraceBatch& batch : batches_of(ts, batch_size)) {
    stat.add_batch(batch);
  }
  return stat;
}

/// Folds traces [lo, hi) of `ts` one at a time.
BinnedMoments bin_range(const TraceSet& ts, std::size_t lo, std::size_t hi) {
  BinnedMoments stat(ts.samples_per_trace());
  for (std::size_t i = lo; i < hi; ++i) stat.add(ts.plaintext(i), ts.trace(i));
  return stat;
}

/// The one-column projection of `window` over traces [lo, hi) of `ts`,
/// folded `batch_size` traces at a time.
BinnedMoments project(const TraceSet& ts, StaticWindow window,
                      std::size_t batch_size, std::size_t lo = 0,
                      std::size_t hi = kAllTraces) {
  BinnedMoments projection(1);
  hi = std::min(hi, ts.num_traces());
  TraceBatch batch;
  for (std::size_t i = lo; i < hi; ++i) {
    batch.add(ts.plaintext(i), ts.trace(i));
    if (batch.size() == batch_size || i + 1 == hi) {
      add_window_means(projection, {&window, 1}, ts.samples_per_trace(),
                       batch);
      batch.clear();
    }
  }
  return projection;
}

StaticPowerResult static_of(const BinnedMoments& projection,
                            StaticWindow window) {
  return BinSpectrum(projection).static_power(LeakageModel::kHammingWeight, 0,
                                              window);
}

/// Textbook two-pass Pearson of the window-averaged scalar per guess.
std::array<double, 256> naive_static_correlations(const TraceSet& ts,
                                                  LeakageModel model,
                                                  StaticWindow window) {
  const std::size_t n = ts.num_traces();
  const auto [lo, hi] = static_window_bounds(window, ts.samples_per_trace());
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += ts.trace(i)[j];
    x[i] = sum / static_cast<double>(hi - lo);
  }
  double mean_x = 0.0;
  for (double v : x) mean_x += v;
  mean_x /= static_cast<double>(n);
  double ssx = 0.0;
  for (double v : x) ssx += (v - mean_x) * (v - mean_x);

  std::array<double, 256> corr{};
  for (int k = 0; k < 256; ++k) {
    std::vector<double> h(n);
    double mean_h = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      h[i] = predict_leakage(model, ts.plaintext(i),
                             static_cast<std::uint8_t>(k));
      mean_h += h[i];
    }
    mean_h /= static_cast<double>(n);
    double ssh = 0.0;
    double num = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ssh += (h[i] - mean_h) * (h[i] - mean_h);
      num += (h[i] - mean_h) * (x[i] - mean_x);
    }
    const double denom = std::sqrt(ssh * ssx);
    corr[k] = denom > 0.0 ? std::fabs(num / denom) : 0.0;
  }
  return corr;
}

/// Textbook MLPA: per (guess, bit) mean partitions combined l2 per sample.
std::array<double, 256> naive_mlpa_scores(const TraceSet& ts) {
  const std::size_t n = ts.num_traces();
  const std::size_t m = ts.samples_per_trace();
  std::array<double, 256> score{};
  for (int k = 0; k < 256; ++k) {
    std::vector<double> sum1(8 * m, 0.0), sum0(8 * m, 0.0);
    std::array<std::size_t, 8> n1{}, n0{};
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t v =
          aes::reduced_target(ts.plaintext(i), static_cast<std::uint8_t>(k));
      for (int b = 0; b < 8; ++b) {
        const bool bit = ((v >> b) & 1) != 0;
        (bit ? n1 : n0)[static_cast<std::size_t>(b)] += 1;
        auto& sums = bit ? sum1 : sum0;
        for (std::size_t j = 0; j < m; ++j) {
          sums[static_cast<std::size_t>(b) * m + j] += ts.trace(i)[j];
        }
      }
    }
    double peak_sq = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      double sq = 0.0;
      for (int b = 0; b < 8; ++b) {
        const auto bb = static_cast<std::size_t>(b);
        if (n1[bb] == 0 || n0[bb] == 0) continue;
        const double diff = sum1[bb * m + j] / static_cast<double>(n1[bb]) -
                            sum0[bb * m + j] / static_cast<double>(n0[bb]);
        sq += diff * diff;
      }
      peak_sq = std::max(peak_sq, sq);
    }
    score[k] = std::sqrt(peak_sq);
  }
  return score;
}

TEST(StaticPowerAccumulator, MatchesNaiveTwoPassReference) {
  const std::uint8_t key = 0x3c;
  const TraceSet ts = synthetic_static_traces(key, 400, 1.0, 0.2);
  for (StaticWindow w :
       {StaticWindow::kAll, StaticWindow::kAwake, StaticWindow::kAsleep}) {
    const StaticPowerResult streamed = static_of(project(ts, w, 64), w);
    const auto naive =
        naive_static_correlations(ts, LeakageModel::kHammingWeight, w);
    for (int k = 0; k < 256; ++k) {
      EXPECT_NEAR(streamed.correlation[k], naive[k], 1e-12)
          << to_string(w) << " guess " << k;
    }
  }
  // The awake window discloses; the asleep floor carries no signal.
  const StaticPowerResult awake =
      static_of(project(ts, StaticWindow::kAwake, 64), StaticWindow::kAwake);
  EXPECT_EQ(awake.best_guess, key);
  EXPECT_EQ(awake.key_rank(key), 0);
  const StaticPowerResult asleep = static_of(
      project(ts, StaticWindow::kAsleep, 64), StaticWindow::kAsleep);
  EXPECT_NE(asleep.key_rank(key), 0);
}

TEST(StaticPowerAccumulator, BatchingIsBitwiseIrrelevant) {
  const TraceSet ts = synthetic_static_traces(0x71, 301, 1.0, 0.5);
  // One trace at a time...
  const auto golden = serialized(project(ts, StaticWindow::kAwake, 1));
  // ...vs the same stream cut into batches.
  for (std::size_t batch_size : {1ul, 7ul, 256ul}) {
    const auto batched = project(ts, StaticWindow::kAwake, batch_size);
    EXPECT_EQ(serialized(batched), golden) << "batch size " << batch_size;
  }
}

TEST(StaticPowerAccumulator, MergeIsAssociativeAndMatchesStreaming) {
  const TraceSet ts = synthetic_static_traces(0x5d, 300, 1.0, 1.0);
  const auto chunk = [&](std::size_t lo, std::size_t hi) {
    return project(ts, StaticWindow::kAll, 1, lo, hi);
  };
  BinnedMoments ab = chunk(0, 100);
  ab.merge(chunk(100, 200));
  ab.merge(chunk(200, 300));  // (a + b) + c

  BinnedMoments bc = chunk(100, 200);
  bc.merge(chunk(200, 300));
  BinnedMoments a_bc = chunk(0, 100);
  a_bc.merge(bc);  // a + (b + c)

  const StaticPowerResult streamed =
      static_of(project(ts, StaticWindow::kAll, 256), StaticWindow::kAll);
  const StaticPowerResult left = static_of(ab, StaticWindow::kAll);
  const StaticPowerResult right = static_of(a_bc, StaticWindow::kAll);
  EXPECT_EQ(ab.num_traces(), 300u);
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(left.correlation[k], right.correlation[k], 1e-12);
    EXPECT_NEAR(left.correlation[k], streamed.correlation[k], 1e-12);
  }

  // Merging an empty statistic is the identity, bit for bit.
  BinnedMoments with_empty = chunk(0, 300);
  with_empty.merge(BinnedMoments(1));
  EXPECT_EQ(serialized(with_empty), serialized(chunk(0, 300)));
}

TEST(StaticPowerAccumulator, RejectsRaggedAndMismatchedInputs) {
  const StaticWindow awake = StaticWindow::kAwake;
  BinnedMoments projection(1);
  const std::vector<double> short_trace(9, 0.0);
  TraceBatch ragged;
  ragged.add(0, short_trace);
  EXPECT_THROW(add_window_means(projection, {&awake, 1}, 10, ragged),
               std::invalid_argument);
  // A projection over another number of windows does not merge.
  EXPECT_THROW(projection.merge(BinnedMoments(kStaticWindows.size())),
               std::invalid_argument);
  // Sub-minimal populations report no verdict, and so no key rank.
  const std::vector<double> trace(10, 1.0);
  TraceBatch one;
  one.add(0x12, trace);
  add_window_means(projection, {&awake, 1}, 10, one);
  EXPECT_EQ(static_of(projection, awake).best_guess, -1);
  EXPECT_EQ(static_of(projection, awake).key_rank(0x12), -1);
}

TEST(StaticWindowBounds, PartitionTheTrace) {
  for (std::size_t m : {1ul, 2ul, 7ul, 20ul}) {
    const auto all = static_window_bounds(StaticWindow::kAll, m);
    const auto awake = static_window_bounds(StaticWindow::kAwake, m);
    const auto asleep = static_window_bounds(StaticWindow::kAsleep, m);
    EXPECT_EQ(all.first, 0u);
    EXPECT_EQ(all.second, m);
    EXPECT_EQ(awake.first, 0u);
    EXPECT_EQ(awake.second, asleep.first);  // contiguous split
    EXPECT_EQ(asleep.second, m);
    EXPECT_GE(awake.second - awake.first, asleep.second - asleep.first);
  }
}

TEST(MlpaAccumulator, MatchesNaivePartitionReference) {
  const std::uint8_t key = 0x9e;
  const TraceSet ts = synthetic_bit_traces(key, 500, 1.0, 0.5);
  const BinnedMoments stat = bin(ts, 64);
  const MlpaResult streamed = BinSpectrum(stat).mlpa();
  const auto naive = naive_mlpa_scores(ts);
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(streamed.score[k], naive[k], 1e-12) << "guess " << k;
  }
  EXPECT_EQ(streamed.best_guess, key);
  EXPECT_EQ(streamed.key_rank(key), 0);
}

TEST(MlpaAccumulator, BatchingAndWorkerCountAreBitwiseIrrelevant) {
  const TraceSet ts = synthetic_bit_traces(0x44, 257, 1.0, 1.0);
  const auto golden = serialized(bin_range(ts, 0, ts.num_traces()));
  // Every worker count must fold the identical per-bin arithmetic sequence.
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    const std::size_t prev = util::set_parallel_threads(threads);
    const auto batched = bin(ts, 31);
    util::set_parallel_threads(prev);
    EXPECT_EQ(serialized(batched), golden) << "threads " << threads;
  }
}

TEST(MlpaAccumulator, MergeIsAssociativeAndMatchesStreaming) {
  const TraceSet ts = synthetic_bit_traces(0x27, 300, 1.0, 0.8);
  const auto chunk = [&](std::size_t lo, std::size_t hi) {
    return bin_range(ts, lo, hi);
  };
  BinnedMoments ab = chunk(0, 100);
  ab.merge(chunk(100, 200));
  ab.merge(chunk(200, 300));

  BinnedMoments bc = chunk(100, 200);
  bc.merge(chunk(200, 300));
  BinnedMoments a_bc = chunk(0, 100);
  a_bc.merge(bc);

  // Chan merges associate only up to floating-point rounding.
  const BinnedMoments whole = bin(ts, 256);
  const MlpaResult streamed = BinSpectrum(whole).mlpa();
  const MlpaResult left = BinSpectrum(ab).mlpa();
  const MlpaResult right = BinSpectrum(a_bc).mlpa();
  EXPECT_EQ(ab.num_traces(), 300u);
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(left.score[k], right.score[k], 1e-12);
    EXPECT_NEAR(left.score[k], streamed.score[k], 1e-12);
  }
  EXPECT_EQ(left.best_guess, right.best_guess);

  EXPECT_THROW(ab.merge(BinnedMoments(ts.samples_per_trace() + 1)),
               std::invalid_argument);
  EXPECT_THROW(ab.add(0, std::vector<double>(1, 0.0)), std::invalid_argument);
}

TEST(MtdTracker, StaticWindowsMatchPrefixRerunScan) {
  const std::uint8_t key = 0x42;
  const TraceSet ts = synthetic_static_traces(key, 1200, 1.0, 4.0, 20, 3);
  // Prefix-rerun oracle on the same grid the tracker uses.
  const std::size_t grid_points = 8;
  std::vector<std::size_t> grid;
  for (std::size_t g = 1; g <= grid_points; ++g) {
    grid.push_back(std::max<std::size_t>(4, g * ts.num_traces() / grid_points));
  }
  std::vector<bool> success(grid.size(), false);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    const BinnedMoments prefix =
        project(ts, StaticWindow::kAwake, 1, 0, grid[gi]);
    success[gi] = static_of(prefix, StaticWindow::kAwake).key_rank(key) == 0;
  }
  std::size_t oracle = 0;
  for (std::size_t gi = 0; gi < grid.size() && oracle == 0; ++gi) {
    bool stable = true;
    for (std::size_t gj = gi; gj < grid.size(); ++gj) {
      stable = stable && success[gj];
    }
    if (stable) oracle = grid[gi];
  }
  ASSERT_GT(oracle, 0u);
  ASSERT_LT(oracle, ts.num_traces());

  // One tracker over the two-window projection scores both windows; the
  // asleep window never discloses, so its MTD is 0 by the same scan.
  for (std::size_t batch_size : {1ul, 97ul, 613ul}) {
    BinnedMoments windows(kStaticWindows.size());
    MtdTracker tracker(
        ts.num_traces(),
        [&](const TraceBatch& b) {
          add_window_means(windows, kStaticWindows, ts.samples_per_trace(), b);
        },
        [&] {
          const BinSpectrum spectrum(windows);
          std::vector<bool> first;
          for (std::size_t c = 0; c < kStaticWindows.size(); ++c) {
            first.push_back(spectrum
                                .static_power(LeakageModel::kHammingWeight, c,
                                              kStaticWindows[c])
                                .key_rank(key) == 0);
          }
          return first;
        },
        grid_points);
    for (const TraceBatch& batch : batches_of(ts, batch_size)) {
      tracker.add_batch(batch);
    }
    tracker.finish();
    EXPECT_EQ(tracker.mtd(0), oracle) << "batch size " << batch_size;
    EXPECT_EQ(tracker.mtd(1), 0u) << "batch size " << batch_size;
  }
}

TEST(MtdTracker, MlpaGridSplitsDoNotPerturbTheStatistic) {
  const std::uint8_t key = 0x66;
  const TraceSet ts = synthetic_bit_traces(key, 600, 1.0, 2.0, 16, 7);
  BinnedMoments stat(ts.samples_per_trace());
  MtdTracker tracker(
      ts.num_traces(), [&](const TraceBatch& b) { stat.add_batch(b); },
      [&] {
        return std::vector<bool>{BinSpectrum(stat).mlpa().key_rank(key) == 0};
      },
      16);
  for (const TraceBatch& batch : batches_of(ts, 173)) tracker.add_batch(batch);
  tracker.finish();
  EXPECT_GT(tracker.mtd(), 0u);

  EXPECT_EQ(serialized(stat), serialized(bin(ts, 256)));
}

}  // namespace
}  // namespace pgmcml::sca
