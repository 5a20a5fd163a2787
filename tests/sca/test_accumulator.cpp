// The binned statistic and its scorers vs naive textbook references: the
// transform scores must agree with the two-pass formulas to ~1e-12, batching
// must not change a single bit, merges must be associative, and the
// checkpointed MTD must reproduce the prefix-rerun scan.  Suites named after
// an attack (CpaAccumulator, ...) pin that attack's scorer over the
// statistic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/traces.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"
#include "trace_batches.hpp"

namespace pgmcml::sca {
namespace {

/// Synthetic leaky traces: sample `leak_at` leaks alpha * HW(sbox(p ^ key))
/// plus Gaussian noise.
TraceSet synthetic_traces(std::uint8_t key, std::size_t n, double alpha,
                          double noise, std::size_t samples = 32,
                          std::size_t leak_at = 17, std::uint64_t seed = 3) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(samples);
    for (auto& v : tr) v = rng.gaussian(0.0, noise);
    tr[leak_at] += alpha * util::hamming_weight(aes::reduced_target(p, key));
    ts.add(p, tr);
  }
  return ts;
}

/// Streams traces [0, end) of `ts` into a fresh statistic with the given
/// batch size.
BinnedMoments bin(const TraceSet& ts, std::size_t batch_size,
                  std::size_t end = kAllTraces) {
  BinnedMoments stat(ts.samples_per_trace());
  for (const TraceBatch& batch : batches_of(ts, batch_size, end)) {
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

CpaResult cpa_of(const BinnedMoments& stat,
                 LeakageModel model = LeakageModel::kHammingWeight,
                 bool keep_time_curves = false) {
  return BinSpectrum(stat).cpa(model, keep_time_curves);
}

/// Textbook two-pass Pearson peak correlation per guess.
std::array<double, 256> naive_cpa_peaks(const TraceSet& ts,
                                        LeakageModel model) {
  const std::size_t n = ts.num_traces();
  const std::size_t m = ts.samples_per_trace();
  std::array<double, 256> peaks{};
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
    for (std::size_t i = 0; i < n; ++i) ssh += (h[i] - mean_h) * (h[i] - mean_h);
    for (std::size_t j = 0; j < m; ++j) {
      double mean_s = 0.0;
      for (std::size_t i = 0; i < n; ++i) mean_s += ts.trace(i)[j];
      mean_s /= static_cast<double>(n);
      double num = 0.0;
      double sss = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double ds = ts.trace(i)[j] - mean_s;
        num += (h[i] - mean_h) * ds;
        sss += ds * ds;
      }
      const double denom = std::sqrt(ssh * sss);
      const double corr = denom > 0.0 ? num / denom : 0.0;
      peaks[k] = std::max(peaks[k], std::fabs(corr));
    }
  }
  return peaks;
}

TEST(CpaAccumulator, MatchesNaiveTwoPassReference) {
  const TraceSet ts = synthetic_traces(0xa7, 400, 1.0, 0.5);
  // Every leakage model goes through the transform scorer.
  for (const LeakageModel model :
       {LeakageModel::kHammingWeight, LeakageModel::kSboxBit0,
        LeakageModel::kIdentity}) {
    const CpaResult streamed = cpa_of(bin(ts, 64), model);
    const auto naive = naive_cpa_peaks(ts, model);
    for (int k = 0; k < 256; ++k) {
      EXPECT_NEAR(streamed.peak_correlation[k], naive[k], 1e-12)
          << "model " << static_cast<int>(model) << " guess " << k;
    }
    if (model == LeakageModel::kHammingWeight) {
      EXPECT_EQ(streamed.best_guess, 0xa7);
    }
  }
}

TEST(BinSpectrum, FirstPlaceChecksAgreeWithFullRanking) {
  // Every key, carried rivals and growing prefixes: the direct-sum
  // shortcut must answer exactly as key_rank() == 0 on a full scoring --
  // "no" on a 1-trace prefix, where there is no verdict at all.
  const TraceSet ts = synthetic_traces(0x3d, 240, 0.4, 1.0, 24);
  std::vector<BinSpectrum::Rivals> rivals(256);
  BinnedMoments stat(ts.samples_per_trace());
  std::size_t fed = 0;
  for (const std::size_t upto : {1ul, 3ul, 20ul, 60ul, 120ul, 240ul}) {
    for (; fed < upto; ++fed) stat.add(ts.plaintext(fed), ts.trace(fed));
    const BinSpectrum spectrum(stat);
    const CpaResult cpa = spectrum.cpa(LeakageModel::kIdentity);
    const MlpaResult mlpa = spectrum.mlpa();
    for (int key = 0; key < 256; ++key) {
      const auto k = static_cast<std::uint8_t>(key);
      const BinSpectrum::KeyFirst first =
          spectrum.key_first(LeakageModel::kIdentity, k, true, rivals[k]);
      EXPECT_EQ(first.cpa, cpa.key_rank(k) == 0)
          << "key " << key << " after " << upto;
      EXPECT_EQ(first.mlpa, mlpa.key_rank(k) == 0)
          << "key " << key << " after " << upto;
    }
  }
}

TEST(CpaAccumulator, BatchingIsBitwiseIrrelevant) {
  const TraceSet ts = synthetic_traces(0x31, 301, 1.0, 1.0);
  // Serial add(), one trace at a time, vs two very different batchings of
  // the same stream.
  const LeakageModel hw = LeakageModel::kHammingWeight;
  const CpaResult a = cpa_of(bin_range(ts, 0, ts.num_traces()), hw, true);
  const CpaResult b = cpa_of(bin(ts, 7), hw, true);
  const CpaResult c = cpa_of(bin(ts, 256), hw, true);
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(a.peak_correlation[k], b.peak_correlation[k]);  // bitwise
    EXPECT_EQ(a.peak_correlation[k], c.peak_correlation[k]);
  }
  ASSERT_EQ(a.correlation_vs_time.size(), b.correlation_vs_time.size());
  for (std::size_t j = 0; j < a.correlation_vs_time.size(); ++j) {
    for (int k = 0; k < 256; ++k) {
      EXPECT_EQ(a.correlation_vs_time[j][k], b.correlation_vs_time[j][k]);
    }
  }
}

TEST(CpaAccumulator, MergeIsAssociativeAndMatchesStreaming) {
  const TraceSet ts = synthetic_traces(0x5d, 300, 1.0, 2.0);
  BinnedMoments ab = bin_range(ts, 0, 100);
  ab.merge(bin_range(ts, 100, 200));
  ab.merge(bin_range(ts, 200, 300));  // (a + b) + c

  BinnedMoments bc = bin_range(ts, 100, 200);
  bc.merge(bin_range(ts, 200, 300));
  BinnedMoments a_bc = bin_range(ts, 0, 100);
  a_bc.merge(bc);  // a + (b + c)

  const CpaResult streamed = cpa_of(bin(ts, 256));
  const CpaResult left = cpa_of(ab);
  const CpaResult right = cpa_of(a_bc);
  EXPECT_EQ(ab.num_traces(), 300u);
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(left.peak_correlation[k], right.peak_correlation[k], 1e-12);
    EXPECT_NEAR(left.peak_correlation[k], streamed.peak_correlation[k], 1e-12);
  }
}

TEST(CpaAccumulator, EmptyAndSingleTraceSnapshots) {
  BinnedMoments stat(10);
  EXPECT_EQ(cpa_of(stat).best_guess, -1);
  EXPECT_EQ(cpa_of(stat).key_rank(0x2b), -1);
  EXPECT_EQ(BinSpectrum(stat).dpa().key_rank(0x2b), -1);
  stat.add(0x12, std::vector<double>(10, 1.0));
  EXPECT_EQ(stat.num_traces(), 1u);
  // A single trace has no variance: still no verdict, and no rank that
  // would read as a disclosure.
  EXPECT_EQ(cpa_of(stat).best_guess, -1);
  EXPECT_EQ(cpa_of(stat).key_rank(0x2b), -1);
}

TEST(CpaAccumulator, RaggedTraceThrows) {
  BinnedMoments stat(10);
  EXPECT_THROW(stat.add(0, std::vector<double>(9, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(stat.merge(BinnedMoments(11)), std::invalid_argument);
}

TEST(DpaAccumulator, MatchesNaiveDifferenceOfMeans) {
  util::Rng rng(12);
  const std::uint8_t key = 0x9e;
  TraceSet ts(16);
  for (int i = 0; i < 800; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(16);
    for (auto& v : tr) v = rng.gaussian(0.0, 0.5);
    tr[5] += (aes::reduced_target(p, key) & 1) ? 1.0 : 0.0;
    ts.add(p, tr);
  }

  const BinnedMoments stat = bin(ts, 64);
  const DpaResult streamed = BinSpectrum(stat).dpa();

  // Naive reference: partition sums per guess, difference of means.
  for (int k = 0; k < 256; ++k) {
    std::vector<double> sum1(16, 0.0), sum0(16, 0.0);
    std::size_t n1 = 0, n0 = 0;
    for (std::size_t i = 0; i < ts.num_traces(); ++i) {
      const bool bit = (aes::reduced_target(ts.plaintext(i),
                                            static_cast<std::uint8_t>(k)) &
                        1) != 0;
      auto& sums = bit ? sum1 : sum0;
      (bit ? n1 : n0) += 1;
      for (std::size_t j = 0; j < 16; ++j) sums[j] += ts.trace(i)[j];
    }
    ASSERT_GT(n1, 0u);
    ASSERT_GT(n0, 0u);
    double peak = 0.0;
    for (std::size_t j = 0; j < 16; ++j) {
      peak = std::max(peak, std::fabs(sum1[j] / static_cast<double>(n1) -
                                      sum0[j] / static_cast<double>(n0)));
    }
    EXPECT_NEAR(streamed.peak_difference[k], peak, 1e-12) << "guess " << k;
  }
  EXPECT_EQ(streamed.best_guess, key);
}

TEST(DpaAccumulator, MergeMatchesStreamingAndBatchingIsBitwise) {
  const TraceSet ts = synthetic_traces(0x77, 200, 1.0, 0.8);
  const BinnedMoments whole = bin_range(ts, 0, 200);
  BinnedMoments lo = bin_range(ts, 0, 100);
  lo.merge(bin_range(ts, 100, 200));
  const DpaResult a = BinSpectrum(whole).dpa();
  const DpaResult b = BinSpectrum(lo).dpa();
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(a.peak_difference[k], b.peak_difference[k], 1e-12);
  }

  // Batched vs serial is exact (each guess walks the stream in trace order).
  const BinnedMoments batched = bin(ts, 33);
  const DpaResult c = BinSpectrum(batched).dpa();
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(a.peak_difference[k], c.peak_difference[k]);  // bitwise
  }
}

TEST(TvlaAccumulator, MatchesNaiveWelchReference) {
  util::Rng rng(21);
  const std::size_t m = 24;
  std::vector<std::vector<double>> fixed, random;
  for (int i = 0; i < 150; ++i) {
    std::vector<double> f(m), r(m);
    for (std::size_t j = 0; j < m; ++j) {
      f[j] = rng.gaussian(j == 7 ? 0.3 : 0.0, 1.0);  // class difference at 7
      r[j] = rng.gaussian(0.0, 1.0);
    }
    fixed.push_back(f);
    random.push_back(r);
  }

  Moments fixed_class(m), random_class(m);
  for (const auto& t : fixed) fixed_class.add(t);
  for (const auto& t : random) random_class.add(t);
  const TvlaResult streamed = welch_t(fixed_class, random_class);

  // Naive two-pass Welch t per sample.
  const double na = 150.0, nb = 150.0;
  for (std::size_t j = 0; j < m; ++j) {
    double mean_a = 0.0, mean_b = 0.0;
    for (const auto& t : fixed) mean_a += t[j];
    for (const auto& t : random) mean_b += t[j];
    mean_a /= na;
    mean_b /= nb;
    double var_a = 0.0, var_b = 0.0;
    for (const auto& t : fixed) var_a += (t[j] - mean_a) * (t[j] - mean_a);
    for (const auto& t : random) var_b += (t[j] - mean_b) * (t[j] - mean_b);
    var_a /= na - 1.0;
    var_b /= nb - 1.0;
    const double expect = (mean_a - mean_b) / std::sqrt(var_a / na + var_b / nb);
    EXPECT_NEAR(streamed.t_statistic[j], expect, 1e-10) << "sample " << j;
  }
}

TEST(TvlaAccumulator, BatchClassificationIsBitwiseEqualToSerialAdd) {
  const std::uint8_t fixed_pt = 0x52;
  util::Rng rng(5);
  TraceSet ts(12);
  for (int i = 0; i < 240; ++i) {
    // Half the campaign is the fixed class.
    const auto p = (i % 2 == 0) ? fixed_pt
                                : static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(12);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(p, tr);
  }

  // The fixed class read out of the batched bins is the serial Welford of
  // the fixed traces, bit for bit.
  Moments fixed(12), random(12);
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    (ts.plaintext(i) == fixed_pt ? fixed : random).add(ts.trace(i));
  }
  const BinnedMoments batched = bin(ts, 31);

  const TvlaResult a = welch_t(fixed, random);
  const TvlaResult b = welch_t(batched.bin(fixed_pt), random);
  EXPECT_EQ(a.fixed_traces, b.fixed_traces);
  EXPECT_EQ(a.random_traces, b.random_traces);
  ASSERT_EQ(a.t_statistic.size(), b.t_statistic.size());
  for (std::size_t j = 0; j < a.t_statistic.size(); ++j) {
    EXPECT_EQ(a.t_statistic[j], b.t_statistic[j]);  // bitwise
  }
}

TEST(TvlaAccumulator, RaggedAndUnderfilledInputs) {
  Moments fixed(8), random(8);
  EXPECT_THROW(fixed.add(std::vector<double>(7, 0.0)), std::invalid_argument);
  // One trace per class: counts reported, no t-statistic yet.
  fixed.add(std::vector<double>(8, 1.0));
  random.add(std::vector<double>(8, 0.0));
  const TvlaResult r = welch_t(fixed, random);
  EXPECT_EQ(r.fixed_traces, 1u);
  EXPECT_EQ(r.random_traces, 1u);
  EXPECT_TRUE(r.t_statistic.empty());
  EXPECT_FALSE(r.leaks());
}

TEST(TvlaAccumulator, MergeMatchesOnePass) {
  util::Rng rng(31);
  const std::size_t m = 10;
  // Per class: the whole population, and its two halves.
  std::vector<Moments> whole(2, Moments(m)), lo(2, Moments(m)),
      hi(2, Moments(m));
  for (int i = 0; i < 120; ++i) {
    std::vector<double> tr(m);
    for (auto& v : tr) v = rng.gaussian(i % 2 ? 0.2 : 0.0, 1.0);
    whole[i % 2].add(tr);
    (i < 60 ? lo : hi)[i % 2].add(tr);
  }
  lo[0].merge(hi[0]);
  lo[1].merge(hi[1]);
  const TvlaResult a = welch_t(whole[1], whole[0]);
  const TvlaResult b = welch_t(lo[1], lo[0]);
  ASSERT_EQ(a.t_statistic.size(), b.t_statistic.size());
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(a.t_statistic[j], b.t_statistic[j], 1e-10);
  }
}

// The per-attack shells remain only for the repository benchmark's traced
// replay; this is the one test that names them.  Fed the same batches, each
// snapshot() must be exactly the scorer over the statistic src/ runs, so
// the replay keeps timing the arithmetic of the flow and the campaign.
TEST(AccumulatorShells, SnapshotsAreTheScoredStatisticBitForBit) {
  const std::uint8_t fixed_pt = 0x52;
  const std::size_t m = 24;
  util::Rng rng(8);
  TraceSet ts(m);
  for (int i = 0; i < 301; ++i) {
    const auto p = i % 4 == 0 ? fixed_pt
                              : static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(m);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    tr[5] += util::hamming_weight(aes::reduced_target(p, 0x2b));
    ts.add(p, tr);
  }

  const LeakageModel hw = LeakageModel::kHammingWeight;
  CpaAccumulator cpa(hw, m);
  DpaAccumulator dpa(m);
  MlpaAccumulator mlpa(m);
  StaticPowerAccumulator awake(hw, m, StaticWindow::kAwake);
  StaticPowerAccumulator asleep(hw, m, StaticWindow::kAsleep);
  TvlaAccumulator tvla(m);
  BinnedMoments bins(m);
  BinnedMoments windows(kStaticWindows.size());
  Moments fixed(m), random(m);
  for (const TraceBatch& batch : batches_of(ts, 37)) {
    cpa.add_batch(batch);
    dpa.add_batch(batch);
    mlpa.add_batch(batch);
    awake.add_batch(batch);
    asleep.add_batch(batch);
    tvla.add_batch(batch, fixed_pt);
    bins.add_batch(batch);
    add_window_means(windows, kStaticWindows, m, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (batch.plaintexts[i] == fixed_pt ? fixed : random).add(batch.traces[i]);
    }
  }

  EXPECT_EQ(cpa.num_traces(), bins.num_traces());
  const BinSpectrum spectrum(bins);
  const CpaResult cpa_shell = cpa.snapshot();
  const CpaResult cpa_stat = spectrum.cpa(hw);
  EXPECT_EQ(cpa_shell.peak_correlation, cpa_stat.peak_correlation);
  EXPECT_EQ(cpa_shell.best_guess, cpa_stat.best_guess);
  EXPECT_EQ(dpa.snapshot().peak_difference, spectrum.dpa().peak_difference);
  EXPECT_EQ(mlpa.snapshot().score, spectrum.mlpa().score);

  const BinSpectrum held(windows);
  const StaticPowerAccumulator* shells[] = {&awake, &asleep};
  for (std::size_t c = 0; c < kStaticWindows.size(); ++c) {
    const StaticPowerResult shell = shells[c]->snapshot();
    const StaticPowerResult stat = held.static_power(hw, c, kStaticWindows[c]);
    EXPECT_EQ(shell.correlation, stat.correlation) << "column " << c;
    EXPECT_EQ(shell.window, stat.window);
  }

  const TvlaResult tvla_shell = tvla.snapshot();
  const TvlaResult tvla_stat = welch_t(fixed, random);
  EXPECT_EQ(tvla_shell.fixed_traces, tvla_stat.fixed_traces);
  EXPECT_EQ(tvla_shell.random_traces, tvla_stat.random_traces);
  EXPECT_EQ(tvla_shell.t_statistic, tvla_stat.t_statistic);
  EXPECT_GE(tvla_stat.fixed_traces, 2u);
}

/// The retired prefix-rerun MTD scan, kept verbatim as the test oracle.
std::size_t prefix_rerun_mtd(const TraceSet& traces, std::uint8_t true_key,
                             LeakageModel model, std::size_t grid_points) {
  const std::size_t n = traces.num_traces();
  if (n < 4 || grid_points < 2) return 0;
  std::vector<std::size_t> grid;
  for (std::size_t g = 1; g <= grid_points; ++g) {
    grid.push_back(std::max<std::size_t>(4, g * n / grid_points));
  }
  std::vector<bool> success(grid.size(), false);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    const BinnedMoments stat = bin(traces, 256, grid[gi]);
    const CpaResult r = cpa_of(stat, model);
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

/// The MTD of traces [0, end) of `ts` as the flow checks it: first_place()
/// at the grid points of a tracker fed `batch_size` traces at a time.
std::size_t first_place_mtd(const TraceSet& ts, std::uint8_t key,
                            std::size_t grid_points,
                            std::size_t batch_size = kDefaultTraceBatch,
                            std::size_t end = kAllTraces) {
  BinnedMoments stat(ts.samples_per_trace());
  FirstPlace first = first_place(key, /*mlpa=*/false);
  MtdTracker tracker(
      std::min(end, ts.num_traces()),
      [&](const TraceBatch& b) { stat.add_batch(b); },
      [&] { return first(stat, nullptr); }, grid_points);
  for (const TraceBatch& batch : batches_of(ts, batch_size, end)) {
    tracker.add_batch(batch);
  }
  tracker.finish();
  return tracker.mtd();
}

/// A CPA tracker over `stat`, ranking `key` at each point from a full
/// scoring.
MtdTracker cpa_tracker(BinnedMoments& stat, std::uint8_t key,
                       std::size_t expected, std::size_t grid_points) {
  return MtdTracker(
      expected, [&stat](const TraceBatch& b) { stat.add_batch(b); },
      [&stat, key] {
        const CpaResult r = BinSpectrum(stat).cpa(LeakageModel::kHammingWeight);
        return std::vector<bool>{r.key_rank(key) == 0};
      },
      grid_points);
}

TEST(MtdTracker, CheckpointedScanMatchesPrefixRerun) {
  const std::uint8_t key = 0x42;
  const TraceSet ts = synthetic_traces(key, 2000, 1.0, 4.0, 20);
  const std::size_t oracle =
      prefix_rerun_mtd(ts, key, LeakageModel::kHammingWeight, 8);
  ASSERT_GT(oracle, 0u);
  ASSERT_LT(oracle, 2000u);

  // The flow's first-place check (single pass, no full scoring needed)...
  EXPECT_EQ(first_place_mtd(ts, key, 8), oracle);

  // ...and the tracker fed in awkward batch sizes that straddle every grid
  // boundary.
  for (std::size_t batch_size : {1ul, 97ul, 613ul}) {
    BinnedMoments stat(ts.samples_per_trace());
    MtdTracker tracker = cpa_tracker(stat, key, ts.num_traces(), 8);
    for (const TraceBatch& batch : batches_of(ts, batch_size)) {
      tracker.add_batch(batch);
    }
    tracker.finish();
    EXPECT_EQ(tracker.mtd(), oracle) << "batch size " << batch_size;
  }
}

TEST(MtdTracker, FullSetSnapshotIsTheUnsplitAccumulator) {
  const TraceSet ts = synthetic_traces(0x42, 600, 1.0, 4.0, 20);
  BinnedMoments stat(ts.samples_per_trace());
  MtdTracker tracker = cpa_tracker(stat, 0x42, ts.num_traces(), 16);
  for (const TraceBatch& batch : batches_of(ts, 173)) tracker.add_batch(batch);
  // The checkpoint splits must not perturb the final statistics by one ulp.
  const CpaResult via_tracker = cpa_of(stat);
  const CpaResult plain = cpa_of(bin(ts, 256));
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(via_tracker.peak_correlation[k], plain.peak_correlation[k]);
  }
}

TEST(MtdTracker, NeverDisclosedAndDegenerateCampaigns) {
  util::Rng rng(77);
  TraceSet ts(10);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> tr(10);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(static_cast<std::uint8_t>(rng.bounded(256)), tr);
  }
  EXPECT_EQ(first_place_mtd(ts, 0x11, 4),
            prefix_rerun_mtd(ts, 0x11, LeakageModel::kHammingWeight, 4));

  // Sub-minimal campaigns report "never disclosed" without checkpointing.
  BinnedMoments stat(10);
  MtdTracker tiny = cpa_tracker(stat, 0x11, 3, 4);
  TraceBatch one;
  const std::vector<double> zeros(10, 0.0);
  one.add(0x01, zeros);
  tiny.add_batch(one);
  tiny.finish();
  EXPECT_EQ(tiny.mtd(), 0u);
  EXPECT_EQ(stat.num_traces(), 1u);
  EXPECT_EQ(first_place_mtd(ts, 0x11, 4, kDefaultTraceBatch, 3), 0u);
}

TEST(MtdTracker, DisclosureRuleIsTheLastUnbrokenRunOfFirstPlace) {
  using Points = std::vector<std::pair<std::size_t, bool>>;
  EXPECT_EQ(mtd_from_checkpoints(Points{}), 0u);
  EXPECT_EQ(mtd_from_checkpoints(Points{{10, true}, {20, false}}), 0u);
  EXPECT_EQ(mtd_from_checkpoints(
                Points{{10, true}, {20, false}, {30, true}, {40, true}}),
            30u);
  EXPECT_EQ(mtd_from_checkpoints(Points{{10, true}, {20, true}}), 10u);
}

}  // namespace
}  // namespace pgmcml::sca
