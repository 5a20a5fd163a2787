// The binned statistic and its scorers vs naive textbook references: the
// transform scores must agree with the two-pass formulas to ~1e-12, batching
// must not change a single bit, merges must be associative, and the
// checkpointed MTD must reproduce the prefix-rerun scan.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/traces.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"

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

/// Streams `ts` into a fresh CPA accumulator with the given batch size.
CpaAccumulator accumulate_cpa(const TraceSet& ts, std::size_t batch_size,
                              LeakageModel model = LeakageModel::kHammingWeight) {
  CpaAccumulator acc(model, ts.samples_per_trace());
  TraceSetSource source(ts, TraceSetSource::kNoLimit, batch_size);
  TraceBatch batch;
  while (source.next(batch)) acc.add_batch(batch);
  return acc;
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
    const CpaResult streamed = accumulate_cpa(ts, 64, model).snapshot();
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
  // Serial add(), one trace at a time...
  CpaAccumulator serial(LeakageModel::kHammingWeight, ts.samples_per_trace());
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    serial.add(ts.plaintext(i), ts.trace(i));
  }
  // ...vs two very different batchings of the same stream.
  const CpaResult a = serial.snapshot(true);
  const CpaResult b = accumulate_cpa(ts, 7).snapshot(true);
  const CpaResult c = accumulate_cpa(ts, 256).snapshot(true);
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
  const auto chunk = [&](std::size_t lo, std::size_t hi) {
    CpaAccumulator acc(LeakageModel::kHammingWeight, ts.samples_per_trace());
    for (std::size_t i = lo; i < hi; ++i) acc.add(ts.plaintext(i), ts.trace(i));
    return acc;
  };
  CpaAccumulator ab = chunk(0, 100);
  ab.merge(chunk(100, 200));
  ab.merge(chunk(200, 300));  // (a + b) + c

  CpaAccumulator bc = chunk(100, 200);
  bc.merge(chunk(200, 300));
  CpaAccumulator a_bc = chunk(0, 100);
  a_bc.merge(bc);  // a + (b + c)

  const CpaResult streamed = accumulate_cpa(ts, 256).snapshot();
  const CpaResult left = ab.snapshot();
  const CpaResult right = a_bc.snapshot();
  EXPECT_EQ(ab.num_traces(), 300u);
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(left.peak_correlation[k], right.peak_correlation[k], 1e-12);
    EXPECT_NEAR(left.peak_correlation[k], streamed.peak_correlation[k], 1e-12);
  }
}

TEST(CpaAccumulator, ShardedAccumulationMatchesStreaming) {
  const TraceSet ts = synthetic_traces(0x0f, 500, 1.0, 1.5);
  const CpaResult sharded = cpa_accumulate_sharded(
      ts, LeakageModel::kHammingWeight, /*shard_size=*/100).snapshot();
  const CpaResult streamed = accumulate_cpa(ts, 128).snapshot();
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(sharded.peak_correlation[k], streamed.peak_correlation[k],
                1e-12);
  }
  EXPECT_EQ(sharded.best_guess, streamed.best_guess);
}

TEST(CpaAccumulator, EmptyAndSingleTraceSnapshots) {
  CpaAccumulator acc(LeakageModel::kHammingWeight, 10);
  EXPECT_EQ(acc.snapshot().best_guess, -1);
  EXPECT_EQ(acc.snapshot().key_rank(0x2b), -1);
  acc.add(0x12, std::vector<double>(10, 1.0));
  EXPECT_EQ(acc.num_traces(), 1u);
  // A single trace has no variance: still no verdict, matching cpa_attack,
  // and no rank that would read as a disclosure.
  EXPECT_EQ(acc.snapshot().best_guess, -1);
  EXPECT_EQ(acc.snapshot().key_rank(0x2b), -1);
}

TEST(CpaAccumulator, RaggedTraceThrows) {
  CpaAccumulator acc(LeakageModel::kHammingWeight, 10);
  EXPECT_THROW(acc.add(0, std::vector<double>(9, 0.0)), std::invalid_argument);
  CpaAccumulator other(LeakageModel::kHammingWeight, 11);
  EXPECT_THROW(acc.merge(other), std::invalid_argument);
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

  DpaAccumulator acc(16);
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 64);
  TraceBatch batch;
  while (source.next(batch)) acc.add_batch(batch);
  const DpaResult streamed = acc.snapshot();

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
  DpaAccumulator whole(ts.samples_per_trace());
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    whole.add(ts.plaintext(i), ts.trace(i));
  }
  DpaAccumulator lo(ts.samples_per_trace());
  DpaAccumulator hi(ts.samples_per_trace());
  for (std::size_t i = 0; i < 100; ++i) lo.add(ts.plaintext(i), ts.trace(i));
  for (std::size_t i = 100; i < 200; ++i) hi.add(ts.plaintext(i), ts.trace(i));
  lo.merge(hi);
  const DpaResult a = whole.snapshot();
  const DpaResult b = lo.snapshot();
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(a.peak_difference[k], b.peak_difference[k], 1e-12);
  }

  // Batched vs serial is exact (each guess walks the stream in trace order).
  DpaAccumulator batched(ts.samples_per_trace());
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 33);
  TraceBatch batch;
  while (source.next(batch)) batched.add_batch(batch);
  const DpaResult c = batched.snapshot();
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

  TvlaAccumulator acc(m);
  for (const auto& t : fixed) acc.add(true, t);
  for (const auto& t : random) acc.add(false, t);
  const TvlaResult streamed = acc.snapshot();

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

  // The unified batch entry point agrees too (it wraps the accumulator).
  const TvlaResult batch = tvla_t_test(fixed, random);
  ASSERT_EQ(batch.t_statistic.size(), streamed.t_statistic.size());
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(batch.t_statistic[j], streamed.t_statistic[j]);  // same engine
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

  TvlaAccumulator serial(12);
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    serial.add(ts.plaintext(i) == fixed_pt, ts.trace(i));
  }
  TvlaAccumulator batched(12);
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 31);
  TraceBatch batch;
  while (source.next(batch)) batched.add_batch(batch, fixed_pt);

  const TvlaResult a = serial.snapshot();
  const TvlaResult b = batched.snapshot();
  EXPECT_EQ(a.fixed_traces, b.fixed_traces);
  EXPECT_EQ(a.random_traces, b.random_traces);
  ASSERT_EQ(a.t_statistic.size(), b.t_statistic.size());
  for (std::size_t j = 0; j < a.t_statistic.size(); ++j) {
    EXPECT_EQ(a.t_statistic[j], b.t_statistic[j]);  // bitwise
  }
}

TEST(TvlaAccumulator, RaggedAndUnderfilledInputs) {
  TvlaAccumulator acc(8);
  EXPECT_THROW(acc.add(true, std::vector<double>(7, 0.0)),
               std::invalid_argument);
  // One trace per class: counts reported, no t-statistic yet.
  acc.add(true, std::vector<double>(8, 1.0));
  acc.add(false, std::vector<double>(8, 0.0));
  const TvlaResult r = acc.snapshot();
  EXPECT_EQ(r.fixed_traces, 1u);
  EXPECT_EQ(r.random_traces, 1u);
  EXPECT_TRUE(r.t_statistic.empty());
  EXPECT_FALSE(r.leaks());
}

TEST(TvlaAccumulator, MergeMatchesOnePass) {
  util::Rng rng(31);
  const std::size_t m = 10;
  TvlaAccumulator whole(m), lo(m), hi(m);
  for (int i = 0; i < 120; ++i) {
    std::vector<double> tr(m);
    for (auto& v : tr) v = rng.gaussian(i % 2 ? 0.2 : 0.0, 1.0);
    const bool is_fixed = (i % 2) != 0;
    whole.add(is_fixed, tr);
    (i < 60 ? lo : hi).add(is_fixed, tr);
  }
  lo.merge(hi);
  const TvlaResult a = whole.snapshot();
  const TvlaResult b = lo.snapshot();
  ASSERT_EQ(a.t_statistic.size(), b.t_statistic.size());
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(a.t_statistic[j], b.t_statistic[j], 1e-10);
  }
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
    const CpaResult r = cpa_attack(traces.prefix(grid[gi]), model);
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

  // The public entry point (single pass under the hood)...
  EXPECT_EQ(measurements_to_disclosure(ts, key, LeakageModel::kHammingWeight, 8),
            oracle);

  // ...and the tracker fed in awkward batch sizes that straddle every grid
  // boundary.
  for (std::size_t batch_size : {1ul, 97ul, 613ul}) {
    BinnedMoments stat(ts.samples_per_trace());
    MtdTracker tracker = cpa_tracker(stat, key, ts.num_traces(), 8);
    TraceSetSource source(ts, TraceSetSource::kNoLimit, batch_size);
    TraceBatch batch;
    while (source.next(batch)) tracker.add_batch(batch);
    tracker.finish();
    EXPECT_EQ(tracker.mtd(), oracle) << "batch size " << batch_size;
  }
}

TEST(MtdTracker, FullSetSnapshotIsTheUnsplitAccumulator) {
  const TraceSet ts = synthetic_traces(0x42, 600, 1.0, 4.0, 20);
  BinnedMoments stat(ts.samples_per_trace());
  MtdTracker tracker = cpa_tracker(stat, 0x42, ts.num_traces(), 16);
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 173);
  TraceBatch batch;
  while (source.next(batch)) tracker.add_batch(batch);
  // The checkpoint splits must not perturb the final statistics by one ulp.
  const CpaResult via_tracker = BinSpectrum(stat).cpa(
      LeakageModel::kHammingWeight);
  const CpaResult plain = accumulate_cpa(ts, 256).snapshot();
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
  EXPECT_EQ(measurements_to_disclosure(ts, 0x11,
                                       LeakageModel::kHammingWeight, 4),
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
  EXPECT_EQ(measurements_to_disclosure(ts.prefix(3), 0x11,
                                       LeakageModel::kHammingWeight, 4),
            0u);
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

TEST(SecondOrderCpa, StreamingMatchesTraceSetEntryPoint) {
  // Second-order preprocessing is two source passes (mean, then centered
  // square): both entry points must land on the same statistics.
  const TraceSet ts = synthetic_traces(0x2b, 250, 1.0, 0.7, 24);
  const CpaResult from_set = second_order_cpa(ts);
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 41);
  const CpaResult from_source = second_order_cpa(source);
  for (int k = 0; k < 256; ++k) {
    EXPECT_NEAR(from_set.peak_correlation[k], from_source.peak_correlation[k],
                1e-12);
  }
  EXPECT_EQ(from_set.best_guess, from_source.best_guess);
}

}  // namespace
}  // namespace pgmcml::sca
