#include <gtest/gtest.h>

#include <cmath>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/traces.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::sca {
namespace {

/// Synthetic leaky traces: sample j0 leaks alpha * HW(sbox(p ^ key)) plus
/// Gaussian noise.
TraceSet synthetic_traces(std::uint8_t key, std::size_t n, double alpha,
                          double noise, std::size_t samples = 50,
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

/// `ts` folded into the per-plaintext statistic, trace by trace.
BinnedMoments binned(const TraceSet& ts) {
  BinnedMoments stat(ts.samples_per_trace());
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    stat.add(ts.plaintext(i), ts.trace(i));
  }
  return stat;
}

CpaResult cpa_of(const TraceSet& ts, bool keep_time_curves = false) {
  const BinnedMoments stat = binned(ts);
  return BinSpectrum(stat).cpa(LeakageModel::kHammingWeight, keep_time_curves);
}

/// The MTD of `ts` as the flow checks it: first_place() at the points of a
/// `grid_points` grid.
std::size_t first_place_mtd(const TraceSet& ts, std::uint8_t key,
                            std::size_t grid_points) {
  BinnedMoments stat(ts.samples_per_trace());
  FirstPlace first = first_place(key, /*mlpa=*/false);
  MtdTracker tracker(
      ts.num_traces(), [&](const TraceBatch& b) { stat.add_batch(b); },
      [&] { return first(stat, nullptr); }, grid_points);
  TraceSetSource source(ts);
  TraceBatch batch;
  while (source.next(batch)) tracker.add_batch(batch);
  tracker.finish();
  return tracker.mtd();
}

TEST(TraceSet, AddAndQuery) {
  TraceSet ts;
  ts.add(0x12, {1.0, 2.0});
  ts.add(0x34, {3.0, 4.0});
  EXPECT_EQ(ts.num_traces(), 2u);
  EXPECT_EQ(ts.samples_per_trace(), 2u);
  EXPECT_EQ(ts.plaintext(1), 0x34);
  const auto mean = ts.mean_trace();
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 3.0);
}

TEST(TraceSet, RejectsMismatchedLength) {
  TraceSet ts;
  ts.add(0, {1.0, 2.0});
  EXPECT_THROW(ts.add(1, {1.0}), std::invalid_argument);
}

TEST(TraceSet, PrefixRestricts) {
  TraceSet ts;
  for (int i = 0; i < 10; ++i) ts.add(static_cast<std::uint8_t>(i), {double(i)});
  const TraceSet head = ts.prefix(4);
  EXPECT_EQ(head.num_traces(), 4u);
  EXPECT_EQ(head.plaintext(3), 3);
}

TEST(Leakage, PredictModels) {
  EXPECT_DOUBLE_EQ(
      predict_leakage(LeakageModel::kHammingWeight, 0x00, 0x00),
      util::hamming_weight(aes::sbox()[0]));
  EXPECT_DOUBLE_EQ(predict_leakage(LeakageModel::kIdentity, 0x10, 0x20),
                   aes::sbox()[0x30]);
  EXPECT_DOUBLE_EQ(predict_leakage(LeakageModel::kSboxBit0, 0x10, 0x20),
                   aes::sbox()[0x30] & 1);
}

TEST(Cpa, RecoversKeyFromCleanLeak) {
  const std::uint8_t key = 0xa7;
  const TraceSet ts = synthetic_traces(key, 300, 1.0, 0.1);
  const CpaResult r = cpa_of(ts);
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.key_rank(key), 0);
  EXPECT_GT(r.margin(key), 0.0);
  EXPECT_GT(r.peak_correlation[key], 0.9);
}

TEST(Cpa, RecoversKeyUnderHeavyNoise) {
  const std::uint8_t key = 0x3c;
  const TraceSet ts = synthetic_traces(key, 5000, 1.0, 10.0);
  const CpaResult r = cpa_of(ts);
  EXPECT_EQ(r.key_rank(key), 0);
}

TEST(Cpa, FailsOnPureNoise) {
  util::Rng rng(9);
  TraceSet ts(40);
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> tr(40);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(static_cast<std::uint8_t>(rng.bounded(256)), tr);
  }
  const CpaResult r = cpa_of(ts);
  // Everything should be small, statistically indistinguishable noise.
  double lo = 1.0;
  double hi = 0.0;
  for (double v : r.peak_correlation) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(hi, 0.2);
  EXPECT_LT(hi - lo, 0.15);
}

TEST(Cpa, TimeCurvesLocateTheLeak) {
  const std::uint8_t key = 0x55;
  const std::size_t leak_at = 23;
  const TraceSet ts = synthetic_traces(key, 500, 1.0, 0.2, 50, leak_at);
  const CpaResult r = cpa_of(ts, /*keep_time_curves=*/true);
  ASSERT_EQ(r.correlation_vs_time.size(), 50u);
  std::size_t best_t = 0;
  double best = 0.0;
  for (std::size_t t = 0; t < 50; ++t) {
    const double c = std::fabs(r.correlation_vs_time[t][key]);
    if (c > best) {
      best = c;
      best_t = t;
    }
  }
  EXPECT_EQ(best_t, leak_at);
}

TEST(Cpa, EmptyTraceSetIsHandled) {
  const BinnedMoments empty(10);
  const CpaResult r = BinSpectrum(empty).cpa(LeakageModel::kHammingWeight);
  EXPECT_EQ(r.best_guess, -1);
  // No verdict is not a disclosure: the key has no rank.
  EXPECT_EQ(r.key_rank(0x2b), -1);
  EXPECT_EQ(BinSpectrum(empty).dpa().key_rank(0x2b), -1);
}

TEST(Dpa, RecoversKeyFromBitLeak) {
  // Traces leak the S-box output bit 0 directly.
  util::Rng rng(12);
  const std::uint8_t key = 0x9e;
  TraceSet ts(30);
  for (int i = 0; i < 3000; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(30);
    for (auto& v : tr) v = rng.gaussian(0.0, 0.5);
    tr[11] += (aes::reduced_target(p, key) & 1) ? 1.0 : 0.0;
    ts.add(p, tr);
  }
  const BinnedMoments stat = binned(ts);
  const DpaResult r = BinSpectrum(stat).dpa();
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.key_rank(key), 0);
}

TEST(Metrics, KeyRankCountsStrictlyBetterGuesses) {
  CpaResult r;
  r.peak_correlation.fill(0.1);
  r.peak_correlation[5] = 0.9;
  r.peak_correlation[7] = 0.5;
  r.best_guess = 5;  // a scored result (best_guess < 0 would rank nothing)
  EXPECT_EQ(r.key_rank(5), 0);
  EXPECT_EQ(r.key_rank(7), 1);
  EXPECT_GT(r.key_rank(0), 1);
  EXPECT_NEAR(r.margin(5), 0.4, 1e-12);
  EXPECT_NEAR(r.margin(7), -0.4, 1e-12);
}

TEST(Metrics, MtdFindsDisclosurePoint) {
  const std::uint8_t key = 0x42;
  // Moderate noise: needs a few hundred traces.
  const TraceSet ts = synthetic_traces(key, 2000, 1.0, 4.0);
  const std::size_t mtd = first_place_mtd(ts, key, 8);
  EXPECT_GT(mtd, 0u);
  EXPECT_LT(mtd, 2000u);
  // Cross-check: the attack with mtd traces indeed succeeds.
  const CpaResult r = cpa_of(ts.prefix(mtd));
  EXPECT_EQ(r.key_rank(key), 0);
}

TEST(Metrics, MtdZeroWhenNeverDisclosed) {
  util::Rng rng(77);
  TraceSet ts(20);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> tr(20);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(static_cast<std::uint8_t>(rng.bounded(256)), tr);
  }
  // Pure noise: with overwhelming probability some wrong key beats any fixed
  // "true" key on the final prefix.
  const std::size_t mtd = first_place_mtd(ts, 0x11, 4);
  EXPECT_EQ(mtd, 0u);
}

}  // namespace
}  // namespace pgmcml::sca
