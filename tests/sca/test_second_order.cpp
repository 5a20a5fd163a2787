#include <gtest/gtest.h>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::sca {
namespace {

/// First-order-masked leakage: two samples leak HW(v ^ m) and HW(m) for a
/// fresh random mask m.  First-order CPA must fail, second-order succeeds.
TraceSet masked_traces(std::uint8_t key, std::size_t n, double noise,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  TraceSet ts(24);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    const auto m = static_cast<std::uint8_t>(rng.bounded(256));
    const std::uint8_t v = aes::reduced_target(p, key);
    std::vector<double> t(24);
    for (auto& x : t) x = rng.gaussian(0.0, noise);
    t[7] += util::hamming_weight(static_cast<std::uint8_t>(v ^ m));
    t[7] += util::hamming_weight(m);  // co-located shares (univariate case)
    ts.add(p, t);
  }
  return ts;
}

/// First-order CPA over `ts` folded into the per-plaintext statistic.
CpaResult first_order_cpa(const TraceSet& ts) {
  BinnedMoments stat(ts.samples_per_trace());
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    stat.add(ts.plaintext(i), ts.trace(i));
  }
  return BinSpectrum(stat).cpa(LeakageModel::kHammingWeight);
}

TEST(SecondOrder, FirstOrderCpaFailsOnMaskedLeak) {
  const std::uint8_t key = 0x3a;
  const TraceSet ts = masked_traces(key, 4000, 0.3, 9);
  const CpaResult first = first_order_cpa(ts);
  EXPECT_GT(first.key_rank(key), 3);
}

TEST(SecondOrder, SecondOrderCpaBreaksMaskedLeak) {
  const std::uint8_t key = 0x3a;
  const TraceSet ts = masked_traces(key, 4000, 0.3, 9);
  const CpaResult second = second_order_cpa(ts);
  EXPECT_EQ(second.key_rank(key), 0);
  EXPECT_EQ(second.best_guess, key);
}

TEST(SecondOrder, SquaringSuppressesFirstOrderLeak) {
  // The centered-square preprocessing removes the *linear* HW component
  // (HW is symmetric about 4, so (HW-4)^2 is uncorrelated with HW): a plain
  // first-order leak that plain CPA nails is invisible to the second-order
  // variant with the same model.  This is the textbook behaviour.
  util::Rng rng(11);
  const std::uint8_t key = 0x77;
  TraceSet ts(16);
  for (int i = 0; i < 6000; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> t(16);
    for (auto& x : t) x = rng.gaussian(0.0, 0.2);
    t[3] += util::hamming_weight(aes::reduced_target(p, key));
    ts.add(p, t);
  }
  EXPECT_EQ(first_order_cpa(ts).key_rank(key), 0);    // first order: broken
  EXPECT_GT(second_order_cpa(ts).key_rank(key), 3);   // second order: blind
}

TEST(SecondOrder, EmptyTraceSetHandled) {
  const CpaResult r = second_order_cpa(TraceSet(8));
  EXPECT_EQ(r.best_guess, -1);
}

}  // namespace
}  // namespace pgmcml::sca
