// Oracle for the scorers: sca::BinSpectrum against the reference copy of the
// BinSpectrum it replaced (reference_spectrum.hpp).  Every CPA peak and time
// curve (all three leakage models), every DPA and MLPA score, every
// static-power correlation and every first-place answer under carried
// rivals must match bit for bit, on random statistics of 1 to 600 samples
// and 0 to 2,000 traces, with empty bins and a column that never varies.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"
#include "reference_spectrum.hpp"

namespace pgmcml::sca {
namespace {

constexpr std::uint8_t kKey = 0x6e;
constexpr LeakageModel kModels[] = {LeakageModel::kHammingWeight,
                                    LeakageModel::kSboxBit0,
                                    LeakageModel::kIdentity};

/// Fails unless `a` and `b` hold the same bits (so -0 differs from +0).
void expect_bitwise(const std::array<double, 256>& a,
                    const std::array<double, 256>& b, const std::string& what) {
  for (int k = 0; k < 256; ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k]),
              std::bit_cast<std::uint64_t>(b[k]))
        << what << ", guess " << k << ": " << a[k] << " vs " << b[k];
  }
}

/// Traces whose sample 0 (when there is more than one) never varies, whose
/// other samples leak alpha * HW(sbox(p ^ kKey)) at a few points plus
/// Gaussian noise, and whose plaintexts avoid the bins 0x40..0x4f.
std::vector<std::pair<std::uint8_t, std::vector<double>>> random_traces(
    std::size_t n, std::size_t samples, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<std::uint8_t, std::vector<double>>> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t p;
    do {
      p = static_cast<std::uint8_t>(rng.bounded(256));
    } while (p >= 0x40 && p < 0x50);
    std::vector<double> trace(samples);
    const double leak =
        0.3 * util::hamming_weight(aes::reduced_target(p, kKey));
    for (std::size_t j = 0; j < samples; ++j) {
      trace[j] = samples > 1 && j == 0 ? 1.5 : rng.gaussian(0.0, 1.0);
      if (j % 5 == 3) trace[j] += leak;
    }
    out.emplace_back(p, std::move(trace));
  }
  return out;
}

void expect_scores_identical(const BinnedMoments& stat,
                             const std::string& what) {
  const BinSpectrum live(stat);
  const reference::BinSpectrum ref(stat);
  for (const LeakageModel model : kModels) {
    const std::string m = what + ", model " +
                          std::to_string(static_cast<int>(model));
    const CpaResult a = live.cpa(model, /*keep_time_curves=*/true);
    const CpaResult b = ref.cpa(model, /*keep_time_curves=*/true);
    expect_bitwise(a.peak_correlation, b.peak_correlation, m + " CPA peaks");
    EXPECT_EQ(a.best_guess, b.best_guess) << m;
    ASSERT_EQ(a.correlation_vs_time.size(), b.correlation_vs_time.size()) << m;
    for (std::size_t j = 0; j < a.correlation_vs_time.size(); ++j) {
      expect_bitwise(a.correlation_vs_time[j], b.correlation_vs_time[j],
                     m + " CPA column " + std::to_string(j));
    }
    for (const std::size_t column : {std::size_t{0},
                                     stat.samples_per_trace() / 2,
                                     stat.samples_per_trace()}) {
      const StaticPowerResult s =
          live.static_power(model, column, StaticWindow::kAsleep);
      const StaticPowerResult t =
          ref.static_power(model, column, StaticWindow::kAsleep);
      expect_bitwise(s.correlation, t.correlation,
                     m + " static column " + std::to_string(column));
      EXPECT_EQ(s.best_guess, t.best_guess) << m;
      EXPECT_EQ(s.traces, t.traces) << m;
    }
  }
  const DpaResult dpa = ref.dpa();
  const MlpaResult mlpa = ref.mlpa();
  expect_bitwise(live.dpa().peak_difference, dpa.peak_difference, what + " DPA");
  expect_bitwise(live.mlpa().score, mlpa.score, what + " MLPA");
  const auto [dpa2, mlpa2] = live.dpa_and_mlpa();
  expect_bitwise(dpa2.peak_difference, dpa.peak_difference,
                 what + " DPA beside MLPA");
  expect_bitwise(mlpa2.score, mlpa.score, what + " MLPA beside DPA");
  EXPECT_EQ(live.dpa().best_guess, dpa.best_guess) << what;
  EXPECT_EQ(dpa2.best_guess, dpa.best_guess) << what;
  EXPECT_EQ(mlpa2.best_guess, mlpa.best_guess) << what;
}

TEST(BinSpectrumOracle, FullScorersMatchTheReferenceBitForBit) {
  std::uint64_t seed = 1;
  for (const std::size_t samples : {1ul, 7ul, 8ul, 9ul, 13ul, 600ul}) {
    for (const std::size_t traces : {0ul, 1ul, 2ul, 3ul, 40ul, 2000ul}) {
      BinnedMoments stat(samples);
      for (const auto& [p, trace] : random_traces(traces, samples, ++seed)) {
        stat.add(p, trace);
      }
      expect_scores_identical(stat, std::to_string(samples) + " samples, " +
                                        std::to_string(traces) + " traces");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BinSpectrumOracle, StaticProjectionsMatchTheReferenceBitForBit) {
  for (const std::size_t traces : {3ul, 40ul, 2000ul}) {
    TraceBatch batch;
    for (const auto& [p, trace] : random_traces(traces, 13, 7 * traces)) {
      batch.add(p, trace);
    }
    BinnedMoments windows(kStaticWindows.size());
    add_window_means(windows, kStaticWindows, 13, batch);
    const BinSpectrum live(windows);
    const reference::BinSpectrum ref(windows);
    for (std::size_t c = 0; c < kStaticWindows.size(); ++c) {
      for (const LeakageModel model : kModels) {
        expect_bitwise(
            live.static_power(model, c, kStaticWindows[c]).correlation,
            ref.static_power(model, c, kStaticWindows[c]).correlation,
            std::to_string(traces) + " holds, window " + std::to_string(c));
      }
    }
  }
}

TEST(BinSpectrumOracle, FirstPlaceAnswersMatchTheReferenceUnderCarriedRivals) {
  // Growing prefixes of one stream, rivals carried from each checkpoint to
  // the next on both sides.  Every key for the narrow statistic; for the
  // wide one the leaking key and a spread of others.
  for (const std::size_t samples : {9ul, 600ul}) {
    const auto stream = random_traces(2000, samples, 11 * samples);
    std::vector<int> keys;
    for (int k = 0; k < 256; k += samples > 100 ? 37 : 1) keys.push_back(k);
    keys.push_back(kKey);
    std::vector<BinSpectrum::Rivals> rivals(keys.size());
    std::vector<int> ref_cpa(keys.size(), -1), ref_mlpa(keys.size(), -1);
    BinnedMoments stat(samples);
    std::size_t fed = 0;
    for (const std::size_t upto : {1ul, 2ul, 3ul, 40ul, 300ul, 2000ul}) {
      for (; fed < upto; ++fed) stat.add(stream[fed].first, stream[fed].second);
      const BinSpectrum live(stat);
      const reference::BinSpectrum ref(stat);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto k = static_cast<std::uint8_t>(keys[i]);
        const BinSpectrum::KeyFirst first =
            live.key_first(LeakageModel::kHammingWeight, k, true, rivals[i]);
        EXPECT_EQ(first.cpa,
                  ref.cpa_first(LeakageModel::kHammingWeight, k, ref_cpa[i]))
            << samples << " samples, key " << keys[i] << " after " << upto;
        EXPECT_EQ(first.mlpa, ref.mlpa_first(k, ref_mlpa[i]))
            << samples << " samples, key " << keys[i] << " after " << upto;
      }
    }
  }
}

}  // namespace
}  // namespace pgmcml::sca
