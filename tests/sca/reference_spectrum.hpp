// Test-only reference: BinSpectrum as it was before its first-place checks
// fused every direct sum into one pass over the bins and its full scorers
// folded their multiplies into the transform passes, kept unchanged (apart
// from its namespace) as the oracle the production scorers must match bit
// for bit.
// Do not optimise it: its value is that it is the old, obvious code.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"

namespace pgmcml::sca::reference {

/// A BinnedMoments prepared for scoring: the bin counts, the pooled mean
/// and M2 and, computed on the first full scoring and shared by every later
/// one (so one BinSpectrum is not for concurrent use), the Walsh-Hadamard
/// transform of the bin deviations D_p per sample column.  The deviations
/// themselves are read from the referenced statistic, which must outlive
/// the spectrum and stay unchanged while it is scored.
/// Each full scorer then costs one inverse transform per column and model
/// bit.  Columns are transformed kLanes at a time, so every butterfly runs
/// over a contiguous vector of columns.  Below 2 traces every scorer returns
/// its empty verdict (best_guess = -1), matching the batch attacks.
class BinSpectrum {
 public:
  explicit BinSpectrum(const BinnedMoments& stat);
  /// A spectrum reads its statistic: it cannot outlive a temporary one.
  explicit BinSpectrum(BinnedMoments&&) = delete;

  /// Pearson correlation of `model` with every sample column.
  CpaResult cpa(LeakageModel model, bool keep_time_curves = false) const;
  /// Difference of means on bit 0 of the S-box output.
  DpaResult dpa() const;
  /// l2 combination of the 8 bit-partition differences.
  MlpaResult mlpa() const;
  /// |corr| of `model` with column `column` of a static projection, which
  /// holds the means over `window`.
  StaticPowerResult static_power(LeakageModel model, std::size_t column,
                                 StaticWindow window) const;

  /// Whether `key` ranks first under CPA (resp. MLPA), as key_rank() == 0
  /// on cpa() (resp. mlpa()) would say: never below 2 traces.  `rival`
  /// carries the best wrong guess from one checkpoint to the next (start at
  /// -1).  While it still leads the key by more than rounding, scoring just
  /// those two guesses, summed directly over the occupied bins, settles the
  /// answer without the transform.  Otherwise every guess is scored and
  /// `rival` is renewed.
  bool cpa_first(LeakageModel model, std::uint8_t key, int& rival) const;
  bool mlpa_first(std::uint8_t key, int& rival) const;

 private:
  static constexpr std::size_t kLanes = 8;
  using Row = std::array<double, 256>;
  /// 256 rows (one per bin, guess or frequency) of kLanes columns.
  using Block = std::array<double, 256 * kLanes>;

  /// Row k of `out` = 256 * sum_p g(p ^ k) * D_p at columns blk * kLanes +
  /// l, for a model g centred over the 256 values with transform g_hat: for
  /// every k by the transform when guess < 0, else only k = guess, summed
  /// directly, in row 0.  Lanes past the last column read 0.
  void correlate(const Row& g, const Row& g_hat, std::size_t blk, int guess,
                 Block& out) const;
  /// Per column, the Pearson correlation of every guess (guess < 0) or of
  /// one guess (entry 0) under `model`.
  void correlations(LeakageModel model, int guess,
                    const std::function<void(std::size_t, const Row&)>& each)
      const;
  /// max over columns of the l2 norm of the first `bits` partition
  /// differences, per guess (guess < 0) or of one guess (entry 0).
  Row partition_peaks(int bits, int guess) const;

  std::size_t blocks() const { return (m_ + kLanes - 1) / kLanes; }
  /// D_p at column j: counts_[p] * (mean of bin p - pooled mean).
  double deviation(int p, std::size_t j) const {
    return counts_[p] * (bin_mean_[p][j] - mean_[j]);
  }

  std::size_t m_;
  std::size_t n_;
  Row counts_{};
  std::vector<int> occupied_;       ///< bins holding traces
  std::array<const double*, 256> bin_mean_{};  ///< the statistic's bin means
  std::vector<double> mean_;        ///< pooled mean per column
  std::vector<double> m2_;          ///< pooled M2 per column
  mutable std::vector<Block> spectrum_;  ///< H D once a full scorer ran
};

}  // namespace pgmcml::sca::reference
