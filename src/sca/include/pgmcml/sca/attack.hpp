// Power-analysis attacks on the reduced AES target (S-box output of
// plaintext XOR key):
//   * Correlation power analysis (Brier/Clavier/Olivier, CHES 2004): Pearson
//     correlation between the measured samples and a leakage model of the
//     predicted intermediate, for each of the 256 key guesses.
//   * Classic difference-of-means DPA (Kocher, CRYPTO 1999) on one predicted
//     bit.
// Success metrics: best guess, rank of the true key, distinguishability
// margin.
//
// This header holds the leakage models and the result records.  Every
// attack is scored one way (accumulator.hpp): traces fold once into
// BinnedMoments (two Moments for TVLA), and BinSpectrum, welch_t and
// first_place/MtdTracker score that statistic.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>


namespace pgmcml::sca {

enum class LeakageModel {
  kHammingWeight,  ///< HW(sbox(p ^ k)) -- the model used in the paper
  kSboxBit0,       ///< single predicted bit (for DPA partitioning)
  kIdentity,       ///< raw intermediate value
};

/// Leakage prediction for plaintext p under key guess k.
double predict_leakage(LeakageModel model, std::uint8_t plaintext,
                       std::uint8_t key_guess);

/// Rank of `key` among the 256 guess scores (0 = ranked first, the attack
/// succeeded); -1 without a verdict (best_guess < 0: too few traces).
int rank_of(const std::array<double, 256>& scores, int best_guess,
            std::uint8_t key);
/// Score of `key` minus the best wrong guess's (positive = distinguishable).
double margin_of(const std::array<double, 256>& scores, std::uint8_t key);

struct CpaResult {
  /// max_t |corr(guess, t)| for each key guess.
  std::array<double, 256> peak_correlation{};
  /// Correlation-vs-time for each guess (the Fig. 6 curves).
  std::vector<std::array<double, 256>> correlation_vs_time;
  int best_guess = -1;

  int key_rank(std::uint8_t key) const {
    return rank_of(peak_correlation, best_guess, key);
  }
  double margin(std::uint8_t key) const {
    return margin_of(peak_correlation, key);
  }
};

struct DpaResult {
  /// max_t |mean1(t) - mean0(t)| for each key guess.
  std::array<double, 256> peak_difference{};
  int best_guess = -1;
  int key_rank(std::uint8_t key) const {
    return rank_of(peak_difference, best_guess, key);
  }
};

/// Which gating phase of a quiescent trace the static-power attack reads.
/// Static acquisitions lay the trace out as [awake hold | asleep hold]: the
/// first half samples the leakage with the circuit powered and holding its
/// state, the second half with the block gated off (non-gated styles simply
/// keep holding, so both windows see the same physics).
enum class StaticWindow {
  kAll,     ///< average the whole trace
  kAwake,   ///< first half: powered, state held
  kAsleep,  ///< second half: gated off (PG-MCML) or continued hold
};

/// Sample range [lo, hi) of `window` within an m-sample quiescent trace.
std::pair<std::size_t, std::size_t> static_window_bounds(StaticWindow window,
                                                         std::size_t m);

std::string_view to_string(StaticWindow window);

/// Static-power CPA verdict (Bhandari et al. style): Pearson correlation
/// between the leakage model and the per-trace mean quiescent current over
/// one gating window.
struct StaticPowerResult {
  /// |corr(guess)| of the window-averaged quiescent current.
  std::array<double, 256> correlation{};
  int best_guess = -1;
  StaticWindow window = StaticWindow::kAll;
  std::size_t traces = 0;

  int key_rank(std::uint8_t key) const {
    return rank_of(correlation, best_guess, key);
  }
  double margin(std::uint8_t key) const { return margin_of(correlation, key); }
};

/// MLPA verdict (Roche & Tavernier): the 8 single-bit partition biases of
/// each guess combined multi-linearly (l2 over the bit hypotheses).
struct MlpaResult {
  /// max_t sqrt(sum_b diff_b(t)^2) for each key guess.
  std::array<double, 256> score{};
  int best_guess = -1;

  int key_rank(std::uint8_t key) const {
    return rank_of(score, best_guess, key);
  }
  double margin(std::uint8_t key) const { return margin_of(score, key); }
};

}  // namespace pgmcml::sca
