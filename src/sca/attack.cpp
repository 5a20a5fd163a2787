#include "pgmcml/sca/attack.hpp"

#include <algorithm>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::sca {

double predict_leakage(LeakageModel model, std::uint8_t plaintext,
                       std::uint8_t key_guess) {
  const std::uint8_t v = aes::reduced_target(plaintext, key_guess);
  switch (model) {
    case LeakageModel::kHammingWeight:
      return static_cast<double>(util::hamming_weight(v));
    case LeakageModel::kSboxBit0:
      return static_cast<double>(v & 1);
    case LeakageModel::kIdentity:
      return static_cast<double>(v);
  }
  return 0.0;
}

int rank_of(const std::array<double, 256>& scores, int best_guess,
            std::uint8_t key) {
  if (best_guess < 0) return -1;
  int rank = 0;
  for (int k = 0; k < 256; ++k) {
    if (k != key && scores[k] > scores[key]) ++rank;
  }
  return rank;
}

double margin_of(const std::array<double, 256>& scores, std::uint8_t key) {
  double best_wrong = 0.0;
  for (int k = 0; k < 256; ++k) {
    if (k != key) best_wrong = std::max(best_wrong, scores[k]);
  }
  return scores[key] - best_wrong;
}

std::pair<std::size_t, std::size_t> static_window_bounds(StaticWindow window,
                                                         std::size_t m) {
  // The awake window takes the rounding slack so a 1-sample trace still has
  // a non-empty awake half.
  const std::size_t split = (m + 1) / 2;
  switch (window) {
    case StaticWindow::kAll: return {0, m};
    case StaticWindow::kAwake: return {0, split};
    case StaticWindow::kAsleep: return {split, m};
  }
  return {0, m};
}

std::string_view to_string(StaticWindow window) {
  switch (window) {
    case StaticWindow::kAll: return "all";
    case StaticWindow::kAwake: return "awake";
    case StaticWindow::kAsleep: return "asleep";
  }
  return "all";
}

}  // namespace pgmcml::sca
