#include "pgmcml/sca/attack.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
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

int CpaResult::key_rank(std::uint8_t true_key) const {
  int rank = 0;
  const double mine = peak_correlation[true_key];
  for (int k = 0; k < 256; ++k) {
    if (k != true_key && peak_correlation[k] > mine) ++rank;
  }
  return rank;
}

double CpaResult::margin(std::uint8_t true_key) const {
  double best_wrong = 0.0;
  for (int k = 0; k < 256; ++k) {
    if (k != true_key) best_wrong = std::max(best_wrong, peak_correlation[k]);
  }
  return peak_correlation[true_key] - best_wrong;
}

int DpaResult::key_rank(std::uint8_t true_key) const {
  int rank = 0;
  const double mine = peak_difference[true_key];
  for (int k = 0; k < 256; ++k) {
    if (k != true_key && peak_difference[k] > mine) ++rank;
  }
  return rank;
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

int StaticPowerResult::key_rank(std::uint8_t true_key) const {
  int rank = 0;
  const double mine = correlation[true_key];
  for (int k = 0; k < 256; ++k) {
    if (k != true_key && correlation[k] > mine) ++rank;
  }
  return rank;
}

double StaticPowerResult::margin(std::uint8_t true_key) const {
  double best_wrong = 0.0;
  for (int k = 0; k < 256; ++k) {
    if (k != true_key) best_wrong = std::max(best_wrong, correlation[k]);
  }
  return correlation[true_key] - best_wrong;
}

int MlpaResult::key_rank(std::uint8_t true_key) const {
  int rank = 0;
  const double mine = score[true_key];
  for (int k = 0; k < 256; ++k) {
    if (k != true_key && score[k] > mine) ++rank;
  }
  return rank;
}

double MlpaResult::margin(std::uint8_t true_key) const {
  double best_wrong = 0.0;
  for (int k = 0; k < 256; ++k) {
    if (k != true_key) best_wrong = std::max(best_wrong, score[k]);
  }
  return score[true_key] - best_wrong;
}

namespace {

/// One pass over `source` into the statistic every first-order attack reads.
BinnedMoments bin_traces(TraceSource& source) {
  BinnedMoments stat(source.samples_per_trace());
  TraceBatch batch;
  while (source.next(batch)) stat.add_batch(batch);
  return stat;
}

}  // namespace

CpaResult cpa_attack(TraceSource& source, LeakageModel model,
                     bool keep_time_curves) {
  return BinSpectrum(bin_traces(source)).cpa(model, keep_time_curves);
}

CpaResult cpa_attack(const TraceSet& traces, LeakageModel model,
                     bool keep_time_curves) {
  TraceSetSource source(traces);
  return cpa_attack(source, model, keep_time_curves);
}

DpaResult dpa_attack(TraceSource& source) {
  return BinSpectrum(bin_traces(source)).dpa();
}

DpaResult dpa_attack(const TraceSet& traces) {
  TraceSetSource source(traces);
  return dpa_attack(source);
}

CpaResult second_order_cpa(TraceSource& source, LeakageModel model) {
  const std::size_t m = source.samples_per_trace();

  // Pass 1: Welford mean trace.
  std::vector<double> mean(m, 0.0);
  std::size_t n = 0;
  TraceBatch batch;
  while (source.next(batch)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& t = batch.traces[i];
      if (t.size() != m) {
        throw std::invalid_argument("second_order_cpa: ragged trace");
      }
      const double cnt = static_cast<double>(++n);
      for (std::size_t j = 0; j < m; ++j) {
        mean[j] += (t[j] - mean[j]) / cnt;
      }
    }
  }

  // Pass 2: center, square per sample, and stream into the statistic.  The
  // squared batch is the only per-pass storage -- no squared TraceSet copy.
  source.reset();
  BinnedMoments stat(m);
  std::vector<std::vector<double>> squared;
  TraceBatch sq_batch;
  while (source.next(batch)) {
    if (squared.size() < batch.size()) squared.resize(batch.size());
    sq_batch.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& t = batch.traces[i];
      squared[i].resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        const double c = t[j] - mean[j];
        squared[i][j] = c * c;
      }
      sq_batch.add(batch.plaintexts[i], squared[i]);
    }
    stat.add_batch(sq_batch);
  }
  return BinSpectrum(stat).cpa(model);
}

CpaResult second_order_cpa(const TraceSet& traces, LeakageModel model) {
  TraceSetSource source(traces);
  return second_order_cpa(source, model);
}

std::size_t measurements_to_disclosure(TraceSource& source,
                                       std::uint8_t true_key,
                                       LeakageModel model,
                                       std::size_t grid_points) {
  const std::size_t n = source.size_hint();
  if (n == 0) {
    throw std::invalid_argument(
        "measurements_to_disclosure: source has no size hint to build the "
        "checkpoint grid from");
  }
  BinnedMoments stat(source.samples_per_trace());
  int rival = -1;
  MtdTracker tracker(
      n, [&](const TraceBatch& b) { stat.add_batch(b); },
      [&] {
        return std::vector<bool>{
            BinSpectrum(stat).cpa_first(model, true_key, rival)};
      },
      grid_points);
  TraceBatch batch;
  while (source.next(batch)) tracker.add_batch(batch);
  tracker.finish();
  return tracker.mtd();
}

std::size_t measurements_to_disclosure(const TraceSet& traces,
                                       std::uint8_t true_key,
                                       LeakageModel model,
                                       std::size_t grid_points) {
  if (traces.num_traces() < 4 || grid_points < 2) return 0;
  TraceSetSource source(traces);
  return measurements_to_disclosure(source, true_key, model, grid_points);
}

}  // namespace pgmcml::sca
