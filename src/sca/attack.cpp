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
  FirstPlace first = first_place(true_key, /*mlpa=*/false, model);
  MtdTracker tracker(
      n, [&](const TraceBatch& b) { stat.add_batch(b); },
      [&] { return first(stat, nullptr); }, grid_points);
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
