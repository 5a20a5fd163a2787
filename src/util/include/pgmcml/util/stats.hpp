// Small statistics toolkit: online accumulators and Pearson correlation.
// Used by the characterization flows and by the CPA attack engine, where the
// incremental (single-pass) forms keep the 65k-trace attacks cache friendly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pgmcml::util {

/// Welford online accumulator for mean and variance.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n).
  double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Online accumulator for the Pearson correlation of paired samples.
///
/// Maintains co-moments so traces can stream through the attack one at a
/// time; `correlation()` may be queried after any number of updates.
class RunningCorrelation {
 public:
  void add(double x, double y);
  std::size_t count() const { return n_; }
  /// Pearson r; returns 0 when either series has zero variance.
  double correlation() const;

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2_x_ = 0.0;
  double m2_y_ = 0.0;
  double cov_ = 0.0;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);
/// Pearson correlation of two equal-length series (0 if degenerate).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Index of the maximum element (0 when empty).
std::size_t argmax(std::span<const double> xs);

/// Linear interpolation helper: y at `x` on segment (x0,y0)-(x1,y1).
double lerp(double x0, double y0, double x1, double y1, double x);

/// Population Hamming weight of a 64-bit word.
int hamming_weight(std::uint64_t v);

}  // namespace pgmcml::util
