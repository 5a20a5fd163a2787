#include "pgmcml/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace pgmcml::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningCorrelation::add(double x, double y) {
  ++n_;
  const double inv_n = 1.0 / static_cast<double>(n_);
  const double dx = x - mean_x_;
  const double dy = y - mean_y_;
  mean_x_ += dx * inv_n;
  mean_y_ += dy * inv_n;
  m2_x_ += dx * (x - mean_x_);
  m2_y_ += dy * (y - mean_y_);
  cov_ += dx * (y - mean_y_);
}

double RunningCorrelation::correlation() const {
  if (n_ < 2) return 0.0;
  const double denom = std::sqrt(m2_x_ * m2_y_);
  if (denom <= 0.0) return 0.0;
  return cov_ / denom;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("pearson: length mismatch");
  }
  RunningCorrelation rc;
  for (std::size_t i = 0; i < xs.size(); ++i) rc.add(xs[i], ys[i]);
  return rc.correlation();
}

std::size_t argmax(std::span<const double> xs) {
  if (xs.empty()) return 0;
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

double lerp(double x0, double y0, double x1, double y1, double x) {
  if (x1 == x0) return y0;
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

int hamming_weight(std::uint64_t v) { return __builtin_popcountll(v); }

}  // namespace pgmcml::util
