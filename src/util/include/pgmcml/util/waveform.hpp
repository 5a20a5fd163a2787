// Piecewise-linear waveform: the common currency between the SPICE engine,
// the fast power-trace composer, and the side-channel attack code.
//
// A Waveform is an ordered list of (time, value) breakpoints with linear
// interpolation between them, flat extrapolation outside them, and the
// measurement helpers circuit characterization needs (threshold crossings,
// integrals, resampling onto a fixed grid).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace pgmcml::util {

class Waveform {
 public:
  struct Point {
    double t;
    double v;
  };

  Waveform() = default;
  explicit Waveform(std::vector<Point> points);

  /// Appends a sample; time must be non-decreasing.
  void append(double t, double v);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Point& operator[](std::size_t i) const { return points_[i]; }
  const std::vector<Point>& points() const { return points_; }

  double t_begin() const;
  double t_end() const;

  /// Linear interpolation; clamps to the first/last value outside the span.
  double value_at(double t) const;

  double min_value() const;
  double max_value() const;

  /// Integral of v dt over [t0, t1] (clipped to the waveform span, with flat
  /// extrapolation applied to any uncovered portion of the interval).
  double integral(double t0, double t1) const;

  /// Time average over [t0, t1].
  double average(double t0, double t1) const;
  /// Time average over the full span.
  double average() const;

  /// First time >= t_from at which the waveform crosses `level` in the given
  /// direction (+1 rising, -1 falling, 0 either).
  std::optional<double> crossing(double level, int direction = 0,
                                 double t_from = -1e300) const;

  /// Resamples onto a uniform grid of `n` samples covering [t0, t1].
  std::vector<double> sample_uniform(double t0, double t1, std::size_t n) const;

  /// Returns a waveform scaled by `k` in value.
  Waveform scaled(double k) const;

  /// Adds another waveform (sampled at the union of breakpoints).
  Waveform plus(const Waveform& other) const;

  /// Renders a coarse ASCII plot, `width` columns by `height` rows.
  std::string ascii_plot(std::size_t width = 72, std::size_t height = 12,
                         const std::string& label = "") const;

 private:
  std::vector<Point> points_;
};

/// Accumulates current contributions on a shared uniform time grid: kernels
/// in O(kernel length), levels in O(level length), read out as a plain
/// vector.  Every add lands on the samples span() returns, so a composer
/// that keeps its own add order (power::PowerTracer::compose_into, which
/// lays the static and wake/sleep floors here and then adds the per-event
/// kernels and levels through samples()) clips exactly as this class does.
class GridAccumulator {
 public:
  GridAccumulator(double t0, double dt, std::size_t n);

  /// Same, but recycles `storage`'s heap buffer for the grid (moved-from and
  /// zeroed).  Streaming producers composing one trace per slot reuse the
  /// slot's allocation across batches instead of reallocating per trace.
  GridAccumulator(double t0, double dt, std::size_t n,
                  std::vector<double>&& storage);

  double t0() const { return t0_; }
  double dt() const { return dt_; }
  std::size_t size() const { return values_.size(); }

  /// Adds a piecewise-linear kernel starting at time `t_start`.  Like
  /// add_level(), clipped to the grid: a no-op on an empty one.
  void add_kernel(double t_start, const Waveform& kernel, double scale = 1.0);

  /// Adds a constant level over [t_on, t_off).
  void add_level(double t_on, double t_off, double level);

  /// Sample indices [first, last] of an interval clipped to the grid.
  struct Span {
    std::size_t first = 1;
    std::size_t last = 0;
    bool empty() const { return first > last; }
    std::size_t size() const { return empty() ? 0 : last - first + 1; }
  };
  /// The samples add_kernel() and add_level() touch for the interval
  /// [t_lo, t_hi]: the grid points inside it, to 1e-9 of a step.  Empty on
  /// an empty grid or when the interval misses every grid point.
  Span span(double t_lo, double t_hi) const;

  /// The samples themselves, for composers that add in their own order.
  std::span<double> samples() { return values_; }

  const std::vector<double>& values() const { return values_; }
  std::vector<double> take() { return std::move(values_); }

  double time_of(std::size_t index) const {
    return t0_ + dt_ * static_cast<double>(index);
  }

 private:
  double t0_;
  double dt_;
  std::vector<double> values_;
};

}  // namespace pgmcml::util
