#include "pgmcml/util/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "pgmcml/util/stats.hpp"
#include "pgmcml/util/units.hpp"

namespace pgmcml::util {

Waveform::Waveform(std::vector<Point> points) : points_(std::move(points)) {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].t < points_[i - 1].t) {
      throw std::invalid_argument("Waveform: points must be time-sorted");
    }
  }
}

void Waveform::append(double t, double v) {
  if (!points_.empty() && t < points_.back().t) {
    throw std::invalid_argument("Waveform::append: time must be non-decreasing");
  }
  points_.push_back({t, v});
}

double Waveform::t_begin() const {
  return points_.empty() ? 0.0 : points_.front().t;
}

double Waveform::t_end() const {
  return points_.empty() ? 0.0 : points_.back().t;
}

double Waveform::value_at(double t) const {
  if (points_.empty()) return 0.0;
  if (t <= points_.front().t) return points_.front().v;
  if (t >= points_.back().t) return points_.back().v;
  // Binary search for the segment containing t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double time, const Point& p) { return time < p.t; });
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  return lerp(lo.t, lo.v, hi.t, hi.v, t);
}

double Waveform::min_value() const {
  double m = points_.empty() ? 0.0 : points_.front().v;
  for (const Point& p : points_) m = std::min(m, p.v);
  return m;
}

double Waveform::max_value() const {
  double m = points_.empty() ? 0.0 : points_.front().v;
  for (const Point& p : points_) m = std::max(m, p.v);
  return m;
}

double Waveform::integral(double t0, double t1) const {
  if (points_.empty() || t1 <= t0) return 0.0;
  double area = 0.0;
  // Flat extrapolation before the first and after the last breakpoint.
  if (t0 < points_.front().t) {
    const double span = std::min(t1, points_.front().t) - t0;
    area += span * points_.front().v;
  }
  if (t1 > points_.back().t) {
    const double span = t1 - std::max(t0, points_.back().t);
    area += span * points_.back().v;
  }
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const double a = std::max(t0, points_[i].t);
    const double b = std::min(t1, points_[i + 1].t);
    if (b <= a) continue;
    const double va = value_at(a);
    const double vb = value_at(b);
    area += 0.5 * (va + vb) * (b - a);
  }
  return area;
}

double Waveform::average(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  return integral(t0, t1) / (t1 - t0);
}

double Waveform::average() const {
  if (points_.size() < 2) return points_.empty() ? 0.0 : points_.front().v;
  return average(t_begin(), t_end());
}

std::optional<double> Waveform::crossing(double level, int direction,
                                         double t_from) const {
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const Point& a = points_[i];
    const Point& b = points_[i + 1];
    if (b.t < t_from) continue;
    const bool rising = a.v < level && b.v >= level;
    const bool falling = a.v > level && b.v <= level;
    if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
      const double t =
          (b.v == a.v) ? a.t : lerp(a.v, a.t, b.v, b.t, level);
      if (t >= t_from) return t;
    }
  }
  return std::nullopt;
}

std::vector<double> Waveform::crossings(double level, int direction) const {
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const Point& a = points_[i];
    const Point& b = points_[i + 1];
    const bool rising = a.v < level && b.v >= level;
    const bool falling = a.v > level && b.v <= level;
    if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
      out.push_back((b.v == a.v) ? a.t : lerp(a.v, a.t, b.v, b.t, level));
    }
  }
  return out;
}

std::vector<double> Waveform::sample_uniform(double t0, double t1,
                                             std::size_t n) const {
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  if (n == 1) {
    out[0] = value_at(t0);
    return out;
  }
  const double dt = (t1 - t0) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = value_at(t0 + dt * static_cast<double>(i));
  }
  return out;
}

Waveform Waveform::scaled(double k) const {
  std::vector<Point> pts = points_;
  for (Point& p : pts) p.v *= k;
  return Waveform(std::move(pts));
}

Waveform Waveform::plus(const Waveform& other) const {
  std::vector<double> times;
  times.reserve(points_.size() + other.points_.size());
  for (const Point& p : points_) times.push_back(p.t);
  for (const Point& p : other.points_) times.push_back(p.t);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  Waveform out;
  for (double t : times) out.append(t, value_at(t) + other.value_at(t));
  return out;
}

std::string Waveform::ascii_plot(std::size_t width, std::size_t height,
                                 const std::string& label) const {
  std::ostringstream os;
  if (points_.size() < 2 || width < 2 || height < 2) {
    os << "(waveform too small to plot)\n";
    return os.str();
  }
  const double lo = min_value();
  const double hi = max_value();
  const double span = (hi - lo) > 0 ? (hi - lo) : 1.0;
  std::vector<std::string> canvas(height, std::string(width, ' '));
  const std::vector<double> samples = sample_uniform(t_begin(), t_end(), width);
  for (std::size_t x = 0; x < width; ++x) {
    const double frac = (samples[x] - lo) / span;
    auto y = static_cast<std::size_t>(
        std::lround(frac * static_cast<double>(height - 1)));
    y = std::min(y, height - 1);
    canvas[height - 1 - y][x] = '*';
  }
  if (!label.empty()) os << label << "\n";
  os << si_string(hi) << " +" << std::string(width, '-') << "+\n";
  for (const std::string& line : canvas) {
    os << std::string(si_string(hi).size(), ' ') << " |" << line << "|\n";
  }
  os << si_string(lo) << " +" << std::string(width, '-') << "+\n";
  os << std::string(si_string(lo).size(), ' ') << "  t: ["
     << si_string(t_begin(), "s") << ", " << si_string(t_end(), "s") << "]\n";
  return os.str();
}

GridAccumulator::GridAccumulator(double t0, double dt, std::size_t n)
    : t0_(t0), dt_(dt), values_(n, 0.0) {
  if (dt <= 0.0) throw std::invalid_argument("GridAccumulator: dt must be > 0");
}

GridAccumulator::GridAccumulator(double t0, double dt, std::size_t n,
                                 std::vector<double>&& storage)
    : t0_(t0), dt_(dt), values_(std::move(storage)) {
  if (dt <= 0.0) throw std::invalid_argument("GridAccumulator: dt must be > 0");
  values_.assign(n, 0.0);
}

void GridAccumulator::deposit(double t, double value) {
  const double pos = (t - t0_) / dt_;
  if (pos < -0.5) return;
  const auto idx = static_cast<std::size_t>(std::lround(std::max(pos, 0.0)));
  if (idx >= values_.size()) return;
  values_[idx] += value;
}

GridAccumulator::Span GridAccumulator::span(double t_lo, double t_hi) const {
  if (values_.empty()) return {};
  const double grid_end = t0_ + dt_ * static_cast<double>(values_.size() - 1);
  const double lo = std::max(t_lo, t0_);
  const double hi = std::min(t_hi, grid_end);
  if (hi < lo) return {};
  const auto first =
      static_cast<std::size_t>(std::ceil((lo - t0_) / dt_ - 1e-9));
  const auto last =
      static_cast<std::size_t>(std::floor((hi - t0_) / dt_ + 1e-9));
  return {first, std::min(last, values_.size() - 1)};
}

void GridAccumulator::add_kernel(double t_start, const Waveform& kernel,
                                 double scale) {
  if (kernel.empty()) return;
  // Clip the kernel support to the grid.
  const Span s =
      span(t_start + kernel.t_begin(), t_start + kernel.t_end());
  for (std::size_t i = s.first; i <= s.last; ++i) {
    const double t = time_of(i) - t_start;
    values_[i] += scale * kernel.value_at(t);
  }
}

void GridAccumulator::add_level(double t_on, double t_off, double level) {
  if (t_off <= t_on || level == 0.0) return;
  const Span s = span(t_on, t_off);
  for (std::size_t i = s.first; i <= s.last; ++i) values_[i] += level;
}

}  // namespace pgmcml::util
