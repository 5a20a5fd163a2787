#include "reference_tracer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pgmcml/util/rng.hpp"

namespace pgmcml::power::reference {

using cells::LogicStyle;
using netlist::InstId;
using netlist::SimEvent;

GridAccumulator::GridAccumulator(double t0, double dt, std::size_t n,
                                 std::vector<double>&& storage)
    : t0_(t0), dt_(dt), values_(std::move(storage)) {
  if (dt <= 0.0) throw std::invalid_argument("GridAccumulator: dt must be > 0");
  values_.assign(n, 0.0);
}

void GridAccumulator::add_kernel(double t_start, const util::Waveform& kernel,
                                 double scale) {
  if (kernel.empty() || values_.empty()) return;
  const double k_begin = t_start + kernel.t_begin();
  const double k_end = t_start + kernel.t_end();
  // Clip the kernel support to the grid.
  const double grid_end = t0_ + dt_ * static_cast<double>(values_.size() - 1);
  const double lo = std::max(k_begin, t0_);
  const double hi = std::min(k_end, grid_end);
  if (hi < lo) return;
  auto first = static_cast<std::size_t>(std::ceil((lo - t0_) / dt_ - 1e-9));
  auto last = static_cast<std::size_t>(std::floor((hi - t0_) / dt_ + 1e-9));
  last = std::min(last, values_.size() - 1);
  for (std::size_t i = first; i <= last; ++i) {
    const double t = time_of(i) - t_start;
    values_[i] += scale * kernel.value_at(t);
  }
}

void GridAccumulator::add_level(double t_on, double t_off, double level) {
  if (t_off <= t_on || level == 0.0 || values_.empty()) return;
  const double grid_end = t0_ + dt_ * static_cast<double>(values_.size() - 1);
  const double lo = std::max(t_on, t0_);
  const double hi = std::min(t_off, grid_end);
  if (hi < lo) return;
  auto first = static_cast<std::size_t>(std::ceil((lo - t0_) / dt_ - 1e-9));
  auto last = static_cast<std::size_t>(std::floor((hi - t0_) / dt_ + 1e-9));
  last = std::min(last, values_.size() - 1);
  for (std::size_t i = first; i <= last; ++i) values_[i] += level;
}

PowerTracer::PowerTracer(const netlist::Design& design,
                         const cells::CellLibrary& library,
                         const CurrentKernels& kernels,
                         const TraceOptions& options)
    : design_(design), library_(library), kernels_(kernels), options_(options) {
  util::Rng rng(options.seed ^ 0xc0ffee);
  const std::size_t n = design.num_instances();
  static_scale_.resize(n);
  charge_scale_.resize(n);
  residual_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    static_scale_[i] =
        std::max(0.5, rng.gaussian(1.0, options.mismatch_sigma));
    charge_scale_[i] =
        std::max(0.3, rng.gaussian(1.0, 3.0 * options.mismatch_sigma));
    residual_[i] = rng.gaussian(0.0, options.residual_sigma);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cell = library.cell(design.instance(static_cast<InstId>(i)).kind);
    awake_current_ += cell.static_current * static_scale_[i];
    sleep_current_ += cell.sleep_current * static_scale_[i];
    leakage_power_ += cell.leakage_power * static_scale_[i];
  }

  // Switched charge scales with the driven load: count each instance's
  // fanout (reader pins on its output nets) -- high-fanout nets carry
  // proportionally more capacitance.
  std::vector<std::size_t> fanout_count(design.num_nets(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& inst = design.instance(static_cast<InstId>(i));
    for (netlist::NetId in : inst.inputs) ++fanout_count[in];
    if (inst.clk != netlist::kNoNet) ++fanout_count[inst.clk];
    if (inst.ctrl != netlist::kNoNet) ++fanout_count[inst.ctrl];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& inst = design.instance(static_cast<InstId>(i));
    std::size_t readers = 0;
    for (netlist::NetId out : inst.outputs) readers += fanout_count[out];
    charge_scale_[i] *=
        0.4 + 0.6 * static_cast<double>(std::max<std::size_t>(readers, 1));
  }

  // Instances driving primary outputs additionally see the macro's pin/wire
  // load on top of their cell-internal charge.
  std::vector<bool> drives_output(n, false);
  const auto driver = design.driver_map();
  for (netlist::NetId out : design.outputs()) {
    if (driver[out] >= 0) drives_output[driver[out]] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (drives_output[i]) charge_scale_[i] *= options.output_load_factor;
  }
}

void PowerTracer::compose_into(const std::vector<SimEvent>& events,
                               const SleepSchedule& schedule,
                               std::vector<double>& out) const {
  const double t0 = options_.t_start;
  const double t_end =
      t0 + options_.dt * static_cast<double>(options_.samples - 1);
  GridAccumulator acc(t0, options_.dt, options_.samples, std::move(out));
  const LogicStyle style = library_.style();

  // --- static floors ---------------------------------------------------------
  if (style == LogicStyle::kCmos) {
    acc.add_level(t0, t_end + options_.dt, leakage_power_ / library_.vdd());
  } else if (style == LogicStyle::kMcml || schedule.always_awake()) {
    acc.add_level(t0, t_end + options_.dt, awake_current_);
  } else {
    // PG-MCML with a sleep schedule: leakage floor everywhere, full current
    // inside awake windows, transition kernels at the boundaries.
    acc.add_level(t0, t_end + options_.dt, sleep_current_);
    for (const SleepSchedule::Window& w : schedule.awake) {
      const double wake_end = w.t_on + kernels_.pg_wake.t_end();
      acc.add_kernel(w.t_on, kernels_.pg_wake, awake_current_);
      if (wake_end < w.t_off) {
        acc.add_level(wake_end, w.t_off, awake_current_);
      }
      acc.add_kernel(w.t_off, kernels_.pg_sleep, awake_current_);
    }
  }

  // --- per-event contributions ----------------------------------------------
  for (const SimEvent& ev : events) {
    if (ev.driver < 0) continue;  // primary-input edges carry no supply load
    const auto& inst = design_.instance(ev.driver);
    const auto& cell = library_.cell(inst.kind);
    if (style == LogicStyle::kCmos) {
      // Only rising output transitions draw charge from the supply (falling
      // edges discharge the load into ground) -- this asymmetry is the
      // physical root of the CMOS Hamming-weight leak.
      if (!ev.value) continue;
      const double q =
          cell.switch_energy / library_.vdd() * charge_scale_[ev.driver];
      acc.add_kernel(ev.time, kernels_.cmos_toggle, q);
    } else {
      if (!schedule.is_awake(ev.time)) continue;  // gated cells are silent
      const double iss = cell.static_current * static_scale_[ev.driver];
      acc.add_kernel(ev.time, kernels_.mcml_switch, iss);
      // State-dependent residual: the two legs of a real differential cell
      // are never perfectly matched, so the static current depends slightly
      // on which leg conducts.  This is the (tiny, instance-random) data
      // dependence that remains in MCML.
      const double delta = iss * residual_[ev.driver];
      acc.add_level(ev.time, t_end + options_.dt, ev.value ? delta : -delta);
    }
  }

  out = acc.take();
}

}  // namespace pgmcml::power::reference
