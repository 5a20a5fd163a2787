#include "pgmcml/power/tracer.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>

#include "pgmcml/obs/obs.hpp"

namespace pgmcml::power {

using cells::LogicStyle;
using netlist::InstId;
using netlist::SimEvent;
using util::GridAccumulator;

bool SleepSchedule::is_awake(double t) const {
  if (always_awake()) return true;
  for (const Window& w : awake) {
    if (t >= w.t_on && t < w.t_off) return true;
  }
  return false;
}

PowerTracer::PowerTracer(const netlist::Design& design,
                         const cells::CellLibrary& library,
                         const CurrentKernels& kernels,
                         const TraceOptions& options)
    : design_(design), library_(library), kernels_(kernels), options_(options) {
  util::Rng rng(options.seed ^ 0xc0ffee);
  const std::size_t n = design.num_instances();
  static_scale_.resize(n);
  std::vector<double> charge_scale(n);  // CMOS pulse charge variation
  residual_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    static_scale_[i] =
        std::max(0.5, rng.gaussian(1.0, options.mismatch_sigma));
    charge_scale[i] =
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
    charge_scale[i] *=
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
    if (drives_output[i]) charge_scale[i] *= options.output_load_factor;
  }

  // What one output event of each instance adds: the kernel scale (CMOS:
  // the switched charge; MCML: the tail current) and the leg imbalance.
  event_scale_.resize(n);
  imbalance_.resize(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cell =
        library.cell(design.instance(static_cast<InstId>(i)).kind);
    if (library.style() == LogicStyle::kCmos) {
      event_scale_[i] = cell.switch_energy / library.vdd() * charge_scale[i];
    } else {
      event_scale_[i] = cell.static_current * static_scale_[i];
      imbalance_[i] = event_scale_[i] * residual_[i];
    }
  }
}

std::vector<double> PowerTracer::trace(const std::vector<SimEvent>& events,
                                       const SleepSchedule& schedule,
                                       std::uint64_t nonce) const {
  std::vector<double> out;
  trace_into(events, schedule, nonce, out);
  return out;
}

void PowerTracer::trace_into(const std::vector<SimEvent>& events,
                             const SleepSchedule& schedule,
                             std::uint64_t nonce,
                             std::vector<double>& out) const {
  compose_into(events, schedule, out);
  add_noise(schedule, nonce, noise_key(events), out);
}

std::uint64_t PowerTracer::noise_key(const std::vector<SimEvent>& events) {
  if (events.empty()) return 0;
  return events.size() + static_cast<std::uint64_t>(events.back().time * 1e15);
}

namespace {

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Adds the per-event contributions -- a scaled kernel starting at the event
/// time, then a level from the event time to `level_off` -- onto a grid that
/// already holds the floors.  Every sample receives exactly the adds that
/// GridAccumulator::add_kernel then add_level per event would give it, in
/// the same order, so the result is bit for bit the event-by-event one.
///
/// Samples at and past `frontier_` are lazy: so far every event contributed
/// only its level there (its kernel has ended, its level has started and
/// runs to the last sample).  A lazy sample therefore holds its floor
/// followed by `pending_` in event order, and the lazy samples sharing one
/// floor value share one running sum, extended by one add per level.  An
/// event first materialises the lazy samples its kernel or its level start
/// reaches; only those take its level as a per-sample add.  Events at the
/// same time share their spans and one kernel row, evaluated with the
/// accumulator's `time_of(i) - time` and Waveform::value_at.
class EventComposer {
 public:
  EventComposer(GridAccumulator& acc, const util::Waveform& kernel,
                double level_off)
      : acc_(acc), samples_(acc.samples()), kernel_(kernel),
        level_off_(level_off) {}

  /// One event, at a time not before the previous event's.
  void add(double time, double scale, double level) {
    if (!time_valid_ || bits_of(time) != bits_of(time_)) start_time(time);
    const std::size_t n = samples_.size();
    const bool has_level = level != 0.0 && !level_span_.empty();
    std::size_t reach = frontier_;
    if (!kernel_span_.empty()) reach = std::max(reach, kernel_span_.last + 1);
    // A level that stops short of the last sample cannot join the lazy
    // tail's running sum: materialise everything instead.
    if (has_level) {
      reach = std::max(reach,
                       level_span_.last + 1 == n ? level_span_.first : n);
    }
    materialize(reach);

    if (!row_.empty()) {
      double* out = samples_.data() + kernel_span_.first;
      for (std::size_t j = 0; j < row_.size(); ++j) out[j] += scale * row_[j];
      kernel_adds_ += row_.size();
    }
    if (has_level) {
      const std::size_t first = level_span_.first;
      const std::size_t eager_end = std::min(frontier_, level_span_.last + 1);
      for (std::size_t i = first; i < eager_end; ++i) samples_[i] += level;
      if (eager_end > first) level_adds_ += eager_end - first;
      if (frontier_ < n) {
        pending_.push_back(level);
        if (run_valid_) {
          run_ += level;
          ++level_adds_;
        }
      }
    }
  }

  /// Materialises the lazy tail; the grid then holds the composed trace.
  void finish() { materialize(samples_.size()); }

  std::uint64_t kernel_adds() const { return kernel_adds_; }
  std::uint64_t level_adds() const { return level_adds_; }

 private:
  /// The kernel span, level span and kernel row of events at `time`.
  void start_time(double time) {
    kernel_span_ = kernel_.empty() ? GridAccumulator::Span{}
                                   : acc_.span(time + kernel_.t_begin(),
                                               time + kernel_.t_end());
    level_span_ = level_off_ <= time ? GridAccumulator::Span{}
                                     : acc_.span(time, level_off_);
    row_.resize(kernel_span_.size());
    for (std::size_t j = 0; j < row_.size(); ++j) {
      row_[j] = kernel_.value_at(acc_.time_of(kernel_span_.first + j) - time);
    }
    time_ = time;
    time_valid_ = true;
  }

  void materialize(std::size_t end) {
    if (!pending_.empty()) {
      for (std::size_t j = frontier_; j < end; ++j) {
        const double floor = samples_[j];
        if (!run_valid_ || bits_of(floor) != bits_of(run_floor_)) {
          run_ = floor;
          for (const double level : pending_) run_ += level;
          level_adds_ += pending_.size();
          run_floor_ = floor;
          run_valid_ = true;
        }
        samples_[j] = run_;
      }
    }
    frontier_ = std::max(frontier_, end);
  }

  GridAccumulator& acc_;
  std::span<double> samples_;
  const util::Waveform& kernel_;
  double level_off_;
  // The current event time and what its events share.
  bool time_valid_ = false;
  double time_ = 0.0;
  GridAccumulator::Span kernel_span_;
  GridAccumulator::Span level_span_;
  std::vector<double> row_;  ///< kernel samples over kernel_span_
  // The lazy tail.
  std::size_t frontier_ = 0;
  std::vector<double> pending_;  ///< levels every lazy sample takes, in order
  bool run_valid_ = false;
  double run_floor_ = 0.0;  ///< the floor value run_ folds pending_ onto
  double run_ = 0.0;
  std::uint64_t kernel_adds_ = 0;
  std::uint64_t level_adds_ = 0;
};

/// Obs counters of composition: the kernel and level adds performed.
struct ComposeCounters {
  obs::Counter kernel_adds =
      obs::Registry::global().counter("power.compose.kernel_adds");
  obs::Counter level_adds =
      obs::Registry::global().counter("power.compose.level_adds");
};

ComposeCounters& compose_obs() {
  static ComposeCounters c;
  return c;
}

}  // namespace

void PowerTracer::compose_into(const std::vector<SimEvent>& events,
                               const SleepSchedule& schedule,
                               std::vector<double>& out) const {
  double previous = -std::numeric_limits<double>::infinity();
  for (const SimEvent& ev : events) {
    if (!(ev.time >= previous)) {
      throw std::invalid_argument(
          "PowerTracer: events must be sorted by time (and not NaN)");
    }
    previous = ev.time;
  }
  obs::ScopedTimer span("power.compose");
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
  const bool cmos = style == LogicStyle::kCmos;
  EventComposer composer(
      acc, cmos ? kernels_.cmos_toggle : kernels_.mcml_switch,
      t_end + options_.dt);
  for (const SimEvent& ev : events) {
    if (ev.driver < 0) continue;  // primary-input edges carry no supply load
    if (cmos) {
      // Only rising output transitions draw charge from the supply (falling
      // edges discharge the load into ground) -- this asymmetry is the
      // physical root of the CMOS Hamming-weight leak.
      if (!ev.value) continue;
      composer.add(ev.time, event_scale_[ev.driver], 0.0);
    } else {
      if (!schedule.is_awake(ev.time)) continue;  // gated cells are silent
      // State-dependent residual: the two legs of a real differential cell
      // are never perfectly matched, so the static current depends slightly
      // on which leg conducts.  This is the (tiny, instance-random) data
      // dependence that remains in MCML.
      const double delta = imbalance_[ev.driver];
      composer.add(ev.time, event_scale_[ev.driver], ev.value ? delta : -delta);
    }
  }
  composer.finish();
  compose_obs().kernel_adds.add(composer.kernel_adds());
  compose_obs().level_adds.add(composer.level_adds());

  out = acc.take();
}

void PowerTracer::add_noise(const SleepSchedule& schedule, std::uint64_t nonce,
                            std::uint64_t noise_key,
                            std::vector<double>& out) const {
  if (!options_.include_noise ||
      !(options_.noise_sigma > 0.0 || options_.supply_noise_ratio > 0.0)) {
    return;
  }
  const LogicStyle style = library_.style();
  // Fresh noise per trace, seeded from the event stream so repeated calls
  // with different data see independent noise.
  util::Rng noise(options_.seed * 0x9e3779b97f4a7c15ULL +
                  nonce * 0xd1b54a32d192ed03ULL + noise_key);
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Regulator/thermal noise grows with the static current flowing at
    // that instant: the floor of the style (and sleep state) at play.
    double floor_current = 0.0;
    if (style == LogicStyle::kCmos) {
      floor_current = leakage_power_ / library_.vdd();
    } else if (schedule.is_awake(options_.t_start +
                                 options_.dt * static_cast<double>(i))) {
      floor_current = awake_current_;
    } else {
      floor_current = sleep_current_;
    }
    const double sigma =
        options_.noise_sigma + options_.supply_noise_ratio * floor_current;
    out[i] += noise.gaussian(0.0, sigma);
  }
}

namespace {

/// Systematic state dependence of the quiescent current, relative to each
/// instance's static floor.  Both are DIE-WIDE constants, not per-instance
/// draws: a per-instance random sign would average the block-level signal
/// toward zero, while the physical effects they model are shared -- CMOS
/// NMOS-vs-PMOS subthreshold leakage asymmetry tracks the global process
/// corner, and MCML leg imbalance has a common layout-orientation component
/// on top of the per-instance residual_.  Magnitudes are calibrated against
/// the transistor-level state-leakage measurement
/// (mcml::measure_state_leakage), which shows the same ordering.
constexpr double kCmosStateLeakAsym = 0.35;
constexpr double kMcmlSystematicImbalance = 0.006;

}  // namespace

double PowerTracer::quiescent_current(const netlist::LogicSim& sim,
                                      bool awake) const {
  const LogicStyle style = library_.style();
  if (!awake && library_.power_gated()) {
    // Gated off: the sleep devices cut the pairs from the rails, leaving a
    // state-independent leakage floor.  This is the quantitative form of
    // the paper's power-gating argument -- nothing here depends on sim.
    return sleep_current_;
  }
  double current = 0.0;
  const std::size_t n = design_.num_instances();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& inst = design_.instance(static_cast<InstId>(i));
    const auto& cell = library_.cell(inst.kind);
    const bool state = !inst.outputs.empty() && sim.value(inst.outputs[0]);
    const double sign = state ? 1.0 : -1.0;
    if (style == LogicStyle::kCmos) {
      const double base =
          cell.leakage_power / library_.vdd() * static_scale_[i];
      current += base * (1.0 + kCmosStateLeakAsym * sign);
    } else {
      const double iss = cell.static_current * static_scale_[i];
      current += iss * (1.0 + (residual_[i] + kMcmlSystematicImbalance) * sign);
    }
  }
  return current;
}

double PowerTracer::switched_charge(
    const std::vector<netlist::SimEvent>& events) const {
  if (library_.style() != cells::LogicStyle::kCmos) return 0.0;
  double q = 0.0;
  for (const netlist::SimEvent& ev : events) {
    if (ev.driver < 0 || !ev.value) continue;
    q += event_scale_[ev.driver];
  }
  return q;
}

}  // namespace pgmcml::power
