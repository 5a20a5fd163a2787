// Test-only reference: PowerTracer::compose_into as it was when every event
// added its kernel and its level across the grid one by one, with the
// GridAccumulator add_kernel/add_level it called, kept unchanged (apart from
// their namespace and the members they read) as the oracle the production
// composer's rows must match bit for bit.
// Do not optimise it: its value is that it is the old, obvious code.
#pragma once

#include <cstddef>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/netlist/design.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/util/waveform.hpp"

namespace pgmcml::power::reference {

/// The grid accumulator's constructor, add_kernel and add_level as the
/// composer used them.
class GridAccumulator {
 public:
  GridAccumulator(double t0, double dt, std::size_t n,
                  std::vector<double>&& storage);

  void add_kernel(double t_start, const util::Waveform& kernel,
                  double scale = 1.0);
  void add_level(double t_on, double t_off, double level);

  std::vector<double> take() { return std::move(values_); }

  double time_of(std::size_t index) const {
    return t0_ + dt_ * static_cast<double>(index);
  }

 private:
  double t0_;
  double dt_;
  std::vector<double> values_;
};

/// The tracer's per-instance draws (same constructor) and its composer.
class PowerTracer {
 public:
  PowerTracer(const netlist::Design& design, const cells::CellLibrary& library,
              const CurrentKernels& kernels, const TraceOptions& options);

  void compose_into(const std::vector<netlist::SimEvent>& events,
                    const SleepSchedule& schedule,
                    std::vector<double>& out) const;

 private:
  const netlist::Design& design_;
  cells::CellLibrary library_;
  CurrentKernels kernels_;
  TraceOptions options_;
  std::vector<double> static_scale_;
  std::vector<double> charge_scale_;
  std::vector<double> residual_;
  double awake_current_ = 0.0;
  double sleep_current_ = 0.0;
  double leakage_power_ = 0.0;
};

}  // namespace pgmcml::power::reference
