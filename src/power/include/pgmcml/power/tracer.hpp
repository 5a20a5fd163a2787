// Block-level supply-current trace composition (the fast-SPICE substitute).
//
// Given a mapped netlist, a cell library (which fixes the logic style's
// power model), and a logic-simulation event stream, the tracer composes the
// block's supply-current waveform on a uniform grid:
//
//   CMOS:     leakage floor + one charge pulse per output toggle.  The pulse
//             charge is the cell's switched charge with per-instance process
//             variation -- the number of pulses tracks the data's Hamming
//             weight/distance, which is precisely the DPA leak.
//   MCML:     per-cell constant Iss (with per-instance mismatch) + a
//             zero-net-area steering transient per toggle + a tiny
//             state-dependent residual (mismatch between the two legs).
//             The residual is data-dependent but essentially random per
//             instance, which is why CPA fails against it.
//   PG-MCML:  the MCML model gated by a sleep schedule, plus wake/sleep
//             transition kernels and the gated-off leakage floor.
//
// Measurement noise is added per sample, emulating the oscilloscope front
// end of a power-analysis setup.
#pragma once

#include <cstdint>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/netlist/design.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::power {

/// Awake windows for power-gated blocks.  Empty = always awake.
struct SleepSchedule {
  struct Window {
    double t_on;
    double t_off;
  };
  std::vector<Window> awake;
  bool always_awake() const { return awake.empty(); }
  bool is_awake(double t) const;
};

struct TraceOptions {
  double t_start = 0.0;
  double dt = 1e-12;            ///< 1 ps resolution, as in Section 6
  std::size_t samples = 1000;
  double noise_sigma = 2e-6;    ///< scope front-end noise per sample [A]
  /// Supply/regulator noise proportional to the flowing static current --
  /// the physical reason a 2 fC switching blip is invisible on a 30 mA
  /// MCML rail but glaring on a near-zero CMOS rail.
  double supply_noise_ratio = 0.0025;
  /// Per-instance static-current mismatch (sigma, relative).
  double mismatch_sigma = 0.01;
  /// Data-dependent residual of an MCML cell: relative imbalance between
  /// the two legs' currents (sigma).  ~0.2 % at the 50 uA point.
  double residual_sigma = 0.002;
  /// Extra switched-charge factor for instances driving primary outputs
  /// (macro pins, fat wires, downstream pipeline registers).
  double output_load_factor = 4.0;
  std::uint64_t seed = 1;
  bool include_noise = true;
};

class PowerTracer {
 public:
  PowerTracer(const netlist::Design& design, const cells::CellLibrary& library,
              const CurrentKernels& kernels, const TraceOptions& options);

  /// Composes the supply-current trace for one logic-sim run.
  /// `events` must be time-sorted (as produced by LogicSim; see
  /// compose_into).  `nonce` decorrelates the measurement noise between
  /// acquisitions that share an identical event stream (e.g. TVLA's
  /// fixed-plaintext class).
  std::vector<double> trace(const std::vector<netlist::SimEvent>& events,
                            const SleepSchedule& schedule = {},
                            std::uint64_t nonce = 0) const;

  /// Same, but composes into `out`, recycling its heap buffer: streaming
  /// acquisition reuses one buffer per batch slot instead of allocating a
  /// fresh samples-sized vector for every trace.  Exactly
  /// compose_into(events, schedule, out) then
  /// add_noise(schedule, nonce, noise_key(events), out).
  void trace_into(const std::vector<netlist::SimEvent>& events,
                  const SleepSchedule& schedule, std::uint64_t nonce,
                  std::vector<double>& out) const;

  /// The noiseless part of trace_into(): the composed supply current, a
  /// pure function of `events` and `schedule`.
  ///
  /// Each sample is its floor (the style's static current; for PG-MCML
  /// under a schedule, the sleep floor plus each window's wake kernel,
  /// awake level and sleep kernel) followed by, for every event in stream
  /// order, its kernel sample and then its level -- the sums
  /// util::GridAccumulator::add_kernel and add_level per event give, in
  /// that order, and so bitwise the same row.  The cost is the kernel work,
  /// not events x samples: one kernel row per distinct event time, and the
  /// levels of events whose kernels have ended fold into one running sum
  /// per floor value (docs/ARCHITECTURE.md).  Throws std::invalid_argument,
  /// leaving `out` untouched, when `events` are not sorted by time or a
  /// time is NaN.
  void compose_into(const std::vector<netlist::SimEvent>& events,
                    const SleepSchedule& schedule,
                    std::vector<double>& out) const;
  /// The noise part of trace_into(): adds the measurement noise of one
  /// acquisition to a composed trace, drawn from a stream seeded by the
  /// tracer seed, `nonce` and `noise_key`.
  void add_noise(const SleepSchedule& schedule, std::uint64_t nonce,
                 std::uint64_t noise_key, std::vector<double>& out) const;
  /// What the noise seed reads of an event stream: its length plus its last
  /// event time in fs (just the length when empty).  A caller that keeps a
  /// composed trace keeps this beside it instead of the events.
  static std::uint64_t noise_key(const std::vector<netlist::SimEvent>& events);

  /// Quiescent (DC) supply current of the block holding the state of `sim`
  /// [A] -- the observable of the static-power side channel.  Unlike the
  /// transient floors above, the quiescent current is state-dependent:
  ///   CMOS:     subthreshold leakage differs between output-high (NMOS
  ///             stack leaking) and output-low (PMOS stack leaking) -- the
  ///             asymmetry is systematic across a die, so the block's
  ///             leakage tracks the held state's Hamming weight.
  ///   MCML:     each cell's tail current splits over two never-perfectly-
  ///             matched legs; the imbalance has an instance-random part
  ///             (residual_) plus a small systematic part shared by every
  ///             cell of a layout orientation, so the DC draw also tracks
  ///             the state.
  ///   PG-MCML:  awake behaves like MCML; `awake == false` with a gated
  ///             library returns the state-independent sleep floor -- the
  ///             starvation the static-power attack bench quantifies.
  /// For non-gated libraries `awake` is ignored (there is no sleep state).
  double quiescent_current(const netlist::LogicSim& sim, bool awake) const;

  /// Total static current of the block when awake [A].
  double awake_current() const { return awake_current_; }
  /// Total gated-off leakage current [A].
  double sleep_current() const { return sleep_current_; }
  /// CMOS leakage power floor [W].
  double leakage_power() const { return leakage_power_; }

  /// Total charge switched by a CMOS event stream [C] (sum of the rising-
  /// edge kernel charges; zero for MCML styles whose events only steer Iss).
  double switched_charge(const std::vector<netlist::SimEvent>& events) const;

  const TraceOptions& options() const { return options_; }

 private:
  const netlist::Design& design_;
  cells::CellLibrary library_;  ///< by value: tracers outlive temporaries
  CurrentKernels kernels_;
  TraceOptions options_;
  // Per-instance frozen process variation.
  std::vector<double> static_scale_;    ///< 1 + mismatch
  std::vector<double> residual_;        ///< MCML leg imbalance (signed)
  std::vector<double> event_scale_;     ///< kernel scale of an output event
  std::vector<double> imbalance_;       ///< MCML: level of an output event
  double awake_current_ = 0.0;
  double sleep_current_ = 0.0;
  double leakage_power_ = 0.0;
};

}  // namespace pgmcml::power
