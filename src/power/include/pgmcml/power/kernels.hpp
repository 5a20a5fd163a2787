// Per-cell supply-current kernels.
//
// The paper runs Synopsys Nanosim (a table-driven fast-SPICE) on the post-
// P&R netlist to get block-level current waveforms.  We reproduce that
// architecture: each cell's contribution to the supply current is a small
// characterized waveform ("kernel"), and the block trace is the composition
// of kernels over the logic simulator's event stream.  Kernels can be
// analytic defaults or extracted from our own transistor-level engine
// (kernels_from_spice), closing the loop with src/spice exactly the way
// Nanosim's device tables close the loop with SPICE.
#pragma once

#include "pgmcml/mcml/design.hpp"
#include "pgmcml/spice/solve_error.hpp"
#include "pgmcml/util/waveform.hpp"

namespace pgmcml::power {

struct CurrentKernels {
  /// CMOS output toggle: a current pulse whose integral is 1 C (scaled by
  /// the cell's switched charge Q = E_toggle / Vdd at composition time).
  util::Waveform cmos_toggle;
  /// MCML switching transient: the brief supply-current disturbance while
  /// the tail current steers between legs.  Normalized to the tail current
  /// (value 1.0 = Iss); net area ~0 -- this is the property that defeats DPA.
  util::Waveform mcml_switch;
  /// PG-MCML wake-up: supply current ramping 0 -> 1 (x Iss) when the sleep
  /// transistor turns on, including the inrush that recharges the cell.
  util::Waveform pg_wake;
  /// PG-MCML sleep entry: 1 -> 0 (x Iss) decay.
  util::Waveform pg_sleep;
};

/// Analytic kernel shapes with time constants matching the characterized
/// 50 uA / 0.4 V design point.
CurrentKernels default_kernels();

/// Extracts the kernels from transistor-level simulations of the buffer
/// cell at the given design point (switch transient from an input toggle,
/// wake from a sleep-pulse testbench).  Every transient goes through the
/// mcml::run_with_retry step -- one retry with tightened solver options --
/// and a kernel whose extraction still fails keeps its analytic default
/// shape; a bias failure keeps all four defaults.  Each attempt, retry,
/// recovery and skip is recorded in `diag`.  Served from the result cache
/// (diagnostics replayed) when it is enabled and the design carries no
/// mismatch_rng.
CurrentKernels kernels_from_spice(const mcml::McmlDesign& design,
                                  spice::FlowDiagnostics& diag);

}  // namespace pgmcml::power
