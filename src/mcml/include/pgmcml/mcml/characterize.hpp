// Cell characterization: builds a transistor-level testbench around one cell
// (bias rails, differential stimulus, fan-out loads), runs the SPICE engine,
// and extracts the library figures: propagation delay, output swing, awake
// static current, gated-off leakage, and wake-up time.  This is the engine
// behind Table 2, Fig. 3 and the gating-topology ablation.
//
// Characterization results are content-cached: when the process-wide
// pgmcml::cache::ResultCache is enabled (PGMCML_CACHE_DIR), characterize_cell
// and characterize_buffer_at first look their full design point up by a
// stable 128-bit key and return the stored result -- bitwise identical to a
// fresh solve, diagnostics included -- without touching the SPICE engine.
// Designs carrying a mismatch_rng bypass the cache (the draw is not part of
// the key); Monte-Carlo caching keys on (seed, sample) instead, see
// montecarlo.cpp.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pgmcml/cache/key.hpp"
#include "pgmcml/mcml/builder.hpp"
#include "pgmcml/mcml/design.hpp"
#include "pgmcml/obs/json.hpp"
#include "pgmcml/spice/engine.hpp"

namespace pgmcml::mcml {

struct CellCharacterization {
  CellKind kind = CellKind::kBuf;
  bool ok = false;
  std::string error;
  double delay = 0.0;           ///< propagation delay at the given fan-out [s]
  double swing = 0.0;           ///< measured differential output swing [V]
  double static_current = 0.0;  ///< awake quiescent supply current [A]
  double static_power = 0.0;    ///< Vdd * static_current [W]
  double sleep_current = 0.0;   ///< supply current with the cell gated off [A]
  double wake_time = 0.0;       ///< sleep->valid-output time [s] (gated only)
  int transistors = 0;
  /// Per-cell solve outcomes: attempts, retries with tightened options,
  /// recoveries and skips, plus the engine-effort totals underneath.
  spice::FlowDiagnostics diagnostics;
};

/// Characterizes one cell of the library at the given design point.
/// Served from the result cache when it is enabled and the design carries
/// no mismatch_rng; a hit skips the bias solve and every transient.
CellCharacterization characterize_cell(CellKind kind, const McmlDesign& design,
                                       int fanout = 1);

/// Appends every result-determining field of `design` -- electrical targets,
/// sizing, gating topology, Vt flavours, and the full technology parameter
/// set -- to a cache key.  The canonical field order is part of the key
/// contract; the mismatch_rng pointer is deliberately excluded (callers that
/// use it must key the draw themselves or bypass the cache).
void add_design_to_key(cache::KeyBuilder& kb, const McmlDesign& design);

/// Appends the complete technology description (name, corner label, rails,
/// Pelgrom coefficients, and all four device models field by field) to a
/// cache key.  This is the canonical technology digest: two technologies
/// produce the same contribution iff every parameter is bitwise equal, so
/// config-driven runs stay content-addressed -- the checked-in default
/// config keys identically to the compiled-in corner, and a FinFET-like
/// corner set keys differently.
void add_technology_to_key(cache::KeyBuilder& kb,
                           const spice::Technology& tech);

/// Exact JSON form of a characterization (cache payload).
obs::json::Value to_json(const CellCharacterization& ch);
/// Inverse of to_json; nullopt when the document does not have the expected
/// shape (the caller treats that as a cache miss and recomputes).
std::optional<CellCharacterization> characterization_from_json(
    const obs::json::Value& v);

/// One point of the Fig. 3 buffer design-space exploration.
struct BufferSweepPoint {
  bool ok = false;
  std::string error;       ///< structured failure description when !ok
  double iss = 0.0;        ///< tail current [A]
  double vn = 0.0;
  double vp = 0.0;
  double delay_fo1 = 0.0;  ///< buffer delay, fan-out 1 [s]
  double delay_fo4 = 0.0;  ///< buffer delay, fan-out 4 [s]
  double power = 0.0;      ///< static power Vdd*Iss [W]
  double area = 0.0;       ///< area model including Iss-dependent sizing [m^2]
  double power_delay() const { return power * delay_fo4; }
  double area_delay() const { return area * delay_fo4; }
  /// Per-point solve outcomes (retries/recoveries/skips).
  spice::FlowDiagnostics diagnostics;
};

/// Re-biases and re-characterizes the buffer at a given tail current
/// (device widths scale with Iss above the base point, as a designer would
/// resize the tail/pairs to keep overdrives constant).  Cached per
/// (base design, iss) point when the result cache is enabled.
BufferSweepPoint characterize_buffer_at(const McmlDesign& base, double iss);

/// Exact JSON form of a sweep point (cache payload).
obs::json::Value to_json(const BufferSweepPoint& pt);
/// Inverse of to_json; nullopt on an unexpected shape.
std::optional<BufferSweepPoint> sweep_point_from_json(
    const obs::json::Value& v);

/// Characterizes the buffer at every tail current in `currents` (the Fig. 3
/// design-space sweep).  Points are mutually independent, so they run on the
/// parallel-execution layer; the result order matches `currents` and is
/// bitwise identical at any thread count.
std::vector<BufferSweepPoint> sweep_buffer_bias(
    const McmlDesign& base, const std::vector<double>& currents);

/// Quiescent supply current of one held input state (the transistor-level
/// ground truth behind the static-power side channel).
struct StateLeakagePoint {
  int state = 0;  ///< input bitmask the cell was held in
  bool ok = false;
  std::string error;
  double awake_current = 0.0;   ///< DC supply current, cell powered [A]
  double asleep_current = 0.0;  ///< DC supply current, cell gated off [A]
};

struct StateLeakageResult {
  CellKind kind = CellKind::kBuf;
  std::vector<StateLeakagePoint> points;  ///< one per input state, ascending
  /// max - min awake current over the converged states: the state signal a
  /// static-power attack integrates.  Zero when nothing converged.
  double awake_spread = 0.0;
  /// Same for the gated-off state (non-gated designs repeat awake_current
  /// here).  The paper's power-gating argument, measured: this collapses
  /// toward zero for a gated cell.
  double asleep_spread = 0.0;
  spice::FlowDiagnostics diagnostics;
};

/// Holds the cell in every input state (2^num_inputs DC solves, awake and --
/// when the design gates -- asleep) and measures the VDD current of each.
/// This is the leakage-measurement hook the block-level quiescent model
/// (power::PowerTracer::quiescent_current) is calibrated against: awake
/// leakage is state-dependent, gated-off leakage is not.  Sequential cells
/// are measured with the clock held high.
///
/// `mismatch_seed` = 0 measures the ideal (perfectly matched) cell, whose
/// legs are symmetric by construction -- the awake spread is then zero.
/// A nonzero seed freezes ONE process-variation draw and re-applies it to
/// every solve, i.e. one die instance measured across its states: this is
/// where the state dependence (and the static-power side channel) comes
/// from, exactly as in the block-level model's residual_ term.
StateLeakageResult measure_state_leakage(CellKind kind,
                                         const McmlDesign& design,
                                         std::uint64_t mismatch_seed = 0);

/// The retry step behind every characterization transient: runs
/// `attempt(false)`, and when that fails records a retry under `stage` and
/// runs `attempt(true)` -- the tightened solver options -- recording a
/// recovery or a skip.  Each attempt's engine effort is merged into `diag`.
spice::TranResult run_with_retry(
    const std::function<spice::TranResult(bool tightened)>& attempt,
    const std::string& stage, spice::FlowDiagnostics& diag);

/// The library figures one awake transient yields (McmlTestbench::
/// awake_figures): Table 2, Fig. 3 and Monte-Carlo all measure them here.
struct AwakeFigures {
  double delay = 0.0;           ///< mean stimulus-edge -> output delay [s]
  double swing = 0.0;           ///< half the peak-to-peak output [V]
  double static_current = 0.0;  ///< quiet-window supply current [A]
};

/// Reusable testbench: cell + rails + stimulus, for tests and benches that
/// need waveform-level access.
/// Testbench construction options.  `sleep_pulse` replaces the DC-awake
/// sleep rail by a 0->1 transition at `sleep_rise_time` (for wake-up
/// measurements); `asleep` holds the cell gated off for leakage tests.
struct TestbenchOptions {
  int fanout = 1;
  bool asleep = false;
  bool sleep_pulse = false;
  double sleep_rise_time = 1e-9;
  /// When >= 0, bit i of this mask holds data input i at a DC level instead
  /// of the stimulus plan (the clock, if any, is held high).  This is the
  /// state-held testbench behind measure_state_leakage: no transient
  /// stimulus, just the cell frozen in one input state for a DC solve.
  int hold_state = -1;
};

class McmlTestbench {
 public:
  McmlTestbench(CellKind kind, const McmlDesign& design,
                TestbenchOptions options = {});

  /// Runs a transient over the standard stimulus window.  `tightened`
  /// re-runs with halved dt_max and a doubled Newton budget — the one-shot
  /// retry flow layers issue after a failed first attempt.  All solves of
  /// one testbench share its Newton workspace: the circuit topology is
  /// fixed at construction, so the retry (and any DC check) reuses the
  /// first run's symbolic analysis.
  spice::TranResult run(bool tightened = false);
  /// DC solve only (for leakage / swing checks).
  spice::DcResult run_dc();

  spice::Circuit& circuit() { return circuit_; }
  const std::vector<DiffNet>& outputs() const { return outputs_; }
  double t_stop() const { return t_stop_; }
  bool sequential() const { return sequential_; }
  int stages() const { return stages_; }
  int mosfets() const { return mosfets_; }

  /// Supply-current waveform of the last run.
  util::Waveform supply_current(const spice::TranResult& tr) const;
  /// VDD supply current of a converged DC solve of this bench.
  double supply_current(const spice::DcResult& dc) const;
  /// Differential output voltage of the last run (primary output).
  util::Waveform diff_output(const spice::TranResult& tr, int index = 0) const;
  /// Measures a successful transient.  The delay averages the zero
  /// crossings of the primary output that follow the stimulus edges by
  /// (0, 1.8 ns), skipping a combinational bench's first (start-up) edge;
  /// the static current averages the supply over a quiet window before the
  /// next edge.  nullopt when no edge is followed by an output transition.
  std::optional<AwakeFigures> awake_figures(const spice::TranResult& tr) const;

 private:
  void build(CellKind kind, const McmlDesign& design,
             const TestbenchOptions& options);

  spice::Circuit circuit_;
  spice::NewtonWorkspace workspace_;
  McmlDesign design_;
  std::vector<DiffNet> outputs_;
  std::vector<double> stimulus_edges_;
  double t_stop_ = 0.0;
  bool sequential_ = false;
  bool single_ended_out_ = false;
  int stages_ = 0;
  int mosfets_ = 0;
};

}  // namespace pgmcml::mcml
