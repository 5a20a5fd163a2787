// Analysis engines: Newton-Raphson DC operating point (direct, then gmin
// stepping, then source stepping, always in that order) and adaptive-step
// transient analysis (backward-Euler startup and after every breakpoint or
// rejection, trapezoidal steady integration, breakpoints at source corners,
// step control from Newton convergence and per-node dV).
//
// Every Newton iteration stamps the linear devices through their virtual
// Device::stamp and every MOSFET through the stamp plan's MosfetBank (the
// only MOSFET stamp), then factors the system on the backend the options
// name: kSparse unless a caller asks for the kDense parity oracle.
//
// Failures are structured: every analysis returns a SolveError (typed kind +
// message) and an EngineStats effort/recovery summary.  Transient solves
// always climb a deterministic recovery ladder before giving up — after
// repeated Newton failure at the nominal dt_min the engine (1) shrinks dt
// below the floor, (2) temporarily boosts gmin, (3) falls back from
// trapezoidal to backward-Euler integration for the rest of the run.  A
// test-only FaultPlan can force any Newton solve to fail deterministically,
// so every rung of the ladder is exercisable.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/fault.hpp"
#include "pgmcml/spice/solve_error.hpp"
#include "pgmcml/util/sparse.hpp"
#include "pgmcml/util/waveform.hpp"

namespace pgmcml::spice {

/// Which linear solver the Newton loop uses.  kSparse is the production
/// path: pattern-indexed stamping into a CSC value array, symbolic analysis
/// cached per topology, numeric refactorization per iteration.  kDense is
/// the reference implementation — it assembles the identical system (same
/// value array, scattered into a dense matrix) and factors it with the
/// dense LuSolver, preserving the pre-sparse behaviour bit for bit.  Parity
/// tests pass kDense explicitly through DcOptions/TranOptions.
enum class SolverBackend { kSparse, kDense };

/// Reusable scratch storage for the Newton solver: the sparse value array,
/// RHS, candidate solution and LU factors persist across iterations,
/// timesteps and whole analyses, so the hot loop performs no heap
/// allocation once the buffers are sized for the circuit.  The cached
/// symbolic analysis (keyed by the stamp plan's pattern digest) also lives
/// here: Newton iterations, timesteps, sweep points and Monte-Carlo samples
/// that share a topology reuse one ordering and one factor pattern.  One
/// workspace serves one thread.
struct NewtonWorkspace {
  std::vector<double> values;  ///< sparse stamp values (pattern nnz + trash)
  std::vector<double> b;
  std::vector<double> x_new;
  // Sparse backend: factor + cached symbolic analysis.
  util::SparseLu sparse;
  std::uint64_t pattern_digest = 0;  ///< digest the analysis was run for
  bool analyzed = false;
  // Dense backend: scatter target (pattern entries only; zeroed on pattern
  // change so stale entries never linger) and the dense factorization.
  util::Matrix a;
  util::LuSolver lu;
  bool dense_ready = false;
  // MOSFET bank per-analysis state and batch scratch (SoA, bank order).
  std::vector<double> mos_vgs_iter, mos_vds_iter;
  std::vector<char> mos_have_iter;
  std::vector<double> mos_vgs, mos_vds, mos_vbs;
  std::vector<double> mos_id, mos_gm, mos_gds, mos_gmb;
};

/// Process-wide count of Newton workspace (re)sizings.  Repeated solves of
/// same-sized circuits must not move this counter after the first solve —
/// the regression test for "no allocation inside the Newton inner loop".
std::size_t newton_workspace_allocations();

struct DcOptions {
  int max_iterations = 200;
  double reltol = 1e-4;
  double vabstol = 1e-7;   ///< volts
  double gmin = 1e-12;     ///< final gmin [S]
  SolverBackend backend = SolverBackend::kSparse;
  /// Test-only deterministic fault injection (see fault.hpp); faults are
  /// addressed by (fault_context, newton-solve index within the analysis).
  const FaultPlan* fault_plan = nullptr;
  std::uint64_t fault_context = 0;

  /// Throws std::invalid_argument when the invariants are violated
  /// (positive tolerances / iteration cap).  Called by every analysis.
  void validate() const;
};

struct DcResult {
  bool converged = false;
  int iterations = 0;
  std::string method;  ///< "direct", "gmin-step", "source-step"
  std::vector<double> x;
  SolveError error;    ///< kind == kNone on success
  EngineStats stats;

  double v(const Circuit& c, NodeId n) const {
    Solution sol(x, c.num_nodes());
    return sol.v(n);
  }
};

struct TranOptions {
  double dt_min = 1e-15;
  double dt_max = 20e-12;
  double dt_initial = 1e-13;
  double dv_max = 0.12;  ///< reject steps where any node moves more than this
  int max_newton = 60;
  double reltol = 1e-4;
  double vabstol = 1e-6;
  double gmin = 1e-12;
  /// Record every accepted point for these nodes only (empty = all nodes).
  std::vector<NodeId> record_nodes;
  /// Record probe currents for these devices (always includes all vsources).
  std::vector<DeviceId> record_devices;
  /// Optional externally supplied initial condition (from a prior DC).
  std::optional<std::vector<double>> initial_state;
  SolverBackend backend = SolverBackend::kSparse;
  /// Test-only deterministic fault injection (see fault.hpp).  The solve
  /// index counts every Newton run of the analysis, initial DC included.
  const FaultPlan* fault_plan = nullptr;
  std::uint64_t fault_context = 0;

  /// Throws std::invalid_argument when the invariants are violated
  /// (dt_min <= dt_initial <= dt_max, positive tolerances and caps).
  void validate() const;
};

struct TranResult {
  bool ok = false;
  std::string error;    ///< rendered `failure` (kept for existing callers)
  SolveError failure;   ///< typed failure; kind == kNone on success
  EngineStats stats;
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  std::size_t newton_iterations = 0;

  std::vector<double> time;
  /// Recorded node voltages, indexed like `recorded_nodes`.
  std::vector<NodeId> recorded_nodes;
  std::vector<std::vector<double>> node_values;  ///< [node][step]
  /// Recorded device currents, indexed like `recorded_devices`.
  std::vector<DeviceId> recorded_devices;
  std::vector<std::vector<double>> device_values;  ///< [device][step]

  /// Waveform of a recorded node's voltage.
  util::Waveform node_waveform(NodeId n) const;
  /// Waveform of a recorded device's probe current.
  util::Waveform device_waveform(DeviceId d) const;
  /// Final solution vector (for chaining analyses).
  std::vector<double> final_state;
};

/// Computes the DC operating point.
DcResult dc_operating_point(Circuit& circuit, const DcOptions& options = {});

/// Workspace-reusing variant for flows that solve one topology repeatedly
/// (characterization corners, Monte-Carlo samples, bias replicas): the
/// caller-owned workspace keeps its symbolic analysis and buffers across
/// calls, so only the first solve of a topology pays for the analysis.
DcResult dc_operating_point(Circuit& circuit, const DcOptions& options,
                            NewtonWorkspace& ws);

/// DC sweep: re-solves the operating point for each value of a named DC
/// voltage source, warm-starting each solve from the previous solution
/// (the standard .dc analysis).  The source must be a DC VoltageSource.
std::vector<DcResult> dc_sweep(Circuit& circuit,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const DcOptions& options = {});

/// Parallel DC sweep.  `make_circuit` must build a fresh, equivalent circuit
/// on every call (workers never share one).  Values are processed in fixed
/// batches of `chunk` points; within a batch each solve warm-starts from the
/// previous point exactly like dc_sweep, and batch boundaries depend only on
/// `chunk` — never on the worker count — so the results are identical at any
/// PGMCML_THREADS setting, including the serial fallback.
std::vector<DcResult> dc_sweep_batch(
    const std::function<std::unique_ptr<Circuit>()>& make_circuit,
    const std::string& source_name, const std::vector<double>& values,
    const DcOptions& options = {}, std::size_t chunk = 8);

/// Runs a transient analysis over [0, t_stop], starting from the DC
/// operating point (or `options.initial_state` when provided).
TranResult transient(Circuit& circuit, double t_stop,
                     const TranOptions& options = {});

/// Workspace-reusing variant (see the DcOptions overload): repeated
/// transients over one topology share the symbolic analysis and scratch.
TranResult transient(Circuit& circuit, double t_stop,
                     const TranOptions& options, NewtonWorkspace& ws);

/// Convenience: current delivered by a named voltage source (conventional
/// sign: positive = source delivers current from its + terminal into the
/// circuit), as a waveform over the recorded transient.
util::Waveform supply_current(const Circuit& circuit, const TranResult& result,
                              const std::string& vsource_name);

}  // namespace pgmcml::spice
