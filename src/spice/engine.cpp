#include "pgmcml/spice/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>

#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/matrix.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::spice {
namespace {

std::atomic<std::size_t> g_workspace_allocations{0};

/// Folds one analysis' effort counters into the global observability
/// registry.  Handles are hoisted into a function-local static (one mutexed
/// lookup per name for the whole process); Registry::reset keeps them valid.
void publish_engine_stats(const EngineStats& s) {
  static auto handles = [] {
    std::array<obs::Counter, std::size(kEngineCounters)> h;
    auto& reg = obs::Registry::global();
    for (std::size_t i = 0; i < h.size(); ++i) {
      h[i] = reg.counter(kEngineCounters[i].obs_name);
    }
    return h;
  }();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i].add(s.*kEngineCounters[i].member);
  }
}

/// Sweep-level publication: one aggregated EngineStats for all points plus
/// the point count, published serially after the (possibly parallel) sweep
/// so the obs deltas are deterministic at any thread count.
void publish_sweep_stats(const std::vector<DcResult>& results) {
  EngineStats total;
  for (const DcResult& r : results) total.merge(r.stats);
  publish_engine_stats(total);
  static obs::Counter points_counter =
      obs::Registry::global().counter("spice.dc_sweep_points");
  points_counter.add(results.size());
}

/// Sizes the workspace for a circuit's stamp plan and primes the per-backend
/// structures.  Only counts (and pays for) an allocation when the topology
/// actually changes, so calling this at the top of every solve is free in
/// steady state; in particular, a workspace that already holds the symbolic
/// analysis for this pattern keeps it.
void prepare_workspace(NewtonWorkspace& ws, std::size_t n,
                       const StampPlan& plan, SolverBackend backend,
                       EngineStats& stats) {
  bool reallocated = false;
  if (ws.b.size() != n) {
    ws.b.assign(n, 0.0);
    ws.x_new.assign(n, 0.0);
    reallocated = true;
  }
  if (ws.values.size() != plan.values_size()) {
    ws.values.assign(plan.values_size(), 0.0);
    reallocated = true;
  }
  if (ws.pattern_digest != plan.digest || !ws.analyzed) {
    // New topology for this workspace: the symbolic analysis and the dense
    // scatter target are both pattern-keyed, so both are invalidated.
    ws.pattern_digest = plan.digest;
    ws.analyzed = false;
    ws.dense_ready = false;
  }
  if (backend == SolverBackend::kSparse && !ws.analyzed) {
    ws.sparse.analyze(plan.pattern);
    ws.analyzed = true;
    ++stats.symbolic_analyses;
    reallocated = true;
  }
  if (backend == SolverBackend::kDense &&
      (!ws.dense_ready || ws.a.rows() != n || ws.a.cols() != n)) {
    // Zero once per topology; per-iteration scatter overwrites exactly the
    // pattern entries, so off-pattern entries stay zero forever.
    ws.a.resize(n, n);
    ws.a.fill(0.0);
    ws.dense_ready = true;
    reallocated = true;
  }
  const std::size_t nmos = plan.bank.size();
  if (ws.mos_vgs_iter.size() != nmos) {
    ws.mos_vgs_iter.assign(nmos, 0.0);
    ws.mos_vds_iter.assign(nmos, 0.0);
    ws.mos_have_iter.assign(nmos, 0);
    ws.mos_vgs.assign(nmos, 0.0);
    ws.mos_vds.assign(nmos, 0.0);
    ws.mos_vbs.assign(nmos, 0.0);
    ws.mos_id.assign(nmos, 0.0);
    ws.mos_gm.assign(nmos, 0.0);
    ws.mos_gds.assign(nmos, 0.0);
    ws.mos_gmb.assign(nmos, 0.0);
    reallocated = true;
  }
  if (reallocated) {
    g_workspace_allocations.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter realloc_counter =
        obs::Registry::global().counter("spice.workspace_reallocations");
    realloc_counter.add(1);
  }
}

/// SPICE-style per-iteration voltage limiting: clamps the change in a
/// MOSFET's controlling voltages to 0.3 V per Newton iterate, which keeps the
/// subthreshold exponential from exploding while converging in a handful of
/// iterations for 1.2 V circuits.
double limited_step(double v_new, double v_old) {
  constexpr double kMaxStep = 0.3;
  const double delta = v_new - v_old;
  if (delta > kMaxStep) return v_old + kMaxStep;
  if (delta < -kMaxStep) return v_old - kMaxStep;
  return v_new;
}

/// Batched MOSFET stamping, the only MOSFET stamp: gather terminal voltages
/// and apply NR limiting, evaluate every device in one flat pass over the
/// bank's contiguous arrays (the auto-vectorizable hot loop), then scatter
/// conductances into the sparse value array by precomputed slot and
/// currents into the RHS.  Each device linearizes as
/// id ~ e.id + gm dVgs + gds dVds + gmb dVbs, plus gmin from drain and
/// source to ground.
void stamp_mosfet_bank(const MosfetBank& bank, NewtonWorkspace& ws,
                       const std::vector<double>& x, double gmin,
                       bool first_iteration) {
  const std::size_t m = bank.size();
  if (m == 0) return;
  auto v_at = [&x](std::int32_t idx) { return idx < 0 ? 0.0 : x[idx]; };

  // Gather + limit.
  for (std::size_t i = 0; i < m; ++i) {
    const double vs = v_at(bank.vs[i]);
    double vgs = v_at(bank.vg[i]) - vs;
    double vds = v_at(bank.vd[i]) - vs;
    const double vbs = v_at(bank.vb[i]) - vs;
    if (ws.mos_have_iter[i] != 0 && !first_iteration) {
      vgs = limited_step(vgs, ws.mos_vgs_iter[i]);
      vds = limited_step(vds, ws.mos_vds_iter[i]);
    }
    ws.mos_vgs_iter[i] = vgs;
    ws.mos_vds_iter[i] = vds;
    ws.mos_have_iter[i] = 1;
    ws.mos_vgs[i] = vgs;
    ws.mos_vds[i] = vds;
    ws.mos_vbs[i] = vbs;
  }

  // Batch evaluation: one pass over contiguous SoA arrays.
  for (std::size_t i = 0; i < m; ++i) {
    const MosEval e =
        mos_eval(bank.params[i], ws.mos_vgs[i], ws.mos_vds[i], ws.mos_vbs[i]);
    ws.mos_id[i] = e.id;
    ws.mos_gm[i] = e.gm;
    ws.mos_gds[i] = e.gds;
    ws.mos_gmb[i] = e.gmb;
  }

  // Scatter by slot (same entry order as Mosfet::stamp_pattern).
  double* values = ws.values.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double gm = ws.mos_gm[i];
    const double gds = ws.mos_gds[i];
    const double gmb = ws.mos_gmb[i];
    const double gsum = gm + gds + gmb;
    const double ieq = ws.mos_id[i] - gm * ws.mos_vgs[i] -
                       gds * ws.mos_vds[i] - gmb * ws.mos_vbs[i];
    const std::int32_t* sl = bank.slot.data() + 10 * i;
    values[sl[0]] += gm;
    values[sl[1]] += gds;
    values[sl[2]] += gmb;
    values[sl[3]] += -gsum;
    values[sl[4]] += -gm;
    values[sl[5]] += -gds;
    values[sl[6]] += -gmb;
    values[sl[7]] += gsum;
    values[sl[8]] += gmin;
    values[sl[9]] += gmin;
    if (bank.rd[i] >= 0) ws.b[bank.rd[i]] -= ieq;
    if (bank.rs[i] >= 0) ws.b[bank.rs[i]] += ieq;
  }
}

/// Scatters the sparse value array into the dense reference matrix.  Only
/// pattern entries are written (the rest of the matrix is zero by the
/// prepare_workspace invariant), so this is O(nnz), not O(n^2).
void scatter_dense(const util::SparsePattern& p, const std::vector<double>& v,
                   util::Matrix& a) {
  for (std::size_t c = 0; c < p.n; ++c) {
    for (std::int32_t i = p.col_ptr[c]; i < p.col_ptr[c + 1]; ++i) {
      a.at(static_cast<std::size_t>(p.rows[i]), c) = v[i];
    }
  }
}

struct NewtonSettings {
  int max_iterations;
  double reltol;
  double vabstol;
  double gmin;
  double source_scale = 1.0;
  double t = 0.0;
  double dt = 0.0;
  Integration method = Integration::kNone;
  SolverBackend backend = SolverBackend::kSparse;
};

/// Factors the assembled system with the selected backend, maintaining the
/// success-only counter discipline.  On the sparse path an existing factor
/// is refactorized numerically (the flat pattern-replay hot path); a pivot
/// that decayed below the singularity threshold falls back to one full
/// factorization with fresh pivoting before the solve is declared singular,
/// matching the dense backend's per-iteration full pivoting.
bool factor_system(NewtonWorkspace& ws, const NewtonSettings& s,
                   EngineStats& stats, util::LuStatus& status) {
  if (s.backend == SolverBackend::kDense) {
    if (ws.lu.factorize(ws.a)) {
      ++stats.lu_factorizations;
      status = util::LuStatus::kOk;
      return true;
    }
    ++stats.lu_factorization_failures;
    status = ws.lu.status();
    return false;
  }
  // The value array carries one extra trash slot (ground-absorbed stamp
  // entries); the factorization sees exactly the pattern's nnz values.
  const std::span<const double> values(ws.values.data(),
                                       ws.sparse.pattern_nnz());
  if (ws.sparse.has_factor()) {
    if (ws.sparse.refactor(values)) {
      ++stats.numeric_refactors;
      status = util::LuStatus::kOk;
      return true;
    }
    if (ws.sparse.status() == util::LuStatus::kNonFinite) {
      ++stats.lu_factorization_failures;
      status = util::LuStatus::kNonFinite;
      return false;
    }
  }
  if (ws.sparse.factorize(values)) {
    ++stats.lu_factorizations;
    status = util::LuStatus::kOk;
    return true;
  }
  ++stats.lu_factorization_failures;
  status = ws.sparse.status();
  return false;
}

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;
  /// Failure kind when !converged (kNewtonMaxIter, kSingularMatrix or
  /// kNonFiniteValues); kNone on success.
  SolveErrorKind failure = SolveErrorKind::kNone;
};

/// Runs Newton-Raphson on the MNA system in place; `x` is the initial guess
/// on entry and the solution on (successful) exit.  All scratch storage
/// lives in `ws`; the loop itself allocates nothing.  Consults `fault` (one
/// cursor per analysis) so injected faults hit deterministic solve indices,
/// and reports effort into `stats`.
NewtonOutcome newton_solve(Circuit& circuit, std::vector<double>& x,
                           const NewtonSettings& s, NewtonWorkspace& ws,
                           EngineStats& stats, FaultCursor* fault) {
  const std::size_t n = circuit.num_unknowns();
  const std::size_t num_nodes = circuit.num_nodes();
  const StampPlan& plan = circuit.stamp_plan();
  prepare_workspace(ws, n, plan, s.backend, stats);

  NewtonOutcome out;
  bool poison_first_iterate = false;
  if (fault != nullptr) {
    FaultKind kind;
    if (fault->next(kind)) {
      ++stats.faults_injected;
      switch (kind) {
        case FaultKind::kNewtonDiverge:
          // Behave like a run that burned the whole iteration budget.
          out.iterations = s.max_iterations;
          out.failure = SolveErrorKind::kNewtonMaxIter;
          stats.newton_iterations += static_cast<std::size_t>(out.iterations);
          ++stats.newton_failures;
          return out;
        case FaultKind::kSingularMatrix:
          out.iterations = 1;
          out.failure = SolveErrorKind::kSingularMatrix;
          ++stats.newton_iterations;
          ++stats.newton_failures;
          return out;
        case FaultKind::kNanResidual:
          // Let the run proceed and poison the first candidate solution, so
          // the real non-finite guard is the thing that trips.
          poison_first_iterate = true;
          break;
      }
    }
  }

  auto& devices = circuit.devices();
  for (int iter = 0; iter < s.max_iterations; ++iter) {
    // Flat O(nnz) zero of exactly the stamped entries — the dense O(n^2)
    // fill is gone on both backends.
    std::fill(ws.values.begin(), ws.values.end(), 0.0);
    std::fill(ws.b.begin(), ws.b.end(), 0.0);
    StampContext ctx{ws.values.data(), plan.slots.data(), ws.b};
    ctx.t = s.t;
    ctx.dt = s.dt;
    ctx.method = s.method;
    ctx.gmin = s.gmin;
    ctx.source_scale = s.source_scale;
    ctx.first_iteration = (iter == 0);
    ctx.num_nodes = num_nodes;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (plan.banked[d] != 0) continue;  // MOSFETs go through the bank
      ctx.cursor = plan.device_slots[d];
      devices[d]->stamp(ctx);
    }
    stamp_mosfet_bank(plan.bank, ws, x, s.gmin, iter == 0);

    out.iterations = iter + 1;
    util::LuStatus lu_status = util::LuStatus::kOk;
    if (s.backend == SolverBackend::kDense) {
      scatter_dense(plan.pattern, ws.values, ws.a);
    }
    if (!factor_system(ws, s, stats, lu_status)) {
      out.failure = lu_status == util::LuStatus::kNonFinite
                        ? SolveErrorKind::kNonFiniteValues
                        : SolveErrorKind::kSingularMatrix;
      break;
    }
    if (s.backend == SolverBackend::kDense) {
      ws.lu.solve_into(ws.b, ws.x_new);
    } else {
      ws.sparse.solve_into(ws.b, ws.x_new);
    }
    ++stats.lu_solves;
    if (poison_first_iterate) {
      ws.x_new[0] = std::numeric_limits<double>::quiet_NaN();
      poison_first_iterate = false;
    }

    // Non-finite guard: a NaN/Inf iterate must become a structured failure
    // (and a rejected step upstream), never a garbage "solution".
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(ws.x_new[i])) {
        finite = false;
        break;
      }
    }
    if (!finite) {
      out.failure = SolveErrorKind::kNonFiniteValues;
      break;
    }

    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double tol =
          s.reltol * std::max(std::fabs(ws.x_new[i]), std::fabs(x[i])) +
          (i < num_nodes - 1 ? s.vabstol : 1e-9);
      if (std::fabs(ws.x_new[i] - x[i]) > tol) {
        converged = false;
        break;
      }
    }
    x.swap(ws.x_new);  // keep both buffers alive for the next iteration
    if (converged && iter > 0) {
      out.converged = true;
      break;
    }
  }

  if (!out.converged && out.failure == SolveErrorKind::kNone) {
    out.failure = SolveErrorKind::kNewtonMaxIter;
  }
  stats.newton_iterations += static_cast<std::size_t>(out.iterations);
  if (!out.converged) ++stats.newton_failures;
  return out;
}

DcResult dc_operating_point_ws(Circuit& circuit, const DcOptions& options,
                               NewtonWorkspace& ws, FaultCursor* fault) {
  options.validate();
  if (!circuit.finalized()) circuit.finalize();
  DcResult result;
  result.x.assign(circuit.num_unknowns(), 0.0);

  NewtonSettings s{};
  s.max_iterations = options.max_iterations;
  s.reltol = options.reltol;
  s.vabstol = options.vabstol;
  s.gmin = options.gmin;
  s.backend = options.backend;

  SolveErrorKind last_failure = SolveErrorKind::kNone;

  // 1) Direct attempt from the zero state.
  {
    std::vector<double> x(circuit.num_unknowns(), 0.0);
    const NewtonOutcome o = newton_solve(circuit, x, s, ws, result.stats, fault);
    result.iterations += o.iterations;
    if (o.converged) {
      result.converged = true;
      result.method = "direct";
      result.x = std::move(x);
      return result;
    }
    last_failure = o.failure;
  }

  // 2) Gmin stepping: solve with a large gmin and tighten by decades,
  //    reusing the previous stage's solution as the initial guess.
  {
    std::vector<double> x(circuit.num_unknowns(), 0.0);
    bool ok = true;
    for (double gmin = 1e-3; gmin >= options.gmin * 0.99; gmin *= 0.1) {
      NewtonSettings stage = s;
      stage.gmin = std::max(gmin, options.gmin);
      ++result.stats.gmin_step_stages;
      const NewtonOutcome o =
          newton_solve(circuit, x, stage, ws, result.stats, fault);
      result.iterations += o.iterations;
      if (!o.converged) {
        last_failure = o.failure;
        ok = false;
        break;
      }
    }
    if (ok) {
      result.converged = true;
      result.method = "gmin-step";
      result.x = std::move(x);
      return result;
    }
  }

  // 3) Source stepping: ramp all independent sources from 10% to 100%.
  {
    std::vector<double> x(circuit.num_unknowns(), 0.0);
    bool ok = true;
    for (double scale = 0.1; scale <= 1.0001; scale += 0.1) {
      NewtonSettings stage = s;
      stage.source_scale = std::min(scale, 1.0);
      stage.gmin = std::max(options.gmin, 1e-9);
      ++result.stats.source_step_stages;
      const NewtonOutcome o =
          newton_solve(circuit, x, stage, ws, result.stats, fault);
      result.iterations += o.iterations;
      if (!o.converged) {
        last_failure = o.failure;
        ok = false;
        break;
      }
    }
    if (ok) {
      // Final tighten at full sources with the target gmin.
      const NewtonOutcome o =
          newton_solve(circuit, x, s, ws, result.stats, fault);
      result.iterations += o.iterations;
      if (o.converged) {
        result.converged = true;
        result.method = "source-step";
        result.x = std::move(x);
        return result;
      }
      last_failure = o.failure;
    }
  }

  // Structured failure: preserve a specific numeric cause (singular /
  // non-finite); plain non-convergence becomes kDcNoConvergence.
  if (last_failure == SolveErrorKind::kSingularMatrix ||
      last_failure == SolveErrorKind::kNonFiniteValues) {
    result.error.kind = last_failure;
    result.error.message = "DC operating point failed";
  } else {
    result.error.kind = SolveErrorKind::kDcNoConvergence;
    result.error.message =
        "DC operating point failed to converge (direct, gmin-stepping and "
        "source-stepping exhausted)";
  }
  return result;
}

/// One sweep point: warm-started Newton run if a previous solution exists,
/// full operating-point search otherwise.
DcResult dc_sweep_point(Circuit& circuit, VoltageSource* source, double value,
                        const DcOptions& options,
                        const std::vector<double>& warm, NewtonWorkspace& ws,
                        std::uint64_t fault_context) {
  source->set_value(value);
  FaultCursor cursor(options.fault_plan, fault_context);
  DcResult r;
  if (!warm.empty()) {
    NewtonSettings s{};
    s.max_iterations = options.max_iterations;
    s.reltol = options.reltol;
    s.vabstol = options.vabstol;
    s.gmin = options.gmin;
    s.backend = options.backend;
    std::vector<double> x = warm;
    const NewtonOutcome o = newton_solve(circuit, x, s, ws, r.stats, &cursor);
    if (o.converged) {
      r.converged = true;
      r.method = "warm";
      r.iterations = o.iterations;
      r.x = std::move(x);
    }
  }
  if (!r.converged) {
    const EngineStats warm_stats = r.stats;
    r = dc_operating_point_ws(circuit, options, ws, &cursor);
    r.stats.merge(warm_stats);
  }
  return r;
}

VoltageSource* find_sweep_source(Circuit& circuit,
                                 const std::string& source_name) {
  const DeviceId id = circuit.find_device(source_name);
  if (id < 0) {
    throw std::invalid_argument("dc_sweep: no such source " + source_name);
  }
  auto* source = dynamic_cast<VoltageSource*>(&circuit.device(id));
  if (source == nullptr) {
    throw std::invalid_argument("dc_sweep: " + source_name +
                                " is not a voltage source");
  }
  return source;
}

void require_positive(double v, const char* what) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    throw std::invalid_argument(std::string(what) +
                                " must be positive and finite");
  }
}

// gmin = 0 is a legitimate setting (convergence aid disabled), so it gets a
// weaker check than the tolerances.
void require_non_negative(double v, const char* what) {
  if (!(v >= 0.0) || !std::isfinite(v)) {
    throw std::invalid_argument(std::string(what) +
                                " must be non-negative and finite");
  }
}

}  // namespace

void DcOptions::validate() const {
  if (max_iterations <= 0) {
    throw std::invalid_argument("DcOptions: max_iterations must be positive");
  }
  require_positive(reltol, "DcOptions: reltol");
  require_positive(vabstol, "DcOptions: vabstol");
  require_non_negative(gmin, "DcOptions: gmin");
}

void TranOptions::validate() const {
  require_positive(dt_min, "TranOptions: dt_min");
  require_positive(dt_max, "TranOptions: dt_max");
  require_positive(dt_initial, "TranOptions: dt_initial");
  if (!(dt_min <= dt_initial)) {
    throw std::invalid_argument("TranOptions: dt_min must be <= dt_initial");
  }
  if (!(dt_initial <= dt_max)) {
    throw std::invalid_argument("TranOptions: dt_initial must be <= dt_max");
  }
  require_positive(dv_max, "TranOptions: dv_max");
  if (max_newton <= 0) {
    throw std::invalid_argument("TranOptions: max_newton must be positive");
  }
  require_positive(reltol, "TranOptions: reltol");
  require_positive(vabstol, "TranOptions: vabstol");
  require_non_negative(gmin, "TranOptions: gmin");
}

std::size_t newton_workspace_allocations() {
  return g_workspace_allocations.load(std::memory_order_relaxed);
}

DcResult dc_operating_point(Circuit& circuit, const DcOptions& options) {
  NewtonWorkspace ws;
  return dc_operating_point(circuit, options, ws);
}

DcResult dc_operating_point(Circuit& circuit, const DcOptions& options,
                            NewtonWorkspace& ws) {
  obs::ScopedTimer span("spice.dc");
  FaultCursor cursor(options.fault_plan, options.fault_context);
  DcResult result = dc_operating_point_ws(circuit, options, ws, &cursor);
  publish_engine_stats(result.stats);
  return result;
}

std::vector<DcResult> dc_sweep(Circuit& circuit,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const DcOptions& options) {
  obs::ScopedTimer span("spice.dc_sweep");
  VoltageSource* source = find_sweep_source(circuit, source_name);
  options.validate();
  if (!circuit.finalized()) circuit.finalize();

  NewtonWorkspace ws;
  std::vector<DcResult> results;
  results.reserve(values.size());
  std::vector<double> warm;
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Fault context = point index, matching dc_sweep_batch, so a plan
    // targets the same sweep point in both entry points.
    DcResult r = dc_sweep_point(circuit, source, values[i], options, warm, ws,
                                options.fault_context + i);
    if (r.converged) warm = r.x;
    results.push_back(std::move(r));
  }
  publish_sweep_stats(results);
  return results;
}

std::vector<DcResult> dc_sweep_batch(
    const std::function<std::unique_ptr<Circuit>()>& make_circuit,
    const std::string& source_name, const std::vector<double>& values,
    const DcOptions& options, std::size_t chunk) {
  obs::ScopedTimer span("spice.dc_sweep_batch");
  if (chunk == 0) chunk = 1;
  options.validate();
  // Validate the factory and source name eagerly, matching dc_sweep's throws.
  {
    std::unique_ptr<Circuit> probe = make_circuit();
    if (probe == nullptr) {
      throw std::invalid_argument("dc_sweep_batch: null circuit factory");
    }
    find_sweep_source(*probe, source_name);
  }

  std::vector<DcResult> results(values.size());
  const std::size_t batches = (values.size() + chunk - 1) / chunk;
  // grain=1: one task per batch.  Batch boundaries (and therefore every
  // warm-start chain) are fixed by `chunk` alone, keeping the sweep
  // deterministic at any worker count.  Fault contexts are per point, so an
  // injected fault lands on the same point regardless of batching.
  util::parallel_for(
      batches,
      [&](std::size_t bi) {
        const std::size_t lo = bi * chunk;
        const std::size_t hi = std::min(values.size(), lo + chunk);
        std::unique_ptr<Circuit> circuit = make_circuit();
        VoltageSource* source = find_sweep_source(*circuit, source_name);
        if (!circuit->finalized()) circuit->finalize();
        NewtonWorkspace ws;
        std::vector<double> warm;
        for (std::size_t i = lo; i < hi; ++i) {
          DcResult r = dc_sweep_point(*circuit, source, values[i], options,
                                      warm, ws, options.fault_context + i);
          if (r.converged) warm = r.x;
          results[i] = std::move(r);
        }
      },
      /*grain=*/1);
  publish_sweep_stats(results);
  return results;
}

namespace {

TranResult transient_impl(Circuit& circuit, double t_stop,
                          const TranOptions& options, NewtonWorkspace& ws) {
  options.validate();
  if (!circuit.finalized()) circuit.finalize();
  TranResult result;
  FaultCursor fault(options.fault_plan, options.fault_context);

  auto fail = [&result](SolveErrorKind kind, std::string message, double t) {
    result.failure.kind = kind;
    result.failure.message = std::move(message);
    result.failure.time = t;
    result.error = result.failure.describe();
    return result;
  };

  // Initial condition: explicit state or DC operating point.
  std::vector<double> x;
  if (options.initial_state.has_value()) {
    x = *options.initial_state;
    if (x.size() != circuit.num_unknowns()) {
      return fail(SolveErrorKind::kInvalidInput, "initial_state size mismatch",
                  0.0);
    }
  } else {
    DcOptions dc_opts;
    dc_opts.gmin = options.gmin;
    dc_opts.backend = options.backend;
    const DcResult dc = dc_operating_point_ws(circuit, dc_opts, ws, &fault);
    result.stats.merge(dc.stats);
    if (!dc.converged) {
      return fail(dc.error.kind,
                  "DC operating point failed to converge: " + dc.error.message,
                  0.0);
    }
    x = dc.x;
  }

  const std::size_t num_nodes = circuit.num_nodes();
  {
    Solution sol(x, num_nodes);
    for (auto& dev : circuit.devices()) dev->reset_state(sol);
  }

  // Decide what to record.
  if (options.record_nodes.empty()) {
    for (NodeId n = 1; n < static_cast<NodeId>(num_nodes); ++n) {
      result.recorded_nodes.push_back(n);
    }
  } else {
    result.recorded_nodes = options.record_nodes;
  }
  result.recorded_devices = options.record_devices;
  for (std::size_t i = 0; i < circuit.num_devices(); ++i) {
    const auto id = static_cast<DeviceId>(i);
    if (dynamic_cast<const VoltageSource*>(&circuit.device(id)) != nullptr &&
        std::find(result.recorded_devices.begin(),
                  result.recorded_devices.end(),
                  id) == result.recorded_devices.end()) {
      result.recorded_devices.push_back(id);
    }
  }
  result.node_values.assign(result.recorded_nodes.size(), {});
  result.device_values.assign(result.recorded_devices.size(), {});

  // Preallocate the recording arrays: a dt_max-paced run needs t_stop/dt_max
  // points; double it for refinement around breakpoints so steady-state
  // recording never reallocates.
  const std::size_t est_points = std::min<std::size_t>(
      1 << 20, static_cast<std::size_t>(t_stop / options.dt_max) * 2 + 64);
  result.time.reserve(est_points);
  for (auto& v : result.node_values) v.reserve(est_points);
  for (auto& v : result.device_values) v.reserve(est_points);

  auto record = [&](double t, const std::vector<double>& state) {
    Solution sol(state, num_nodes);
    result.time.push_back(t);
    for (std::size_t i = 0; i < result.recorded_nodes.size(); ++i) {
      result.node_values[i].push_back(sol.v(result.recorded_nodes[i]));
    }
    for (std::size_t i = 0; i < result.recorded_devices.size(); ++i) {
      result.device_values[i].push_back(
          circuit.device(result.recorded_devices[i]).probe_current(sol, t));
    }
  };
  record(0.0, x);

  std::vector<double> breakpoints = circuit.source_breakpoints(t_stop);
  std::size_t bp_index = 0;

  double t = 0.0;
  double dt = options.dt_initial;
  bool after_discontinuity = true;  // start with backward Euler
  std::vector<double> x_try;        // step candidate, reused across steps

  // Recovery-ladder state.  dt_floor and the gmin boost are per-step
  // excursions (reset after a successful step); the backward-Euler fallback
  // is sticky for the rest of the analysis once engaged.
  double dt_floor = options.dt_min;
  bool gmin_boosted = false;
  bool be_fallback = false;
  constexpr double kFloorShrink = 1e-3;  // rung 1: dt_min -> dt_min * 1e-3
  constexpr double kGminBoost = 1e3;     // rung 2: gmin -> gmin * 1e3

  while (t < t_stop - 1e-18) {
    dt = std::min({dt, options.dt_max, t_stop - t});
    // Land exactly on the next source breakpoint.
    bool hitting_breakpoint = false;
    while (bp_index < breakpoints.size() && breakpoints[bp_index] <= t + 1e-18) {
      ++bp_index;
    }
    if (bp_index < breakpoints.size() &&
        breakpoints[bp_index] < t + dt - 1e-18) {
      dt = breakpoints[bp_index] - t;
      hitting_breakpoint = true;
    } else if (bp_index < breakpoints.size() &&
               breakpoints[bp_index] <= t + dt + 1e-18) {
      hitting_breakpoint = true;
    }

    // Attempt the step; on failure, halve dt down to the active floor, then
    // climb the recovery ladder before giving up.
    bool accepted = false;
    SolveErrorKind last_failure = SolveErrorKind::kNone;
    while (!accepted) {
      x_try = x;
      NewtonSettings s{};
      s.max_iterations = options.max_newton;
      s.reltol = options.reltol;
      s.vabstol = options.vabstol;
      s.gmin = gmin_boosted ? options.gmin * kGminBoost : options.gmin;
      s.backend = options.backend;
      s.t = t + dt;
      s.dt = dt;
      s.method = (be_fallback || after_discontinuity)
                     ? Integration::kBackwardEuler
                     : Integration::kTrapezoidal;
      const NewtonOutcome o =
          newton_solve(circuit, x_try, s, ws, result.stats, &fault);
      result.newton_iterations += static_cast<std::size_t>(o.iterations);
      if (!o.converged) last_failure = o.failure;

      // Accuracy control: largest node-voltage change this step.
      double dv = 0.0;
      if (o.converged) {
        for (std::size_t i = 0; i + 1 < num_nodes; ++i) {
          dv = std::max(dv, std::fabs(x_try[i] - x[i]));
        }
      }
      if (o.converged && (dv <= options.dv_max || dt <= dt_floor)) {
        // Accept.
        t += dt;
        x.swap(x_try);
        Solution sol(x, num_nodes);
        for (auto& dev : circuit.devices()) dev->commit(sol, t, dt);
        record(t, x);
        ++result.steps_accepted;
        ++result.stats.steps_accepted;
        if (be_fallback) ++result.stats.be_fallback_steps;
        if (dt < options.dt_min || gmin_boosted) {
          ++result.stats.recovered_steps;
          // The excursion is temporary: restore the nominal floor and gmin
          // and re-enter the normal step-size regime.
          dt = std::max(dt, options.dt_min);
          dt_floor = options.dt_min;
          gmin_boosted = false;
        }
        after_discontinuity = hitting_breakpoint;
        if (o.iterations <= 10 && dv < 0.5 * options.dv_max) {
          dt *= 1.5;
        }
        accepted = true;
      } else {
        ++result.steps_rejected;
        ++result.stats.steps_rejected;
        hitting_breakpoint = false;
        after_discontinuity = true;  // retry conservatively with BE
        if (dt > dt_floor) {
          dt = std::max(dt * 0.5, dt_floor);
          continue;
        }
        // The floor itself failed: climb the ladder deterministically.
        if (dt_floor == options.dt_min) {
          // Rung 1: push dt below the nominal floor.
          dt_floor = options.dt_min * kFloorShrink;
          dt = dt_floor;
          ++result.stats.dt_floor_breaches;
        } else if (!gmin_boosted) {
          // Rung 2: temporary gmin boost at the shrunken floor.
          gmin_boosted = true;
          ++result.stats.gmin_boosts;
        } else if (!be_fallback) {
          // Rung 3: abandon trapezoidal for the rest of the analysis.
          be_fallback = true;
        } else {
          return fail(
              SolveErrorKind::kTimestepUnderflow,
              "transient step failed below minimum timestep with the "
              "recovery ladder exhausted (dt shrink, gmin boost, "
              "backward-Euler fallback; last failure: " +
                  std::string(to_string(last_failure)) + ")",
              t);
        }
      }
    }
  }

  result.final_state = x;
  result.ok = true;
  return result;
}

}  // namespace

TranResult transient(Circuit& circuit, double t_stop,
                     const TranOptions& options) {
  NewtonWorkspace ws;  // shared by the initial DC and every timestep
  return transient(circuit, t_stop, options, ws);
}

TranResult transient(Circuit& circuit, double t_stop,
                     const TranOptions& options, NewtonWorkspace& ws) {
  obs::ScopedTimer span("spice.transient");
  TranResult result = transient_impl(circuit, t_stop, options, ws);
  publish_engine_stats(result.stats);
  return result;
}

util::Waveform TranResult::node_waveform(NodeId n) const {
  for (std::size_t i = 0; i < recorded_nodes.size(); ++i) {
    if (recorded_nodes[i] == n) {
      util::Waveform w;
      for (std::size_t k = 0; k < time.size(); ++k) {
        w.append(time[k], node_values[i][k]);
      }
      return w;
    }
  }
  throw std::out_of_range("TranResult::node_waveform: node not recorded");
}

util::Waveform TranResult::device_waveform(DeviceId d) const {
  for (std::size_t i = 0; i < recorded_devices.size(); ++i) {
    if (recorded_devices[i] == d) {
      util::Waveform w;
      for (std::size_t k = 0; k < time.size(); ++k) {
        w.append(time[k], device_values[i][k]);
      }
      return w;
    }
  }
  throw std::out_of_range("TranResult::device_waveform: device not recorded");
}

util::Waveform supply_current(const Circuit& circuit, const TranResult& result,
                              const std::string& vsource_name) {
  const DeviceId id = circuit.find_device(vsource_name);
  if (id < 0) {
    throw std::invalid_argument("supply_current: no such source " +
                                vsource_name);
  }
  // The MNA branch current is the current flowing from + through the source;
  // a supply delivering current to the circuit therefore probes negative.
  return result.device_waveform(id).scaled(-1.0);
}

}  // namespace pgmcml::spice
