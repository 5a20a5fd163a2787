// Sparse-vs-dense backend parity.
//
// The sparse structure-reusing solver is the production path; the dense
// LU backend is the reference.  Both stamp the identical pattern-indexed
// value array, so any disagreement is a solver bug, not a modelling
// difference.  This suite pins the contract from several directions:
//
//   * DC, transient, sweep and Monte-Carlo results agree across circuit
//     styles (static CMOS, conventional MCML, power-gated MCML); flow-level
//     circuits are solved with the backend passed explicitly in the options;
//   * deterministic fault injection produces the same SolveErrorKind on
//     both backends (the recovery ladder sees the same failure taxonomy);
//   * the stamp-plan digest is stable across rebuilds of one topology and
//     distinguishes different topologies, so workspace reuse is sound;
//   * the effort counters follow the success-only discipline and round-trip
//     through the JSON form the result cache persists.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/mcml/design.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/spice/fault.hpp"
#include "pgmcml/spice/technology.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/units.hpp"

namespace pgmcml::spice {
namespace {

using util::ns;
using util::ps;

/// Static CMOS inverter chain: full-swing, strongly nonlinear, no branch
/// equations beyond the two supplies.
void build_cmos_chain(Circuit& c, int stages, const SourceSpec& input) {
  Technology tech;
  const NodeId vdd = c.node("vdd");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(tech.vdd()));
  const NodeId in = c.node("in");
  c.add_vsource("VIN", in, c.gnd(), input);
  NodeId prev = in;
  for (int i = 0; i < stages; ++i) {
    const NodeId out = c.node("n" + std::to_string(i));
    c.add_mosfet("MP" + std::to_string(i), out, prev, vdd, vdd,
                 tech.pmos(VtFlavor::kLowVt, 2e-6));
    c.add_mosfet("MN" + std::to_string(i), out, prev, c.gnd(), c.gnd(),
                 tech.nmos(VtFlavor::kHighVt, 1e-6));
    c.add_capacitor("CL" + std::to_string(i), out, c.gnd(), 2e-15);
    prev = out;
  }
}

mcml::McmlDesign mcml_design(mcml::GatingTopology gating) {
  mcml::McmlDesign d;
  d.gating = gating;
  return d;
}

/// The transient McmlTestbench::run performs, on the given backend.
TranResult run_testbench(mcml::McmlTestbench& bench, SolverBackend backend) {
  TranOptions opt;
  opt.dt_max = 10 * ps;
  opt.backend = backend;
  return transient(bench.circuit(), bench.t_stop(), opt);
}

std::vector<double> dc_solve(Circuit& c, SolverBackend backend,
                             EngineStats* stats = nullptr) {
  DcOptions opt;
  opt.backend = backend;
  const DcResult dc = dc_operating_point(c, opt);
  EXPECT_TRUE(dc.converged) << dc.error.describe();
  if (stats != nullptr) *stats = dc.stats;
  return dc.x;
}

void expect_vectors_near(const std::vector<double>& a,
                         const std::vector<double>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at unknown " << i;
  }
}

// ---------------------------------------------------------------------------
// DC parity across circuit styles

TEST(SparseParity, DcCmosChainMatchesDense) {
  Circuit cs, cd;
  build_cmos_chain(cs, 4, SourceSpec::dc(0.35));
  build_cmos_chain(cd, 4, SourceSpec::dc(0.35));
  // Both backends converge to within the Newton tolerance of the same
  // operating point; the iterates themselves may differ by the tolerance.
  expect_vectors_near(dc_solve(cs, SolverBackend::kSparse),
                      dc_solve(cd, SolverBackend::kDense), 1e-6);
}

TEST(SparseParity, DcMcmlBufferMatchesDense) {
  const mcml::McmlDesign d = mcml_design(mcml::GatingTopology::kNone);
  mcml::McmlTestbench bs(mcml::CellKind::kBuf, d);
  mcml::McmlTestbench bd(mcml::CellKind::kBuf, d);
  expect_vectors_near(dc_solve(bs.circuit(), SolverBackend::kSparse),
                      dc_solve(bd.circuit(), SolverBackend::kDense), 1e-6);
}

TEST(SparseParity, DcPgMcmlGateMatchesDense) {
  // Power-gated AND3: two stacked levels plus the series sleep device.
  const mcml::McmlDesign d = mcml_design(mcml::GatingTopology::kSeriesSleep);
  mcml::McmlTestbench bs(mcml::CellKind::kAnd3, d);
  mcml::McmlTestbench bd(mcml::CellKind::kAnd3, d);
  expect_vectors_near(dc_solve(bs.circuit(), SolverBackend::kSparse),
                      dc_solve(bd.circuit(), SolverBackend::kDense), 1e-6);
}

// ---------------------------------------------------------------------------
// Transient parity

TEST(SparseParity, TransientCmosInverterMatchesDense) {
  const SourceSpec pulse =
      SourceSpec::pulse(0.0, 0.7, 0.2 * ns, 50 * ps, 50 * ps, 0.6 * ns,
                        1.2 * ns);
  TranResult results[2];
  const SolverBackend backends[2] = {SolverBackend::kSparse,
                                     SolverBackend::kDense};
  for (int i = 0; i < 2; ++i) {
    Circuit c;
    build_cmos_chain(c, 2, pulse);
    TranOptions opt;
    opt.backend = backends[i];
    results[i] = transient(c, 1.5 * ns, opt);
    ASSERT_TRUE(results[i].ok) << results[i].failure.describe();
  }
  // The adaptive step controller may pick slightly different grids, so
  // compare interpolated waveforms on a fixed grid rather than raw points.
  ASSERT_EQ(results[0].recorded_nodes.size(), results[1].recorded_nodes.size());
  for (std::size_t n = 0; n < results[0].recorded_nodes.size(); ++n) {
    ASSERT_EQ(results[0].recorded_nodes[n], results[1].recorded_nodes[n]);
    const util::Waveform ws = results[0].node_waveform(
        results[0].recorded_nodes[n]);
    const util::Waveform wd = results[1].node_waveform(
        results[1].recorded_nodes[n]);
    for (double t = 0.0; t <= 1.5 * ns; t += 10 * ps) {
      EXPECT_NEAR(ws.value_at(t), wd.value_at(t), 5e-3)
          << "node " << results[0].recorded_nodes[n] << " t=" << t;
    }
  }
}

TEST(SparseParity, TransientPgMcmlTestbenchMatchesDense) {
  const mcml::McmlDesign d = mcml_design(mcml::GatingTopology::kSeriesSleep);
  util::Waveform out[2];
  double t_stop = 0.0;
  const SolverBackend backends[2] = {SolverBackend::kSparse,
                                     SolverBackend::kDense};
  for (int i = 0; i < 2; ++i) {
    mcml::McmlTestbench bench(mcml::CellKind::kBuf, d);
    const TranResult tr = run_testbench(bench, backends[i]);
    ASSERT_TRUE(tr.ok) << tr.error;
    out[i] = bench.diff_output(tr);
    t_stop = bench.t_stop();
  }
  // Differential output swing is 0.4 V; 5 mV of grid-interpolation slack
  // keeps the comparison meaningful without pinning the step sequence.
  for (double t = 0.0; t <= t_stop; t += 20 * ps) {
    EXPECT_NEAR(out[0].value_at(t), out[1].value_at(t), 5e-3) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Sweep and Monte-Carlo parity

TEST(SparseParity, DcSweepMatchesDense) {
  std::vector<double> values;
  for (double v = 0.0; v <= 0.7; v += 0.05) values.push_back(v);
  std::vector<DcResult> results[2];
  const SolverBackend backends[2] = {SolverBackend::kSparse,
                                     SolverBackend::kDense};
  for (int i = 0; i < 2; ++i) {
    Circuit c;
    build_cmos_chain(c, 3, SourceSpec::dc(0.0));
    DcOptions opt;
    opt.backend = backends[i];
    results[i] = dc_sweep(c, "VIN", values, opt);
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t p = 0; p < results[0].size(); ++p) {
    ASSERT_TRUE(results[0][p].converged);
    ASSERT_TRUE(results[1][p].converged);
    expect_vectors_near(results[0][p].x, results[1][p].x, 1e-6);
  }
}

TEST(SparseParity, MonteCarloStatisticsMatchDense) {
  // Per-sample parity: two mismatched testbenches, drawn from the streams
  // monte_carlo_characterize forks from the same seed, are each solved on
  // both backends; the extracted metrics agree to within the solver
  // tolerance.
  const mcml::McmlDesign d = mcml_design(mcml::GatingTopology::kSeriesSleep);
  const SolverBackend backends[2] = {SolverBackend::kSparse,
                                     SolverBackend::kDense};
  util::Rng master(99);
  for (int sample = 0; sample < 2; ++sample) {
    const util::Rng stream = master.fork();
    std::optional<mcml::AwakeFigures> fig[2];
    for (int i = 0; i < 2; ++i) {
      util::Rng rng = stream;
      mcml::McmlDesign mismatched = d;
      mismatched.mismatch_rng = &rng;
      mcml::McmlTestbench bench(mcml::CellKind::kBuf, mismatched);
      const TranResult tr = run_testbench(bench, backends[i]);
      ASSERT_TRUE(tr.ok) << tr.error;
      fig[i] = bench.awake_figures(tr);
      ASSERT_TRUE(fig[i].has_value()) << "sample " << sample;
    }
    EXPECT_NEAR(fig[0]->delay, fig[1]->delay, 0.02 * ps) << sample;
    EXPECT_NEAR(fig[0]->swing, fig[1]->swing, 1e-3) << sample;
    EXPECT_NEAR(fig[0]->static_current, fig[1]->static_current, 1e-8)
        << sample;
  }
}

// ---------------------------------------------------------------------------
// Fault-injection parity: both backends walk the same failure taxonomy.

TEST(SparseParity, InjectedFaultKindsMatchAcrossBackends) {
  const FaultKind kinds[] = {FaultKind::kNewtonDiverge,
                             FaultKind::kSingularMatrix,
                             FaultKind::kNanResidual};
  for (const FaultKind kind : kinds) {
    FaultPlan plan;
    plan.inject(0, 0, kind, 1000);
    DcResult dc[2];
    const SolverBackend backends[2] = {SolverBackend::kSparse,
                                       SolverBackend::kDense};
    for (int i = 0; i < 2; ++i) {
      Circuit c;
      build_cmos_chain(c, 2, SourceSpec::dc(0.35));
      DcOptions opt;
      opt.backend = backends[i];
      opt.fault_plan = &plan;
      dc[i] = dc_operating_point(c, opt);
    }
    EXPECT_FALSE(dc[0].converged);
    EXPECT_FALSE(dc[1].converged);
    EXPECT_EQ(dc[0].error.kind, dc[1].error.kind)
        << "fault kind " << static_cast<int>(kind);
    EXPECT_EQ(dc[0].stats.faults_injected, dc[1].stats.faults_injected);
  }
}

TEST(SparseParity, TransientFaultOutcomeMatchesAcrossBackends) {
  FaultPlan plan;
  // Fault every Newton run after the initial DC: the first timestep climbs
  // and exhausts the recovery ladder on both backends.
  plan.inject(7, 1, FaultKind::kSingularMatrix, 1000);
  TranResult tr[2];
  const SolverBackend backends[2] = {SolverBackend::kSparse,
                                     SolverBackend::kDense};
  for (int i = 0; i < 2; ++i) {
    Circuit c;
    build_cmos_chain(c, 2,
                     SourceSpec::pulse(0.0, 0.7, 0.2 * ns, 50 * ps, 50 * ps,
                                       0.6 * ns, 1.2 * ns));
    TranOptions opt;
    opt.backend = backends[i];
    opt.fault_plan = &plan;
    opt.fault_context = 7;
    tr[i] = transient(c, 1.0 * ns, opt);
  }
  EXPECT_FALSE(tr[0].ok);
  EXPECT_FALSE(tr[1].ok);
  EXPECT_EQ(tr[0].failure.kind, tr[1].failure.kind);
}

// ---------------------------------------------------------------------------
// Pattern digest and workspace reuse

TEST(SparseDigest, StableAcrossRebuildsOfOneTopology) {
  Circuit a, b;
  build_cmos_chain(a, 3, SourceSpec::dc(0.1));
  build_cmos_chain(b, 3, SourceSpec::dc(0.6));  // different values, same shape
  a.finalize();
  b.finalize();
  EXPECT_EQ(a.stamp_plan().digest, b.stamp_plan().digest);
  EXPECT_NE(a.stamp_plan().digest, 0u);
}

TEST(SparseDigest, DistinguishesTopologies) {
  Circuit a, b;
  build_cmos_chain(a, 3, SourceSpec::dc(0.1));
  build_cmos_chain(b, 4, SourceSpec::dc(0.1));
  a.finalize();
  b.finalize();
  EXPECT_NE(a.stamp_plan().digest, b.stamp_plan().digest);
}

TEST(SparseDigest, WorkspaceReusesSymbolicAnalysisAcrossSolves) {
  NewtonWorkspace ws;
  DcOptions opt;
  opt.backend = SolverBackend::kSparse;

  Circuit first;
  build_cmos_chain(first, 3, SourceSpec::dc(0.2));
  const DcResult r1 = dc_operating_point(first, opt, ws);
  ASSERT_TRUE(r1.converged);
  EXPECT_EQ(r1.stats.symbolic_analyses, 1u);

  // Same topology, different values: the analysis is reused outright and
  // every factorization is a numeric pattern replay.
  Circuit second;
  build_cmos_chain(second, 3, SourceSpec::dc(0.5));
  const DcResult r2 = dc_operating_point(second, opt, ws);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(r2.stats.symbolic_analyses, 0u);
  EXPECT_GT(r2.stats.numeric_refactors, 0u);

  // A different topology re-analyzes.
  Circuit third;
  build_cmos_chain(third, 4, SourceSpec::dc(0.2));
  const DcResult r3 = dc_operating_point(third, opt, ws);
  ASSERT_TRUE(r3.converged);
  EXPECT_EQ(r3.stats.symbolic_analyses, 1u);
}

TEST(SparseDigest, ReusedWorkspaceStillMatchesDense) {
  // Reuse must not change answers: a workspace warmed on one set of values
  // produces the same solution a cold dense solve does.
  NewtonWorkspace ws;
  DcOptions sparse_opt;
  sparse_opt.backend = SolverBackend::kSparse;
  for (const double vin : {0.1, 0.3, 0.5, 0.7}) {
    Circuit cs, cd;
    build_cmos_chain(cs, 3, SourceSpec::dc(vin));
    build_cmos_chain(cd, 3, SourceSpec::dc(vin));
    const DcResult rs = dc_operating_point(cs, sparse_opt, ws);
    ASSERT_TRUE(rs.converged);
    DcOptions dense_opt;
    dense_opt.backend = SolverBackend::kDense;
    const DcResult rd = dc_operating_point(cd, dense_opt);
    ASSERT_TRUE(rd.converged);
    expect_vectors_near(rs.x, rd.x, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Counter discipline

TEST(SparseCounters, SuccessfulSolveCountsNoFailures) {
  for (const SolverBackend backend :
       {SolverBackend::kSparse, SolverBackend::kDense}) {
    Circuit c;
    build_cmos_chain(c, 3, SourceSpec::dc(0.35));
    EngineStats stats;
    dc_solve(c, backend, &stats);
    EXPECT_GE(stats.lu_factorizations, 1u);
    EXPECT_EQ(stats.lu_factorization_failures, 0u);
    EXPECT_GT(stats.lu_solves, 0u);
    if (backend == SolverBackend::kSparse) {
      EXPECT_EQ(stats.symbolic_analyses, 1u);
      // Newton takes several iterations; all but the first factorization
      // of the analysis are pattern replays.
      EXPECT_GT(stats.numeric_refactors, 0u);
      EXPECT_EQ(stats.lu_factorizations + stats.numeric_refactors,
                stats.lu_solves);
    } else {
      EXPECT_EQ(stats.symbolic_analyses, 0u);
      EXPECT_EQ(stats.numeric_refactors, 0u);
    }
  }
}

TEST(SparseCounters, SingularSystemCountsOnlyFailures) {
  for (const SolverBackend backend :
       {SolverBackend::kSparse, SolverBackend::kDense}) {
    Circuit c;
    const NodeId a = c.node("a");
    c.add_vsource("V1", a, c.gnd(), SourceSpec::dc(1.0));
    c.add_vsource("V2", a, c.gnd(), SourceSpec::dc(2.0));  // contradiction
    c.add_resistor("R", a, c.gnd(), 1e3);
    DcOptions opt;
    opt.backend = backend;
    const DcResult dc = dc_operating_point(c, opt);
    EXPECT_FALSE(dc.converged);
    EXPECT_EQ(dc.error.kind, SolveErrorKind::kSingularMatrix);
    // No factorization ever succeeded, so the success counters must not
    // claim one -- the satellite fix this suite pins down.
    EXPECT_EQ(dc.stats.lu_factorizations, 0u);
    EXPECT_EQ(dc.stats.numeric_refactors, 0u);
    EXPECT_GT(dc.stats.lu_factorization_failures, 0u);
    EXPECT_EQ(dc.stats.lu_solves, 0u);
  }
}

TEST(SparseCounters, EngineStatsJsonRoundTripsNewCounters) {
  EngineStats s;
  s.lu_factorizations = 3;
  s.lu_factorization_failures = 2;
  s.symbolic_analyses = 1;
  s.numeric_refactors = 40;
  s.lu_solves = 43;
  const EngineStats back = EngineStats::from_json_value(s.to_json_value());
  EXPECT_EQ(back.lu_factorizations, 3u);
  EXPECT_EQ(back.lu_factorization_failures, 2u);
  EXPECT_EQ(back.symbolic_analyses, 1u);
  EXPECT_EQ(back.numeric_refactors, 40u);
  EXPECT_EQ(back.lu_solves, 43u);
}

/// Every EngineStats counter with the JSON key the result cache persists
/// and the obs counter the engine publishes, in to_json_value order.  Both
/// names are pinned byte for byte: cache entries store the keys, and bench
/// manifests and the benchmark harness read the obs names.
struct CounterName {
  std::size_t EngineStats::*member;
  const char* key;
  const char* obs;
};
constexpr CounterName kCounterNames[] = {
    {&EngineStats::newton_iterations, "newton_iterations",
     "spice.newton_iterations"},
    {&EngineStats::newton_failures, "newton_failures", "spice.newton_failures"},
    {&EngineStats::lu_factorizations, "lu_factorizations",
     "spice.lu_factorizations"},
    {&EngineStats::lu_factorization_failures, "lu_factorization_failures",
     "spice.lu_factorization_failures"},
    {&EngineStats::lu_solves, "lu_solves", "spice.lu_solves"},
    {&EngineStats::symbolic_analyses, "symbolic_analyses",
     "spice.symbolic_analyses"},
    {&EngineStats::numeric_refactors, "numeric_refactors",
     "spice.numeric_refactors"},
    {&EngineStats::steps_accepted, "steps_accepted", "spice.steps_accepted"},
    {&EngineStats::steps_rejected, "steps_rejected", "spice.steps_rejected"},
    {&EngineStats::gmin_step_stages, "gmin_step_stages",
     "spice.gmin_step_stages"},
    {&EngineStats::source_step_stages, "source_step_stages",
     "spice.source_step_stages"},
    {&EngineStats::dt_floor_breaches, "dt_floor_breaches",
     "spice.ladder.dt_floor_breaches"},
    {&EngineStats::gmin_boosts, "gmin_boosts", "spice.ladder.gmin_boosts"},
    {&EngineStats::be_fallback_steps, "be_fallback_steps",
     "spice.ladder.be_fallback_steps"},
    {&EngineStats::recovered_steps, "recovered_steps",
     "spice.ladder.recovered_steps"},
    {&EngineStats::faults_injected, "faults_injected", "spice.faults_injected"},
};

TEST(SparseCounters, EveryCounterRoundTripsMergesAndPublishes) {
  ASSERT_EQ(std::size(kCounterNames), 16u);
  EngineStats s;
  EngineStats ones;
  for (std::size_t i = 0; i < std::size(kCounterNames); ++i) {
    s.*kCounterNames[i].member = 100 + i;
    ones.*kCounterNames[i].member = 1000 * (i + 1);
  }

  // JSON: every key, in order, and each field comes back.
  const obs::json::Value json = s.to_json_value();
  ASSERT_EQ(json.as_object().size(), std::size(kCounterNames));
  for (std::size_t i = 0; i < std::size(kCounterNames); ++i) {
    EXPECT_EQ(json.as_object()[i].first, kCounterNames[i].key);
  }
  const EngineStats back = EngineStats::from_json_value(json);
  EngineStats merged = s;
  merged.merge(ones);
  for (std::size_t i = 0; i < std::size(kCounterNames); ++i) {
    const auto m = kCounterNames[i].member;
    EXPECT_EQ(back.*m, 100 + i) << kCounterNames[i].key;
    EXPECT_EQ(merged.*m, 100 + i + 1000 * (i + 1)) << kCounterNames[i].key;
  }

  // obs: one published transient moves every spice.* counter by exactly its
  // field.  The fault plan fails the direct DC attempt and the first
  // gmin-stepping stage (so source stepping runs: solves 2-11, final
  // tighten 12), then ten consecutive runs of the first timestep (solves
  // 13-22), which climbs all three ladder rungs before the step recovers.
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_resistor("R", a, c.gnd(), 1e3);
  c.add_capacitor("C", a, c.gnd(), 1e-15);
  FaultPlan plan;
  plan.inject(0, 0, FaultKind::kNewtonDiverge, 2);
  plan.inject(0, 13, FaultKind::kNewtonDiverge, 10);
  TranOptions opt;
  opt.fault_plan = &plan;
  auto& reg = obs::Registry::global();
  const obs::Snapshot before = reg.snapshot();
  const TranResult tr = transient(c, 1e-11, opt);
  const obs::Snapshot after = reg.snapshot();
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_GT(tr.stats.gmin_step_stages, 0u);
  EXPECT_GT(tr.stats.source_step_stages, 0u);
  EXPECT_EQ(tr.stats.dt_floor_breaches, 1u);
  EXPECT_EQ(tr.stats.gmin_boosts, 1u);
  EXPECT_GT(tr.stats.be_fallback_steps, 0u);
  EXPECT_GT(tr.stats.recovered_steps, 0u);
  EXPECT_EQ(tr.stats.faults_injected, 12u);
  for (const CounterName& n : kCounterNames) {
    EXPECT_TRUE(after.counters.contains(n.obs)) << n.obs;
    EXPECT_EQ(after.counter(n.obs) - before.counter(n.obs), tr.stats.*n.member)
        << n.obs;
  }
}

}  // namespace
}  // namespace pgmcml::spice
