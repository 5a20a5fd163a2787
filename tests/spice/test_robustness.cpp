// Engine robustness: failure paths, degenerate circuits, API misuse,
// deterministic fault injection, the transient recovery ladder, and graceful
// degradation of the flows built on the engine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/spice/fault.hpp"
#include "pgmcml/spice/solve_error.hpp"
#include "pgmcml/spice/technology.hpp"
#include "pgmcml/util/matrix.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::spice {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Linear RC testbench: converges instantly unless a fault says otherwise,
/// which makes fault-cursor indices easy to reason about (solve 0 is the
/// initial DC, solves 1.. are the transient step attempts).
struct RcFixture {
  Circuit c;
  NodeId a;
  RcFixture() {
    a = c.node("a");
    c.add_vsource("V", a, c.gnd(), SourceSpec::dc(1.0));
    c.add_resistor("R", a, c.gnd(), 1e3);
    c.add_capacitor("C", a, c.gnd(), 1e-15);
  }
};

TEST(Robustness, DuplicateDeviceNameRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, c.gnd(), 1e3);
  EXPECT_THROW(c.add_resistor("R1", a, c.gnd(), 2e3), std::invalid_argument);
}

TEST(Robustness, NonPositiveResistanceRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.add_resistor("R1", a, c.gnd(), 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_resistor("R2", a, c.gnd(), -5.0), std::invalid_argument);
}

TEST(Robustness, NegativeCapacitanceRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.add_capacitor("C1", a, c.gnd(), -1e-15),
               std::invalid_argument);
}

TEST(Robustness, NodeLookupIsIdempotent) {
  Circuit c;
  const NodeId a1 = c.node("alpha");
  const NodeId a2 = c.node("alpha");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(c.find_node("alpha"), a1);
  EXPECT_EQ(c.find_node("missing"), -1);
}

TEST(Robustness, InternalNodesNeverCollide) {
  Circuit c;
  c.node("x#0");  // occupy a name the generator might pick
  const NodeId n1 = c.internal_node("x");
  const NodeId n2 = c.internal_node("x");
  EXPECT_NE(n1, n2);
  EXPECT_NE(c.node_name(n1), "x#0");
}

TEST(Robustness, EmptyCircuitDcConverges) {
  Circuit c;
  c.node("only");  // a node with no devices at all
  c.add_resistor("R", c.find_node("only"), c.gnd(), 1e3);
  const DcResult dc = dc_operating_point(c);
  EXPECT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v(c, c.find_node("only")), 0.0, 1e-9);
}

TEST(Robustness, TransientZeroDurationReturnsInitialPoint) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_resistor("R", a, c.gnd(), 1e3);
  const TranResult tr = transient(c, 0.0);
  ASSERT_TRUE(tr.ok) << tr.error;
  ASSERT_GE(tr.time.size(), 1u);
  EXPECT_DOUBLE_EQ(tr.time.front(), 0.0);
}

TEST(Robustness, StackedSourcesBetweenSameNodesSolvable) {
  // Two parallel voltage sources with equal values: consistent but
  // degenerate; the MNA matrix stays solvable because each gets its own
  // branch unknown (the split of current between them is arbitrary but the
  // node voltage is exact).
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_resistor("RB", a, c.gnd(), 1e3);
  const DcResult dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v(c, a), 1.0, 1e-9);
}

TEST(Robustness, StiffCircuitTransientCompletes) {
  // Very small cap on a strongly driven node: stiff but integrable.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V", in, c.gnd(),
                SourceSpec::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 1e-9));
  c.add_resistor("R", in, out, 10.0);       // tau = 10 * 1e-18 = 1e-17 s
  c.add_capacitor("C", out, c.gnd(), 1e-18);
  const TranResult tr = transient(c, 1e-9);
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_NEAR(tr.node_waveform(out).value_at(0.9e-9), 1.0, 0.01);
}

TEST(Robustness, ManyBreakpointsHandled) {
  // A fast periodic source forces hundreds of breakpoints.
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V", a, c.gnd(),
                SourceSpec::pulse(0.0, 1.0, 0.0, 5e-12, 5e-12, 40e-12,
                                  100e-12));
  c.add_resistor("R", a, c.gnd(), 1e3);
  const TranResult tr = transient(c, 10e-9);
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_GT(tr.steps_accepted, 200u);
}

TEST(Robustness, MosfetBodyAtForwardBiasStillConverges) {
  Technology tech;
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  const NodeId b = c.node("b");
  c.add_vsource("VD", d, c.gnd(), SourceSpec::dc(0.6));
  c.add_vsource("VG", g, c.gnd(), SourceSpec::dc(0.8));
  c.add_vsource("VB", b, c.gnd(), SourceSpec::dc(1.0));  // strong forward bias
  c.add_mosfet("M", d, g, c.gnd(), b, tech.nmos(VtFlavor::kLowVt, 1e-6));
  const DcResult dc = dc_operating_point(c);
  EXPECT_TRUE(dc.converged);
}

TEST(Robustness, DeviceLookup) {
  Circuit c;
  const NodeId a = c.node("a");
  const DeviceId r = c.add_resistor("R1", a, c.gnd(), 1e3);
  EXPECT_EQ(c.find_device("R1"), r);
  EXPECT_EQ(c.find_device("R2"), -1);
  EXPECT_EQ(c.device(r).name(), "R1");
  EXPECT_EQ(c.device(r).terminals().size(), 2u);
}

// --- input validation (NaN/Inf and option invariants) -----------------------

TEST(Robustness, NonFiniteDeviceParamsRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.add_resistor("R1", a, c.gnd(), kNan), std::invalid_argument);
  EXPECT_THROW(c.add_resistor("R2", a, c.gnd(), kInf), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor("C1", a, c.gnd(), kNan), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor("C2", a, c.gnd(), 1e-15, kNan),
               std::invalid_argument);
  Technology tech;
  auto params = tech.nmos(VtFlavor::kLowVt, 1e-6);
  params.vth0 = kNan;
  EXPECT_THROW(c.add_mosfet("M1", a, a, c.gnd(), c.gnd(), params),
               std::invalid_argument);
  params = tech.nmos(VtFlavor::kLowVt, 1e-6);
  params.w = kInf;
  EXPECT_THROW(c.add_mosfet("M2", a, a, c.gnd(), c.gnd(), params),
               std::invalid_argument);
}

TEST(Robustness, NonFiniteSourceSpecRejected) {
  EXPECT_THROW(SourceSpec::dc(kNan), std::invalid_argument);
  EXPECT_THROW(SourceSpec::dc(kInf), std::invalid_argument);
  EXPECT_THROW(SourceSpec::pulse(0.0, kNan, 0.0, 1e-12, 1e-12, 1e-9),
               std::invalid_argument);
  EXPECT_THROW(SourceSpec::pulse(0.0, 1.0, kInf, 1e-12, 1e-12, 1e-9),
               std::invalid_argument);
  EXPECT_THROW(SourceSpec::pulse(0.0, 1.0, -1e-9, 1e-12, 1e-12, 1e-9),
               std::invalid_argument);
  EXPECT_THROW(SourceSpec::pwl({{0.0, 0.0}, {1e-9, kNan}}),
               std::invalid_argument);
  EXPECT_THROW(SourceSpec::pwl({{kNan, 0.0}}), std::invalid_argument);
}

TEST(Robustness, OptionInvariantsValidated) {
  RcFixture f;
  {
    DcOptions opt;
    opt.max_iterations = 0;
    EXPECT_THROW(dc_operating_point(f.c, opt), std::invalid_argument);
  }
  {
    DcOptions opt;
    opt.reltol = -1.0;
    EXPECT_THROW(dc_operating_point(f.c, opt), std::invalid_argument);
  }
  {
    TranOptions opt;
    opt.dt_min = 1e-12;  // > dt_initial
    EXPECT_THROW(transient(f.c, 1e-9, opt), std::invalid_argument);
  }
  {
    TranOptions opt;
    opt.dt_initial = 1e-9;  // > dt_max
    EXPECT_THROW(transient(f.c, 1e-9, opt), std::invalid_argument);
  }
  {
    TranOptions opt;
    opt.dv_max = 0.0;
    EXPECT_THROW(transient(f.c, 1e-9, opt), std::invalid_argument);
  }
  {
    TranOptions opt;
    opt.vabstol = kNan;
    EXPECT_THROW(transient(f.c, 1e-9, opt), std::invalid_argument);
  }
}

TEST(Robustness, TransientInitialStateSizeMismatchIsInvalidInput) {
  RcFixture f;
  TranOptions opt;
  opt.initial_state = std::vector<double>{0.0};  // wrong size
  const TranResult tr = transient(f.c, 1e-10, opt);
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(tr.failure.kind, SolveErrorKind::kInvalidInput);
}

// --- LuSolver guards ---------------------------------------------------------

TEST(Robustness, LuSolverFlagsNonFiniteMatrix) {
  util::Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = kNan;
  util::LuSolver lu;
  EXPECT_FALSE(lu.factorize(a));
  EXPECT_EQ(lu.status(), util::LuStatus::kNonFinite);
}

TEST(Robustness, LuSolverFlagsSingularMatrix) {
  util::Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;  // row 1 = 2 * row 0
  util::LuSolver lu;
  EXPECT_FALSE(lu.factorize(a));
  EXPECT_EQ(lu.status(), util::LuStatus::kSingular);
}

TEST(Robustness, LuSolverToleratesMixedScaleColumns) {
  // MNA matrices legitimately mix gmin-sized pivots with capacitor companion
  // conductances many decades larger; the per-column singularity threshold
  // must not flag that as singular.
  util::Matrix a(2, 2);
  a.at(0, 0) = 1e-12;  // gmin-only node
  a.at(1, 1) = 2e3;    // cap companion at tiny dt
  util::LuSolver lu;
  EXPECT_TRUE(lu.factorize(a));
  EXPECT_EQ(lu.status(), util::LuStatus::kOk);
}

// --- structured DC failures (real and injected) ------------------------------

TEST(Robustness, ParallelSourcesWithConflictingValuesAreSingular) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_vsource("V2", a, c.gnd(), SourceSpec::dc(2.0));  // contradiction
  c.add_resistor("R", a, c.gnd(), 1e3);
  const DcResult dc = dc_operating_point(c);
  EXPECT_FALSE(dc.converged);
  EXPECT_EQ(dc.error.kind, SolveErrorKind::kSingularMatrix);
  EXPECT_FALSE(dc.error.describe().empty());
}

TEST(Robustness, InjectedSingularMatrixFault) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 0, FaultKind::kSingularMatrix, 1000);
  DcOptions opt;
  opt.fault_plan = &plan;
  const DcResult dc = dc_operating_point(f.c, opt);
  EXPECT_FALSE(dc.converged);
  EXPECT_EQ(dc.error.kind, SolveErrorKind::kSingularMatrix);
  EXPECT_GT(dc.stats.faults_injected, 0u);
}

TEST(Robustness, InjectedNanResidualTripsNonFiniteGuard) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 0, FaultKind::kNanResidual, 1000);
  DcOptions opt;
  opt.fault_plan = &plan;
  const DcResult dc = dc_operating_point(f.c, opt);
  EXPECT_FALSE(dc.converged);
  EXPECT_EQ(dc.error.kind, SolveErrorKind::kNonFiniteValues);
}

TEST(Robustness, InjectedDivergenceExhaustsFallbacksToDcNoConvergence) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 0, FaultKind::kNewtonDiverge, 1000);
  DcOptions opt;
  opt.fault_plan = &plan;
  const DcResult dc = dc_operating_point(f.c, opt);
  EXPECT_FALSE(dc.converged);
  EXPECT_EQ(dc.error.kind, SolveErrorKind::kDcNoConvergence);
  // The fallback ladder actually ran before giving up.
  EXPECT_GT(dc.stats.gmin_step_stages, 0u);
  EXPECT_GT(dc.stats.source_step_stages, 0u);
  EXPECT_GT(dc.stats.newton_failures, 0u);
}

TEST(Robustness, SuccessfulDcReportsStats) {
  RcFixture f;
  const DcResult dc = dc_operating_point(f.c);
  ASSERT_TRUE(dc.converged);
  EXPECT_EQ(dc.error.kind, SolveErrorKind::kNone);
  EXPECT_TRUE(dc.error.ok());
  EXPECT_GT(dc.stats.newton_iterations, 0u);
  EXPECT_EQ(dc.stats.faults_injected, 0u);
}

// --- the transient recovery ladder, rung by rung -----------------------------
//
// Solve 0 is the initial DC; step attempts consume indices 1, 2, ...  With
// default options (dt_initial 1e-13, dt_min 1e-15), 7 consecutive failures
// halve dt down to dt_min and the 8th failure lands at the floor, so:
//   8 failures  -> rung 1 (dt below the nominal floor), then recovery
//   9 failures  -> rung 2 (temporary gmin boost), then recovery
//   10 failures -> rung 3 (backward-Euler fallback), then recovery
//   many        -> ladder exhausted: kTimestepUnderflow

TEST(Robustness, LadderRung1ShrinksDtBelowFloor) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 1, FaultKind::kNewtonDiverge, 8);
  TranOptions opt;
  opt.fault_plan = &plan;
  const TranResult tr = transient(f.c, 1e-11, opt);
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_EQ(tr.stats.dt_floor_breaches, 1u);
  EXPECT_EQ(tr.stats.gmin_boosts, 0u);
  EXPECT_GE(tr.stats.recovered_steps, 1u);
  EXPECT_EQ(tr.stats.faults_injected, 8u);
}

TEST(Robustness, LadderRung2BoostsGmin) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 1, FaultKind::kNewtonDiverge, 9);
  TranOptions opt;
  opt.fault_plan = &plan;
  const TranResult tr = transient(f.c, 1e-11, opt);
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_EQ(tr.stats.dt_floor_breaches, 1u);
  EXPECT_EQ(tr.stats.gmin_boosts, 1u);
  EXPECT_GE(tr.stats.recovered_steps, 1u);
}

TEST(Robustness, LadderRung3FallsBackToBackwardEuler) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 1, FaultKind::kNewtonDiverge, 10);
  TranOptions opt;
  opt.fault_plan = &plan;
  const TranResult tr = transient(f.c, 1e-11, opt);
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_EQ(tr.stats.dt_floor_breaches, 1u);
  EXPECT_EQ(tr.stats.gmin_boosts, 1u);
  EXPECT_GE(tr.stats.be_fallback_steps, 1u);
}

TEST(Robustness, LadderExhaustedIsTimestepUnderflow) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 1, FaultKind::kNewtonDiverge, 1000);
  TranOptions opt;
  opt.fault_plan = &plan;
  const TranResult tr = transient(f.c, 1e-11, opt);
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(tr.failure.kind, SolveErrorKind::kTimestepUnderflow);
  // All three rungs were climbed before giving up.
  EXPECT_EQ(tr.stats.dt_floor_breaches, 1u);
  EXPECT_EQ(tr.stats.gmin_boosts, 1u);
  EXPECT_FALSE(tr.error.empty());  // legacy string mirrors the typed failure
  EXPECT_NE(tr.error.find("timestep-underflow"), std::string::npos);
}

TEST(Robustness, InjectedNanDuringTransientIsRecovered) {
  RcFixture f;
  FaultPlan plan;
  plan.inject(0, 2, FaultKind::kNanResidual);  // one NaN mid-run
  TranOptions opt;
  opt.fault_plan = &plan;
  const TranResult tr = transient(f.c, 1e-11, opt);
  ASSERT_TRUE(tr.ok) << tr.error;  // one rejection, then business as usual
  EXPECT_GE(tr.stats.steps_rejected, 1u);
  EXPECT_EQ(tr.stats.faults_injected, 1u);
}

// --- fault-plan determinism under the parallel layer -------------------------

TEST(Robustness, FaultedDcSweepBatchIsThreadCountInvariant) {
  const auto make_divider = [] {
    auto c = std::make_unique<Circuit>();
    const auto n1 = c->node("in");
    const auto n2 = c->node("mid");
    c->add_vsource("V1", n1, c->gnd(), SourceSpec::dc(0.0));
    c->add_resistor("R1", n1, n2, 1e3);
    c->add_resistor("R2", n2, c->gnd(), 2e3);
    return c;
  };
  std::vector<double> values;
  for (int i = 0; i < 40; ++i) values.push_back(i * 0.05);

  FaultPlan plan;
  plan.inject(3, 0, FaultKind::kNewtonDiverge, 1000);   // point 3 never solves
  plan.inject(17, 0, FaultKind::kSingularMatrix, 1000); // point 17 neither
  DcOptions opt;
  opt.fault_plan = &plan;

  const auto run = [&] {
    return dc_sweep_batch(make_divider, "V1", values, opt);
  };
  util::set_parallel_threads(1);
  const auto serial = run();
  util::set_parallel_threads(4);
  const auto parallel = run();
  util::set_parallel_threads(0);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].converged, parallel[i].converged) << "point " << i;
    EXPECT_EQ(serial[i].error.kind, parallel[i].error.kind) << "point " << i;
    ASSERT_EQ(serial[i].x.size(), parallel[i].x.size());
    for (std::size_t k = 0; k < serial[i].x.size(); ++k) {
      EXPECT_EQ(serial[i].x[k], parallel[i].x[k])  // bitwise
          << "point " << i << " unknown " << k;
    }
  }
  EXPECT_FALSE(serial[3].converged);
  EXPECT_FALSE(serial[17].converged);
  EXPECT_EQ(serial[17].error.kind, SolveErrorKind::kSingularMatrix);
  EXPECT_TRUE(serial[0].converged);
}

// --- flow-level graceful degradation -----------------------------------------

TEST(Robustness, DpaFlowRetriesAndSkipsFaultedTraces) {
  core::DpaFlowOptions opt;
  opt.num_traces = 24;
  opt.samples = 120;
  // Trace 3 fails both attempts (skipped); trace 5 fails only the first
  // attempt (recovered by the retry).
  opt.acquisition_fault_hook = [](std::size_t t, int attempt) {
    if (t == 3) throw std::runtime_error("injected: trace 3");
    if (t == 5 && attempt == 0) throw std::runtime_error("injected: trace 5");
  };

  const auto run = [&] {
    return core::run_dpa_flow(cells::CellLibrary::pgmcml90(), opt);
  };
  util::set_parallel_threads(1);
  const auto serial = run();
  util::set_parallel_threads(4);
  const auto parallel = run();
  util::set_parallel_threads(0);

  // The flow survived: one skip, one recovery, all recorded.
  EXPECT_EQ(serial.diagnostics.attempts, 24u);
  EXPECT_EQ(serial.diagnostics.retries, 2u);
  EXPECT_EQ(serial.diagnostics.recovered, 1u);
  EXPECT_EQ(serial.diagnostics.skipped, 1u);
  EXPECT_FALSE(serial.diagnostics.clean());
  EXPECT_EQ(serial.traces.num_traces(), 23u);
  EXPECT_EQ(serial.diagnostics.to_json_value().at("skipped").as_number(), 1);

  // Bitwise identical at any thread count, faults included.
  ASSERT_EQ(parallel.traces.num_traces(), serial.traces.num_traces());
  for (std::size_t i = 0; i < serial.traces.num_traces(); ++i) {
    EXPECT_EQ(serial.traces.plaintext(i), parallel.traces.plaintext(i));
    const auto& a = serial.traces.trace(i);
    const auto& b = parallel.traces.trace(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
  EXPECT_EQ(serial.key_rank, parallel.key_rank);
  EXPECT_EQ(serial.diagnostics.skipped, parallel.diagnostics.skipped);
  EXPECT_EQ(serial.diagnostics.recovered, parallel.diagnostics.recovered);
}

TEST(Robustness, FlowDiagnosticsJsonShape) {
  FlowDiagnostics diag;
  diag.record_attempt();
  diag.record_retry("trace:7", "injected \"quoted\"\tfailure");
  diag.record_skip("trace:7", "still failing");
  const obs::json::Value json = diag.to_json_value();
  EXPECT_EQ(json.at("attempts").as_number(), 1);
  EXPECT_EQ(json.at("retries").as_number(), 1);
  EXPECT_EQ(json.at("skipped").as_number(), 1);
  const std::string text = json.dump();
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);  // escaping
  EXPECT_NE(text.find("\\t"), std::string::npos);
  const FlowDiagnostics back =
      FlowDiagnostics::from_json_value(obs::json::Value::parse(text));
  ASSERT_EQ(back.incidents.size(), 2u);
  EXPECT_EQ(back.incidents[0].error, diag.incidents[0].error);

  FlowDiagnostics other;
  other.record_attempt();
  other.record_retry("trace:9", "x");
  other.record_recovery("trace:9");
  diag.merge(other);
  EXPECT_EQ(diag.attempts, 2u);
  EXPECT_EQ(diag.recovered, 1u);
  EXPECT_EQ(diag.incidents.size(), 3u);
}

}  // namespace
}  // namespace pgmcml::spice
