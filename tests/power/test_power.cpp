#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::power {
namespace {

using cells::CellLibrary;
using mcml::CellKind;
using netlist::Design;
using netlist::kNoNet;
using netlist::NetId;
using netlist::SimEvent;

Design two_buffer_design() {
  Design d("two_buf");
  const NetId a = d.add_net("a");
  const NetId w = d.add_net("w");
  const NetId o = d.add_net("o");
  d.mark_input(a, "a");
  d.add_instance({"u0", CellKind::kBuf, {a}, kNoNet, kNoNet, {w}});
  d.add_instance({"u1", CellKind::kBuf, {w}, kNoNet, kNoNet, {o}});
  d.mark_output(o, "o");
  return d;
}

TraceOptions quiet_options() {
  TraceOptions o;
  o.samples = 2000;
  o.dt = 1e-12;
  o.include_noise = false;
  o.mismatch_sigma = 0.0;
  o.residual_sigma = 0.0;
  o.output_load_factor = 1.0;
  return o;
}

TEST(Kernels, DefaultShapesNormalized) {
  const CurrentKernels k = default_kernels();
  // CMOS toggle integrates to unit charge.
  EXPECT_NEAR(k.cmos_toggle.integral(0.0, 1e-9), 1.0, 0.01);
  // MCML steering transient has (near) zero net area.
  EXPECT_NEAR(k.mcml_switch.integral(0.0, 1e-9), 0.0, 0.005);
  // Wake kernel ends at the full (normalized) current.
  EXPECT_NEAR(k.pg_wake.value_at(k.pg_wake.t_end()), 1.0, 0.01);
  EXPECT_NEAR(k.pg_sleep.value_at(k.pg_sleep.t_end()), 0.0, 0.01);
}

TEST(Kernels, SpiceExtractionProducesPlausibleShapes) {
  spice::FlowDiagnostics diag;
  const CurrentKernels k = kernels_from_spice(mcml::McmlDesign{}, diag);
  // Switch and wake transients, each through the retry step.
  EXPECT_EQ(diag.attempts, 2u);
  EXPECT_EQ(diag.skipped, 0u);
  // The extracted wake transient must rise from (near) zero to the
  // normalized static level.
  EXPECT_LT(std::fabs(k.pg_wake.value_at(0.0)), 0.2);
  EXPECT_NEAR(k.pg_wake.value_at(k.pg_wake.t_end()), 1.0, 0.35);
  // The switching transient is a small disturbance around zero.
  EXPECT_LT(k.mcml_switch.max_value(), 0.8);
  EXPECT_GT(k.mcml_switch.min_value(), -0.8);
}

TEST(Tracer, McmlFloorEqualsSumOfCellCurrents) {
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::mcml90();
  const PowerTracer tracer(d, lib, default_kernels(), quiet_options());
  EXPECT_NEAR(tracer.awake_current(), 2 * 50e-6, 1e-9);
  const auto trace = tracer.trace({});
  EXPECT_NEAR(util::mean(trace), 100e-6, 1e-9);
}

TEST(Tracer, CmosQuietTraceIsLeakageOnly) {
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::cmos90();
  const PowerTracer tracer(d, lib, default_kernels(), quiet_options());
  const auto trace = tracer.trace({});
  EXPECT_NEAR(util::mean(trace) * lib.vdd(), tracer.leakage_power(), 1e-12);
  EXPECT_LT(tracer.leakage_power(), 1e-6);  // two cells, tens of nW
}

TEST(Tracer, CmosRisingEventDepositsCellCharge) {
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::cmos90();
  TraceOptions opt = quiet_options();
  const PowerTracer tracer(d, lib, default_kernels(), opt);
  const std::vector<SimEvent> rise = {{0.2e-9, 1, true, 0}};
  const std::vector<SimEvent> fall = {{0.2e-9, 1, false, 0}};
  const auto t_rise = tracer.trace(rise);
  const auto t_fall = tracer.trace(fall);
  const double base = tracer.leakage_power() / lib.vdd();
  double q_rise = 0.0;
  double q_fall = 0.0;
  for (double v : t_rise) q_rise += (v - base) * opt.dt;
  for (double v : t_fall) q_fall += (v - base) * opt.dt;
  const double q_cell = lib.cell(CellKind::kBuf).switch_energy / lib.vdd();
  EXPECT_NEAR(q_rise, q_cell, 0.05 * q_cell);
  EXPECT_NEAR(q_fall, 0.0, 0.01 * q_cell);  // discharge draws nothing
}

TEST(Tracer, SwitchedChargeMatchesKernelIntegral) {
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::cmos90();
  const PowerTracer tracer(d, lib, default_kernels(), quiet_options());
  const std::vector<SimEvent> events = {{0.2e-9, 1, true, 0},
                                        {0.4e-9, 2, true, 1},
                                        {0.6e-9, 1, false, 0}};
  const double q = tracer.switched_charge(events);
  const double q_cell = lib.cell(CellKind::kBuf).switch_energy / lib.vdd();
  EXPECT_NEAR(q, 2 * q_cell, 1e-18);
}

TEST(Tracer, McmlEventsPreserveAverageCurrent) {
  // Zero-net-area steering transients: the average current must stay at the
  // static level regardless of activity (the DPA-resistance property).
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::mcml90();
  const PowerTracer tracer(d, lib, default_kernels(), quiet_options());
  std::vector<SimEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back({0.1e-9 + 0.15e-9 * i, 1, (i % 2) == 0, 0});
  }
  const auto quiet = tracer.trace({});
  const auto busy = tracer.trace(events);
  EXPECT_NEAR(util::mean(busy), util::mean(quiet),
              0.002 * util::mean(quiet));
}

TEST(Tracer, PgSleepScheduleGatesTheFloor) {
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::pgmcml90();
  TraceOptions opt = quiet_options();
  const PowerTracer tracer(d, lib, default_kernels(), opt);
  SleepSchedule schedule;
  schedule.awake.push_back({0.5e-9, 1.5e-9});
  const auto trace = tracer.trace({}, schedule);
  // Before the window: leakage only.
  EXPECT_LT(trace[100], tracer.awake_current() * 0.01);  // t = 0.1 ns
  // Inside the window (past the wake transient): full current.
  EXPECT_NEAR(trace[1200], tracer.awake_current(),
              0.05 * tracer.awake_current());  // t = 1.2 ns
  // After the window: back to leakage.
  EXPECT_LT(trace[1900], tracer.awake_current() * 0.01);
}

TEST(Tracer, WakeTransientOvershoots) {
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::pgmcml90();
  const PowerTracer tracer(d, lib, default_kernels(), quiet_options());
  SleepSchedule schedule;
  schedule.awake.push_back({0.2e-9, 1.8e-9});
  const auto trace = tracer.trace({}, schedule);
  double peak = 0.0;
  for (double v : trace) peak = std::max(peak, v);
  EXPECT_GT(peak, tracer.awake_current() * 1.05);  // inrush overshoot
}

TEST(Tracer, GatedEventsAreSilent) {
  const Design d = two_buffer_design();
  const auto lib = CellLibrary::pgmcml90();
  const PowerTracer tracer(d, lib, default_kernels(), quiet_options());
  SleepSchedule schedule;
  schedule.awake.push_back({1.0e-9, 1.5e-9});
  // Event while asleep: contributes nothing.
  const std::vector<SimEvent> events = {{0.3e-9, 1, true, 0}};
  const auto with_event = tracer.trace(events, schedule);
  const auto without = tracer.trace({}, schedule);
  for (std::size_t i = 0; i < 800; ++i) {
    EXPECT_NEAR(with_event[i], without[i], 1e-12);
  }
}

TEST(Tracer, RejectsUnsortedEvents) {
  const Design d = two_buffer_design();
  const PowerTracer tracer(d, CellLibrary::mcml90(), default_kernels(),
                           quiet_options());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<SimEvent> backwards = {{0.4e-9, 1, true, 0},
                                           {0.2e-9, 2, true, 1}};
  const std::vector<SimEvent> nan_last = {{0.2e-9, 1, true, 0},
                                          {nan, 2, true, 1}};
  const std::vector<SimEvent> nan_first = {{nan, 1, true, 0}};
  std::vector<double> out;
  EXPECT_THROW(tracer.trace(backwards), std::invalid_argument);
  EXPECT_THROW(tracer.trace_into(nan_last, {}, 0, out), std::invalid_argument);
  EXPECT_THROW(tracer.compose_into(nan_first, {}, out), std::invalid_argument);
  // Equal times are in order.
  const std::vector<SimEvent> tied = {{0.2e-9, 1, true, 0},
                                      {0.2e-9, 2, true, 1}};
  EXPECT_NO_THROW(tracer.trace(tied));
}

TEST(Tracer, NoiseScalesWithStaticCurrent) {
  const Design d = two_buffer_design();
  TraceOptions opt = quiet_options();
  opt.include_noise = true;
  opt.noise_sigma = 0.0;
  opt.supply_noise_ratio = 0.01;
  const PowerTracer cmos(d, CellLibrary::cmos90(), default_kernels(), opt);
  const PowerTracer mcml_t(d, CellLibrary::mcml90(), default_kernels(), opt);
  util::RunningStats cmos_stats;
  util::RunningStats mcml_stats;
  for (double v : cmos.trace({})) cmos_stats.add(v);
  for (double v : mcml_t.trace({})) mcml_stats.add(v);
  // MCML's 100 uA floor gets 1 uA-class noise; CMOS's tiny leakage floor
  // gets correspondingly tiny noise.
  EXPECT_GT(mcml_stats.stddev(), 20 * cmos_stats.stddev());
}

TEST(Tracer, MismatchFrozenPerInstanceAcrossTraces) {
  const Design d = two_buffer_design();
  TraceOptions opt = quiet_options();
  opt.mismatch_sigma = 0.05;
  const PowerTracer a(d, CellLibrary::mcml90(), default_kernels(), opt);
  const auto t1 = a.trace({});
  const auto t2 = a.trace({});
  // Same tracer, no noise: identical traces (mismatch is process, not time).
  for (std::size_t i = 0; i < t1.size(); i += 100) {
    EXPECT_DOUBLE_EQ(t1[i], t2[i]);
  }
  // A different seed gives a different mismatch draw.
  opt.seed = 999;
  const PowerTracer b(d, CellLibrary::mcml90(), default_kernels(), opt);
  EXPECT_NE(a.awake_current(), b.awake_current());
}

}  // namespace
}  // namespace pgmcml::power
