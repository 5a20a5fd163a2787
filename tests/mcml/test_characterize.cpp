#include "pgmcml/mcml/characterize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "pgmcml/mcml/bias.hpp"
#include "pgmcml/util/units.hpp"

namespace pgmcml::mcml {
namespace {

using util::ps;

/// Characterizations are independent; cache the ones the suite reuses.
const CellCharacterization& buf_char() {
  static const CellCharacterization kChar =
      characterize_cell(CellKind::kBuf, McmlDesign{}, 1);
  return kChar;
}

/// A stub transient: `ok`, with one Newton iteration of engine effort.
spice::TranResult stub_tran(bool ok) {
  spice::TranResult tr;
  tr.ok = ok;
  if (!ok) tr.failure = {spice::SolveErrorKind::kNewtonMaxIter, "stub", 0.0};
  tr.stats.newton_iterations = 1;
  return tr;
}

/// Runs the retry step over an attempt whose i-th call returns outcomes[i],
/// checking the tightened flag each call receives.
spice::FlowDiagnostics retry_with(const std::vector<bool>& outcomes,
                                  bool expect_ok) {
  spice::FlowDiagnostics diag;
  std::size_t calls = 0;
  const spice::TranResult tr = run_with_retry(
      [&](bool tightened) {
        EXPECT_EQ(tightened, calls > 0);
        return stub_tran(outcomes.at(calls++));
      },
      "stub:0", diag);
  EXPECT_EQ(tr.ok, expect_ok);
  EXPECT_EQ(calls, outcomes.size());
  EXPECT_EQ(diag.attempts, 1u);
  EXPECT_EQ(diag.engine.newton_iterations, outcomes.size());
  return diag;
}

TEST(RetryStep, FirstSuccessRecordsNoIncident) {
  const spice::FlowDiagnostics diag = retry_with({true}, true);
  EXPECT_TRUE(diag.clean());
  EXPECT_EQ(diag.recovered, 0u);
  EXPECT_TRUE(diag.incidents.empty());
}

TEST(RetryStep, FailThenSucceedRecordsOneRetryAndOneRecovery) {
  const spice::FlowDiagnostics diag = retry_with({false, true}, true);
  EXPECT_EQ(diag.retries, 1u);
  EXPECT_EQ(diag.recovered, 1u);
  EXPECT_EQ(diag.skipped, 0u);
  ASSERT_EQ(diag.incidents.size(), 1u);
  EXPECT_EQ(diag.incidents[0].stage, "stub:0");
  EXPECT_TRUE(diag.incidents[0].recovered);
}

TEST(RetryStep, FailTwiceRecordsOneSkip) {
  const spice::FlowDiagnostics diag = retry_with({false, false}, false);
  EXPECT_EQ(diag.retries, 1u);
  EXPECT_EQ(diag.recovered, 0u);
  EXPECT_EQ(diag.skipped, 1u);
  ASSERT_EQ(diag.incidents.size(), 2u);
  EXPECT_FALSE(diag.incidents[0].recovered);
  EXPECT_FALSE(diag.incidents[1].recovered);
  EXPECT_EQ(diag.incidents[1].error, diag.incidents[0].error);
}

TEST(Characterize, BufferDelayInExpectedRange) {
  const auto& ch = buf_char();
  ASSERT_TRUE(ch.ok) << ch.error;
  // Paper Table 2: 23.97 ps.  Our synthetic 90 nm should land in the same
  // decade (tens of ps).
  EXPECT_GT(ch.delay, 5 * ps);
  EXPECT_LT(ch.delay, 120 * ps);
}

TEST(Characterize, BufferSwingMatchesTarget) {
  const auto& ch = buf_char();
  ASSERT_TRUE(ch.ok);
  EXPECT_NEAR(ch.swing, 0.4, 0.05);
}

TEST(Characterize, StaticCurrentTracksStageCount) {
  // Static current of an MCML cell = stages x Iss (plus small leakage).
  const auto& buf = buf_char();
  const auto and3 = characterize_cell(CellKind::kAnd3, McmlDesign{}, 1);
  ASSERT_TRUE(buf.ok);
  ASSERT_TRUE(and3.ok) << and3.error;
  EXPECT_NEAR(buf.static_current, 50e-6, 10e-6);
  EXPECT_NEAR(and3.static_current / buf.static_current, 2.0, 0.3);
}

TEST(Characterize, SleepReducesCurrentByOrdersOfMagnitude) {
  const auto& ch = buf_char();
  ASSERT_TRUE(ch.ok);
  EXPECT_LT(ch.sleep_current, ch.static_current * 1e-3);
  EXPECT_GT(ch.sleep_current, 0.0);  // subthreshold leakage remains
}

TEST(Characterize, WakeTimeIsFractionOfClockCycle) {
  // Paper: the gated logic wakes in a fraction of the 400 MHz (2.5 ns)
  // clock period.
  const auto& ch = buf_char();
  ASSERT_TRUE(ch.ok);
  EXPECT_GT(ch.wake_time, 10 * ps);
  EXPECT_LT(ch.wake_time, 1.5e-9);
}

TEST(Characterize, PgDelayPenaltyIsNegligible) {
  // Table 3 / Section 4: the sleep transistor sits outside the signal path;
  // delay penalty within a few percent.
  McmlDesign conv;
  conv.gating = GatingTopology::kNone;
  const auto pg = buf_char();
  const auto cv = characterize_cell(CellKind::kBuf, conv, 1);
  ASSERT_TRUE(pg.ok);
  ASSERT_TRUE(cv.ok) << cv.error;
  EXPECT_LT(pg.delay, cv.delay * 1.15);
}

TEST(Characterize, ConventionalCellDoesNotSleep) {
  McmlDesign conv;
  conv.gating = GatingTopology::kNone;
  const auto cv = characterize_cell(CellKind::kBuf, conv, 1);
  ASSERT_TRUE(cv.ok);
  EXPECT_DOUBLE_EQ(cv.sleep_current, cv.static_current);
  EXPECT_DOUBLE_EQ(cv.wake_time, 0.0);
}

TEST(Characterize, FanoutFourSlowerThanFanoutOne) {
  const auto fo1 = buf_char();
  const auto fo4 = characterize_cell(CellKind::kBuf, McmlDesign{}, 4);
  ASSERT_TRUE(fo1.ok);
  ASSERT_TRUE(fo4.ok) << fo4.error;
  EXPECT_GT(fo4.delay, fo1.delay * 1.2);
}

TEST(Characterize, DelayOrderingAcrossCells) {
  // Table 2 trend: AND4 > AND3 > AND2 > BUF.
  McmlDesign d;
  const auto buf = buf_char();
  const auto and2 = characterize_cell(CellKind::kAnd2, d, 1);
  const auto and3 = characterize_cell(CellKind::kAnd3, d, 1);
  const auto and4 = characterize_cell(CellKind::kAnd4, d, 1);
  ASSERT_TRUE(and2.ok) << and2.error;
  ASSERT_TRUE(and3.ok) << and3.error;
  ASSERT_TRUE(and4.ok) << and4.error;
  EXPECT_GT(and2.delay, buf.delay);
  EXPECT_GT(and3.delay, and2.delay);
  EXPECT_GT(and4.delay, and3.delay);
}

TEST(Characterize, SequentialCellsCharacterize) {
  McmlDesign d;
  const auto dff = characterize_cell(CellKind::kDff, d, 1);
  ASSERT_TRUE(dff.ok) << dff.error;
  EXPECT_GT(dff.delay, 5 * ps);
  EXPECT_LT(dff.delay, 400 * ps);
  EXPECT_NEAR(dff.static_current, 2 * 50e-6, 25e-6);  // two latch stages
}

TEST(Characterize, StateLeakageSeparatesAwakeFromGatedOff) {
  // Transistor-level ground truth of the static-power side channel, on one
  // frozen mismatched die (seed 1): the awake currents of a power-gated cell
  // depend on the held state, the gated-off currents barely do.
  McmlDesign gated;  // default design power-gates (kSeriesSleep)
  ASSERT_TRUE(gated.power_gated());
  const StateLeakageResult r =
      measure_state_leakage(CellKind::kAnd2, gated, /*mismatch_seed=*/1);
  ASSERT_EQ(r.points.size(), 4u);  // 2 inputs -> 4 held states
  for (const auto& p : r.points) ASSERT_TRUE(p.ok) << p.error;

  EXPECT_GT(r.awake_spread, 0.0);
  EXPECT_GT(r.asleep_spread, 0.0);
  // The gated-off spread collapses by orders of magnitude: this ordering is
  // the calibration target of power::PowerTracer::quiescent_current.
  EXPECT_LT(r.asleep_spread, r.awake_spread / 100.0);
  for (const auto& p : r.points) {
    EXPECT_LT(p.asleep_current, p.awake_current / 10.0) << p.state;
  }
}

TEST(Characterize, StateLeakageIdealCellIsSymmetric) {
  // Seed 0 measures the perfectly matched cell: its legs are symmetric by
  // construction, so the held-state currents are identical and the spread
  // is exactly zero -- the signal really comes from mismatch, not from the
  // testbench.
  McmlDesign d;
  d.gating = GatingTopology::kNone;  // plain MCML: nothing to gate off
  const StateLeakageResult ideal =
      measure_state_leakage(CellKind::kBuf, d, /*mismatch_seed=*/0);
  ASSERT_FALSE(ideal.points.empty());
  for (const auto& p : ideal.points) ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(ideal.awake_spread, 0.0);

  // A non-gated design repeats the awake current in the asleep column.
  EXPECT_EQ(ideal.points[0].asleep_current, ideal.points[0].awake_current);

  // The frozen draw is deterministic: same seed, same die, same currents.
  const StateLeakageResult a = measure_state_leakage(CellKind::kBuf, d, 7);
  const StateLeakageResult b = measure_state_leakage(CellKind::kBuf, d, 7);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].awake_current, b.points[i].awake_current);
  }
  EXPECT_GT(a.awake_spread, 0.0);
}

TEST(Characterize, SweepPointAtBaseCurrentEqualsTable2BufferDelay) {
  // Fig. 3 and Table 2 measure the same bench at the base design point, so
  // their FO1 buffer delays agree to the bit.
  const McmlDesign base;
  const BufferSweepPoint pt = characterize_buffer_at(base, base.iss);
  ASSERT_TRUE(pt.ok);
  ASSERT_TRUE(buf_char().ok);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pt.delay_fo1),
            std::bit_cast<std::uint64_t>(buf_char().delay));
}

TEST(Characterize, BufferSweepPointsBehaveLikeFig3) {
  McmlDesign base;
  const auto p25 = characterize_buffer_at(base, 25e-6);
  const auto p100 = characterize_buffer_at(base, 100e-6);
  ASSERT_TRUE(p25.ok);
  ASSERT_TRUE(p100.ok);
  // More tail current -> faster (Fig. 3a) but bigger and hungrier.
  EXPECT_GT(p25.delay_fo4, p100.delay_fo4);
  EXPECT_GT(p100.power, p25.power);
  EXPECT_GT(p100.area, p25.area);
  // FO4 always slower than FO1.
  EXPECT_GT(p25.delay_fo4, p25.delay_fo1);
  EXPECT_GT(p100.delay_fo4, p100.delay_fo1);
}

}  // namespace
}  // namespace pgmcml::mcml
