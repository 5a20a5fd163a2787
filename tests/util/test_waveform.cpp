#include "pgmcml/util/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pgmcml::util {
namespace {

Waveform ramp() {
  Waveform w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 1.0);
  w.append(3.0, 0.0);
  return w;
}

TEST(Waveform, ValueInterpolatesLinearly) {
  const Waveform w = ramp();
  EXPECT_DOUBLE_EQ(w.value_at(0.5), 0.5);
  EXPECT_DOUBLE_EQ(w.value_at(1.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value_at(2.5), 0.5);
}

TEST(Waveform, ValueClampsOutsideSpan) {
  const Waveform w = ramp();
  EXPECT_DOUBLE_EQ(w.value_at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(10.0), 0.0);
}

TEST(Waveform, AppendRejectsTimeReversal) {
  Waveform w;
  w.append(1.0, 0.0);
  EXPECT_THROW(w.append(0.5, 0.0), std::invalid_argument);
}

TEST(Waveform, MinMax) {
  const Waveform w = ramp();
  EXPECT_DOUBLE_EQ(w.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(w.max_value(), 1.0);
}

TEST(Waveform, IntegralOfTrapezoid) {
  const Waveform w = ramp();
  // Trapezoid: 0.5 + 1.0 + 0.5 = 2.0.
  EXPECT_NEAR(w.integral(0.0, 3.0), 2.0, 1e-12);
  EXPECT_NEAR(w.integral(1.0, 2.0), 1.0, 1e-12);
}

TEST(Waveform, IntegralExtrapolatesFlat) {
  const Waveform w = ramp();
  // Left of span the value is 0, right of span it is 0 too.
  EXPECT_NEAR(w.integral(-1.0, 4.0), 2.0, 1e-12);
  Waveform c;
  c.append(0.0, 2.0);
  c.append(1.0, 2.0);
  EXPECT_NEAR(c.integral(-1.0, 3.0), 8.0, 1e-12);
}

TEST(Waveform, AverageOverWindow) {
  const Waveform w = ramp();
  EXPECT_NEAR(w.average(1.0, 2.0), 1.0, 1e-12);
  EXPECT_NEAR(w.average(), 2.0 / 3.0, 1e-12);
}

TEST(Waveform, CrossingRising) {
  const Waveform w = ramp();
  const auto t = w.crossing(0.5, +1);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.5, 1e-12);
}

TEST(Waveform, CrossingFalling) {
  const Waveform w = ramp();
  const auto t = w.crossing(0.5, -1);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 2.5, 1e-12);
}

TEST(Waveform, CrossingFromOffset) {
  const Waveform w = ramp();
  const auto t = w.crossing(0.5, 0, 1.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 2.5, 1e-12);
}

TEST(Waveform, CrossingAbsentReturnsNullopt) {
  const Waveform w = ramp();
  EXPECT_FALSE(w.crossing(2.0).has_value());
}

TEST(Waveform, SampleUniformEndpoints) {
  const Waveform w = ramp();
  const auto s = w.sample_uniform(0.0, 3.0, 4);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  EXPECT_DOUBLE_EQ(s[2], 1.0);
  EXPECT_DOUBLE_EQ(s[3], 0.0);
}

TEST(Waveform, ScaledMultipliesValues) {
  const Waveform w = ramp().scaled(3.0);
  EXPECT_DOUBLE_EQ(w.value_at(1.5), 3.0);
}

TEST(Waveform, PlusAddsPointwise) {
  const Waveform sum = ramp().plus(ramp().scaled(2.0));
  EXPECT_NEAR(sum.value_at(1.5), 3.0, 1e-12);
  EXPECT_NEAR(sum.value_at(0.5), 1.5, 1e-12);
}

TEST(GridAccumulator, DepositAndLevel) {
  GridAccumulator acc(0.0, 0.1, 11);  // t = 0 .. 1.0
  acc.add_level(0.2, 0.45, 1.0);
  const auto& v = acc.values();
  EXPECT_DOUBLE_EQ(v[2], 1.0);
  EXPECT_DOUBLE_EQ(v[3], 1.0);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(GridAccumulator, KernelAddsShiftedShape) {
  GridAccumulator acc(0.0, 0.5, 9);  // t = 0 .. 4
  Waveform kernel;
  kernel.append(0.0, 0.0);
  kernel.append(1.0, 1.0);
  kernel.append(2.0, 0.0);
  acc.add_kernel(1.0, kernel, 2.0);
  // Kernel support covers [1, 3]; peak of 2.0 at t = 2.
  const auto& v = acc.values();
  EXPECT_DOUBLE_EQ(v[2], 0.0);   // t = 1.0
  EXPECT_DOUBLE_EQ(v[3], 1.0);   // t = 1.5
  EXPECT_DOUBLE_EQ(v[4], 2.0);   // t = 2.0
  EXPECT_DOUBLE_EQ(v[5], 1.0);   // t = 2.5
  EXPECT_DOUBLE_EQ(v[6], 0.0);   // t = 3.0
  EXPECT_DOUBLE_EQ(v[8], 0.0);
}

TEST(GridAccumulator, KernelClippedAtGridEdges) {
  GridAccumulator acc(0.0, 1.0, 3);
  Waveform kernel;
  kernel.append(0.0, 1.0);
  kernel.append(10.0, 1.0);
  acc.add_kernel(-5.0, kernel);
  for (double v : acc.values()) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(GridAccumulator, EmptyGridIgnoresLevelsAndKernels) {
  GridAccumulator acc(0.0, 0.1, 0);
  Waveform kernel;
  kernel.append(0.0, 1.0);
  kernel.append(1.0, 1.0);
  acc.add_level(0.0, 1.0, 1.0);
  acc.add_kernel(0.0, kernel, 2.0);
  EXPECT_TRUE(acc.values().empty());
}

TEST(GridAccumulator, RejectsNonPositiveDt) {
  EXPECT_THROW(GridAccumulator(0.0, 0.0, 4), std::invalid_argument);
}

TEST(Waveform, AsciiPlotProducesOutput) {
  const std::string plot = ramp().ascii_plot(20, 5, "ramp");
  EXPECT_NE(plot.find("ramp"), std::string::npos);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

}  // namespace
}  // namespace pgmcml::util
