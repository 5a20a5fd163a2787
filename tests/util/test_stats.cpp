#include "pgmcml/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pgmcml/util/rng.hpp"

namespace pgmcml::util {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(3.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-8);
}

TEST(RunningCorrelation, PerfectPositive) {
  RunningCorrelation rc;
  for (int i = 0; i < 50; ++i) {
    rc.add(i, 2.0 * i + 1.0);
  }
  EXPECT_NEAR(rc.correlation(), 1.0, 1e-12);
}

TEST(RunningCorrelation, PerfectNegative) {
  RunningCorrelation rc;
  for (int i = 0; i < 50; ++i) rc.add(i, -0.5 * i);
  EXPECT_NEAR(rc.correlation(), -1.0, 1e-12);
}

TEST(RunningCorrelation, DegenerateSeriesGiveZero) {
  RunningCorrelation rc;
  for (int i = 0; i < 10; ++i) rc.add(1.0, i);
  EXPECT_DOUBLE_EQ(rc.correlation(), 0.0);
}

TEST(RunningCorrelation, MatchesBatchPearson) {
  Rng rng(6);
  std::vector<double> xs;
  std::vector<double> ys;
  RunningCorrelation rc;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian();
    const double y = 0.7 * x + 0.3 * rng.gaussian();
    xs.push_back(x);
    ys.push_back(y);
    rc.add(x, y);
  }
  EXPECT_NEAR(rc.correlation(), pearson(xs, ys), 1e-10);
}

TEST(Stats, PearsonThrowsOnLengthMismatch) {
  std::vector<double> a{1.0, 2.0};
  std::vector<double> b{1.0};
  EXPECT_THROW(pearson(a, b), std::invalid_argument);
}

TEST(Stats, ArgmaxFindsPeak) {
  std::vector<double> xs{0.1, -0.5, 3.0, 2.9};
  EXPECT_EQ(argmax(xs), 2u);
  EXPECT_EQ(argmax(std::vector<double>{}), 0u);
}

TEST(Stats, HammingWeight) {
  EXPECT_EQ(hamming_weight(0), 0);
  EXPECT_EQ(hamming_weight(0xFF), 8);
  EXPECT_EQ(hamming_weight(0x53), 4);
  EXPECT_EQ(hamming_weight(~0ULL), 64);
}

TEST(Stats, LerpInterpolatesAndHandlesDegenerate) {
  EXPECT_DOUBLE_EQ(lerp(0.0, 0.0, 1.0, 10.0, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 7.0, 2.0, 9.0, 2.0), 7.0);  // x0 == x1
}

}  // namespace
}  // namespace pgmcml::util
