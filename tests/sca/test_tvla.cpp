// TVLA, the fixed-vs-random Welch t-test, over one Moments per class.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::sca {
namespace {

std::vector<std::vector<double>> noise_traces(util::Rng& rng, int n, int m,
                                              double offset = 0.0,
                                              int offset_sample = -1) {
  std::vector<std::vector<double>> out;
  for (int i = 0; i < n; ++i) {
    std::vector<double> t(m);
    for (auto& v : t) v = rng.gaussian(0.0, 1.0);
    if (offset_sample >= 0) t[offset_sample] += offset;
    out.push_back(std::move(t));
  }
  return out;
}

/// Welford moments of a population as wide as its first trace.
Moments moments_of(const std::vector<std::vector<double>>& traces) {
  Moments m(traces.front().size());
  for (const auto& t : traces) m.add(t);
  return m;
}

TvlaResult t_test(const std::vector<std::vector<double>>& fixed,
                  const std::vector<std::vector<double>>& random) {
  return welch_t(moments_of(fixed), moments_of(random));
}

TEST(Tvla, IdenticalPopulationsPass) {
  util::Rng rng(1);
  const auto fixed = noise_traces(rng, 400, 50);
  const auto random = noise_traces(rng, 400, 50);
  const TvlaResult r = t_test(fixed, random);
  EXPECT_FALSE(r.leaks());
  EXPECT_LT(r.max_abs_t, TvlaResult::kThreshold);
  EXPECT_EQ(r.t_statistic.size(), 50u);
}

TEST(Tvla, MeanShiftIsDetected) {
  util::Rng rng(2);
  const auto fixed = noise_traces(rng, 400, 50, 0.8, 23);
  const auto random = noise_traces(rng, 400, 50);
  const TvlaResult r = t_test(fixed, random);
  EXPECT_TRUE(r.leaks());
  // The leaking sample carries the peak statistic.
  std::size_t peak = 0;
  for (std::size_t j = 1; j < r.t_statistic.size(); ++j) {
    if (std::fabs(r.t_statistic[j]) > std::fabs(r.t_statistic[peak])) peak = j;
  }
  EXPECT_EQ(peak, 23u);
}

TEST(Tvla, SensitivityGrowsWithTraces) {
  util::Rng rng(3);
  const double shift = 0.25;
  const auto fixed_small = noise_traces(rng, 60, 30, shift, 10);
  const auto random_small = noise_traces(rng, 60, 30);
  const auto fixed_big = noise_traces(rng, 2000, 30, shift, 10);
  const auto random_big = noise_traces(rng, 2000, 30);
  const double t_small = t_test(fixed_small, random_small).max_abs_t;
  const double t_big = t_test(fixed_big, random_big).max_abs_t;
  EXPECT_GT(t_big, t_small);
  EXPECT_TRUE(t_test(fixed_big, random_big).leaks());
}

TEST(Tvla, TooFewTracesReturnsEmpty) {
  const TvlaResult r = t_test({{1.0}}, {{2.0}});
  EXPECT_EQ(r.max_abs_t, 0.0);
  EXPECT_TRUE(r.t_statistic.empty());
}

TEST(Tvla, RaggedInputThrows) {
  EXPECT_THROW(t_test({{1.0, 2.0}, {1.0}}, {{1.0, 2.0}, {0.0, 1.0}}),
               std::invalid_argument);
}

TEST(Tvla, WelchTRejectsMismatchedSampleCounts) {
  // Classes of different widths: the narrower one must not be read past
  // its end, whichever side it is on.
  Moments wide(4), narrow(3);
  for (int i = 0; i < 3; ++i) {
    wide.add(std::vector<double>(4, i));
    narrow.add(std::vector<double>(3, -i));
  }
  EXPECT_THROW(welch_t(wide, narrow), std::invalid_argument);
  EXPECT_THROW(welch_t(narrow, wide), std::invalid_argument);
}

TEST(Tvla, TraceSetSplitter) {
  util::Rng rng(4);
  TraceSet ts(10);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> t(10);
    for (auto& v : t) v = rng.gaussian(0.0, 1.0);
    const std::uint8_t p = (i % 2 == 0) ? 0x55 : static_cast<std::uint8_t>(
                                                     rng.bounded(256));
    if (p == 0x55) t[4] += 1.0;  // the fixed class leaks
    ts.add(p, t);
  }
  // Traces whose plaintext is the fixed vector form the fixed class.
  Moments fixed(10), random(10);
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    (ts.plaintext(i) == 0x55 ? fixed : random).add(ts.trace(i));
  }
  const TvlaResult r = welch_t(fixed, random);
  EXPECT_GT(r.fixed_traces, 90u);
  EXPECT_TRUE(r.leaks());
}

}  // namespace
}  // namespace pgmcml::sca
