// Tests of the benchmark's own logic: the tail-percentile rule, self-time
// accounting over nested and sibling spans, seed determinism of the
// generated inputs, and the load generator's failure classification.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common.hpp"
#include "expected.hpp"
#include "load.hpp"

namespace repobench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, P99NeedsTenSamplesBeyondIt) {
  const Percentile p = tail_percentile(one_to(1000), 0.99);
  EXPECT_EQ(p.q, 0.99);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.count, 1000u);
}

TEST(TailPercentile, FallsBackToHighestValidPercentile) {
  const Percentile p = tail_percentile(one_to(999), 0.99);
  EXPECT_EQ(p.value, 989.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_DOUBLE_EQ(p.q, 989.0 / 999.0);

  const Percentile q = tail_percentile(one_to(30), 0.99);
  EXPECT_EQ(q.value, 20.0);
  EXPECT_EQ(q.beyond, 10u);
}

TEST(TailPercentile, NeverBelowTheMedian) {
  const Percentile p = tail_percentile(one_to(15), 0.99);
  EXPECT_EQ(p.q, 0.5);
  EXPECT_EQ(p.value, 8.0);
  const Percentile even = tail_percentile({4, 1, 3, 2}, 0.99);
  EXPECT_EQ(even.value, median({1, 2, 3, 4}));
  EXPECT_EQ(tail_percentile({}, 0.99).count, 0u);
}

Span span(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsNestedAndOverlappingSiblingChildren) {
  const std::vector<Span> spans = {
      span("root", 0.0, 10.0, -1),
      span("a", 1.0, 3.0, 0),    // overlaps sibling b: union [1, 5]
      span("b", 2.0, 5.0, 0),
      span("a.inner", 1.5, 2.0, 1),
      span("c", 9.0, 12.0, 0),   // runs past the parent: clipped to [9, 10]
      span("tail", 11.0, 12.0, -1),
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
  EXPECT_DOUBLE_EQ(self[5], 1.0);
}

TEST(SelfTime, LayerTableSumsToWall) {
  const std::vector<Span> spans = {
      span("x", 0.0, 4.0, -1), span("y", 1.0, 2.0, 0), span("y", 2.5, 3.0, 0),
      span("x", 5.0, 6.0, -1)};
  const LayerTable t = layer_table(spans, 8.0);
  EXPECT_DOUBLE_EQ(t.self_of("x"), 3.5);
  EXPECT_DOUBLE_EQ(t.self_of("y"), 1.5);
  EXPECT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0].name, "x");  // largest self time first
  EXPECT_EQ(t.rows[1].calls, 2u);
  EXPECT_DOUBLE_EQ(t.self_of("x") + t.self_of("y") + t.uncovered_s, 8.0);
}

TEST(SelfTime, RecorderNestsByCallOrder) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer");
    ScopedSpan inner(&rec, "inner", 7);
    inner.set_units(3);
  }
  ScopedSpan untraced(nullptr, "ignored");
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].id, 7u);
  EXPECT_EQ(rec.spans()[1].units, 3u);
  EXPECT_LE(rec.spans()[1].end, rec.spans()[0].end);
}

TEST(Seeds, SameSeedSamePlaintexts) {
  auto plaintexts = [](std::uint64_t seed) {
    std::vector<int> p;
    for (std::uint64_t t = 0; t < 64; ++t) {
      p.push_back(flow_plaintext(fig6_flow_seed(seed), t));
    }
    return p;
  };
  EXPECT_EQ(plaintexts(5), plaintexts(5));
  EXPECT_NE(plaintexts(5), plaintexts(6));
}

TEST(Seeds, SameSeedSameRequests) {
  auto requests = [](std::uint64_t seed) {
    std::vector<std::string> r;
    for (std::uint64_t c = 0; c < 2; ++c) {
      for (std::uint64_t k = 0; k < 200; ++k) {
        r.push_back(experiment_doc(request_at(seed, c, k)).dump());
      }
    }
    return r;
  };
  EXPECT_EQ(requests(9), requests(9));
  EXPECT_NE(requests(9), requests(10));
}

TEST(Seeds, OneColdRequestPerSessionAtADistinctOperatingPoint) {
  std::set<double> cold_points;
  for (std::uint64_t c = 0; c < 4; ++c) {
    std::set<double> cached = {kNominalIss};
    for (std::uint64_t k = 0; k < 50 * kSessionRequests; ++k) {
      const RequestSpec s = request_at(3, c, k);
      EXPECT_EQ(s.cold, k % kSessionRequests == 0) << s.id;
      if (s.cold) {
        EXPECT_TRUE(cold_points.insert(s.iss).second) << "iss repeats at " << s.id;
        EXPECT_NE(s.iss, kNominalIss);
        cached.insert(s.iss);
      } else {
        // A warm request asks for a point the cache holds by then.
        EXPECT_EQ(cached.count(s.iss), 1u) << s.id;
      }
    }
  }
  EXPECT_EQ(cold_points.size(), 4u * 50u);
}

pgmcml::config::Response response(pgmcml::config::ResponseStatus status,
                                  const std::string& id) {
  pgmcml::config::Response r;
  r.status = status;
  r.id = id;
  r.report = pgmcml::obs::json::Value(1.0);
  return r;
}

TEST(LoadGenerator, CountsRejectedExpiredAndMismatchedAsFailures) {
  using pgmcml::config::ResponseStatus;
  const std::string same = pgmcml::obs::json::Value(1.0).dump();
  const std::string other = "2";
  EXPECT_EQ(classify(response(ResponseStatus::kOk, "a"), "a", &same),
            ResponseClass::kOk);
  EXPECT_EQ(classify(response(ResponseStatus::kOk, "a"), "a", nullptr),
            ResponseClass::kOk);
  const ResponseClass failures[] = {
      classify(response(ResponseStatus::kRejected, "a"), "a", nullptr),
      classify(response(ResponseStatus::kExpired, "a"), "a", nullptr),
      classify(response(ResponseStatus::kError, "a"), "a", nullptr),
      classify(response(ResponseStatus::kOk, "b"), "a", nullptr),
      classify(response(ResponseStatus::kOk, "a"), "a", &other),
  };
  EXPECT_EQ(failures[0], ResponseClass::kRejected);
  EXPECT_EQ(failures[1], ResponseClass::kExpired);
  EXPECT_EQ(failures[2], ResponseClass::kError);
  EXPECT_EQ(failures[3], ResponseClass::kMismatch);
  EXPECT_EQ(failures[4], ResponseClass::kMismatch);
  for (ResponseClass c : failures) EXPECT_TRUE(is_failure(c));
  EXPECT_FALSE(is_failure(ResponseClass::kOk));
}

TEST(Checks, PinnedStatisticsCompareWithinOnePartInABillion) {
  namespace json = pgmcml::obs::json;
  const json::Value pinned = json::Value::parse(
      R"({"CMOS": {"key_rank": 0, "cpa_peak_true": 0.25}})");
  Outcome same;
  compare_pinned(same, pinned,
                 json::Value::parse(
                     R"({"CMOS": {"key_rank": 0, "cpa_peak_true": 0.2500000000001,
                         "extra": 1}})"),
                 "w");
  EXPECT_TRUE(same.correct());

  Outcome off;
  compare_pinned(off, pinned,
                 json::Value::parse(R"({"CMOS": {"key_rank": 3,
                                               "cpa_peak_true": 0.2500001}})"),
                 "w");
  EXPECT_EQ(off.check_failures.size(), 2u);
  EXPECT_EQ(off.failed, 2u);

  Outcome missing;
  compare_pinned(missing, pinned, json::Value::parse(R"({"CMOS": {}})"), "w");
  EXPECT_EQ(missing.check_failures.size(), 2u);

}

TEST(Checks, VerdictsAreReportedAndGateOnlyWhenAsked) {
  Outcome out;
  out.verdict(true, true, "holds");
  out.verdict(false, false, "reported only");
  EXPECT_TRUE(out.correct());
  EXPECT_EQ(out.verdicts.size(), 2u);
  out.verdict(false, true, "gated");
  EXPECT_FALSE(out.correct());
  EXPECT_EQ(out.failed, 1u);

  RunConfig cfg;
  EXPECT_TRUE(cfg.gate_verdicts());
  cfg.record = true;
  EXPECT_FALSE(cfg.gate_verdicts());
  const pgmcml::obs::json::Value pinned(pgmcml::obs::json::Object{});
  cfg.record = false;
  cfg.expected = &pinned;
  EXPECT_FALSE(cfg.gate_verdicts());
}

TEST(Checks, TraceWorkloadTailIsTheSlowestRound) {
  HostSpeed speed;
  speed.sample();
  const double scale = speed.scale();
  Outcome out;
  out.round_metrics(22.0, {5.0, 1.0, 3.0, 2.0}, speed, "f");
  ASSERT_EQ(out.metrics.size(), 3u);
  EXPECT_EQ(out.metrics[0].name, "work_per_s");
  EXPECT_DOUBLE_EQ(out.metrics[0].value, 22.0 / (11e-3 * scale));
  EXPECT_EQ(out.metrics[1].name, "latency_p50_ms");
  EXPECT_DOUBLE_EQ(out.metrics[1].value, 2.5 * scale);
  EXPECT_EQ(out.metrics[2].name, "latency_p99_ms");
  EXPECT_DOUBLE_EQ(out.metrics[2].value, 5.0 * scale);
}

TEST(HostSpeed, ScaleIsReferenceOverMedianProbe) {
  HostSpeed speed;
  EXPECT_THROW(speed.scale(), std::logic_error);
  for (int i = 0; i < 3; ++i) EXPECT_GT(speed.sample(), 0.0);
  const auto j = speed.to_json();
  EXPECT_EQ(j.at("probes").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(speed.scale(),
                   kReferenceProbeMs / j.at("probe_ms_median").as_number());
}

TEST(TimedPhase, AnotherRoundOnlyWhileTheMeanRoundStillFits) {
  const double t_begin = now_s() - 10.0;  // ten seconds into the phase
  EXPECT_TRUE(another_round(now_s(), 0, 1.0));  // the first always runs
  EXPECT_TRUE(another_round(t_begin, 5, 30.0));   // 10 s + 2 s <= 30 s
  EXPECT_FALSE(another_round(t_begin, 2, 12.0));  // 10 s + 5 s > 12 s
  EXPECT_FALSE(another_round(t_begin, 1, 5.0));   // already past
}

}  // namespace
}  // namespace repobench
