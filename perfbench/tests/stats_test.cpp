// Self-tests of the benchmark's own helpers: exact order statistics, the
// metric-name grammar, the metrics BENCHMARK.json declares and span self
// times.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace rp::perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(OrderStats, EmptyInputIsAllZero) {
  const OrderStats s = order_stats({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.tail_percentile, 0.0);
}

TEST(OrderStats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(order_stats({5.0, 1.0, 3.0}).median, 3.0);
  EXPECT_EQ(order_stats({4.0, 1.0, 3.0, 2.0}).median, 2.5);
  EXPECT_EQ(order_stats({7.0}).median, 7.0);
}

TEST(OrderStats, NearestRankPercentiles) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(nearest_rank(v, 50.0), 50.0);
  EXPECT_EQ(nearest_rank(v, 99.0), 99.0);
  EXPECT_EQ(nearest_rank(v, 99.5), 100.0);
  EXPECT_EQ(nearest_rank(v, 100.0), 100.0);
  EXPECT_EQ(nearest_rank(v, 0.0), 1.0);
  EXPECT_EQ(nearest_rank({42.0}, 99.0), 42.0);
}

TEST(OrderStats, SamplesBeyondCountsStrictlyHigherRanks) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(OrderStats, TailIsTheHighestPercentileWithTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    double percentile;
    double value;
  };
  for (const Case& c : {Case{19, 0.0, 19.0}, Case{20, 50.0, 10.0},
                        Case{99, 50.0, 50.0}, Case{100, 90.0, 90.0},
                        Case{999, 90.0, 900.0}, Case{1000, 99.0, 990.0},
                        Case{10000, 99.9, 9990.0},
                        Case{100000, 99.99, 99990.0}}) {
    const OrderStats s = order_stats(one_to(c.n));
    EXPECT_EQ(s.count, c.n);
    EXPECT_EQ(s.tail_percentile, c.percentile) << "n=" << c.n;
    EXPECT_EQ(s.tail, c.value) << "n=" << c.n;
    if (s.tail_percentile > 0.0) {
      EXPECT_GE(samples_beyond(c.n, s.tail_percentile), kTailSupport);
    }
  }
}

TEST(OrderStats, IgnoresInputOrder) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  const OrderStats s = order_stats(v);
  EXPECT_EQ(s.median, 500.5);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(MetricName, Grammar) {
  for (const char* ok : {"setup_s", "serve.ping.p50_us", "1x", "a-b.c_d",
                         "core.scenario_build_s"})
    EXPECT_TRUE(is_metric_name(ok)) << ok;
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "p99%", "ü"})
    EXPECT_FALSE(is_metric_name(bad)) << bad;
  EXPECT_TRUE(is_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(is_metric_name(std::string(65, 'a')));
}

TEST(MetricName, UnitGrammar) {
  for (const char* ok : {"s", "ms", "1/s", "%", "MiB", "count", "ratio"})
    EXPECT_TRUE(is_metric_unit(ok)) << ok;
  for (const char* bad : {"", "m s", "s,", "µs"})
    EXPECT_FALSE(is_metric_unit(bad)) << bad;
  EXPECT_FALSE(is_metric_unit(std::string(17, 's')));
}

TEST(DeclaredMetrics, NamesAndUnitsAreValidAndUnique) {
  std::ifstream in(RP_BENCHMARK_JSON);
  ASSERT_TRUE(in) << RP_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  // A metric entry is the only object whose "name" is followed by a "unit".
  const std::regex entry(
      R"re(\{\s*"name"\s*:\s*"([^"]*)"\s*,\s*"unit"\s*:\s*"([^"]*)")re");
  std::set<std::string> seen;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), entry);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    const std::string unit = (*it)[2];
    EXPECT_TRUE(is_metric_name(name)) << name;
    EXPECT_TRUE(is_metric_unit(unit)) << unit;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
  }
  EXPECT_TRUE(seen.contains("setup_s"));
  EXPECT_TRUE(seen.contains("trace.attributed_ratio"));
}

TEST(SpanLog, SelfTimesAddUpToTheRoot) {
  SpanLog log(true);
  {
    auto root = log.span("pipeline");
    {
      auto a = log.span("a");
      auto inner = log.span("b");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    auto b = log.span("b");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(log.spans().size(), 4u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 1);
  EXPECT_EQ(log.spans()[3].parent, 0);

  const auto self = log.self_seconds();
  double total = 0.0;
  for (const auto& [name, seconds] : self) {
    EXPECT_GE(seconds, 0.0) << name;
    total += seconds;
  }
  EXPECT_NEAR(total, log.spans()[0].seconds(), 1e-9);
  EXPECT_GE(self.at("b"), 0.003);
  EXPECT_EQ(log.durations("b").size(), 2u);
}

TEST(SpanLog, DisabledLogRecordsNothing) {
  SpanLog log(false);
  { auto span = log.span("pipeline"); }
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpanLog, AppendKeepsParentLinks) {
  SpanLog first(true);
  { auto span = first.span("x"); }
  SpanLog second(true);
  {
    auto outer = second.span("outer");
    auto inner = second.span("inner");
  }
  first.append(second);
  ASSERT_EQ(first.spans().size(), 3u);
  EXPECT_EQ(first.spans()[2].parent, 1);
  EXPECT_EQ(first.spans()[1].parent, -1);
}

}  // namespace
}  // namespace rp::perfbench
