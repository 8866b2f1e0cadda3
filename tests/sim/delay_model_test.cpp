#include "sim/delay_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace rp::sim {
namespace {

TEST(QueueJitter, MedianNearConfigured) {
  QueueJitter jitter(util::SimDuration::micros(30), 0.5);
  util::Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(
        jitter.sample(util::SimTime::origin(), rng).as_seconds_f());
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  EXPECT_NEAR(median, 30e-6, 3e-6);
  EXPECT_GT(samples.front(), 0.0);
}

TEST(CongestionEpisodes, OnlyActiveInsideWindows) {
  const auto start = util::SimTime::at(util::SimDuration::hours(1));
  const auto end = util::SimTime::at(util::SimDuration::hours(2));
  CongestionEpisodes model({{start, end, util::SimDuration::millis(5)}});
  util::Rng rng(2);
  EXPECT_EQ(model.sample(util::SimTime::origin(), rng).count_nanos(), 0);
  EXPECT_EQ(model.sample(end, rng).count_nanos(), 0);  // End exclusive.
  double total = 0.0;
  for (int i = 0; i < 5000; ++i)
    total += model.sample(start, rng).as_seconds_f();
  EXPECT_NEAR(total / 5000.0, 5e-3, 5e-4);
}

TEST(CongestionEpisodes, DailyBusyHoursRepeatEachDay) {
  auto model = CongestionEpisodes::daily_busy_hours(
      util::SimTime::origin(), util::SimDuration::days(3),
      util::SimDuration::hours(19), util::SimDuration::hours(2),
      util::SimDuration::millis(3));
  util::Rng rng(3);
  for (int day = 0; day < 3; ++day) {
    const auto busy = util::SimTime::at(util::SimDuration::hours(24 * day + 20));
    const auto quiet = util::SimTime::at(util::SimDuration::hours(24 * day + 3));
    EXPECT_GT(model.sample(busy, rng).count_nanos(), 0) << "day " << day;
    EXPECT_EQ(model.sample(quiet, rng).count_nanos(), 0) << "day " << day;
  }
}

TEST(PersistentCongestion, SweepsConfiguredRange) {
  PersistentCongestion model(util::SimDuration::millis(10),
                             util::SimDuration::millis(400));
  util::Rng rng(4);
  double total = 0.0;
  double min_seen = 1e9, max_seen = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto d = model.sample(util::SimTime::origin(), rng);
    const double s = d.as_seconds_f();
    EXPECT_GE(s, 10e-3);
    EXPECT_LE(s, 400e-3);
    total += s;
    min_seen = std::min(min_seen, s);
    max_seen = std::max(max_seen, s);
  }
  EXPECT_NEAR(total / 20000.0, 205e-3, 5e-3);  // Uniform mean.
  // Broad dispersion is the point: the minimum must be a rare outlier.
  EXPECT_GT(max_seen - min_seen, 300e-3);
}

TEST(PersistentCongestion, MeanConvenienceConstructor) {
  // The mean/3 .. 3*mean sweep averages to 5/3 of the nominal mean.
  PersistentCongestion model(util::SimDuration::millis(9));
  util::Rng rng(6);
  double total = 0.0;
  for (int i = 0; i < 20000; ++i)
    total += model.sample(util::SimTime::origin(), rng).as_seconds_f();
  EXPECT_NEAR(total / 20000.0, 9e-3 * 5.0 / 3.0, 1e-3);
}

}  // namespace
}  // namespace rp::sim
