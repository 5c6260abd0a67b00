// Unit tests for the statistics the benchmark reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats.hpp"

namespace rrbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i + 1);
  return xs;
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  // p99 of 1000 samples is rank 990, with samples 991..1000 beyond it.
  const auto p = percentile(iota(1000), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 990.0);
  // 999 samples leave only 9 beyond rank 990: not reported.
  EXPECT_FALSE(percentile(iota(999), 0.99).has_value());
  EXPECT_EQ(samples_for_percentile(0.99), 1000u);
  EXPECT_FALSE(percentile(iota(samples_for_percentile(0.99) - 1), 0.99).has_value());
  // The nearest-rank median of 20 samples is rank 10, with 10 beyond it;
  // of 19 samples, rank 10 with only 9 beyond.
  EXPECT_TRUE(percentile(iota(20), 0.5).has_value());
  EXPECT_FALSE(percentile(iota(19), 0.5).has_value());
}

TEST(Percentile, IgnoresInputOrderAndRejectsBadArguments) {
  std::vector<double> xs = iota(2000);
  std::vector<double> reversed(xs.rbegin(), xs.rend());
  EXPECT_EQ(percentile(xs, 0.99), percentile(reversed, 0.99));
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_FALSE(percentile(xs, 0.0).has_value());
  EXPECT_FALSE(percentile(xs, 1.5).has_value());
}

TEST(Percentile, AStallBurstReachesTheTail) {
  // 3000 samples, 40 of them (1.3%) stalled in one burst: the p99 of the
  // whole run is a stalled sample, wherever in the run the burst fell.
  std::vector<double> xs;
  for (int i = 1; i <= 3000; ++i) xs.push_back(i > 1000 && i <= 1040 ? 1e6 : i);
  EXPECT_DOUBLE_EQ(*percentile(xs, 0.99), 1e6);
  std::rotate(xs.begin(), xs.begin() + 1500, xs.end());
  EXPECT_DOUBLE_EQ(*percentile(xs, 0.99), 1e6);
  // 29 stalled samples (under 1%) leave the p99 among the normal ones.
  std::vector<double> ys = iota(3000);
  for (int i = 0; i < 29; ++i) ys[static_cast<std::size_t>(i)] = 1e6;
  EXPECT_LT(*percentile(ys, 0.99), 1e6);
}

TEST(Median, OddAndEvenSizes) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Expected values are Python's statistics.quantiles(xs, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const auto a = quartiles(iota(10));
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a->q1, 2.75);
  EXPECT_DOUBLE_EQ(a->q2, 5.5);
  EXPECT_DOUBLE_EQ(a->q3, 8.25);

  const auto b = quartiles({3.0, 1.0});
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(b->q1, 0.5);
  EXPECT_DOUBLE_EQ(b->q2, 2.0);
  EXPECT_DOUBLE_EQ(b->q3, 3.5);

  const auto c = quartiles({5.0, 1.0, 4.0, 2.0, 3.0});
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->q1, 1.5);
  EXPECT_DOUBLE_EQ(c->q2, 3.0);
  EXPECT_DOUBLE_EQ(c->q3, 4.5);

  const auto d = quartiles({0.5, 0.25, 1.5, 2.0, 8.0, 3.0});
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(d->q1, 0.4375);
  EXPECT_DOUBLE_EQ(d->q2, 1.75);
  EXPECT_DOUBLE_EQ(d->q3, 4.25);

  EXPECT_FALSE(quartiles({1.0}).has_value());
}

TEST(OpenLoop, DueTimesFollowTheScheduleNotTheReplies) {
  const OpenLoopSchedule s{100.0, 0.005};
  EXPECT_DOUBLE_EQ(s.due(0), 100.0);
  EXPECT_DOUBLE_EQ(s.due(200), 101.0);
}

TEST(OpenLoop, AStallIsChargedToEveryRequestQueuedBehindIt) {
  // 10 ms interval; the server stalls from t=0 to t=50 ms and then
  // answers requests 0..5 at once. Each is charged from its own due time,
  // so the stall costs request 0 the full 50 ms and request 5 nothing —
  // and request 3, which the stalled generator only sent at 45 ms, is
  // still charged from its due time of 30 ms.
  const OpenLoopSchedule s{0.0, 0.010};
  const double reply = 0.050;
  EXPECT_NEAR(s.latency(0, reply), 0.050, 1e-12);
  EXPECT_NEAR(s.latency(1, reply), 0.040, 1e-12);
  EXPECT_NEAR(s.latency(3, reply), 0.020, 1e-12);
  EXPECT_NEAR(s.latency(5, reply), 0.000, 1e-12);
  EXPECT_NEAR(s.lag(3, 0.045), 0.015, 1e-12);
  // A request sent early or on time has no lag.
  EXPECT_DOUBLE_EQ(s.lag(3, 0.029), 0.0);
  // Send-time latency would hide the stall; due-time latency does not.
  const double sent = 0.045;
  EXPECT_LT(reply - sent, s.latency(3, reply));
}

}  // namespace
}  // namespace rrbench
