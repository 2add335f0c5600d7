#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/stats.hpp"

namespace saga {
namespace {

TEST(Mean, EmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Mean, KnownValue) { EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5); }

TEST(Stddev, FewerThanTwoIsZero) {
  EXPECT_EQ(stddev({}), 0.0);
  EXPECT_EQ(stddev({5.0}), 0.0);
}

TEST(Stddev, KnownValue) {
  // Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is sqrt(32/7).
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Quantile, EndpointsAreMinMax) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
}

TEST(Quantile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

TEST(Quantile, InterpolatesBetweenValues) {
  // Sorted {1, 2}: q=0.5 -> 1.5.
  EXPECT_DOUBLE_EQ(quantile({2.0, 1.0}, 0.5), 1.5);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 1.0), 7.0);
}

TEST(Quantile, ExactRankBesideInfinityIsThatSample) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(quantile({1.0, 2.0, 3.0, 4.0, inf}, 0.75), 4.0);
  EXPECT_EQ(quantile({inf, inf, inf}, 0.5), inf);
  EXPECT_EQ(quantile({1.0, inf}, 0.5), inf);  // interpolated: still inf, not NaN
}

TEST(Summarize, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, KnownFiveNumberSummary) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Summarize, UnsortedInputHandled) {
  const Summary s = summarize({9.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summarize, InfiniteSamplesGiveNoNaNQuartiles) {
  // Benchmark ratios are +inf when an instance's best makespan is 0 and
  // another scheduler's is not.
  const double inf = std::numeric_limits<double>::infinity();
  const Summary tail = summarize({1.0, 2.0, 3.0, 4.0, inf});
  EXPECT_EQ(tail.q1, 2.0);
  EXPECT_EQ(tail.median, 3.0);
  EXPECT_EQ(tail.q3, 4.0);
  EXPECT_EQ(tail.max, inf);
  const Summary all = summarize({inf, inf, inf});
  EXPECT_EQ(all.q1, inf);
  EXPECT_EQ(all.median, inf);
  EXPECT_EQ(all.q3, inf);
}

TEST(Summarize, ToStringContainsFields) {
  const std::string text = to_string(summarize({1.0, 2.0}));
  EXPECT_NE(text.find("n=2"), std::string::npos);
  EXPECT_NE(text.find("min=1.00"), std::string::npos);
  EXPECT_NE(text.find("max=2.00"), std::string::npos);
}

TEST(FixedHistogram, RejectsBadBounds) {
  EXPECT_THROW(FixedHistogram({}), std::invalid_argument);
  EXPECT_THROW(FixedHistogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(FixedHistogram({2.0, 1.0}), std::invalid_argument);
}

TEST(FixedHistogram, EmptyReportsZero) {
  const FixedHistogram h({1.0, 10.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(FixedHistogram, BucketAssignmentUsesInclusiveUpperBounds) {
  FixedHistogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // bucket 0
  h.record(1.0);    // bucket 0 (inclusive)
  h.record(1.001);  // bucket 1
  h.record(100.0);  // bucket 2
  h.record(250.0);  // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 100.0 + 250.0);
}

TEST(FixedHistogram, PercentilesReturnBucketUpperBounds) {
  FixedHistogram h({1.0, 2.0, 5.0, 10.0});
  for (int i = 0; i < 90; ++i) h.record(1.5);   // bucket le=2
  for (int i = 0; i < 9; ++i) h.record(4.0);    // bucket le=5
  h.record(7.0);                                // bucket le=10
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.9), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(FixedHistogram, OverflowPercentileIsInfinity) {
  FixedHistogram h({1.0});
  h.record(50.0);
  EXPECT_TRUE(std::isinf(h.percentile(0.99)));
}

TEST(FixedHistogram, LatencyLadderCoversMicrosecondsToSeconds) {
  const FixedHistogram h = FixedHistogram::latency_us();
  ASSERT_FALSE(h.bounds().empty());
  EXPECT_DOUBLE_EQ(h.bounds().front(), 1.0);        // 1 µs
  EXPECT_DOUBLE_EQ(h.bounds().back(), 10'000'000);  // 10 s
}

}  // namespace
}  // namespace saga
