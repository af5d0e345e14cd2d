#include "evidence/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rcc {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat rs;
  rs.add(5.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 5.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
}

TEST(RunningStat, KnownMeanAndVariance) {
  RunningStat rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStat, NumericallyStableForLargeOffsets) {
  RunningStat rs;
  const double offset = 1e9;
  for (double x : {offset + 1, offset + 2, offset + 3}) rs.add(x);
  EXPECT_NEAR(rs.mean(), offset + 2, 1e-3);
  EXPECT_NEAR(rs.variance(), 1.0, 1e-6);
}

TEST(PercentileSorted, Interpolation) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0 / 3.0), 2.0);
}

TEST(PercentileSorted, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 42.0);
}

TEST(Summarize, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, OrderStatisticsOfUnsortedInput) {
  const Summary s = summarize({9.0, 1.0, 5.0, 3.0, 7.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 3.0);
  EXPECT_DOUBLE_EQ(s.p75, 7.0);
}

TEST(Summarize, StrRenders) {
  const Summary s = summarize({1.0, 2.0, 3.0});
  const std::string rendered = s.str(2);
  EXPECT_NE(rendered.find("2.00"), std::string::npos);
  EXPECT_NE(rendered.find("1.00"), std::string::npos);
  EXPECT_NE(rendered.find("3.00"), std::string::npos);
}

}  // namespace
}  // namespace rcc
