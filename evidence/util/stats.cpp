#include "evidence/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/types.hpp"

namespace rcc {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double percentile_sorted(const std::vector<double>& sorted, double q) {
  RCC_CHECK(!sorted.empty());
  RCC_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  RunningStat rs;
  for (double v : values) rs.add(v);
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = values.front();
  s.max = values.back();
  s.p25 = percentile_sorted(values, 0.25);
  s.median = percentile_sorted(values, 0.5);
  s.p75 = percentile_sorted(values, 0.75);
  return s;
}

std::string Summary::str(int precision) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.*f ± %.*f [%.*f, %.*f]", precision, mean,
                precision, stddev, precision, min, precision, max);
  return buf;
}

}  // namespace rcc
