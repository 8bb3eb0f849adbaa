#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fedl {

void RunningStat::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double pct) {
  FEDL_CHECK(!values.empty());
  FEDL_CHECK(pct >= 0.0 && pct <= 100.0) << "pct=" << pct;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  FEDL_CHECK_EQ(x.size(), y.size());
  FEDL_CHECK_GE(x.size(), 2u);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0.0 || y[i] <= 0.0) continue;  // log undefined; skip
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  FEDL_CHECK_GE(n, 2u) << "not enough positive points for log-log fit";
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  FEDL_CHECK_GT(std::abs(denom), 0.0);
  return (dn * sxy - sx * sy) / denom;
}

}  // namespace fedl
