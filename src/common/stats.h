// Streaming statistics used by metric tracking (loss/accuracy/latency series,
// regret accumulation, fit norms).
#pragma once

#include <cstddef>
#include <vector>

namespace fedl {

// Welford-style running mean/variance with min/max tracking.
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile of a copy of the data (nearest-rank on the sorted values).
double percentile(std::vector<double> values, double pct);

// Least-squares slope of log(y) against log(x); used by the regret bench to
// check sub-linear growth (slope < 1 means sub-linear).
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace fedl
