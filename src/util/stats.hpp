// Descriptive statistics used throughout the measurement and traffic studies:
// percentiles (including the 95th-percentile transit-billing rule of §2.1),
// empirical CDFs (Fig. 2), and simple summaries.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace rp::util {

/// Summary of a sample: count, min/max, mean, (population) variance.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
};

/// Computes a Summary; returns nullopt for an empty sample.
std::optional<Summary> summarize(const std::vector<double>& values);

/// Linear-interpolation percentile (like numpy's default). `q` in [0, 100].
/// Throws std::invalid_argument on empty input or q out of range.
double percentile(std::vector<double> values, double q);

/// Nearest-rank quantile: sorts the sample and returns its rank-ceil(q * n)
/// element (rank at least 1). `q` in (0, 1]. Throws std::invalid_argument on
/// an empty sample.
double nearest_rank(std::vector<double> values, double q);

/// The 95th-percentile rule used for transit billing (§2.1): the charge is
/// per-Mbps price times the 95th percentile of the 5-minute traffic rates.
/// Uses the operator convention of discarding the top 5% of samples, i.e.
/// nearest_rank at q = 0.95.
double p95_billing_rate(std::vector<double> five_minute_rates);

/// An empirical CDF over a fixed sample, queryable at arbitrary x and
/// renderable as (x, F(x)) steps — used for Fig. 2's minimum-RTT CDF.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> values);

  /// Fraction of samples <= x.
  double at(double x) const;
  /// The q-quantile (q in [0,1]), by linear interpolation.
  double quantile(double q) const;
  std::size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted_values() const { return sorted_; }

  /// Evaluation points suitable for plotting: one (value, cumulative
  /// fraction) pair per distinct sample value.
  struct Point {
    double value;
    double fraction;
  };
  std::vector<Point> steps() const;

 private:
  std::vector<double> sorted_;
};

/// Fixed-width histogram over [lo, hi) with `bins` buckets plus an overflow
/// and underflow count.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace rp::util
