// Exact order statistics and metric-name rules for the benchmark report.
//
// Every timing is reported as its median plus the highest percentile that
// still has at least kTailSupport samples beyond it, with the sample count:
// a p99 over 200 samples rests on two values and says little, so it is not
// reported as one.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace rp::perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSupport = 10;

struct OrderStats {
  std::size_t count = 0;
  double median = 0.0;
  /// The highest percentile of {50, 90, 99, 99.9, 99.99} with at least
  /// kTailSupport samples beyond it; 0 when even the median has fewer.
  double tail_percentile = 0.0;
  /// The sample at tail_percentile (the maximum when tail_percentile is 0).
  double tail = 0.0;
};

/// Nearest-rank percentile of sorted samples: the value at 1-based rank
/// ceil(p/100 * n), clamped to [1, n]. Requires a non-empty input.
double nearest_rank(const std::vector<double>& sorted, double percentile);

/// How many samples lie beyond the nearest-rank position of `percentile`.
std::size_t samples_beyond(std::size_t count, double percentile);

/// Median (mean of the two middle values for even counts) and the best
/// supported tail of `samples`. Empty input gives all zeros.
OrderStats order_stats(std::vector<double> samples);

/// A metric name: starts with a letter or digit, then at most 63 more
/// letters, digits, '_', '.' or '-'.
bool is_metric_name(std::string_view name);

/// A metric unit: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
bool is_metric_unit(std::string_view unit);

}  // namespace rp::perfbench
