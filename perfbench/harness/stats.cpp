#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>

namespace rp::perfbench {

namespace {

// In integer parts per million, so that 99.9% of 10000 is rank 9990 and not
// 9991 through the rounding of 99.9 / 100 * 10000.
std::size_t rank_of(std::size_t count, double percentile) {
  const auto ppm = static_cast<std::uint64_t>(
      std::llround(std::clamp(percentile, 0.0, 100.0) * 1e4));
  const std::uint64_t rank = (ppm * count + 999999) / 1000000;
  return std::clamp<std::size_t>(rank, 1, count);
}

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '-';
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double percentile) {
  return sorted[rank_of(sorted.size(), percentile) - 1];
}

std::size_t samples_beyond(std::size_t count, double percentile) {
  return count == 0 ? 0 : count - rank_of(count, percentile);
}

OrderStats order_stats(std::vector<double> samples) {
  OrderStats stats;
  stats.count = samples.size();
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  stats.median = n % 2 == 1 ? samples[n / 2]
                            : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  stats.tail = samples.back();
  for (const double percentile : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, percentile) >= kTailSupport) {
      stats.tail_percentile = percentile;
      stats.tail = nearest_rank(samples, percentile);
      break;
    }
  }
  return stats;
}

bool is_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), is_name_char);
}

bool is_metric_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_name_char(c) || c == '/' || c == '%';
  });
}

}  // namespace rp::perfbench
