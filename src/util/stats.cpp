#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rp::util {

std::optional<Summary> summarize(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  Summary s;
  s.count = values.size();
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(s.count);
  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.variance = sq / static_cast<double>(s.count);
  s.stddev = std::sqrt(s.variance);
  return s;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (q < 0.0 || q > 100.0)
    throw std::invalid_argument("percentile: q out of [0,100]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("nearest_rank: empty sample");
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

double p95_billing_rate(std::vector<double> five_minute_rates) {
  // Operator convention: discard the top 5% of samples, bill at the largest
  // remaining one.
  return nearest_rank(std::move(five_minute_rates), 0.95);
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> values)
    : sorted_(std::move(values)) {
  if (sorted_.empty()) throw std::invalid_argument("EmpiricalCdf: empty");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("EmpiricalCdf::quantile: q out of [0,1]");
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] + frac * (sorted_[lo + 1] - sorted_[lo]);
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::steps() const {
  std::vector<Point> out;
  const double n = static_cast<double>(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (i + 1 < sorted_.size() && sorted_[i + 1] == sorted_[i]) continue;
    out.push_back({sorted_[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(lo < hi) || bins == 0)
    throw std::invalid_argument("Histogram: invalid range or bin count");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto i = static_cast<std::size_t>((x - lo_) / width_);
  if (i >= counts_.size()) i = counts_.size() - 1;  // FP edge at hi_.
  ++counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

}  // namespace rp::util
