#include "trace.hpp"

#include <chrono>

#include "obs/json.hpp"

namespace rp::perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns = now_ns();
  log_->open_.pop_back();
}

SpanLog::Scope SpanLog::span(std::string name) {
  if (!enabled_) return Scope(nullptr, 0);
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].seconds();
    if (spans_[i].parent >= 0)
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds();
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_name[spans_[i].name] += self[i];
  return by_name;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.seconds());
  return out;
}

void SpanLog::write_json_lines(std::ostream& os) const {
  for (const Span& span : spans_) {
    os << "{\"name\": \"" << obs::json::escape(span.name)
       << "\", \"start_ns\": " << span.start_ns
       << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
       << "}\n";
  }
}

}  // namespace rp::perfbench
