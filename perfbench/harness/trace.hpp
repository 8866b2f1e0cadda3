// Spans recorded by the benchmark around each call it makes into a layer.
//
// A SpanLog belongs to one thread. Spans nest through a stack of open spans,
// are kept in memory, and are written out once the run ends. A disabled log
// records nothing and reads no clock, so untraced runs pay one branch per
// call site.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace rp::perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Index of the enclosing span in the same log, or -1 for a root.
  std::int64_t parent = -1;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class SpanLog;
    Scope(SpanLog* log, std::size_t index) : log_(log), index_(index) {}
    SpanLog* log_;
    std::size_t index_;
  };

  /// Opens a span named `name` as a child of the innermost open span.
  [[nodiscard]] Scope span(std::string name);

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Appends another (closed) log's spans, keeping their parent links.
  void append(const SpanLog& other);

  /// Total self time per span name: each span's duration minus the time its
  /// direct children cover (children run on the same thread, one at a time).
  std::map<std::string, double> self_seconds() const;

  /// Durations in seconds of every span called `name`, in record order.
  std::vector<double> durations(const std::string& name) const;

  /// One JSON object per span: name, start_ns, end_ns, parent.
  void write_json_lines(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

std::uint64_t now_ns();

}  // namespace rp::perfbench
