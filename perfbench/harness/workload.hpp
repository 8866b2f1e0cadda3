// What every workload receives and returns, and the helpers they share.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace rp::perfbench {

struct WorkloadResult;

/// Values recorded from a reference build of the program, one per line of
/// perfbench/expected.txt: "<workload> <input> <name> <unsigned integer>".
/// A run checks its digests and exact counts against them, so a wrong
/// answer fails even when it repeats the same way on every run.
class ExpectedValues {
 public:
  ExpectedValues() = default;
  /// Reads `file`; throws when it cannot be read or a line is malformed.
  explicit ExpectedValues(const std::filesystem::path& file);

  /// Counts one checked operation in `result`: it fails unless a value is
  /// recorded for (workload, input, name) and equals `value`. Notes the
  /// measured value as "checked-value <workload> <input> <name> <value>",
  /// the line perfbench/baseline.py --record-expected collects.
  void check(WorkloadResult& result, const std::string& workload,
             const std::string& input, const std::string& name,
             std::uint64_t value) const;

 private:
  std::map<std::string, std::uint64_t> values_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  /// Wall seconds the timed phase runs for (at least one pass always runs).
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory inside the checkout: snapshot files, the daemon's
  /// snapshot cache, span dumps.
  std::filesystem::path work_dir;
  ExpectedValues expected;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run. A failed output check counts one failed operation;
/// `notes` are human-readable lines printed before the result.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  SpanLog spans{false};

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a false `ok` fails it and notes why.
  void check(bool ok, const std::string& what);
};

WorkloadResult run_paper_1x(const RunOptions& options);
WorkloadResult run_campaign_6x(const RunOptions& options);
WorkloadResult run_serve_mix(const RunOptions& options);

/// FNV-1a over the bytes of everything added: a fingerprint of a result
/// that must not change between runs of the same inputs.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  std::uint64_t value() const { return hash_; }

 private:
  void bytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// A field of /proc/self/status in MiB ("VmHWM", "VmSize", "VmRSS").
double proc_status_mib(std::string_view field);

/// Seconds elapsed since `start_ns` (a now_ns() reading).
double seconds_since(std::uint64_t start_ns);

}  // namespace rp::perfbench
