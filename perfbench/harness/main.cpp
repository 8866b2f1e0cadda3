// perfbench — the repo's end-to-end benchmark.
//
//   perfbench --workload paper_1x|campaign_6x|serve_mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR --expected FILE
//
// Runs one workload through the public entry points of the libraries,
// checks its outputs (digests and exact counts against the values FILE
// records), and prints a human summary followed, on the last line, by one
// JSON object: {"correct", "attempted", "failed", "metrics"} with every
// metric the run measured. A traced run adds the per-layer metrics, derived
// from spans the harness records around each call into a layer (written to
// DIR/traces/). perfbench/run.py builds this binary, reports the metrics
// BENCHMARK.json declares, and is the command to run; see
// perfbench/README.md.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <string_view>

#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace {

using rp::perfbench::Metric;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --expected FILE\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view text, const char* flag) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size())
    usage(std::string("bad value for ") + flag + ": '" + std::string(text) +
          "'");
  return value;
}

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

}  // namespace

int main(int argc, char** argv) {
  rp::perfbench::RunOptions options;
  bool have_trace = false;
  std::filesystem::path expected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value, "--seconds"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--expected") {
      expected = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (options.workload.empty() || options.seconds <= 0 || !have_trace ||
      options.work_dir.empty() || expected.empty())
    usage("--workload, --seconds, --trace, --work-dir and --expected are "
          "required");

  rp::perfbench::WorkloadResult result;
  try {
    options.expected = rp::perfbench::ExpectedValues(expected);
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "paper_1x") {
      result = rp::perfbench::run_paper_1x(options);
    } else if (options.workload == "campaign_6x") {
      result = rp::perfbench::run_campaign_6x(options);
    } else if (options.workload == "serve_mix") {
      result = rp::perfbench::run_serve_mix(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  result.add("peak_rss_mib", rp::perfbench::proc_status_mib("VmHWM"), "MiB");

  if (options.trace) {
    const std::filesystem::path dir = options.work_dir / "traces";
    std::filesystem::create_directories(dir);
    const std::filesystem::path path =
        dir / (options.workload + "-" + std::to_string(options.seed) + ".jsonl");
    std::ofstream out(path);
    result.spans.write_json_lines(out);
    result.notes.push_back("spans written to " + path.string());
  }

  std::set<std::string> seen;
  std::string metrics;
  for (const Metric& metric : result.metrics) {
    if (!rp::perfbench::is_metric_name(metric.name) ||
        !rp::perfbench::is_metric_unit(metric.unit) ||
        !seen.insert(metric.name).second || !std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: bad metric '%s' (%s) = %g\n",
                   metric.name.c_str(), metric.unit.c_str(), metric.value);
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " +
               json_number(metric.value) + ", \"unit\": \"" + metric.unit +
               "\"}";
  }

  for (const std::string& note : result.notes)
    std::printf("%s\n", note.c_str());
  std::printf("workload=%s seed=%llu trace=%d rp_threads=%u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              rp::util::ThreadPool::global().thread_count());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.failed == 0 && result.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
