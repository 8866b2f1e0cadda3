#include "obs/export.hpp"

#include <fstream>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace rp::obs {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "hist";
  }
  return "?";
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

void render_metrics_table(std::ostream& os,
                          const std::vector<MetricValue>& snapshot) {
  util::TextTable table({"metric", "kind", "value", "mean", "min", "max"});
  for (const MetricValue& m : snapshot) {
    switch (m.kind) {
      case MetricKind::kCounter:
        table.add_row({m.name, kind_name(m.kind), fmt_u64(m.count), "", "", ""});
        break;
      case MetricKind::kGauge:
        table.add_row({m.name, kind_name(m.kind), util::fmt_double(m.value),
                       "", "", ""});
        break;
      case MetricKind::kHistogram:
        table.add_row({m.name, kind_name(m.kind), fmt_u64(m.count),
                       util::fmt_double(m.mean(), 1), fmt_u64(m.min),
                       fmt_u64(m.max)});
        break;
    }
  }
  table.render(os);
}

std::vector<json::Entry> metrics_json_entries(
    const std::vector<MetricValue>& snapshot) {
  std::vector<json::Entry> entries;
  entries.reserve(snapshot.size());
  for (const MetricValue& m : snapshot) {
    switch (m.kind) {
      case MetricKind::kCounter:
        entries.emplace_back(m.name, json::number(m.count));
        break;
      case MetricKind::kGauge:
        entries.emplace_back(m.name, json::number(m.value));
        break;
      case MetricKind::kHistogram:
        entries.emplace_back(m.name + ".count", json::number(m.count));
        entries.emplace_back(m.name + ".sum", json::number(m.sum));
        entries.emplace_back(m.name + ".mean", json::number(m.mean()));
        entries.emplace_back(m.name + ".min", json::number(m.min));
        entries.emplace_back(m.name + ".max", json::number(m.max));
        entries.emplace_back(m.name + ".p50", json::number(m.quantile(0.50)));
        entries.emplace_back(m.name + ".p90", json::number(m.quantile(0.90)));
        entries.emplace_back(m.name + ".p99", json::number(m.quantile(0.99)));
        break;
    }
  }
  return entries;
}

void write_metrics_json(std::ostream& os,
                        const std::vector<MetricValue>& snapshot) {
  json::write_flat_object(os, metrics_json_entries(snapshot));
}

std::string prometheus_metric_name(const std::string& key) {
  std::string name;
  name.reserve(key.size() + 3);
  // Registry names ("rp.serve.readers.live") already carry the namespace.
  if (key.rfind("rp_", 0) != 0 && key.rfind("rp.", 0) != 0) name = "rp_";
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    name.push_back(ok ? c : '_');
  }
  return name;
}

bool is_canonical_number(const std::string& value) {
  std::size_t i = 0;
  const std::size_t n = value.size();
  auto digits = [&value, n](std::size_t& at) {
    const std::size_t start = at;
    while (at < n && value[at] >= '0' && value[at] <= '9') ++at;
    return at > start;
  };
  if (i < n && value[i] == '-') ++i;
  // Integer part: "0" alone, or a nonzero leading digit. Leading zeros are
  // the tell that a value is a digest, not a number.
  if (i >= n) return false;
  if (value[i] == '0') {
    ++i;
  } else {
    if (!digits(i)) return false;
  }
  if (i < n && value[i] == '.') {
    ++i;
    if (!digits(i)) return false;
  }
  if (i < n && (value[i] == 'e' || value[i] == 'E')) {
    ++i;
    if (i < n && (value[i] == '+' || value[i] == '-')) ++i;
    if (!digits(i)) return false;
  }
  return i == n;
}

std::size_t write_prometheus(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::size_t written = 0;
  for (const auto& [key, value] : rows) {
    // Only numeric rows become samples; anything else (digest strings,
    // comma-joined windows) has no Prometheus representation.
    if (!is_canonical_number(value)) continue;
    const std::string name = prometheus_metric_name(key);
    os << "# TYPE " << name << " gauge\n" << name << ' ' << value << '\n';
    ++written;
  }
  return written;
}

bool dump_global_metrics(std::ostream& os, const std::string& json_path) {
  const std::vector<MetricValue> snap = MetricsRegistry::global().snapshot();
  render_metrics_table(os, snap);
  if (json_path.empty()) return true;
  std::ofstream file(json_path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  write_metrics_json(file, snap);
  return static_cast<bool>(file);
}

}  // namespace rp::obs
