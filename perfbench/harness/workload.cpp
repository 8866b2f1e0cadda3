#include "workload.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rp::perfbench {

void WorkloadResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  notes.push_back("CHECK FAILED: " + what);
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(std::uint64_t v) { bytes(&v, sizeof v); }

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  bytes(s.data(), s.size());
}

ExpectedValues::ExpectedValues(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string workload, input, name, rest;
    std::uint64_t value = 0;
    if (!(fields >> workload >> input >> name >> value) || (fields >> rest))
      throw std::runtime_error(file.string() + ":" + std::to_string(number) +
                               ": expected '<workload> <input> <name> "
                               "<unsigned integer>'");
    values_[workload + " " + input + " " + name] = value;
  }
}

void ExpectedValues::check(WorkloadResult& result, const std::string& workload,
                           const std::string& input, const std::string& name,
                           std::uint64_t value) const {
  const std::string key = workload + " " + input + " " + name;
  result.notes.push_back("checked-value " + key + " " + std::to_string(value));
  const auto it = values_.find(key);
  if (it == values_.end()) {
    result.check(false, "no expected value recorded for " + key);
    return;
  }
  result.check(it->second == value,
               key + " is " + std::to_string(value) + ", expected " +
                   std::to_string(it->second));
}

double proc_status_mib(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) != 0 ||
        line.size() <= field.size() || line[field.size()] != ':')
      continue;
    std::istringstream rest(line.substr(field.size() + 1));
    double kib = 0.0;
    rest >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

}  // namespace rp::perfbench
