#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t user, nice, system, idle, iowait, irq, softirq, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return cpu == "cpu" ? steal : 0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Fail(const std::string& reason, uint64_t count) {
  if (failed_ < 5) std::cerr << "perfbench: failed operation: " << reason << "\n";
  failed_ += count;
}

void Report::Invalidate(const std::string& reason) {
  std::cerr << "perfbench: invalid run: " << reason << "\n";
  invalid_.push_back(reason);
}

void Report::Absorb(const Report& other) {
  metrics_.insert(other.metrics_.begin(), other.metrics_.end());
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  invalid_.insert(invalid_.end(), other.invalid_.begin(),
                  other.invalid_.end());
}

std::string Report::Json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) os << ", ";
    first = false;
    // JSON has no NaN/inf; a metric that could not be measured reads 0.
    const double v = std::isfinite(metric.first) ? metric.first : 0.0;
    os << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
       << metric.second << "\"}";
  }
  os << "}}";
  return os.str();
}

SpanLog::Buffer* SpanLog::NewBuffer(size_t reserve) {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->spans_.reserve(reserve);
  return buffers_.back().get();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      out << "{\"span\":\"" << s.name << "\",\"parent\":\"" << s.parent
          << "\",\"request_id\":" << s.request_id
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

double OverheadPct(double untraced, double traced, bool higher_better) {
  if (untraced == 0.0) return 0.0;
  const double worse = higher_better ? untraced - traced : traced - untraced;
  return 100.0 * worse / untraced;
}

std::vector<double> ProgramSpanDurationsUs(const std::vector<std::string>& lines,
                                           const std::string& name) {
  const std::string key = "\"bench\":\"span/" + name + "\"";
  std::vector<double> out;
  for (const std::string& line : lines) {
    if (line.find(key) == std::string::npos) continue;
    const size_t at = line.find("\"dur_us\":");
    if (at == std::string::npos) continue;
    out.push_back(std::strtod(line.c_str() + at + 9, nullptr));
  }
  return out;
}

}  // namespace perfbench
