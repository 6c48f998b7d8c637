#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void LatencySampler::Add(double value) {
  ++count_;
  if (kept_.size() < kCapacity) {
    kept_.push_back(value);
    return;
  }
  const uint64_t slot = SplitMix64(&rng_) % count_;
  if (slot < kCapacity) kept_[slot] = value;
}

double LatencySampler::Quantile(double q) const {
  if (kept_.empty()) return 0;
  std::vector<double> sorted = kept_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(sorted.size()))) - 1;
  return sorted[index];
}

double LatencySampler::TailQuantile() const {
  if (count_ < 20) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(count_);
  return std::min(0.99, std::floor(q * 100.0) / 100.0);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void FoldSpans(const std::vector<diads::obs::Span>& spans,
               const std::string& suffix, SpanTable* table) {
  for (const diads::obs::Span& span : spans) {
    for (const std::string& key :
         {span.name, suffix.empty() ? std::string() : span.name + suffix}) {
      if (key.empty()) continue;
      SpanTotals& totals = (*table)[key];
      ++totals.count;
      totals.total_ms += span.duration_ms();
    }
  }
}

std::string MetricList::ResultJson(bool correct, uint64_t attempted,
                                   uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

double CpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
