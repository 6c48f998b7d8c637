// Measurement primitives of the benchmark: bounded latency sampling,
// span folding (per-layer times from obs::Tracer spans), the metric
// list the run prints, and process memory and CPU time.
#ifndef DIADS_PERFBENCH_MEASURE_H_
#define DIADS_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Latency samples in memory that does not grow with run length: a
/// uniform reservoir (seeded, so a run is reproducible) that counts every
/// value and keeps at most kCapacity of them.
class LatencySampler {
 public:
  static constexpr size_t kCapacity = size_t{1} << 17;

  void Add(double value);
  uint64_t count() const { return count_; }
  /// Nearest-rank quantile over the kept values (0 when empty).
  double Quantile(double q) const;
  /// The highest whole percentile with at least 10 samples beyond it,
  /// at most 0.99 (0.5 below 20 samples).
  double TailQuantile() const;
  double Tail() const { return Quantile(TailQuantile()); }

 private:
  uint64_t count_ = 0;
  uint64_t rng_ = 1;
  std::vector<double> kept_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Per-name totals of completed spans.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;

  double mean_ms() const { return count == 0 ? 0.0 : total_ms / count; }
};
using SpanTable = std::map<std::string, SpanTotals>;

/// Folds `spans` into `table` under each span's name, and also under
/// name + `suffix` when the suffix is non-empty (the per-backend split).
void FoldSpans(const std::vector<diads::obs::Span>& spans,
               const std::string& suffix, SpanTable* table);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The ordered metric list of one run.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

/// CPU time this process has used, user + system, all threads, seconds.
double CpuSeconds();

}  // namespace perfbench

#endif  // DIADS_PERFBENCH_MEASURE_H_
