// Unified metrics registry.
//
// One scrape surface for every subsystem, with two formats:
//
//   * RenderPrometheus() — Prometheus text exposition (# HELP / # TYPE,
//     counter/gauge/histogram families, exponential _bucket{le=} lines)
//   * ToJson()           — a machine-readable snapshot (validated by the
//     strict parser in common/json.h)
//
// Two registration styles:
//
//   * Owned instruments (AddCounter/AddGauge/AddHistogram) — the registry
//     allocates the atomic and hands back a stable pointer; callers
//     update it on the hot path (lock-free). The engine records every
//     counter and latency it counts itself this way (engine/stats.h).
//   * Sources (AddSource) — a callback invoked at scrape time that emits
//     counters an owner keeps for its own use: the engine's pool and
//     caches, the fleet store and its log, the slowdown detector. Their
//     atomics stay where they are; the registry reads them when asked.
//
// Histograms keep fixed buckets, so their memory does not grow with the
// number of observations.
//
// The per-counter naming convention is diads_<subsystem>_<what>[_total].
#ifndef DIADS_OBS_METRICS_H_
#define DIADS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace diads::obs {

/// Pre-baked label pairs attached to one instrument, e.g.
/// {{"module","CO"}, {"backend","replay"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Monotonic counter. Lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous value. Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Sets the value to `v` if `v` is larger (a high-water mark).
  void RaiseTo(double v) {
    double seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Exponential bucket layout: bounds are first_bound * growth^i for
/// i in [0, bucket_count), plus the implicit +Inf overflow bucket.
struct ExponentialBuckets {
  double first_bound = 1.0;
  double growth = 2.0;
  int bucket_count = 16;
};

/// Millisecond latencies: bounds 1 us * 2^(i/4) for i in [0, 108), so 107
/// buckets of growth 2^(1/4) span 1 us to about 113 s. A histogram with
/// this layout holds 1.7 KB of bounds and counts.
inline constexpr ExponentialBuckets kLatencyMsBuckets{0.001,
                                                      1.189207115002721, 108};

/// Histogram over exponential buckets. Observe() is lock-free (relaxed
/// atomics; the sum uses a CAS loop).
class Histogram {
 public:
  explicit Histogram(const ExponentialBuckets& layout);

  void Observe(double v);

  struct Snapshot {
    std::vector<double> bounds;       ///< Upper bounds, +Inf excluded.
    std::vector<uint64_t> cumulative; ///< Per-bound cumulative counts.
    uint64_t count = 0;               ///< Total observations (= +Inf cum).
    double sum = 0;

    /// The q-quantile (q in [0, 1]) by the rule stats::PercentileOfSorted
    /// applies to the sorted observations: linear interpolation between
    /// the order statistics at ranks floor and ceil of q * (count - 1).
    /// Each order statistic is estimated inside its bucket (by its rank
    /// among the bucket's observations), so for observations between the
    /// first and the last bound the relative error is at most
    /// growth - 1. An observation at or below the first bound reads as
    /// the first bound, and one past the last bound as the last bound
    /// (as Prometheus's histogram_quantile reads the +Inf bucket). 0 when
    /// empty.
    double Quantile(double q) const;
  };
  Snapshot Snap() const;

 private:
  std::vector<double> bounds_;
  /// Per-bucket observation counts, the last one past every bound. The
  /// snapshot's count is their sum, so it always agrees with the buckets.
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// One collected value — the common shape behind both render formats and
/// the coverage tests ("no counter lost").
struct MetricSample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  double value = 0;  ///< Counter/gauge value; histogram observation count.
  /// Histogram detail (empty bounds for counters/gauges).
  std::vector<double> hist_bounds;
  std::vector<uint64_t> hist_cumulative;
  double hist_sum = 0;
};

/// Scrape-time emission interface handed to Sources.
class MetricsEmitter {
 public:
  virtual ~MetricsEmitter() = default;
  virtual void Counter(const std::string& name, const std::string& help,
                       const Labels& labels, uint64_t value) = 0;
  virtual void Gauge(const std::string& name, const std::string& help,
                     const Labels& labels, double value) = 0;
};

/// The registry. Thread-safe: registration, updates, and scrapes may all
/// race (scrapes see a consistent point-in-time read of each atomic, not
/// a global snapshot — the usual Prometheus contract).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers an owned instrument; the pointer stays valid for the
  /// registry's lifetime. Names must match [a-zA-Z_:][a-zA-Z0-9_:]*.
  Counter* AddCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* AddGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* AddHistogram(const std::string& name, const std::string& help,
                          const ExponentialBuckets& layout,
                          Labels labels = {});

  /// Registers a scrape-time source. The callback must stay valid for the
  /// registry's lifetime and tolerate concurrent invocation.
  using SourceFn = std::function<void(MetricsEmitter&)>;
  void AddSource(SourceFn source);

  /// Every sample the registry can currently produce (owned instruments
  /// in registration order, then source emissions in registration order).
  std::vector<MetricSample> Collect() const;

  /// Prometheus text exposition format.
  std::string RenderPrometheus() const;
  /// JSON snapshot: {"metrics":[{name,type,labels,value,...}, ...]}.
  std::string ToJson() const;

  /// Test helper: the sample with `name` (and `labels`, when non-empty —
  /// an empty filter matches the first sample with the name). Null when
  /// absent.
  static const MetricSample* Find(const std::vector<MetricSample>& samples,
                                  const std::string& name,
                                  const Labels& labels = {});

 private:
  struct OwnedInstrument {
    std::string name;
    std::string help;
    MetricType type;
    Labels labels;
    std::unique_ptr<class Counter> counter;
    std::unique_ptr<class Gauge> gauge;
    std::unique_ptr<class Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<OwnedInstrument>> instruments_;
  std::vector<SourceFn> sources_;
};

}  // namespace diads::obs

#endif  // DIADS_OBS_METRICS_H_
