// Serving-layer metrics for the concurrent diagnosis engine.
//
// The engine is the part of DIADS that faces traffic, so it is the part
// that must be measurable: operators watching a fleet-wide diagnosis
// service need throughput, queue depth, cache effectiveness, and the
// latency breakdown across the workflow's modules (PD/CO/DA/CR/SD/IA) to
// tell "the service is slow" apart from "one module regressed".
//
// All recorders are thread-safe; workers record with a short critical
// section and readers take a consistent snapshot.
#ifndef DIADS_ENGINE_STATS_H_
#define DIADS_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace diads::diag {
struct ModuleTimings;  // diads/workflow.h
}  // namespace diads::diag

namespace diads::monitor {
struct GatherResult;  // monitor/gather.h
}  // namespace diads::monitor

namespace diads::engine {

/// Thread-safe latency accumulator with exact percentiles.
///
/// Stores every sample (a diagnosis service handles thousands of requests,
/// not billions; exactness beats a sketch at this scale) and sorts lazily
/// at snapshot time.
class LatencyRecorder {
 public:
  void Record(double ms);

  struct Summary {
    uint64_t count = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;
  };
  Summary Summarize() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
};

/// Point-in-time view of the engine's counters.
struct EngineStatsSnapshot {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;       ///< Submitted after shutdown began.
  // Fair-queue admission/dispatch outcomes (filled by the engine from its
  // ThreadPool; all zero for a queue that never rejected or shed).
  uint64_t admitted = 0;            ///< Tasks accepted past admission.
  uint64_t rejected_share = 0;      ///< Refused: tenant queue share full.
  uint64_t shed_deadline = 0;       ///< Dropped expired before running.
  uint64_t cancelled_shutdown = 0;  ///< Queued work failed by Shutdown.
  /// Dispatches where fair queueing let a request overtake an
  /// earlier-arrived request of another (flooding) tenant.
  uint64_t starvation_avoided = 0;
  double queued_cost = 0;           ///< Cost currently enqueued.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;  ///< Filled by the engine from its cache.
  /// Result-cache entries dropped stale (generation mismatch) or by
  /// explicit per-tenant/per-component invalidation. From the cache.
  uint64_t cache_invalidations = 0;
  uint64_t coalesced = 0;      ///< Joined an identical in-flight request.
  /// Requests carrying a detector incident (SlowdownDetector auto-submit)
  /// rather than an administrator's question. Subset of `submitted`.
  uint64_t auto_submitted = 0;
  /// Verdicts published into the fleet store (0 without a fleet store).
  uint64_t fleet_publishes = 0;
  // Baseline-model cache (filled by the engine from its
  // BaselineModelCache; all zero when the model cache is disabled).
  uint64_t model_cache_hits = 0;
  uint64_t model_cache_misses = 0;
  uint64_t model_cache_evictions = 0;
  uint64_t model_cache_invalidations = 0;  ///< Append-driven drops.
  /// Fitted models not cached because the shard's hand found no
  /// unreferenced resident (an undersized cache keeping its residents).
  uint64_t model_cache_declined = 0;
  size_t model_cache_entries = 0;
  size_t queue_depth = 0;
  size_t max_queue_depth = 0;
  double elapsed_sec = 0;      ///< Since engine start (or stats reset).
  double throughput_per_sec = 0;  ///< completed / elapsed.
  // Async SAN collection (zero when the engine has no collector).
  uint64_t collection_fetches = 0;   ///< Fetch attempts issued.
  uint64_t collection_timeouts = 0;  ///< Attempts past their deadline.
  uint64_t collection_retries = 0;   ///< Re-issued fetches.
  uint64_t collection_stale = 0;     ///< Components served stale.
  uint64_t degraded_diagnoses = 0;   ///< Diagnoses with >= 1 stale component.
  LatencyRecorder::Summary request_latency;  ///< Submit -> report ready.
  LatencyRecorder::Summary fetch_latency;    ///< Per successful fetch.
  LatencyRecorder::Summary gather_latency;   ///< Per diagnosis gather.
  LatencyRecorder::Summary pd, co, da, cr, sd, ia;  ///< Per module.

  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }

  double ModelCacheHitRate() const {
    const uint64_t total = model_cache_hits + model_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(model_cache_hits) / total;
  }

  /// Human-readable multi-line rendering (console dashboards).
  std::string Render() const;
  /// One-line JSON object (bench output, log scraping).
  std::string ToJson() const;
};

/// The engine's shared metrics hub. One instance per DiagnosisEngine.
class EngineStats {
 public:
  void RecordSubmitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void RecordCompleted() { completed_.fetch_add(1, std::memory_order_relaxed); }
  void RecordFailed() { failed_.fetch_add(1, std::memory_order_relaxed); }
  void RecordRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void RecordCacheHit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void RecordCacheMiss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCoalesced() { coalesced_.fetch_add(1, std::memory_order_relaxed); }
  void RecordAutoSubmitted() {
    auto_submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordFleetPublish() {
    fleet_publishes_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordQueueDepth(size_t depth);
  void RecordRequestLatency(double ms) { request_latency_.Record(ms); }
  void RecordModuleLatencies(const diag::ModuleTimings& timings);
  /// Folds one diagnosis's gather (counters + fetch latencies) in.
  void RecordCollection(const monitor::GatherResult& gather);

  /// `queue_depth` is sampled by the caller (the queue owns the live value).
  EngineStatsSnapshot Snapshot(size_t queue_depth) const;

  /// Restarts the throughput clock and zeroes every counter.
  void Reset();

  EngineStats();

 private:
  std::atomic<uint64_t> submitted_{0}, completed_{0}, failed_{0}, rejected_{0};
  std::atomic<uint64_t> cache_hits_{0}, cache_misses_{0};
  std::atomic<uint64_t> coalesced_{0}, fleet_publishes_{0};
  std::atomic<uint64_t> auto_submitted_{0};
  std::atomic<uint64_t> collection_fetches_{0}, collection_timeouts_{0};
  std::atomic<uint64_t> collection_retries_{0}, collection_stale_{0};
  std::atomic<uint64_t> degraded_diagnoses_{0};
  std::atomic<size_t> max_queue_depth_{0};
  std::atomic<int64_t> start_ns_{0};
  LatencyRecorder request_latency_;
  LatencyRecorder fetch_latency_, gather_latency_;
  LatencyRecorder pd_, co_, da_, cr_, sd_, ia_;
};

}  // namespace diads::engine

#endif  // DIADS_ENGINE_STATS_H_
