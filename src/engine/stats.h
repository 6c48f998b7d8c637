// Serving-layer metrics for the concurrent diagnosis engine.
//
// The engine is the part of DIADS that faces traffic, so it is the part
// that must be measurable: operators watching a fleet-wide diagnosis
// service need throughput, queue depth, cache effectiveness, and the
// latency breakdown across the workflow's modules (PD/CO/DA/CR/SD/IA) to
// tell "the service is slow" apart from "one module regressed".
//
// Every engine metric is one row of the table in stats.cc: its registry
// name, help string and the EngineStatsSnapshot member it fills. The
// table drives everything else. EngineStats registers each row into the
// engine's obs::MetricsRegistry, the serving path records straight into
// those registry instruments, and Snapshot() fills the snapshot by
// walking the same rows. Counters the engine counts itself are registry
// counters; its nine latencies are fixed-bucket registry histograms
// (obs::kLatencyMsBuckets), so their memory does not grow with requests.
// Counters that the worker pool, the result cache and the model cache
// keep for their own use stay with those owners; their rows read them at
// scrape time. Adding an engine metric takes one table row, one
// EngineStatsSnapshot field and its record call.
#ifndef DIADS_ENGINE_STATS_H_
#define DIADS_ENGINE_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace diads::diag {
struct ModuleTimings;      // diads/workflow.h
class BaselineModelCache;  // diads/model_cache.h
}  // namespace diads::diag

namespace diads::monitor {
struct GatherResult;  // monitor/gather.h
}  // namespace diads::monitor

namespace diads::engine {

class ResultCache;  // engine/cache.h
class ThreadPool;   // engine/thread_pool.h

/// One latency histogram, summarized. Count and mean are exact; the
/// quantiles are obs::Histogram::Snapshot::Quantile estimates, within
/// 2^(1/4) - 1 (19%) of the exact percentile.
struct LatencySummary {
  uint64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// Point-in-time view of the engine's metrics.
struct EngineStatsSnapshot {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  ///< Refused: shutdown or tenant share full.
  // Fair-queue admission/dispatch outcomes (from the engine's ThreadPool;
  // all zero for a queue that never rejected or shed).
  uint64_t admitted = 0;            ///< Tasks accepted past admission.
  uint64_t rejected_share = 0;      ///< Refused: tenant queue share full.
  uint64_t shed_deadline = 0;       ///< Dropped expired before running.
  uint64_t cancelled_shutdown = 0;  ///< Queued work failed by Shutdown.
  /// Dispatches where fair queueing let a request overtake an
  /// earlier-arrived request of another (flooding) tenant.
  uint64_t starvation_avoided = 0;
  double queued_cost = 0;           ///< Cost currently enqueued.
  // Result cache (from the engine's ResultCache).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Result-cache entries dropped stale (generation mismatch) or by
  /// explicit per-tenant/per-component invalidation.
  uint64_t cache_invalidations = 0;
  uint64_t coalesced = 0;      ///< Joined an identical in-flight request.
  /// Requests carrying a detector incident (SlowdownDetector auto-submit)
  /// rather than an administrator's question. Subset of `submitted`.
  uint64_t auto_submitted = 0;
  /// Verdicts published into the fleet store (0 without a fleet store).
  uint64_t fleet_publishes = 0;
  // Baseline-model cache (from the engine's BaselineModelCache; all zero
  // when the model cache is disabled).
  uint64_t model_cache_hits = 0;
  uint64_t model_cache_misses = 0;
  uint64_t model_cache_evictions = 0;
  uint64_t model_cache_invalidations = 0;  ///< Append-driven drops.
  /// Fitted models not cached because the shard's hand found no
  /// unreferenced resident (an undersized cache keeping its residents).
  uint64_t model_cache_declined = 0;
  uint64_t model_cache_entries = 0;
  uint64_t queue_depth = 0;
  uint64_t max_queue_depth = 0;
  double elapsed_sec = 0;         ///< Since engine start.
  double throughput_per_sec = 0;  ///< completed / elapsed.
  // SAN metric collection of computed diagnoses.
  uint64_t collection_fetches = 0;   ///< Fetch attempts issued.
  uint64_t collection_timeouts = 0;  ///< Attempts past their deadline.
  uint64_t collection_retries = 0;   ///< Re-issued fetches.
  uint64_t collection_stale = 0;     ///< Components served stale.
  uint64_t degraded_diagnoses = 0;   ///< Diagnoses with >= 1 stale component.
  LatencySummary request_latency;  ///< Submit -> response, any status.
  LatencySummary fetch_latency;    ///< Per successful fetch.
  LatencySummary gather_latency;   ///< Per diagnosis gather.
  LatencySummary pd, co, da, cr, sd, ia;  ///< Per module.

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
};

/// What one scrape reads outside the registry instruments: the owners'
/// counters and the clock (defined in stats.cc).
struct ScrapeView;

/// One row of the engine's metric table. The row fills exactly one of
/// `count`, `value` and `latency`.
struct EngineMetricRow {
  const char* name;  ///< Registry family name.
  const char* help;
  obs::MetricType type;
  /// Value of the "module" label, or null for an unlabelled row.
  const char* module;
  uint64_t EngineStatsSnapshot::*count;
  double EngineStatsSnapshot::*value;
  LatencySummary EngineStatsSnapshot::*latency;
  /// For a value the engine does not record itself: reads it at scrape
  /// time. Null for the rows the engine records into registry
  /// instruments.
  double (*read)(const ScrapeView& view);

  obs::Labels labels() const;
};

/// The engine's metric table, in registration order.
const std::vector<EngineMetricRow>& EngineMetricRows();

/// Registers every engine metric into one registry and records into it.
/// One instance per DiagnosisEngine. Thread-safe: the record calls are
/// lock-free, and Snapshot() may race them.
class EngineStats {
 public:
  /// Registers the table's rows into `registry`, which must outlive this
  /// object. A scrape of the registry reads this object and the owners
  /// (each may be null, reading as zero, and need not be constructed
  /// yet), so scrape it only while they live.
  EngineStats(obs::MetricsRegistry* registry, const ThreadPool* pool = nullptr,
              const ResultCache* cache = nullptr,
              const diag::BaselineModelCache* model_cache = nullptr);

  EngineStats(const EngineStats&) = delete;
  EngineStats& operator=(const EngineStats&) = delete;

  /// Adds `n` to the counter row that fills `field`.
  void Add(uint64_t EngineStatsSnapshot::*field, uint64_t n = 1);
  /// Raises the high-water gauge row that fills `field` to `v`.
  void RaiseTo(uint64_t EngineStatsSnapshot::*field, uint64_t v);
  /// Observes `ms` in the latency row that fills `field`.
  void Observe(LatencySummary EngineStatsSnapshot::*field, double ms);

  void RecordModuleLatencies(const diag::ModuleTimings& timings);
  /// Folds one diagnosis's gather (counters + fetch latencies) in.
  void RecordCollection(const monitor::GatherResult& gather);

  /// Every row read now, into the member it fills.
  EngineStatsSnapshot Snapshot() const;

 private:
  /// The registry instrument of a row the engine records itself.
  struct Instrument {
    obs::Counter* counter = nullptr;
    obs::Gauge* gauge = nullptr;
    obs::Histogram* histogram = nullptr;
  };

  ScrapeView View() const;
  /// Emits the rows read at scrape time.
  void EmitOwnerRows(obs::MetricsEmitter& emitter) const;

  const ThreadPool* pool_;
  const ResultCache* cache_;
  const diag::BaselineModelCache* model_cache_;
  const std::chrono::steady_clock::time_point start_;
  std::vector<Instrument> instruments_;  ///< Parallel to the table.
};

}  // namespace diads::engine

#endif  // DIADS_ENGINE_STATS_H_
