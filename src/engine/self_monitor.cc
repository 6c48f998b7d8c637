#include "engine/self_monitor.h"

namespace diads::engine {

const char* EngineMetricName(EngineMetric m) {
  switch (m) {
    case EngineMetric::kThroughputPerSec: return "engine.throughput_per_sec";
    case EngineMetric::kQueueDepth: return "engine.queue_depth";
    case EngineMetric::kRequestP50Ms: return "engine.request_p50_ms";
    case EngineMetric::kRequestP99Ms: return "engine.request_p99_ms";
    case EngineMetric::kSubmitted: return "engine.submitted";
    case EngineMetric::kCompleted: return "engine.completed";
    case EngineMetric::kFailed: return "engine.failed";
    case EngineMetric::kResultCacheHitRate:
      return "engine.result_cache_hit_rate";
    case EngineMetric::kDegradedDiagnoses:
      return "engine.degraded_diagnoses";
    case EngineMetric::kGatherP99Ms: return "engine.gather_p99_ms";
  }
  return "engine.unknown";
}

const std::vector<EngineMetric>& AllEngineMetrics() {
  static const std::vector<EngineMetric> kAll = {
      EngineMetric::kThroughputPerSec, EngineMetric::kQueueDepth,
      EngineMetric::kRequestP50Ms,     EngineMetric::kRequestP99Ms,
      EngineMetric::kSubmitted,        EngineMetric::kCompleted,
      EngineMetric::kFailed,           EngineMetric::kResultCacheHitRate,
      EngineMetric::kDegradedDiagnoses, EngineMetric::kGatherP99Ms};
  return kAll;
}

void AppendSnapshot(const EngineStatsSnapshot& snapshot,
                    ComponentId component, SimTimeMs now,
                    monitor::TimeSeriesStore* store) {
  const auto put = [&](EngineMetric m, double value) {
    store->Append(component, ToMetricId(m), now, value);
  };
  put(EngineMetric::kThroughputPerSec, snapshot.throughput_per_sec);
  put(EngineMetric::kQueueDepth, static_cast<double>(snapshot.queue_depth));
  put(EngineMetric::kRequestP50Ms, snapshot.request_latency.p50_ms);
  put(EngineMetric::kRequestP99Ms, snapshot.request_latency.p99_ms);
  put(EngineMetric::kSubmitted, static_cast<double>(snapshot.submitted));
  put(EngineMetric::kCompleted, static_cast<double>(snapshot.completed));
  put(EngineMetric::kFailed, static_cast<double>(snapshot.failed));
  put(EngineMetric::kResultCacheHitRate, snapshot.CacheHitRate());
  put(EngineMetric::kDegradedDiagnoses,
      static_cast<double>(snapshot.degraded_diagnoses));
  put(EngineMetric::kGatherP99Ms, snapshot.gather_latency.p99_ms);
}

void SampleEngineHealth(const DiagnosisEngine& engine, ComponentId component,
                        SimTimeMs now, monitor::TimeSeriesStore* store) {
  AppendSnapshot(engine.Stats(), component, now, store);
}

}  // namespace diads::engine
