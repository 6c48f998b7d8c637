#include "engine/metrics_export.h"

namespace diads::engine {
namespace {

/// Emits one LatencyRecorder summary as quantile-labelled gauges plus a
/// sample-count counter.
void EmitLatency(const std::string& name, const char* help,
                 const LatencyRecorder::Summary& summary,
                 const obs::Labels& labels, obs::MetricsEmitter& emitter) {
  emitter.Counter(name + "_samples_total", help, labels, summary.count);
  const std::pair<const char*, double> quantiles[] = {
      {"mean", summary.mean_ms}, {"p50", summary.p50_ms},
      {"p95", summary.p95_ms},   {"p99", summary.p99_ms},
      {"max", summary.max_ms}};
  for (const auto& [quantile, value] : quantiles) {
    obs::Labels labelled = labels;
    labelled.emplace_back("quantile", quantile);
    emitter.Gauge(name + "_ms", help, labelled, value);
  }
}

}  // namespace

void EmitEngineSnapshot(const EngineStatsSnapshot& snapshot,
                        const obs::Labels& labels,
                        obs::MetricsEmitter& emitter) {
  // Serving counters.
  emitter.Counter("diads_engine_submitted_total", "Requests accepted",
                  labels, snapshot.submitted);
  emitter.Counter("diads_engine_completed_total", "Requests completed ok",
                  labels, snapshot.completed);
  emitter.Counter("diads_engine_failed_total", "Requests failed", labels,
                  snapshot.failed);
  emitter.Counter("diads_engine_rejected_total",
                  "Requests refused (shutdown)", labels, snapshot.rejected);
  // Fair-queue admission / shedding.
  emitter.Counter("diads_engine_admitted_total",
                  "Requests accepted past tenant-share admission", labels,
                  snapshot.admitted);
  emitter.Counter("diads_engine_rejected_share_total",
                  "Requests refused because the tenant's queue share was "
                  "full",
                  labels, snapshot.rejected_share);
  emitter.Counter("diads_engine_shed_deadline_total",
                  "Queued requests dropped past their deadline", labels,
                  snapshot.shed_deadline);
  emitter.Counter("diads_engine_cancelled_shutdown_total",
                  "Queued requests failed explicitly by shutdown", labels,
                  snapshot.cancelled_shutdown);
  emitter.Counter("diads_engine_starvation_avoided_total",
                  "Dispatches where fair queueing overtook a flooding "
                  "tenant's earlier request",
                  labels, snapshot.starvation_avoided);
  emitter.Gauge("diads_engine_queued_cost",
                "Cost units currently enqueued", labels,
                snapshot.queued_cost);
  emitter.Counter("diads_engine_coalesced_total",
                  "Requests joined onto an identical in-flight request",
                  labels, snapshot.coalesced);
  emitter.Counter("diads_engine_auto_submitted_total",
                  "Requests auto-submitted by the slowdown detector",
                  labels, snapshot.auto_submitted);
  emitter.Counter("diads_engine_fleet_publishes_total",
                  "Verdicts published into the fleet store", labels,
                  snapshot.fleet_publishes);
  // Result cache.
  emitter.Counter("diads_engine_result_cache_hits_total",
                  "Result-cache hits", labels, snapshot.cache_hits);
  emitter.Counter("diads_engine_result_cache_misses_total",
                  "Result-cache misses", labels, snapshot.cache_misses);
  emitter.Counter("diads_engine_result_cache_evictions_total",
                  "Result-cache LRU evictions", labels,
                  snapshot.cache_evictions);
  emitter.Counter("diads_engine_result_cache_invalidations_total",
                  "Result-cache entries dropped stale or invalidated",
                  labels, snapshot.cache_invalidations);
  // Baseline model cache.
  emitter.Counter("diads_model_cache_hits_total",
                  "Baseline-model cache hits", labels,
                  snapshot.model_cache_hits);
  emitter.Counter("diads_model_cache_misses_total",
                  "Baseline-model cache misses", labels,
                  snapshot.model_cache_misses);
  emitter.Counter("diads_model_cache_evictions_total",
                  "Baseline-model cache CLOCK evictions", labels,
                  snapshot.model_cache_evictions);
  emitter.Counter("diads_model_cache_invalidations_total",
                  "Baseline-model cache append-driven drops", labels,
                  snapshot.model_cache_invalidations);
  emitter.Counter("diads_model_cache_declined_total",
                  "Fitted models the baseline-model cache declined to admit",
                  labels, snapshot.model_cache_declined);
  emitter.Gauge("diads_model_cache_entries",
                "Baseline-model cache live entries", labels,
                static_cast<double>(snapshot.model_cache_entries));
  // Async collection.
  emitter.Counter("diads_gather_fetches_total", "Fetch attempts issued",
                  labels, snapshot.collection_fetches);
  emitter.Counter("diads_gather_timeouts_total",
                  "Fetch attempts past their deadline", labels,
                  snapshot.collection_timeouts);
  emitter.Counter("diads_gather_retries_total", "Fetches re-issued",
                  labels, snapshot.collection_retries);
  emitter.Counter("diads_gather_stale_components_total",
                  "Components degraded to stale local data", labels,
                  snapshot.collection_stale);
  emitter.Counter("diads_gather_degraded_diagnoses_total",
                  "Diagnoses served with >= 1 stale component", labels,
                  snapshot.degraded_diagnoses);
  // Queue / throughput gauges.
  emitter.Gauge("diads_engine_queue_depth", "Queued requests now", labels,
                static_cast<double>(snapshot.queue_depth));
  emitter.Gauge("diads_engine_max_queue_depth",
                "High-water queued requests", labels,
                static_cast<double>(snapshot.max_queue_depth));
  emitter.Gauge("diads_engine_throughput_per_sec",
                "Completed diagnoses per second", labels,
                snapshot.throughput_per_sec);
  emitter.Gauge("diads_engine_elapsed_sec",
                "Seconds since engine start / stats reset", labels,
                snapshot.elapsed_sec);
  // Latency summaries.
  EmitLatency("diads_engine_request_latency",
              "Submit to report ready, milliseconds",
              snapshot.request_latency, labels, emitter);
  EmitLatency("diads_gather_fetch_latency",
              "Per successful component fetch, milliseconds",
              snapshot.fetch_latency, labels, emitter);
  EmitLatency("diads_gather_latency",
              "Per diagnosis scatter/gather, milliseconds",
              snapshot.gather_latency, labels, emitter);
  const std::pair<const char*, const LatencyRecorder::Summary*> modules[] = {
      {"PD", &snapshot.pd}, {"CO", &snapshot.co}, {"DA", &snapshot.da},
      {"CR", &snapshot.cr}, {"SD", &snapshot.sd}, {"IA", &snapshot.ia}};
  for (const auto& [module, summary] : modules) {
    obs::Labels labelled = labels;
    labelled.emplace_back("module", module);
    EmitLatency("diads_module_latency", "Per workflow module, milliseconds",
                *summary, labelled, emitter);
  }
}

void RegisterEngineMetrics(obs::MetricsRegistry* registry,
                           const DiagnosisEngine* engine,
                           obs::Labels labels) {
  registry->AddSource(
      [engine, labels = std::move(labels)](obs::MetricsEmitter& emitter) {
        EmitEngineSnapshot(engine->Stats(), labels, emitter);
      });
}

}  // namespace diads::engine
