// Engine self-monitoring: the observability loop closed on itself.
//
// The paper's pitch is "why did my query slow down?"; the natural follow-up
// for a serving deployment is "why did my *diagnosis* slow down?". This
// component periodically samples the engine's own stats (throughput, queue
// depth, latency quantiles, cache hit rate, degradations) and appends them
// as ordinary time series into a dedicated TimeSeriesStore — so the very
// same anomaly-detection / diagnosis machinery can be pointed at the
// engine itself.
//
// Metric-id discipline: monitor::MetricId is a closed enum whose members
// participate in ReportDigest (via annotations and module scoring), so we
// must NOT extend it. EngineMetric instead occupies a disjoint id range
// (>= 1000) and is static_cast into MetricId only for storage keys in the
// self-monitor's own store. Never call GetMetricMeta / MetricShortName on
// these ids; EngineMetricName below is their name table.
#ifndef DIADS_ENGINE_SELF_MONITOR_H_
#define DIADS_ENGINE_SELF_MONITOR_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "engine/engine.h"
#include "monitor/timeseries.h"

namespace diads::engine {

/// Engine-health metrics, stored in a dedicated TimeSeriesStore under ids
/// disjoint from monitor::MetricId (which tops out far below 1000).
enum class EngineMetric : int {
  kThroughputPerSec = 1000,
  kQueueDepth = 1001,
  kRequestP50Ms = 1002,
  kRequestP99Ms = 1003,
  kSubmitted = 1004,
  kCompleted = 1005,
  kFailed = 1006,
  kResultCacheHitRate = 1007,   // hits / (hits + misses), 0 when no lookups
  // 1008 was the baseline-model cache's hit rate; the cache is gone, and
  // the id stays unused so stored series keep their meaning.
  kDegradedDiagnoses = 1009,
  kGatherP99Ms = 1010,
};

/// Storage key for an EngineMetric: a MetricId-typed value outside the
/// real enum's range. Only valid as a TimeSeriesStore key.
constexpr monitor::MetricId ToMetricId(EngineMetric m) {
  return static_cast<monitor::MetricId>(static_cast<int>(m));
}

/// Human-readable name (the self-monitor's GetMetricMeta stand-in).
const char* EngineMetricName(EngineMetric m);

/// All metrics SampleInto appends, in append order.
const std::vector<EngineMetric>& AllEngineMetrics();

/// Appends one sample per EngineMetric into `store`, keyed by `component`
/// at SimTime `now`, from the engine's current stats snapshot. Counters
/// are appended cumulatively (matching how monitoring tools report, and
/// what the anomaly scorers difference away); rates and quantiles as-is.
///
/// Typical use: a dedicated store + a registry with one component per
/// engine ("engine0"), sampled every serving tick:
///
///   monitor::TimeSeriesStore health;
///   ComponentRegistry reg;
///   ComponentId self = reg.MustRegister("engine0", ComponentKind::kServer);
///   ...
///   SampleEngineHealth(engine, self, now_ms, &health);
///
/// The resulting series slice/score exactly like any SAN metric.
void SampleEngineHealth(const DiagnosisEngine& engine, ComponentId component,
                        SimTimeMs now, monitor::TimeSeriesStore* store);

/// Same lowering from an already-taken snapshot (shared with tests).
void AppendSnapshot(const EngineStatsSnapshot& snapshot,
                    ComponentId component, SimTimeMs now,
                    monitor::TimeSeriesStore* store);

}  // namespace diads::engine

#endif  // DIADS_ENGINE_SELF_MONITOR_H_
