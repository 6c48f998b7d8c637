// Bridges SlowdownDetector counters into the unified metrics registry,
// following the fleet store's source pattern: the detector's atomics stay
// where they are, the registry reads a snapshot at scrape time. Family
// naming: diads_detect_<what>[_total].
#ifndef DIADS_DETECT_METRICS_H_
#define DIADS_DETECT_METRICS_H_

#include "detect/detector.h"
#include "obs/metrics.h"

namespace diads::detect {

/// Emits one DetectorStats snapshot through `emitter`.
void EmitDetectorSnapshot(const DetectorStats& stats,
                          const obs::Labels& labels,
                          obs::MetricsEmitter& emitter);

/// Registers a scrape-time source over `detector` (not owned; must
/// outlive the registry's scrapes).
void RegisterDetectorMetrics(obs::MetricsRegistry* registry,
                             const SlowdownDetector* detector,
                             obs::Labels labels = {});

}  // namespace diads::detect

#endif  // DIADS_DETECT_METRICS_H_
