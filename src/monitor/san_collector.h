// SAN monitoring collector.
//
// Samples the SAN performance model at the configured monitoring interval
// and appends per-component metrics (the storage/network/server columns of
// Figure 4) to the TimeSeriesStore, with measurement noise applied. Also
// evaluates user-defined performance triggers (Section 3, item vi): when a
// volume's read latency exceeds its trigger threshold, a
// kVolumePerfDegraded event is logged — the "degradation in volume
// performance" trigger the paper gives as an example.
#ifndef DIADS_MONITOR_SAN_COLLECTOR_H_
#define DIADS_MONITOR_SAN_COLLECTOR_H_

#include "common/event_log.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "monitor/noise.h"
#include "monitor/timeseries.h"
#include "san/perf_model.h"
#include "san/topology.h"

namespace diads::monitor {

/// Collector configuration.
struct SanCollectorConfig {
  /// Monitoring interval. Production default per Section 1.1.
  SimTimeMs sampling_interval = Minutes(5);
  /// Read-latency threshold (ms) for the volume-degradation trigger; <= 0
  /// disables the trigger.
  double volume_latency_trigger_ms = 25.0;
  /// Disk-utilisation threshold for the subsystem-high-load trigger.
  double subsystem_load_trigger = 0.85;
};

/// Pull-based collector over a SanPerfModel.
class SanCollector {
 public:
  /// All pointers must outlive the collector.
  SanCollector(const san::SanTopology* topology,
               const san::SanPerfModel* perf_model, TimeSeriesStore* store,
               NoiseModel* noise, EventLog* event_log,
               SanCollectorConfig config = {});

  /// Collects every interval [t, t+dt) with t in [from, to), appending one
  /// sample per component metric per interval. Each series is sized for
  /// the range's interval count before its first sample, so it is
  /// allocated once. Idempotence is the caller's responsibility (collect
  /// each range once). InvalidArgument for an empty range or a sampling
  /// interval <= 0.
  Status CollectRange(SimTimeMs from, SimTimeMs to);

  SimTimeMs sampling_interval() const { return config_.sampling_interval; }

 private:
  Status CollectInterval(const TimeInterval& interval);
  Status EmitSample(ComponentId component, MetricId metric, SimTimeMs t,
                    double clean_value);

  const san::SanTopology* topology_;
  const san::SanPerfModel* perf_model_;
  TimeSeriesStore* store_;
  NoiseModel* noise_;
  EventLog* event_log_;
  SanCollectorConfig config_;
  /// Samples EmitSample reserves per series: the range's interval count
  /// during its first interval, 0 after.
  size_t reserve_per_series_ = 0;
};

}  // namespace diads::monitor

#endif  // DIADS_MONITOR_SAN_COLLECTOR_H_
