// Database activity model and collector.
//
// The executor records database-level activity (blocks read, buffer hits,
// scan counts, lock waits) as piecewise-constant demand, exactly like the
// SAN side's load events; the DbCollector then samples it onto the
// monitoring grid, producing the database column of Figure 4. Keeping the
// DB metrics on the same noisy, interval-averaged path as the SAN metrics
// matters: DIADS sees both layers through the same imperfect telescope.
#ifndef DIADS_DB_DB_ACTIVITY_H_
#define DIADS_DB_DB_ACTIVITY_H_

#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "db/catalog.h"
#include "db/lock_manager.h"
#include "monitor/noise.h"
#include "monitor/timeseries.h"

namespace diads::db {

/// Aggregate DB counters over one window, expressed as rates (per second).
struct DbActivityCounters {
  double blocks_read_per_sec = 0;
  double buffer_hits_per_sec = 0;
  double index_scans_per_sec = 0;
  double index_reads_per_sec = 0;
  double index_fetches_per_sec = 0;
  double seq_scans_per_sec = 0;
  double lock_wait_ms_per_sec = 0;
  double locks_held = 0;

  DbActivityCounters& Add(const DbActivityCounters& other);
};

/// Piecewise-constant record of database activity.
class DbActivityModel {
 public:
  /// Registers `counters` as active during `window`.
  Status AddActivity(const TimeInterval& window, DbActivityCounters counters);

  /// Average counters over an interval (time-weighted).
  DbActivityCounters AverageOver(const TimeInterval& interval) const;

 private:
  struct Entry {
    TimeInterval window;
    DbActivityCounters counters;
  };
  std::vector<Entry> entries_;
};

/// Samples DB activity (plus lock-manager state and catalog space usage)
/// into the time-series store on the monitoring grid.
class DbCollector {
 public:
  DbCollector(const DbActivityModel* activity, const LockManager* locks,
              const Catalog* catalog, ComponentId database,
              monitor::TimeSeriesStore* store, monitor::NoiseModel* noise,
              SimTimeMs sampling_interval = Minutes(5));

  /// Collects every interval [t, t+dt) with t in [from, to). Each series
  /// is sized for the range's interval count before its first sample, so
  /// it is allocated once. InvalidArgument for an empty range or a
  /// sampling interval <= 0.
  Status CollectRange(SimTimeMs from, SimTimeMs to);

 private:
  Status EmitSample(monitor::MetricId metric, SimTimeMs t, double value);

  const DbActivityModel* activity_;
  const LockManager* locks_;
  const Catalog* catalog_;
  ComponentId database_;
  monitor::TimeSeriesStore* store_;
  monitor::NoiseModel* noise_;
  SimTimeMs sampling_interval_;
  /// Samples EmitSample reserves per series: the range's interval count
  /// during its first interval, 0 after.
  size_t reserve_per_series_ = 0;
};

}  // namespace diads::db

#endif  // DIADS_DB_DB_ACTIVITY_H_
