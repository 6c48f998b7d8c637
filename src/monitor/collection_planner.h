// Per-diagnosis fetch planning.
//
// A diagnosis window names a set of (component, metric) series the
// workflow's modules will consult — several modules over the same few
// components (DA scores them, SD's predicates re-read them through the
// SymptomIndex). Collecting naively would fetch the union once per module
// per worker; the planner instead batches the deduplicated needs into one
// fetch plan with exactly one round-trip per component, which is what the
// gather layer overlaps.
//
// The planner is deliberately layer-agnostic: callers hand it the series
// keys (the diads layer extracts them from a DiagnosisContext via
// SymptomIndex::CollectMetricKeys) and it produces deterministic
// FetchRequests — components and metrics sorted, duplicates dropped.
#ifndef DIADS_MONITOR_COLLECTION_PLANNER_H_
#define DIADS_MONITOR_COLLECTION_PLANNER_H_

#include <vector>

#include "monitor/async_collector.h"
#include "monitor/timeseries.h"

namespace diads::monitor {

class CollectionPlanner {
 public:
  /// Batches `keys` into one FetchRequest per distinct component, covering
  /// `window`, served from `source`. Duplicate keys collapse; components
  /// and their metric lists come out sorted, so the plan (and therefore
  /// the collected store) is deterministic regardless of key order. Sorts
  /// the keys in place and groups them in one pass.
  static std::vector<FetchRequest> Plan(std::vector<SeriesKey> keys,
                                        const TimeInterval& window,
                                        const TimeSeriesStore* source);

  /// Total metrics across a plan's requests (after dedup).
  static size_t SeriesCount(const std::vector<FetchRequest>& plan);
};

}  // namespace diads::monitor

#endif  // DIADS_MONITOR_COLLECTION_PLANNER_H_
