// Completion-driven scatter/gather over an AsyncCollector.
//
// One diagnosis needs many component pulls; the gatherer issues them
// concurrently (bounded in-flight, so a wide plan cannot monopolize the
// backend's connections), enforces a per-component timeout with bounded
// retries, and degrades partially instead of failing: a component whose
// fetches all time out — or whose collector was shut down mid-flight —
// is served from the locally cached series (the request's source store,
// which in a deployment is the last successful collection) and marked
// stale. The diagnosis proceeds on identical data and the staleness is
// surfaced up through the engine's response and serving stats.
//
// The result owns a TimeSeriesStore that shares each fetched series'
// buffer with its source (pinned at the fetch, no sample copied), so a
// Workflow pointed at it answers every query over a fetched series
// exactly as the source store did at the fetch — also while the source
// goes on appending on another thread (asserted by async_collector_test).
// The counters still measure what a fetch ships: the covering slices.
#ifndef DIADS_MONITOR_GATHER_H_
#define DIADS_MONITOR_GATHER_H_

#include <vector>

#include "monitor/async_collector.h"
#include "monitor/timeseries.h"
#include "obs/trace.h"

namespace diads::monitor {

struct GatherOptions {
  /// Fetches in flight at once per gather. Plans wider than this queue
  /// behind the window (completion-driven refill).
  int max_in_flight = 8;
  /// Per-attempt timeout; <= 0 disables timeouts entirely.
  double timeout_ms = 1000;
  /// Attempts per component before degrading to stale local data.
  int max_attempts = 2;
};

struct GatherCounters {
  uint64_t fetches = 0;           ///< Fetch attempts issued.
  uint64_t timeouts = 0;          ///< Attempts that exceeded timeout_ms.
  uint64_t retries = 0;           ///< Re-issues after a timed-out attempt.
  uint64_t cancelled = 0;         ///< Fetches the collector resolved not-ok.
  uint64_t stale_components = 0;  ///< Components degraded to local data.
  uint64_t samples_collected = 0; ///< Covering-slice samples (incl. stale).
  uint64_t bytes_collected = 0;   ///< Approximate shipped payload bytes.
  double gather_ms = 0;           ///< Wall clock of the whole gather.
};

struct GatherResult {
  /// The fetched series, pinned, ready to serve a diagnosis.
  TimeSeriesStore collected;
  /// Components served stale (sorted by id). Empty on a clean gather.
  std::vector<ComponentId> stale_components;
  /// Round-trip of each *successful* fetch, ms (feeds latency percentiles).
  std::vector<double> fetch_ms;
  GatherCounters counters;

  bool degraded() const { return !stale_components.empty(); }
};

class MetricGatherer {
 public:
  /// `collector` must outlive the gatherer and every Gather call.
  MetricGatherer(AsyncCollector* collector, GatherOptions options);

  /// Executes a plan. Never fails: timed-out or cancelled components come
  /// back stale from their request's source store (each degradation is
  /// logged as a structured "monitor.gather" warning naming the affected
  /// component). Thread-safe (no state mutated across calls); each engine
  /// worker gathers independently.
  ///
  /// When `trace` is enabled, every fetch attempt becomes a child span
  /// ("fetch:C<id>", with attempt number and outcome); a disabled context
  /// costs nothing.
  GatherResult Gather(const std::vector<FetchRequest>& plan,
                      const obs::TraceContext& trace = {}) const;

  const GatherOptions& options() const { return options_; }

 private:
  AsyncCollector* collector_;
  GatherOptions options_;
};

}  // namespace diads::monitor

#endif  // DIADS_MONITOR_GATHER_H_
