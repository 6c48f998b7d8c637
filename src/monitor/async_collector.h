// Asynchronous SAN metric collection (the paper's Section 6 deployment
// pulls monitoring data from IBM TPC; a diagnosis touches many SAN
// components, each behind its own collector round-trip).
//
// Every diagnosis the engine computes collects through this interface,
// one fetch per component:
//
//   Fetch(component, interval, metrics) -> std::future<MetricBatch>
//
// so a gather layer (monitor/gather.h) can overlap every component pull
// belonging to one diagnosis and degrade per component (timeout -> stale
// local data) instead of per diagnosis, and a skewed fleet (one wedged
// switch slowing every diagnosis that touches it) is expressible.
//
// SimulatedSanCollector is the testbed backend: it serves the tenant's
// own TimeSeriesStore (the request names its source store, so one
// collector serves a whole multi-tenant fleet) after a configurable
// per-component latency, imposed by a small pool of connection threads —
// the shape of a TPC/SMI-S agent fan-out without the wire. With a zero
// latency it is the in-process collector of an engine built without
// one. In-process, the "wire" carries no copy: a fetch pins the source's
// series buffers (copy-on-write, see TimeSeriesStore::Pin) and reports
// the covering slice inside each as what a real collector would ship.
#ifndef DIADS_MONITOR_ASYNC_COLLECTOR_H_
#define DIADS_MONITOR_ASYNC_COLLECTOR_H_

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "monitor/metrics.h"
#include "monitor/timeseries.h"

namespace diads::monitor {

/// One per-component pull: every listed metric's covering slice of
/// `interval` (see monitor::CoveringSlice) from `source`.
struct FetchRequest {
  ComponentId component;
  TimeInterval interval;
  /// Deduplicated, sorted by the planner. Metrics the component does not
  /// export simply come back empty.
  std::vector<MetricId> metrics;
  /// The monitoring backend holding this component's series (per tenant in
  /// the fleet simulation). Must outlive the returned future.
  const TimeSeriesStore* source = nullptr;
};

/// One fetched series: the source's whole buffer, pinned, and the covering
/// slice inside it. The slice is what the fetch ships (the gather layer's
/// sample and byte counts); the pin lets the snapshot share the buffer
/// instead of copying the slice.
struct MetricSeries {
  MetricId metric = MetricId::kVolTotalIos;
  PinnedSeries pinned;
  SampleSpan samples;  ///< CoveringSlice of the request window in `pinned`.
};

/// What a Fetch resolves to.
struct MetricBatch {
  ComponentId component;
  std::vector<MetricSeries> series;  ///< Non-empty series only.
  Status status;        ///< Not-ok when the fetch was cancelled/failed.
  bool stale = false;   ///< Set by the gather layer on timeout fallback.
  double fetch_ms = 0;  ///< Wall-clock round-trip of this fetch.

  bool ok() const { return status.ok(); }
};

/// Builds a MetricBatch by pinning each requested series of
/// request.source and marking its covering slice (empty series skipped;
/// not-ok status when source is null). No sample is copied. The one
/// definition of "what a fetch returns", shared by backends serving fresh
/// data and by the gather layer's stale-local fallback — so degraded data
/// stays byte-identical to fetched data.
MetricBatch BatchFromSource(const FetchRequest& request);

/// The async collection interface. Implementations must be safe to call
/// from many threads (every engine worker gathers through one collector).
class AsyncCollector {
 public:
  virtual ~AsyncCollector() = default;

  /// Starts one component pull. The future always resolves — with data, or
  /// with a not-ok status after Shutdown.
  virtual std::future<MetricBatch> Fetch(const FetchRequest& request) = 0;

  /// Cancels queued fetches (their futures resolve not-ok), interrupts
  /// in-flight simulated waits, and joins any worker threads. Idempotent.
  virtual void Shutdown() = 0;
};

/// Latency model of the simulated backend.
struct SimulatedLatencyOptions {
  /// Round-trip per component fetch, before overrides.
  double base_latency_ms = 1.0;
  /// Per-component overrides keyed by ComponentId::value — e.g. the one
  /// congested switch with a 10x round-trip.
  std::unordered_map<uint32_t, double> per_component_ms;
  /// Concurrent backend connections (worker threads serving fetches).
  int connections = 8;

  double LatencyFor(ComponentId component) const {
    auto it = per_component_ms.find(component.value);
    return it == per_component_ms.end() ? base_latency_ms : it->second;
  }
};

/// Simulated-latency backend over in-memory stores. Deterministic: a
/// component's latency is fixed by the options, and the returned series
/// are the source store's, pinned at the fetch, with their covering
/// slices.
class SimulatedSanCollector : public AsyncCollector {
 public:
  explicit SimulatedSanCollector(SimulatedLatencyOptions options);
  ~SimulatedSanCollector() override;  ///< Shutdown().

  SimulatedSanCollector(const SimulatedSanCollector&) = delete;
  SimulatedSanCollector& operator=(const SimulatedSanCollector&) = delete;

  std::future<MetricBatch> Fetch(const FetchRequest& request) override;

  /// Wakes sleeping connections (their fetches resolve not-ok), fails all
  /// queued fetches, joins the connection threads. Idempotent.
  void Shutdown() override;

  const SimulatedLatencyOptions& options() const { return options_; }

  /// Fetches started (accepted into the queue) since construction.
  uint64_t fetches_started() const;
  /// Fetches cancelled by Shutdown before completing.
  uint64_t fetches_cancelled() const;

 private:
  struct Pending {
    FetchRequest request;
    std::promise<MetricBatch> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void ConnectionLoop();
  /// Resolves `pending` with data from its source store.
  static void Serve(Pending* pending);
  /// Resolves `pending` as cancelled.
  static void Cancel(Pending* pending);

  SimulatedLatencyOptions options_;
  mutable std::mutex mu_;
  std::condition_variable wake_;   ///< New work or shutdown (idle waiters).
  std::condition_variable abort_;  ///< Shutdown only (latency sleepers).
  std::deque<Pending> queue_;
  bool shutting_down_ = false;
  uint64_t started_ = 0;
  uint64_t cancelled_ = 0;
  std::mutex join_mu_;
  bool joined_ = false;
  std::vector<std::thread> connections_;
};

}  // namespace diads::monitor

#endif  // DIADS_MONITOR_ASYNC_COLLECTOR_H_
