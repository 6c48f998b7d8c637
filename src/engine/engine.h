// The concurrent diagnosis engine: DIADS as a served system.
//
// The paper's workflow answers one administrator's question about one
// query. A deployment diagnosing slowdowns across a fleet answers that
// question continuously for many tenants at once: dashboards poll it,
// alerting retries it, several administrators investigate the same
// incident simultaneously. DiagnosisEngine turns the batch
// Workflow::Diagnose into that service:
//
//   * requests are accepted into a bounded queue (backpressure instead of
//     unbounded memory growth) and executed by a worker pool; every
//     computed diagnosis first gathers its window's metrics through an
//     AsyncCollector (monitor/async_collector.h), then runs the module
//     chain over that snapshot;
//   * the queue is tenant-fair (see fair_queue.h): per-tenant sub-queues
//     with deficit-round-robin dispatch, share-based admission control
//     (a flooding tenant is refused with kResourceExhausted instead of
//     starving everyone), and deadline shedding (expired requests resolve
//     kDeadlineExceeded without consuming a worker);
//   * Submit() returns a std::future so callers overlap their own work
//     with the diagnosis;
//   * finished reports are memoized in a sharded LRU cache keyed by
//     (query, window, tenant tag, config) — a repeat of the same question
//     is answered without re-running the module chain. A cached report is
//     served only while the tenant store's StoreGeneration still equals
//     the value recorded when it was computed, so a question asked after
//     new monitoring data arrives recomputes instead of serving stale.
//     The guarantee covers appends that happen-before Submit. A
//     diagnosis itself reads only its collected snapshot, whose series
//     are pinned copy-on-write at the fetch, but the engine's own stamps
//     still read the live store: the result-cache generation at lookup
//     and completion, and the fleet verdict's generations at publish. So
//     appends must not race a Submit or an in-flight request of the same
//     store, and a coalesced waiter may share the report of a computation
//     started before its Submit;
//   * identical requests already in flight are coalesced: the second
//     asker waits for the first one's report instead of computing it
//     twice (single-flight);
//   * everything is measured (EngineStats) into the engine's metrics
//     registry: throughput, queue depth, per-module latency histograms,
//     cache hit rate.
//
// Determinism contract: for a given request, the engine's report is
// byte-identical (see ReportDigest) to a direct serial
// Workflow::Diagnose over the same context, whether it was computed,
// coalesced, or served from cache.
//
// The SymptomsDb is shared read-only across all workers. The one piece of
// request state the engine cannot assume is thread-safe is the
// deployment-supplied plan what-if probe: it may temporarily mutate the
// deployment's catalog while re-optimizing, racing other workers that
// read the same catalog mid-diagnosis. The engine therefore takes a
// per-catalog reader/writer lock around each diagnosis — probe-carrying
// requests exclusively, probe-less requests shared — so distinct tenants
// run fully in parallel and same-tenant readers still overlap.
#ifndef DIADS_ENGINE_ENGINE_H_
#define DIADS_ENGINE_ENGINE_H_

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "diads/impact_analysis.h"
#include "diads/symptoms_db.h"
#include "diads/workflow.h"
#include "engine/cache.h"
#include "engine/stats.h"
#include "engine/thread_pool.h"
#include "monitor/async_collector.h"
#include "monitor/gather.h"
#include "obs/cost_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace diads::fleet {
class FleetStore;      // fleet/store.h
struct IncidentStamp;  // fleet/verdict.h
}  // namespace diads::fleet

namespace diads::engine {

/// One diagnosis question. The context's pointers must stay valid until
/// the returned future resolves (for a fleet, the FleetWorkload owns the
/// scenario state and outlives the engine run).
struct DiagnosisRequest {
  diag::DiagnosisContext ctx;
  diag::WorkflowConfig config;
  diag::ImpactMethod impact_method = diag::ImpactMethod::kInverseDependency;
  /// Tenant / deployment disambiguator: two tenants both call their report
  /// query "Q2", but their diagnoses must not share cache entries.
  std::string tag;
  /// Set by the SlowdownDetector's auto-submit path: the detected incident
  /// this request answers. The engine counts it (EngineStats::
  /// auto_submitted) and stamps it onto the published fleet verdict.
  /// Deliberately NOT part of the cache key: an administrator asking the
  /// detector's question joins the detector's in-flight computation (and
  /// vice versa), which is the dedup/coalescing contract. Never read by
  /// the workflow — reports are ReportDigest-identical with or without it.
  std::shared_ptr<const fleet::IncidentStamp> incident;
  /// Admission/scheduling metadata. None of it reaches the workflow:
  /// reports stay ReportDigest-identical whatever the scheduling was.
  /// Priority widens or narrows the tenant's admission share (an urgent
  /// incident diagnosis may burst past it; a dashboard prefetch is
  /// squeezed out first).
  RequestPriority priority = RequestPriority::kNormal;
  /// Relative queue cost in share/deficit units (a fleet-wide rollup
  /// costs more than a single-query question). Must be > 0.
  double cost = 1.0;
  /// Freshness deadline in milliseconds from Submit; 0 = none. A request
  /// still queued when it expires is shed (kDeadlineExceeded) without
  /// consuming a worker — the asker (a poll loop, an alert retry) has
  /// already moved on. Cache hits and coalesced joins resolve immediately
  /// and never shed.
  double deadline_ms = 0;
};

/// What the future resolves to.
struct DiagnosisResponse {
  Status status;  ///< Ok unless the workflow failed or the engine refused.
  std::shared_ptr<const diag::DiagnosisReport> report;  ///< Null on error.
  /// Shared with every response for the same computation (coalesced
  /// waiters, cache hits). Null only on responses that never reached a
  /// worker (validation, admission, shed and shutdown refusals); present —
  /// with its staleness annotation — even when the workflow itself failed
  /// after collecting.
  std::shared_ptr<const CollectionSummary> collection;
  bool cache_hit = false;
  bool coalesced = false;   ///< Waited on an identical in-flight request.
  double latency_ms = 0;    ///< Submit to completion, wall clock.
  /// Where this diagnosis's time went (queue / gather / modules, cache
  /// outcomes, gather volume). Shared across coalesced waiters — it
  /// describes the computation this response rode on. Null only for
  /// responses that never reached a worker (validation / shutdown
  /// rejections). Never feeds the report: ReportDigest-neutral.
  std::shared_ptr<const obs::CostProfile> cost;

  bool ok() const { return status.ok(); }
  /// The stale-data annotation: true when this report was diagnosed with
  /// at least one stale (timed-out) component's data.
  bool stale_data() const {
    return collection != nullptr && collection->degraded();
  }
};

struct EngineOptions {
  int workers = 4;
  size_t queue_capacity = 128;
  bool enable_cache = true;
  size_t cache_capacity = 1024;
  int cache_shards = 8;
  /// Join identical in-flight requests instead of recomputing. Off, every
  /// request computes on its own (bench_fairness floods with identical
  /// requests that must each occupy the queue).
  bool coalesce_identical = true;
  /// Scatter/gather policy of every computed diagnosis's collection:
  /// bounded in-flight fetches, per-component timeout, bounded retries.
  /// Cache hits and coalesced waiters collect nothing.
  monitor::GatherOptions gather;
  /// Fleet-wide symptom store (may be null). When set, every successfully
  /// *computed* diagnosis is lowered to a fleet::TenantVerdict
  /// (ExtractVerdict over the request's context) and published after
  /// completion; coalesced waiters were already published by the
  /// computation they joined, and a generation-validated cache hit
  /// republishes only when the store's tenant row is missing or older
  /// (repopulation after an explicit fleet-store invalidation). A hit
  /// looks at the store only when its invalidation epoch moved since the
  /// entry was stamped (fleet::FleetStore::invalidation_epoch). Not
  /// owned; must outlive the engine. Publishing never changes the report
  /// (ReportDigest is identical with the store attached or not).
  fleet::FleetStore* fleet_store = nullptr;
  /// Tenant-fair admission + dispatch discipline for the work queue
  /// (weights, share fractions, priority headroom — see fair_queue.h).
  /// Scheduling never changes report bytes, only which requests run when
  /// (and which are refused or shed).
  FairnessOptions fairness;
  /// End-to-end span tracer (may be null = tracing off, the default).
  /// When set, every Submit opens a "diagnosis" root span and the serving
  /// path hangs its children off it: result_cache lookup, queue_wait,
  /// gather (with per-component fetch spans), each workflow module,
  /// fleet_publish. Not owned; must outlive the engine. Tracing is
  /// observation-only: reports are ReportDigest-identical with the
  /// tracer attached or not.
  obs::Tracer* tracer = nullptr;
};

class DiagnosisEngine {
 public:
  /// `symptoms_db` may be null (fallback causes, as in Workflow); when
  /// non-null it must outlive the engine and is shared read-only by all
  /// workers. `collector` is the backend every computed diagnosis gathers
  /// through; null means an in-process SimulatedSanCollector with no
  /// latency, serving each request's own store. The engine co-owns it and
  /// shuts it down — after the worker pool, so in-flight gathers resolve
  /// first — when the engine shuts down. Sharing one collector across
  /// engines is fine (Shutdown is idempotent); just shut the engines down
  /// before dropping it.
  DiagnosisEngine(EngineOptions options, const diag::SymptomsDb* symptoms_db,
                  std::shared_ptr<monitor::AsyncCollector> collector = nullptr);
  ~DiagnosisEngine();  ///< Graceful: drains accepted work, then joins.

  DiagnosisEngine(const DiagnosisEngine&) = delete;
  DiagnosisEngine& operator=(const DiagnosisEngine&) = delete;

  /// Enqueues a diagnosis. Blocks while the queue is at capacity, but a
  /// request pushing its tenant past its queue share is refused
  /// immediately (kResourceExhausted). A queued request whose deadline
  /// expires resolves kDeadlineExceeded without running. After Shutdown
  /// the future resolves immediately with kShutdown.
  std::future<DiagnosisResponse> Submit(DiagnosisRequest request);

  /// Fans a fleet of requests across the pool and waits for all of them.
  /// Responses are in request order.
  std::vector<DiagnosisResponse> BatchDiagnose(
      std::vector<DiagnosisRequest> requests);

  /// Blocks until every accepted request has resolved.
  void Drain();

  /// Stops intake, finishes requests already RUNNING on a worker
  /// (including their in-flight async collections — a gather is bounded
  /// by timeout * attempts per component, so this terminates
  /// deterministically), fails every still-QUEUED request explicitly with
  /// kShutdown (futures resolve, nothing hangs), joins the workers, then
  /// shuts the collector down (cancelling any fetches the gathers
  /// abandoned, and joining its connection threads — nothing leaks).
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// Explicit result-cache invalidation, the dashboard-serving
  /// counterpart of the Append-driven path: drops every cached report of
  /// a tenant tag, or only those whose report touched `component`.
  /// Returns the number of entries dropped. (The fleet store has its own
  /// invalidation surface — see fleet::FleetStore.)
  size_t InvalidateTenantResults(const std::string& tag);
  size_t InvalidateComponentResults(const std::string& tag,
                                    ComponentId component);

  /// Live metrics (queue depth sampled now, cache counters included).
  EngineStatsSnapshot Stats() const { return stats_.Snapshot(); }

  /// The engine's metrics registry: every row of the engine's metric
  /// table (engine/stats.h). Callers may add their own sources (a fleet
  /// store, its log, a detector) to scrape them with the engine's; each
  /// must outlive the engine's last scrape.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Per-tenant admission/dispatch accounting (submitted, admitted,
  /// rejected, shed, dispatched, queued cost), sorted by tenant tag —
  /// the data behind an operator's "who is flooding us" table.
  std::vector<TenantAdmissionRow> TenantAdmission() const;

  /// The cache identity the engine derives for a request.
  static CacheKey KeyFor(const DiagnosisRequest& request);

  const EngineOptions& options() const { return options_; }

 private:
  struct Waiter;
  struct Inflight;

  /// Runs the workflow for one request on a worker thread: gathers the
  /// diagnosis window's metrics through the collector, wraps the what-if
  /// probe with the engine-wide probe lock, records module and collection
  /// latencies. Fills `profile` with the gather volume and module
  /// breakdown as it goes.
  void Compute(DiagnosisRequest* request, Status* status,
               std::shared_ptr<const diag::DiagnosisReport>* report,
               std::shared_ptr<const CollectionSummary>* collection,
               obs::CostProfile* profile);
  /// A worker's run of `entry`'s computation: Compute, AfterCompute on
  /// success, then Resolve.
  void Execute(Inflight& entry, DiagnosisRequest request,
               double queue_wait_ms);
  /// Post-compute bookkeeping for a successful diagnosis: cache insert
  /// (stamped with the tenant store's pre-compute generation and the
  /// report's touched components) and fleet-store publish (the verdict
  /// carries `cost`).
  void AfterCompute(const CacheKey& key, const DiagnosisRequest& request,
                    const std::shared_ptr<const diag::DiagnosisReport>& report,
                    const std::shared_ptr<const CollectionSummary>& collection,
                    const monitor::TimeSeriesStore* authority,
                    uint64_t generation,
                    const std::shared_ptr<const obs::CostProfile>& cost);
  /// Answers every waiter of `entry` (run, shed, cancelled or refused by
  /// the pool) and, with coalescing on, removes it from inflight_.
  void Resolve(Inflight& entry, const Status& status,
               std::shared_ptr<const diag::DiagnosisReport> report,
               std::shared_ptr<const CollectionSummary> collection,
               std::shared_ptr<const obs::CostProfile> cost);
  /// The one exit of every Submit: books the terminal status into the
  /// completed / rejected / failed counters (rejected covers shutdown and
  /// admission refusals) and the request-latency histogram (Submit to
  /// `answered`), closes the root span with `outcome`, and fulfils the
  /// promise.
  void Answer(Waiter& waiter, DiagnosisResponse response, const char* outcome,
              std::chrono::steady_clock::time_point answered =
                  std::chrono::steady_clock::now());
  /// Scheduling metadata (tenant, cost, priority, deadline) for the
  /// pool task carrying `request`, with the deadline anchored at
  /// `submitted`.
  static QueueTask TaskSpecFor(const DiagnosisRequest& request,
                               std::chrono::steady_clock::time_point submitted);

  EngineOptions options_;
  const diag::SymptomsDb* symptoms_db_;
  std::shared_ptr<monitor::AsyncCollector> collector_;  ///< Never null.
  monitor::MetricGatherer gatherer_;  ///< Over collector_.
  obs::MetricsRegistry metrics_;  ///< Before stats_, which registers into it.
  EngineStats stats_;
  ResultCache cache_;
  /// Computations identical Submits may join (coalescing on only); an
  /// entry leaves when its computation resolves. Uncoalesced computations
  /// are owned by their pool task alone.
  std::mutex inflight_mu_;
  std::unordered_map<CacheKey, std::shared_ptr<Inflight>, CacheKeyHash>
      inflight_;
  /// Per-deployment-catalog locks (see the class comment): keyed by the
  /// catalog pointer, created on first use. Keys are never dereferenced.
  std::mutex catalog_locks_mu_;
  std::unordered_map<const void*, std::shared_ptr<std::shared_mutex>>
      catalog_locks_;
  ThreadPool pool_;  ///< Last member: destroyed (joined) first.
};

/// Fingerprint of every threshold in a WorkflowConfig; part of CacheKey.
uint64_t ConfigFingerprint(const diag::WorkflowConfig& config);

}  // namespace diads::engine

#endif  // DIADS_ENGINE_ENGINE_H_
