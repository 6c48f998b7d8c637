#include "engine/stats.h"

#include <cassert>

#include "common/strings.h"
#include "diads/workflow.h"
#include "engine/cache.h"
#include "engine/thread_pool.h"
#include "monitor/gather.h"

namespace diads::engine {

struct ScrapeView {
  FairQueueCounters queue;
  uint64_t queue_depth = 0;
  double queued_cost = 0;
  ResultCache::Counters cache;
  double elapsed_sec = 0;
  uint64_t completed = 0;
};

namespace {

using S = EngineStatsSnapshot;
using obs::MetricType;

constexpr MetricType kCounter = MetricType::kCounter;
constexpr MetricType kGauge = MetricType::kGauge;

/// A counter (or high-water gauge) the engine records.
EngineMetricRow Recorded(const char* name, const char* help,
                         uint64_t S::*count, MetricType type = kCounter) {
  return {name, help, type, nullptr, count, nullptr, nullptr, nullptr};
}

/// A latency the engine records, as a histogram.
EngineMetricRow Latency(const char* name, const char* help,
                        LatencySummary S::*latency,
                        const char* module = nullptr) {
  return {name,    help,    MetricType::kHistogram, module,
          nullptr, nullptr, latency,                nullptr};
}

EngineMetricRow ModuleLatency(const char* module,
                              LatencySummary S::*latency) {
  return Latency("diads_module_latency_ms",
                 "Per workflow module, milliseconds", latency, module);
}

/// A counter (or gauge) read from its owner at scrape time.
EngineMetricRow Read(const char* name, const char* help, uint64_t S::*count,
                     double (*read)(const ScrapeView&),
                     MetricType type = kCounter) {
  return {name, help, type, nullptr, count, nullptr, nullptr, read};
}
EngineMetricRow Read(const char* name, const char* help, double S::*value,
                     double (*read)(const ScrapeView&)) {
  return {name, help, kGauge, nullptr, nullptr, value, nullptr, read};
}

/// The scrape view's member at `path` (`view.*path[0].*path[1]`).
template <auto... kPath>
double At(const ScrapeView& view) {
  return static_cast<double>((view .* ... .* kPath));
}

using Queue = FairQueueCounters;
using Cache = ResultCache::Counters;

std::vector<EngineMetricRow> MakeRows() {
  // The rows the engine records come first, the hottest at the front:
  // EngineStats finds a record call's row by scanning from the top.
  return {
      Recorded("diads_engine_submitted_total", "Requests accepted",
               &S::submitted),
      Recorded("diads_engine_completed_total", "Requests completed ok",
               &S::completed),
      Latency("diads_engine_request_latency_ms",
              "Submit to response, milliseconds", &S::request_latency),
      Recorded("diads_engine_failed_total", "Requests failed", &S::failed),
      Recorded("diads_engine_rejected_total",
               "Requests refused (shutdown, admission)", &S::rejected),
      Recorded("diads_engine_coalesced_total",
               "Requests joined onto an identical in-flight request",
               &S::coalesced),
      Recorded("diads_engine_auto_submitted_total",
               "Requests auto-submitted by the slowdown detector",
               &S::auto_submitted),
      Recorded("diads_engine_fleet_publishes_total",
               "Verdicts published into the fleet store",
               &S::fleet_publishes),
      Recorded("diads_engine_max_queue_depth", "High-water queued requests",
               &S::max_queue_depth, kGauge),
      ModuleLatency("PD", &S::pd),
      ModuleLatency("CO", &S::co),
      ModuleLatency("DA", &S::da),
      ModuleLatency("CR", &S::cr),
      ModuleLatency("SD", &S::sd),
      ModuleLatency("IA", &S::ia),
      Recorded("diads_gather_fetches_total", "Fetch attempts issued",
               &S::collection_fetches),
      Recorded("diads_gather_timeouts_total",
               "Fetch attempts past their deadline", &S::collection_timeouts),
      Recorded("diads_gather_retries_total", "Fetches re-issued",
               &S::collection_retries),
      Recorded("diads_gather_stale_components_total",
               "Components degraded to stale local data",
               &S::collection_stale),
      Recorded("diads_gather_degraded_diagnoses_total",
               "Diagnoses served with >= 1 stale component",
               &S::degraded_diagnoses),
      Latency("diads_gather_fetch_latency_ms",
              "Per successful component fetch, milliseconds",
              &S::fetch_latency),
      Latency("diads_gather_latency_ms",
              "Per diagnosis scatter/gather, milliseconds",
              &S::gather_latency),
      // Read from the worker pool's fair queue.
      Read("diads_engine_admitted_total",
           "Requests accepted past tenant-share admission", &S::admitted,
           At<&ScrapeView::queue, &Queue::admitted>),
      Read("diads_engine_rejected_share_total",
           "Requests refused because the tenant's queue share was full",
           &S::rejected_share, At<&ScrapeView::queue, &Queue::rejected_share>),
      Read("diads_engine_shed_deadline_total",
           "Queued requests dropped past their deadline", &S::shed_deadline,
           At<&ScrapeView::queue, &Queue::shed_deadline>),
      Read("diads_engine_cancelled_shutdown_total",
           "Queued requests failed explicitly by shutdown",
           &S::cancelled_shutdown,
           At<&ScrapeView::queue, &Queue::cancelled_shutdown>),
      Read("diads_engine_starvation_avoided_total",
           "Dispatches where fair queueing overtook a flooding tenant's "
           "earlier request",
           &S::starvation_avoided,
           At<&ScrapeView::queue, &Queue::starvation_avoided>),
      Read("diads_engine_queue_depth", "Queued requests now", &S::queue_depth,
           At<&ScrapeView::queue_depth>, kGauge),
      Read("diads_engine_queued_cost", "Cost units currently enqueued",
           &S::queued_cost, At<&ScrapeView::queued_cost>),
      // Read from the result cache.
      Read("diads_engine_result_cache_hits_total", "Result-cache hits",
           &S::cache_hits, At<&ScrapeView::cache, &Cache::hits>),
      Read("diads_engine_result_cache_misses_total", "Result-cache misses",
           &S::cache_misses, At<&ScrapeView::cache, &Cache::misses>),
      Read("diads_engine_result_cache_evictions_total",
           "Result-cache LRU evictions", &S::cache_evictions,
           At<&ScrapeView::cache, &Cache::evictions>),
      Read("diads_engine_result_cache_invalidations_total",
           "Result-cache entries dropped stale or invalidated",
           &S::cache_invalidations,
           At<&ScrapeView::cache, &Cache::invalidations>),
      // Read from the clock.
      Read("diads_engine_elapsed_sec", "Seconds since engine start",
           &S::elapsed_sec, At<&ScrapeView::elapsed_sec>),
      Read("diads_engine_throughput_per_sec",
           "Completed diagnoses per second since engine start",
           &S::throughput_per_sec, [](const ScrapeView& v) {
             return v.elapsed_sec > 0 ? v.completed / v.elapsed_sec : 0.0;
           }),
  };
}

template <typename T>
using Field = T S::*;

/// The row whose `member` is `field`; that row must be one the engine
/// records.
template <typename T>
size_t RowOf(Field<T> field, Field<T> EngineMetricRow::*member) {
  const std::vector<EngineMetricRow>& rows = EngineMetricRows();
  size_t i = 0;
  while (i < rows.size() && rows[i].*member != field) ++i;
  assert(i < rows.size() && rows[i].read == nullptr);
  return i;
}

LatencySummary Summarize(const obs::Histogram::Snapshot& snap) {
  LatencySummary out;
  out.count = snap.count;
  if (snap.count == 0) return out;
  out.mean_ms = snap.sum / static_cast<double>(snap.count);
  out.p50_ms = snap.Quantile(0.50);
  out.p95_ms = snap.Quantile(0.95);
  out.p99_ms = snap.Quantile(0.99);
  return out;
}

}  // namespace

obs::Labels EngineMetricRow::labels() const {
  if (module == nullptr) return {};
  return {{"module", module}};
}

const std::vector<EngineMetricRow>& EngineMetricRows() {
  static const std::vector<EngineMetricRow> rows = MakeRows();
  return rows;
}

EngineStats::EngineStats(obs::MetricsRegistry* registry,
                         const ThreadPool* pool, const ResultCache* cache)
    : pool_(pool),
      cache_(cache),
      start_(std::chrono::steady_clock::now()) {
  const std::vector<EngineMetricRow>& rows = EngineMetricRows();
  instruments_.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineMetricRow& row = rows[i];
    if (row.read != nullptr) continue;
    switch (row.type) {
      case MetricType::kCounter:
        instruments_[i].counter =
            registry->AddCounter(row.name, row.help, row.labels());
        break;
      case MetricType::kGauge:
        instruments_[i].gauge =
            registry->AddGauge(row.name, row.help, row.labels());
        break;
      case MetricType::kHistogram:
        instruments_[i].histogram = registry->AddHistogram(
            row.name, row.help, obs::kLatencyMsBuckets, row.labels());
        break;
    }
  }
  registry->AddSource(
      [this](obs::MetricsEmitter& emitter) { EmitOwnerRows(emitter); });
}

void EngineStats::Add(uint64_t S::*field, uint64_t n) {
  instruments_[RowOf(field, &EngineMetricRow::count)].counter->Increment(n);
}

void EngineStats::RaiseTo(uint64_t S::*field, uint64_t v) {
  instruments_[RowOf(field, &EngineMetricRow::count)].gauge->RaiseTo(
      static_cast<double>(v));
}

void EngineStats::Observe(LatencySummary S::*field, double ms) {
  instruments_[RowOf(field, &EngineMetricRow::latency)].histogram->Observe(
      ms);
}

void EngineStats::RecordModuleLatencies(const diag::ModuleTimings& timings) {
  Observe(&S::pd, timings.pd_ms);
  Observe(&S::co, timings.co_ms);
  Observe(&S::da, timings.da_ms);
  Observe(&S::cr, timings.cr_ms);
  Observe(&S::sd, timings.sd_ms);
  Observe(&S::ia, timings.ia_ms);
}

void EngineStats::RecordCollection(const monitor::GatherResult& gather) {
  Add(&S::collection_fetches, gather.counters.fetches);
  Add(&S::collection_timeouts, gather.counters.timeouts);
  Add(&S::collection_retries, gather.counters.retries);
  Add(&S::collection_stale, gather.counters.stale_components);
  if (gather.degraded()) Add(&S::degraded_diagnoses);
  for (double ms : gather.fetch_ms) Observe(&S::fetch_latency, ms);
  Observe(&S::gather_latency, gather.counters.gather_ms);
}

ScrapeView EngineStats::View() const {
  ScrapeView view;
  if (pool_ != nullptr) {
    view.queue = pool_->QueueCounters();
    view.queue_depth = pool_->QueueDepth();
    view.queued_cost = pool_->QueuedCost();
  }
  if (cache_ != nullptr) view.cache = cache_->TotalCounters();
  view.elapsed_sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  view.completed =
      instruments_[RowOf(&S::completed, &EngineMetricRow::count)]
          .counter->value();
  return view;
}

void EngineStats::EmitOwnerRows(obs::MetricsEmitter& emitter) const {
  const ScrapeView view = View();
  for (const EngineMetricRow& row : EngineMetricRows()) {
    if (row.read == nullptr) continue;
    const double value = row.read(view);
    if (row.type == MetricType::kCounter) {
      emitter.Counter(row.name, row.help, row.labels(),
                      static_cast<uint64_t>(value));
    } else {
      emitter.Gauge(row.name, row.help, row.labels(), value);
    }
  }
}

EngineStatsSnapshot EngineStats::Snapshot() const {
  const ScrapeView view = View();
  const std::vector<EngineMetricRow>& rows = EngineMetricRows();
  EngineStatsSnapshot out;
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineMetricRow& row = rows[i];
    const Instrument& instrument = instruments_[i];
    if (row.latency != nullptr) {
      out.*row.latency = Summarize(instrument.histogram->Snap());
      continue;
    }
    double value = 0;
    if (row.read != nullptr) {
      value = row.read(view);
    } else if (instrument.counter != nullptr) {
      value = static_cast<double>(instrument.counter->value());
    } else {
      value = instrument.gauge->value();
    }
    if (row.count != nullptr) {
      out.*row.count = static_cast<uint64_t>(value);
    } else {
      out.*row.value = value;
    }
  }
  return out;
}

std::string EngineStatsSnapshot::Render() const {
  std::string out;
  out += StrFormat(
      "engine: %llu submitted, %llu completed, %llu failed, %llu rejected "
      "(%.1f diagnoses/sec over %.2fs)\n",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(rejected), throughput_per_sec,
      elapsed_sec);
  out += StrFormat(
      "cache:  %llu hits, %llu misses, %llu evictions, "
      "%llu invalidations (hit rate %.1f%%), %llu coalesced\n",
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(cache_evictions),
      static_cast<unsigned long long>(cache_invalidations),
      CacheHitRate() * 100.0, static_cast<unsigned long long>(coalesced));
  if (fleet_publishes > 0) {
    out += StrFormat("fleet:  %llu verdicts published\n",
                     static_cast<unsigned long long>(fleet_publishes));
  }
  if (auto_submitted > 0) {
    out += StrFormat("detect: %llu auto-submitted diagnoses\n",
                     static_cast<unsigned long long>(auto_submitted));
  }
  out += StrFormat("queue:  depth %llu (max %llu)\n",
                   static_cast<unsigned long long>(queue_depth),
                   static_cast<unsigned long long>(max_queue_depth));
  if (rejected_share + shed_deadline + cancelled_shutdown +
          starvation_avoided >
      0) {
    out += StrFormat(
        "admission: %llu admitted, %llu rejected (share), %llu shed "
        "(deadline), %llu cancelled (shutdown), %llu starvations avoided\n",
        static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(rejected_share),
        static_cast<unsigned long long>(shed_deadline),
        static_cast<unsigned long long>(cancelled_shutdown),
        static_cast<unsigned long long>(starvation_avoided));
  }
  out += StrFormat(
      "latency: mean %.2fms p50 %.2fms p95 %.2fms p99 %.2fms (n=%llu)\n",
      request_latency.mean_ms, request_latency.p50_ms, request_latency.p95_ms,
      request_latency.p99_ms,
      static_cast<unsigned long long>(request_latency.count));
  if (collection_fetches > 0) {
    out += StrFormat(
        "collection: %llu fetches (%llu timeouts, %llu retries), "
        "%llu stale components across %llu degraded diagnoses; "
        "fetch p95 %.2fms, gather p95 %.2fms\n",
        static_cast<unsigned long long>(collection_fetches),
        static_cast<unsigned long long>(collection_timeouts),
        static_cast<unsigned long long>(collection_retries),
        static_cast<unsigned long long>(collection_stale),
        static_cast<unsigned long long>(degraded_diagnoses),
        fetch_latency.p95_ms, gather_latency.p95_ms);
  }
  for (const EngineMetricRow& row : EngineMetricRows()) {
    if (row.module == nullptr || (this->*row.latency).count == 0) continue;
    out += StrFormat("module %s: mean %.2fms p95 %.2fms\n", row.module,
                     (this->*row.latency).mean_ms,
                     (this->*row.latency).p95_ms);
  }
  return out;
}

}  // namespace diads::engine
