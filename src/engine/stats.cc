#include "engine/stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/strings.h"
#include "diads/workflow.h"
#include "monitor/gather.h"

namespace diads::engine {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

std::string SummaryJson(const char* name,
                        const LatencyRecorder::Summary& s) {
  return StrFormat(
      "\"%s\":{\"count\":%llu,\"mean_ms\":%.3f,\"p50_ms\":%.3f,"
      "\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"max_ms\":%.3f}",
      name, static_cast<unsigned long long>(s.count), s.mean_ms, s.p50_ms,
      s.p95_ms, s.p99_ms, s.max_ms);
}

}  // namespace

void LatencyRecorder::Record(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(ms);
}

LatencyRecorder::Summary LatencyRecorder::Summarize() const {
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = samples_;
  }
  Summary out;
  out.count = sorted.size();
  if (sorted.empty()) return out;
  std::sort(sorted.begin(), sorted.end());
  double total = 0;
  for (double v : sorted) total += v;
  out.mean_ms = total / static_cast<double>(sorted.size());
  out.p50_ms = PercentileOfSorted(sorted, 50);
  out.p95_ms = PercentileOfSorted(sorted, 95);
  out.p99_ms = PercentileOfSorted(sorted, 99);
  out.max_ms = sorted.back();
  return out;
}

void LatencyRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
}

EngineStats::EngineStats() { start_ns_.store(NowNs()); }

void EngineStats::RecordQueueDepth(size_t depth) {
  size_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth)) {
  }
}

void EngineStats::RecordModuleLatencies(const diag::ModuleTimings& timings) {
  pd_.Record(timings.pd_ms);
  co_.Record(timings.co_ms);
  da_.Record(timings.da_ms);
  cr_.Record(timings.cr_ms);
  sd_.Record(timings.sd_ms);
  ia_.Record(timings.ia_ms);
}

void EngineStats::RecordCollection(const monitor::GatherResult& gather) {
  collection_fetches_.fetch_add(gather.counters.fetches,
                                std::memory_order_relaxed);
  collection_timeouts_.fetch_add(gather.counters.timeouts,
                                 std::memory_order_relaxed);
  collection_retries_.fetch_add(gather.counters.retries,
                                std::memory_order_relaxed);
  collection_stale_.fetch_add(gather.counters.stale_components,
                              std::memory_order_relaxed);
  if (gather.degraded()) {
    degraded_diagnoses_.fetch_add(1, std::memory_order_relaxed);
  }
  for (double ms : gather.fetch_ms) fetch_latency_.Record(ms);
  gather_latency_.Record(gather.counters.gather_ms);
}

EngineStatsSnapshot EngineStats::Snapshot(size_t queue_depth) const {
  EngineStatsSnapshot out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.auto_submitted = auto_submitted_.load(std::memory_order_relaxed);
  out.fleet_publishes = fleet_publishes_.load(std::memory_order_relaxed);
  out.queue_depth = queue_depth;
  out.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  out.elapsed_sec =
      static_cast<double>(NowNs() - start_ns_.load()) / 1e9;
  out.throughput_per_sec =
      out.elapsed_sec > 0
          ? static_cast<double>(out.completed) / out.elapsed_sec
          : 0;
  out.collection_fetches =
      collection_fetches_.load(std::memory_order_relaxed);
  out.collection_timeouts =
      collection_timeouts_.load(std::memory_order_relaxed);
  out.collection_retries =
      collection_retries_.load(std::memory_order_relaxed);
  out.collection_stale = collection_stale_.load(std::memory_order_relaxed);
  out.degraded_diagnoses =
      degraded_diagnoses_.load(std::memory_order_relaxed);
  out.request_latency = request_latency_.Summarize();
  out.fetch_latency = fetch_latency_.Summarize();
  out.gather_latency = gather_latency_.Summarize();
  out.pd = pd_.Summarize();
  out.co = co_.Summarize();
  out.da = da_.Summarize();
  out.cr = cr_.Summarize();
  out.sd = sd_.Summarize();
  out.ia = ia_.Summarize();
  return out;
}

void EngineStats::Reset() {
  submitted_.store(0);
  completed_.store(0);
  failed_.store(0);
  rejected_.store(0);
  cache_hits_.store(0);
  cache_misses_.store(0);
  coalesced_.store(0);
  auto_submitted_.store(0);
  fleet_publishes_.store(0);
  collection_fetches_.store(0);
  collection_timeouts_.store(0);
  collection_retries_.store(0);
  collection_stale_.store(0);
  degraded_diagnoses_.store(0);
  max_queue_depth_.store(0);
  start_ns_.store(NowNs());
  request_latency_.Clear();
  fetch_latency_.Clear();
  gather_latency_.Clear();
  pd_.Clear();
  co_.Clear();
  da_.Clear();
  cr_.Clear();
  sd_.Clear();
  ia_.Clear();
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
  if (model_cache_hits + model_cache_misses > 0) {
    out += StrFormat(
        "models: %llu hits, %llu misses, %llu evictions, "
        "%llu invalidations, %llu declined (hit rate %.1f%%, %zu cached)\n",
        static_cast<unsigned long long>(model_cache_hits),
        static_cast<unsigned long long>(model_cache_misses),
        static_cast<unsigned long long>(model_cache_evictions),
        static_cast<unsigned long long>(model_cache_invalidations),
        static_cast<unsigned long long>(model_cache_declined),
        ModelCacheHitRate() * 100.0, model_cache_entries);
  }
  out += StrFormat("queue:  depth %zu (max %zu)\n", queue_depth,
                   max_queue_depth);
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
      "latency: p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms (n=%llu)\n",
      request_latency.p50_ms, request_latency.p95_ms, request_latency.p99_ms,
      request_latency.max_ms,
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
  struct Row {
    const char* name;
    const LatencyRecorder::Summary* s;
  } rows[] = {{"PD", &pd}, {"CO", &co}, {"DA", &da},
              {"CR", &cr}, {"SD", &sd}, {"IA", &ia}};
  for (const Row& row : rows) {
    if (row.s->count == 0) continue;
    out += StrFormat("module %s: mean %.2fms p95 %.2fms\n", row.name,
                     row.s->mean_ms, row.s->p95_ms);
  }
  return out;
}

std::string EngineStatsSnapshot::ToJson() const {
  std::string out = "{";
  out += StrFormat(
      "\"submitted\":%llu,\"completed\":%llu,\"failed\":%llu,"
      "\"rejected\":%llu,\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"cache_evictions\":%llu,\"cache_invalidations\":%llu,"
      "\"coalesced\":%llu,\"auto_submitted\":%llu,"
      "\"fleet_publishes\":%llu,\"queue_depth\":%zu,"
      "\"max_queue_depth\":%zu,\"elapsed_sec\":%.3f,"
      "\"throughput_per_sec\":%.2f,\"cache_hit_rate\":%.4f,",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(cache_evictions),
      static_cast<unsigned long long>(cache_invalidations),
      static_cast<unsigned long long>(coalesced),
      static_cast<unsigned long long>(auto_submitted),
      static_cast<unsigned long long>(fleet_publishes), queue_depth,
      max_queue_depth, elapsed_sec, throughput_per_sec, CacheHitRate());
  out += StrFormat(
      "\"admitted\":%llu,\"rejected_share\":%llu,\"shed_deadline\":%llu,"
      "\"cancelled_shutdown\":%llu,\"starvation_avoided\":%llu,"
      "\"queued_cost\":%.2f,",
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(rejected_share),
      static_cast<unsigned long long>(shed_deadline),
      static_cast<unsigned long long>(cancelled_shutdown),
      static_cast<unsigned long long>(starvation_avoided), queued_cost);
  out += StrFormat(
      "\"model_cache_hits\":%llu,\"model_cache_misses\":%llu,"
      "\"model_cache_evictions\":%llu,\"model_cache_invalidations\":%llu,"
      "\"model_cache_declined\":%llu,"
      "\"model_cache_entries\":%zu,\"model_cache_hit_rate\":%.4f,",
      static_cast<unsigned long long>(model_cache_hits),
      static_cast<unsigned long long>(model_cache_misses),
      static_cast<unsigned long long>(model_cache_evictions),
      static_cast<unsigned long long>(model_cache_invalidations),
      static_cast<unsigned long long>(model_cache_declined),
      model_cache_entries, ModelCacheHitRate());
  out += StrFormat(
      "\"collection_fetches\":%llu,\"collection_timeouts\":%llu,"
      "\"collection_retries\":%llu,\"collection_stale\":%llu,"
      "\"degraded_diagnoses\":%llu,",
      static_cast<unsigned long long>(collection_fetches),
      static_cast<unsigned long long>(collection_timeouts),
      static_cast<unsigned long long>(collection_retries),
      static_cast<unsigned long long>(collection_stale),
      static_cast<unsigned long long>(degraded_diagnoses));
  out += SummaryJson("request_latency", request_latency);
  out += ",";
  out += SummaryJson("fetch_latency", fetch_latency);
  out += ",";
  out += SummaryJson("gather_latency", gather_latency);
  struct Row {
    const char* name;
    const LatencyRecorder::Summary* s;
  } rows[] = {{"pd", &pd}, {"co", &co}, {"da", &da},
              {"cr", &cr}, {"sd", &sd}, {"ia", &ia}};
  for (const Row& row : rows) {
    out += ",";
    out += SummaryJson(row.name, *row.s);
  }
  out += "}";
  return out;
}

}  // namespace diads::engine
