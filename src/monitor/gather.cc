#include "monitor/gather.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace diads::monitor {
namespace {

using Clock = std::chrono::steady_clock;

/// Approximate wire size of one shipped series' framing (metric id,
/// sample count and padding).
constexpr uint64_t kSeriesHeaderBytes = 32;

/// Adopts a batch's pinned series into the collected store, accumulating
/// the shipped volume (the covering slices) into `counters`. The plan
/// fetches each component once, so every series is new to the store and
/// the adoption cannot fail.
void Integrate(MetricBatch batch, TimeSeriesStore* collected,
               GatherCounters* counters) {
  for (MetricSeries& series : batch.series) {
    const size_t samples = series.samples.size();
    counters->samples_collected += samples;
    // Approximate wire size: one (time, value) pair per sample plus a
    // small per-series header. Good enough for "which diagnosis moved
    // how much data" attribution; nothing bills by it.
    counters->bytes_collected += samples * sizeof(Sample) + kSeriesHeaderBytes;
    collected->AdoptSeries(batch.component, series.metric,
                           std::move(series.pinned));
  }
}

/// Synthesizes a stale batch from the request's locally cached series —
/// the same BatchFromSource read a fresh fetch performs, so degraded and
/// fetched data are byte-identical.
MetricBatch StaleFromLocal(const FetchRequest& request) {
  MetricBatch batch = BatchFromSource(request);
  batch.stale = true;
  return batch;
}

/// The structured degradation warning the serving stats could never
/// answer: *which* component went stale, and why.
void WarnStale(const FetchRequest& request, const char* reason,
               int attempts) {
  LogWarning("monitor.gather",
             StrFormat("component C%u degraded to stale local data "
                       "(%s after %d attempt%s, window [%s, %s])",
                       request.component.value, reason, attempts,
                       attempts == 1 ? "" : "s",
                       FormatSimTime(request.interval.begin).c_str(),
                       FormatSimTime(request.interval.end).c_str()));
}

}  // namespace

MetricGatherer::MetricGatherer(AsyncCollector* collector,
                               GatherOptions options)
    : collector_(collector), options_(options) {}

GatherResult MetricGatherer::Gather(const std::vector<FetchRequest>& plan,
                                    const obs::TraceContext& trace) const {
  struct InFlight {
    size_t plan_index = 0;
    std::future<MetricBatch> future;
    Clock::time_point deadline;
    int attempt = 1;
    obs::SpanHandle span;
  };

  GatherResult result;
  const Clock::time_point start = Clock::now();
  // The plan names every series the snapshot can receive (each component
  // is fetched once): size the snapshot before adopting a single pin.
  std::vector<std::pair<ComponentId, size_t>> layout;
  layout.reserve(plan.size());
  for (const FetchRequest& request : plan) {
    layout.emplace_back(request.component, request.metrics.size());
  }
  result.collected.ReserveComponents(layout);
  const bool timeouts_enabled = options_.timeout_ms > 0;
  const auto timeout =
      std::chrono::duration<double, std::milli>(options_.timeout_ms);
  const size_t window = static_cast<size_t>(
      options_.max_in_flight > 0 ? options_.max_in_flight : 1);

  std::vector<InFlight> in_flight;
  in_flight.reserve(window);
  size_t next = 0;

  auto issue = [&](size_t plan_index, int attempt) {
    InFlight entry;
    entry.plan_index = plan_index;
    if (trace.enabled()) {
      entry.span = trace.StartSpan(
          StrFormat("fetch:C%u", plan[plan_index].component.value),
          "collect");
      entry.span.Note("attempt", static_cast<uint64_t>(attempt));
      entry.span.NoteWindow(plan[plan_index].interval);
    }
    entry.future = collector_->Fetch(plan[plan_index]);
    entry.deadline = Clock::now() + std::chrono::duration_cast<
                                        Clock::duration>(timeout);
    entry.attempt = attempt;
    ++result.counters.fetches;
    in_flight.push_back(std::move(entry));
  };

  while (next < plan.size() || !in_flight.empty()) {
    while (next < plan.size() && in_flight.size() < window) {
      issue(next++, /*attempt=*/1);
    }
    // Harvest the oldest in-flight fetch. All others keep progressing in
    // the backend meanwhile, so waiting here costs no parallelism.
    InFlight entry = std::move(in_flight.front());
    in_flight.erase(in_flight.begin());
    const FetchRequest& request = plan[entry.plan_index];

    bool ready = true;
    if (timeouts_enabled) {
      ready = entry.future.wait_until(entry.deadline) ==
              std::future_status::ready;
    } else {
      entry.future.wait();
    }
    if (!ready) {
      ++result.counters.timeouts;
      entry.span.Note("outcome", "timeout");
      entry.span.End();
      // Abandon the attempt (the collector resolves the orphaned promise
      // whenever it finishes; nobody is listening).
      if (entry.attempt < options_.max_attempts) {
        ++result.counters.retries;
        issue(entry.plan_index, entry.attempt + 1);
      } else {
        ++result.counters.stale_components;
        result.stale_components.push_back(request.component);
        Integrate(StaleFromLocal(request), &result.collected,
                  &result.counters);
        WarnStale(request, "timeout", entry.attempt);
      }
      continue;
    }
    MetricBatch batch = entry.future.get();
    if (!batch.ok()) {
      // Cancelled (collector shutdown) or misconfigured: degrade to the
      // local series rather than failing the diagnosis.
      ++result.counters.cancelled;
      ++result.counters.stale_components;
      result.stale_components.push_back(request.component);
      Integrate(StaleFromLocal(request), &result.collected,
                &result.counters);
      entry.span.Note("outcome", "cancelled");
      entry.span.End();
      WarnStale(request, "fetch cancelled", entry.attempt);
      continue;
    }
    result.fetch_ms.push_back(batch.fetch_ms);
    entry.span.Note("outcome", "ok");
    entry.span.Note("fetch_ms", batch.fetch_ms);
    Integrate(std::move(batch), &result.collected, &result.counters);
    entry.span.End();
  }

  std::sort(result.stale_components.begin(), result.stale_components.end());
  result.counters.gather_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return result;
}

}  // namespace diads::monitor
