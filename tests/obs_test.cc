// Observability layer: span tracer, Chrome trace export, unified metrics
// registry (Prometheus + JSON, histogram quantiles, concurrent scrapes),
// cost profiles, and the "no counter lost" coverage contract between the
// fleet store's counters and the registry. (The engine's metric table is
// walked in engine_test.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "engine/self_monitor.h"
#include "engine/stats.h"
#include "fleet/metrics.h"
#include "fleet/store.h"
#include "obs/cost_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/descriptive.h"

namespace diads {
namespace {

// ---------------------------------------------------------------- tracer --

TEST(TracerTest, SpanTreeRecordsParentageAndArgs) {
  obs::Tracer tracer;
  obs::TraceContext root_ctx = tracer.Root();

  obs::SpanHandle root = root_ctx.StartSpan("diagnosis", "engine");
  root.Note("tag", "t0/incident-1");
  obs::SpanHandle child = root_ctx.Under(root).StartSpan("gather", "collect");
  child.Note("components", static_cast<uint64_t>(7));
  child.End();
  root.End();

  const std::vector<obs::Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: child files first.
  EXPECT_EQ(spans[0].name, "gather");
  EXPECT_EQ(spans[1].name, "diagnosis");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  ASSERT_NE(spans[1].FindArg("tag"), nullptr);
  EXPECT_EQ(*spans[1].FindArg("tag"), "t0/incident-1");
  ASSERT_NE(spans[0].FindArg("components"), nullptr);
  EXPECT_EQ(*spans[0].FindArg("components"), "7");
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
  EXPECT_EQ(CheckSpanNesting(spans), "");
}

TEST(TracerTest, EndIsIdempotentAndDestructorFiles) {
  obs::Tracer tracer;
  {
    obs::SpanHandle span = tracer.Root().StartSpan("work", "engine");
    span.End();
    span.End();  // Second End must not double-file.
  }
  {
    obs::SpanHandle span = tracer.Root().StartSpan("dropped", "engine");
    // Destructor files it.
  }
  EXPECT_EQ(tracer.span_count(), 2u);
}

TEST(TracerTest, DisabledContextIsInert) {
  obs::TraceContext off;  // No tracer attached.
  EXPECT_FALSE(off.enabled());
  obs::SpanHandle span = off.StartSpan("nothing", "engine");
  EXPECT_FALSE(span.active());
  span.Note("key", "value");  // Must not crash.
  span.End();
  off.Instant("marker", "engine", {{"k", "v"}});
  obs::TraceContext still_off = off.Under(span);
  EXPECT_FALSE(still_off.enabled());
}

TEST(TracerTest, CheckSpanNestingCatchesDanglingParent) {
  std::vector<obs::Span> spans(1);
  spans[0].id = 5;
  spans[0].parent = 99;  // No such span.
  spans[0].name = "orphan";
  EXPECT_NE(CheckSpanNesting(spans), "");
}

TEST(TracerTest, CheckSpanNestingCatchesTemporalEscape) {
  std::vector<obs::Span> spans(2);
  spans[0].id = 1;
  spans[0].name = "parent";
  spans[0].start_ns = 100;
  spans[0].end_ns = 200;
  spans[1].id = 2;
  spans[1].parent = 1;
  spans[1].name = "child";
  spans[1].start_ns = 150;
  spans[1].end_ns = 300;  // Ends after the parent.
  EXPECT_NE(CheckSpanNesting(spans), "");
  // With enough slack the same tree passes.
  EXPECT_EQ(CheckSpanNesting(spans, /*slack_ns=*/200), "");
}

TEST(TracerTest, ChromeExportIsStrictlyParseableJson) {
  obs::Tracer tracer;
  obs::SpanHandle root = tracer.Root().StartSpan("diagnosis", "engine");
  // Hostile annotation content: quotes, backslashes, duplicate keys.
  root.Note("tag", "quote\" backslash\\ newline\n");
  root.Note("outcome", "first");
  root.Note("outcome", "second");  // Last write must win; no dup JSON keys.
  obs::SpanHandle child =
      tracer.Root().Under(root).StartSpan("fetch:C3", "collect");
  child.Note("fetch_ms", 1.25);
  child.End();
  root.End();
  tracer.Root().Instant("model_cache", "cache", {{"hits", "3"}});

  const std::string exported = tracer.ExportChromeTrace();
  Result<JsonValue> parsed = ParseJson(exported);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t complete = 0;
  bool saw_second = false;
  for (const JsonValue& event : events->array_items()) {
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string_value() != "X") continue;
    ++complete;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_TRUE(args->Has("span_id"));
    const JsonValue* outcome = args->Find("outcome");
    if (outcome != nullptr && outcome->string_value() == "second") {
      saw_second = true;
    }
  }
  EXPECT_EQ(complete, 3u);  // diagnosis + fetch + instant marker.
  EXPECT_TRUE(saw_second);
}

// -------------------------------------------------------------- registry --

TEST(MetricsRegistryTest, OwnedInstrumentsAndCollect) {
  obs::MetricsRegistry registry;
  obs::Counter* hits =
      registry.AddCounter("diads_test_hits_total", "Test hits",
                          {{"backend", "replay"}});
  obs::Gauge* depth = registry.AddGauge("diads_test_depth", "Queue depth");
  hits->Increment();
  hits->Increment(4);
  depth->Set(2.5);

  const std::vector<obs::MetricSample> samples = registry.Collect();
  const obs::MetricSample* hit_sample =
      obs::MetricsRegistry::Find(samples, "diads_test_hits_total");
  ASSERT_NE(hit_sample, nullptr);
  EXPECT_EQ(hit_sample->value, 5.0);
  EXPECT_EQ(hit_sample->type, obs::MetricType::kCounter);
  ASSERT_EQ(hit_sample->labels.size(), 1u);
  EXPECT_EQ(hit_sample->labels[0].second, "replay");
  const obs::MetricSample* depth_sample =
      obs::MetricsRegistry::Find(samples, "diads_test_depth");
  ASSERT_NE(depth_sample, nullptr);
  EXPECT_EQ(depth_sample->value, 2.5);
}

TEST(MetricsRegistryTest, HistogramExponentialBuckets) {
  obs::MetricsRegistry registry;
  obs::ExponentialBuckets layout;
  layout.first_bound = 1.0;
  layout.growth = 2.0;
  layout.bucket_count = 4;  // Bounds 1, 2, 4, 8 (+Inf implicit).
  obs::Histogram* latency = registry.AddHistogram(
      "diads_test_latency_ms", "Test latency", layout);
  latency->Observe(0.5);   // <= 1
  latency->Observe(3.0);   // <= 4
  latency->Observe(100.0); // +Inf overflow

  const obs::Histogram::Snapshot snap = latency->Snap();
  ASSERT_EQ(snap.bounds.size(), 4u);
  EXPECT_EQ(snap.bounds[0], 1.0);
  EXPECT_EQ(snap.bounds[3], 8.0);
  EXPECT_EQ(snap.cumulative[0], 1u);  // 0.5
  EXPECT_EQ(snap.cumulative[1], 1u);
  EXPECT_EQ(snap.cumulative[2], 2u);  // + 3.0
  EXPECT_EQ(snap.cumulative[3], 2u);
  EXPECT_EQ(snap.count, 3u);          // + 100 in overflow.
  EXPECT_DOUBLE_EQ(snap.sum, 103.5);

  const std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE diads_test_latency_ms histogram"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("diads_test_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("diads_test_latency_ms_count 3"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExpositionShape) {
  obs::MetricsRegistry registry;
  registry.AddCounter("diads_a_total", "Counts \"a\"", {{"k", "v\"q"}})
      ->Increment(2);
  registry.AddGauge("diads_b", "Gauge b")->Set(1.5);

  const std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("# HELP diads_a_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE diads_a_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE diads_b gauge"), std::string::npos);
  // Label values escape embedded quotes.
  EXPECT_NE(prom.find("diads_a_total{k=\"v\\\"q\"} 2"), std::string::npos)
      << prom;
}

TEST(MetricsRegistryTest, JsonSnapshotIsStrictlyParseable) {
  obs::MetricsRegistry registry;
  registry.AddCounter("diads_a_total", "Help with \"quotes\"")->Increment();
  registry.AddGauge("diads_b", "Gauge")->Set(0.25);
  obs::ExponentialBuckets layout;
  layout.bucket_count = 2;
  registry.AddHistogram("diads_h", "Hist", layout)->Observe(1.0);

  const std::string json = registry.ToJson();
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  EXPECT_EQ(metrics->array_items().size(), 3u);
  bool saw_histogram = false;
  for (const JsonValue& m : metrics->array_items()) {
    ASSERT_TRUE(m.Has("name"));
    ASSERT_TRUE(m.Has("type"));
    if (m.Find("type")->string_value() == "histogram") {
      saw_histogram = true;
      EXPECT_TRUE(m.Has("buckets"));
    }
  }
  EXPECT_TRUE(saw_histogram);
}

TEST(MetricsRegistryTest, SourcesEmitAtScrapeTime) {
  obs::MetricsRegistry registry;
  uint64_t live_value = 1;
  registry.AddSource([&live_value](obs::MetricsEmitter& emitter) {
    emitter.Counter("diads_src_total", "From source", {}, live_value);
  });
  EXPECT_EQ(obs::MetricsRegistry::Find(registry.Collect(),
                                       "diads_src_total")->value, 1.0);
  live_value = 42;  // Sources read live state, not a registration snapshot.
  EXPECT_EQ(obs::MetricsRegistry::Find(registry.Collect(),
                                       "diads_src_total")->value, 42.0);
}

TEST(HistogramTest, LatencyLayoutSpansOneMicrosecondToMinutes) {
  const obs::Histogram::Snapshot snap =
      obs::Histogram(obs::kLatencyMsBuckets).Snap();
  ASSERT_EQ(snap.bounds.size(), 108u);  // 107 buckets between the bounds.
  EXPECT_EQ(snap.bounds.front(), 0.001);
  EXPECT_GT(snap.bounds.back(), 112e3);
  EXPECT_LT(snap.bounds.back(), 114e3);
  for (size_t i = 1; i < snap.bounds.size(); ++i) {
    EXPECT_LE(snap.bounds[i] / snap.bounds[i - 1],
              std::pow(2.0, 0.25) * (1 + 1e-12));
  }
}

TEST(HistogramTest, QuantileWithinOneBucketGrowthOfExactPercentile) {
  // 10^4 log-uniform latencies from 1 us to 10 s (in ms), against the
  // exact percentile of the sorted samples under stats::PercentileOfSorted.
  SeededRng rng(20260101);
  obs::Histogram histogram(obs::kLatencyMsBuckets);
  std::vector<double> samples;
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = std::exp(rng.Uniform(std::log(1e-3), std::log(1e4)));
    samples.push_back(v);
    histogram.Observe(v);
    sum += v;
  }
  std::sort(samples.begin(), samples.end());
  const obs::Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 10000u);
  EXPECT_NEAR(snap.sum, sum, 1e-9 * sum);
  const double max_error = obs::kLatencyMsBuckets.growth - 1;
  for (double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                   0.999, 1.0}) {
    SCOPED_TRACE(testing::Message() << "q=" << q);
    const double exact = stats::PercentileOfSorted(samples, q * 100);
    EXPECT_LE(std::fabs(snap.Quantile(q) - exact),
              max_error * exact * (1 + 1e-12));
  }
}

TEST(HistogramTest, QuantileOfEmptySingleAndOutOfRangeSamples) {
  obs::Histogram empty(obs::kLatencyMsBuckets);
  EXPECT_EQ(empty.Snap().count, 0u);
  EXPECT_EQ(empty.Snap().Quantile(0.5), 0.0);

  const double max_error = obs::kLatencyMsBuckets.growth - 1;
  obs::Histogram single(obs::kLatencyMsBuckets);
  single.Observe(42.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(single.Snap().Quantile(q), 42.0, 42.0 * max_error) << q;
  }

  // Past the last bound: counted and summed exactly, and a quantile
  // landing there reads as the last bound. At or below the first bound
  // reads as the first bound.
  obs::Histogram out_of_range(obs::kLatencyMsBuckets);
  const std::vector<double> bounds = out_of_range.Snap().bounds;
  out_of_range.Observe(0.0);
  out_of_range.Observe(1.0);
  out_of_range.Observe(bounds.back() * 10);
  out_of_range.Observe(bounds.back() * 100);
  const obs::Histogram::Snapshot snap = out_of_range.Snap();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.cumulative.back(), 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0 + bounds.back() * 110);
  EXPECT_EQ(out_of_range.Snap().Quantile(0.0), bounds.front());
  EXPECT_NEAR(out_of_range.Snap().Quantile(1.0 / 3), 1.0, max_error);
  EXPECT_DOUBLE_EQ(out_of_range.Snap().Quantile(0.99), bounds.back());
  EXPECT_EQ(out_of_range.Snap().Quantile(1.0), bounds.back());
}

TEST(MetricsRegistryTest, ConcurrentObserveAndCollect) {
  // Four writers observe while a scraper collects: every scrape is
  // internally consistent (cumulative buckets, a count covering them, and
  // counts that never go backwards), and nothing is lost. Run under TSan
  // in CI.
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.AddHistogram(
      "diads_test_ms", "Concurrent histogram", obs::kLatencyMsBuckets);
  obs::Counter* counter =
      registry.AddCounter("diads_test_total", "Concurrent counter");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    double last_count = 0;
    while (!done.load()) {
      const std::vector<obs::MetricSample> samples = registry.Collect();
      const obs::MetricSample* sample =
          obs::MetricsRegistry::Find(samples, "diads_test_ms");
      ASSERT_NE(sample, nullptr);
      for (size_t i = 1; i < sample->hist_cumulative.size(); ++i) {
        ASSERT_LE(sample->hist_cumulative[i - 1], sample->hist_cumulative[i]);
      }
      ASSERT_GE(sample->value,
                static_cast<double>(sample->hist_cumulative.back()));
      ASSERT_GE(sample->value, last_count);
      last_count = sample->value;
      EXPECT_GE(histogram->Snap().Quantile(0.99), 0.0);
      ++scrapes;
    }
  });
  // Writers start once the scraper is running, so the two overlap.
  while (scrapes.load() == 0) std::this_thread::yield();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([histogram, counter, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        histogram->Observe(1 + (i + w) % 100);
        counter->Increment();
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  scraper.join();

  // Integer observations: the sum is exact in any interleaving.
  double expected_sum = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) expected_sum += 1 + (i + w) % 100;
  }
  const obs::Histogram::Snapshot snap = histogram->Snap();
  EXPECT_EQ(snap.count, uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(counter->value(), uint64_t{kWriters} * kPerWriter);
  EXPECT_GT(scrapes.load(), 0);
}

// --------------------------------------------------- "no counter lost" ---

/// Captures every emission for coverage assertions.
class RecordingEmitter : public obs::MetricsEmitter {
 public:
  void Counter(const std::string& name, const std::string&,
               const obs::Labels&, uint64_t value) override {
    values.emplace_back(name, static_cast<double>(value));
  }
  void Gauge(const std::string& name, const std::string&,
             const obs::Labels&, double value) override {
    values.emplace_back(name, value);
  }

  bool SawValue(double v) const {
    for (const auto& [name, value] : values) {
      if (value == v) return true;
    }
    return false;
  }

  std::vector<std::pair<std::string, double>> values;
};

TEST(MetricsBridgeTest, NoFleetCounterLost) {
  fleet::FleetStore::Counters counters;
  counters.publishes = 2000;
  counters.rows_inserted = 2001;
  counters.rows_superseded = 2002;
  counters.rows_stale_dropped = 2003;
  counters.invalidations = 2004;
  counters.queries = 2005;
  counters.entries = 2006;
  RecordingEmitter emitter;
  fleet::EmitFleetStoreCounters(counters, {}, emitter);
  for (double sentinel = 2000; sentinel < 2007; sentinel += 1) {
    EXPECT_TRUE(emitter.SawValue(sentinel))
        << "fleet counter with sentinel " << sentinel << " was dropped";
  }
}

TEST(MetricsBridgeTest, LegacyJsonRendersStayWellFormed) {
  // The registry is additive: the fleet store's own one-line JSON render
  // must still parse under the strict parser.
  fleet::FleetStore::Counters counters;
  counters.publishes = 3;
  Result<JsonValue> fleet_json = ParseJson(counters.ToJson());
  ASSERT_TRUE(fleet_json.ok()) << fleet_json.status().ToString();
  EXPECT_TRUE(fleet_json->Has("publishes"));
}

// ------------------------------------------------------------- profiles --

TEST(CostProfileTest, ToJsonIsStrictlyParseable) {
  obs::CostProfile profile;
  profile.queue_wait_ms = 1.5;
  profile.gather_ms = 20.25;
  profile.module_ms = {{"PD", 0.1}, {"CO", 2.0}, {"DA", 5.5}};
  profile.total_ms = 30.0;
  profile.result_cache_hit = false;
  profile.model_cache_hits = 10;
  profile.model_cache_misses = 3;
  profile.fetches_issued = 25;
  profile.fetch_timeouts = 1;
  profile.fetch_retries = 2;
  profile.samples_collected = 480;
  profile.bytes_collected = 7680;
  profile.stale_components = {"V1", "pool \"7\""};

  Result<JsonValue> parsed = ParseJson(profile.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Has("total_ms"));
  EXPECT_TRUE(parsed->Has("queue_wait_ms"));
  const JsonValue* modules = parsed->Find("modules");
  ASSERT_NE(modules, nullptr);
  EXPECT_TRUE(modules->is_object());
  const JsonValue* gather = parsed->Find("gather");
  ASSERT_NE(gather, nullptr);
  const JsonValue* stale = gather->Find("stale_components");
  ASSERT_NE(stale, nullptr);
  ASSERT_EQ(stale->array_items().size(), 2u);
  EXPECT_EQ(stale->array_items()[1].string_value(), "pool \"7\"");
  EXPECT_DOUBLE_EQ(profile.ModuleTotalMs(), 7.6);
}

// --------------------------------------------------------- self-monitor --

TEST(SelfMonitorTest, EngineMetricIdsStayOutOfTheRealEnumRange) {
  for (engine::EngineMetric m : engine::AllEngineMetrics()) {
    EXPECT_GE(static_cast<int>(engine::ToMetricId(m)), 1000)
        << engine::EngineMetricName(m);
    EXPECT_NE(std::string(engine::EngineMetricName(m)), "engine.unknown");
  }
}

TEST(SelfMonitorTest, AppendSnapshotFillsDedicatedStore) {
  engine::EngineStatsSnapshot snapshot;
  snapshot.throughput_per_sec = 123.5;
  snapshot.queue_depth = 7;
  snapshot.submitted = 40;
  snapshot.completed = 38;
  snapshot.failed = 2;
  snapshot.cache_hits = 30;
  snapshot.cache_misses = 10;

  monitor::TimeSeriesStore store;
  const ComponentId self{1};
  engine::AppendSnapshot(snapshot, self, /*now=*/0, &store);
  snapshot.completed = 39;
  engine::AppendSnapshot(snapshot, self, /*now=*/5 * 60 * 1000, &store);

  EXPECT_EQ(store.series_count(), engine::AllEngineMetrics().size());
  const std::vector<monitor::Sample>& throughput = store.Series(
      self, engine::ToMetricId(engine::EngineMetric::kThroughputPerSec));
  ASSERT_EQ(throughput.size(), 2u);
  EXPECT_EQ(throughput[0].value, 123.5);
  const std::vector<monitor::Sample>& completed = store.Series(
      self, engine::ToMetricId(engine::EngineMetric::kCompleted));
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0].value, 38);
  EXPECT_EQ(completed[1].value, 39);
  // Hit rate is a derived gauge: 30 / (30 + 10).
  const std::vector<monitor::Sample>& hit_rate = store.Series(
      self, engine::ToMetricId(engine::EngineMetric::kResultCacheHitRate));
  ASSERT_EQ(hit_rate.size(), 2u);
  EXPECT_DOUBLE_EQ(hit_rate[0].value, 0.75);
  // The series slice like any SAN metric (the whole point).
  TimeInterval window;
  window.begin = 0;
  window.end = 10 * 60 * 1000;
  EXPECT_EQ(store
                .SliceView(self,
                           engine::ToMetricId(engine::EngineMetric::kCompleted),
                           window)
                .size(),
            2u);
}

}  // namespace
}  // namespace diads
