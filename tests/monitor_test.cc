// Unit tests for the monitoring substrate: the Figure-4 metric catalog, the
// time-series store (including the coarse-interval fallback semantics), the
// noise model with targeted overrides, and the SAN collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/rng.h"
#include "common/strings.h"
#include "monitor/metrics.h"
#include "monitor/noise.h"
#include "monitor/san_collector.h"
#include "monitor/timeseries.h"
#include "san/perf_model.h"
#include "san/topology.h"

namespace diads::monitor {
namespace {

// --- Metric catalog (Figure 4) ------------------------------------------------

TEST(MetricCatalogTest, Figure4Coverage) {
  // Figure 4 lists 11 database, 10 server, 11 network, 10 storage metrics.
  int database = 0, server = 0, network = 0, storage = 0;
  for (const MetricMeta& m : AllMetrics()) {
    if (!m.in_figure4) continue;
    switch (m.layer) {
      case MetricLayer::kDatabase:
        ++database;
        break;
      case MetricLayer::kServer:
        ++server;
        break;
      case MetricLayer::kNetwork:
        ++network;
        break;
      case MetricLayer::kStorage:
        ++storage;
        break;
    }
  }
  // Operator/plan start-stop times and record counts live in QueryRunRecord
  // rather than the time-series store, so the database column carries 8 of
  // its 11 Figure-4 rows here.
  EXPECT_EQ(database, 8);
  EXPECT_EQ(server, 10);
  EXPECT_EQ(network, 11);
  EXPECT_EQ(storage, 10);
}

TEST(MetricCatalogTest, MetaLookupConsistent) {
  for (const MetricMeta& m : AllMetrics()) {
    const MetricMeta& round_trip = GetMetricMeta(m.id);
    EXPECT_EQ(round_trip.id, m.id);
    EXPECT_STREQ(round_trip.name, m.name);
  }
}

TEST(MetricCatalogTest, MetricsForKind) {
  const std::vector<MetricId> volume_metrics =
      MetricsForKind(ComponentKind::kVolume);
  EXPECT_GE(volume_metrics.size(), 10u);
  const std::vector<MetricId> disk_metrics =
      MetricsForKind(ComponentKind::kDisk);
  EXPECT_EQ(disk_metrics.size(), 2u);
  EXPECT_TRUE(MetricsForKind(ComponentKind::kQuery).empty());
}

TEST(MetricCatalogTest, Table2ShortNames) {
  EXPECT_STREQ(MetricShortName(MetricId::kVolPhysWriteOps), "writeIO");
  EXPECT_STREQ(MetricShortName(MetricId::kVolPhysWriteTimeMs), "writeTime");
  EXPECT_STREQ(MetricShortName(MetricId::kVolPhysReadOps), "readIO");
  EXPECT_STREQ(MetricShortName(MetricId::kVolPhysReadTimeMs), "readTime");
}

// --- TimeSeriesStore -------------------------------------------------------------

TEST(TimeSeriesStoreTest, AppendAndSlice) {
  TimeSeriesStore store;
  ComponentId c{1};
  for (SimTimeMs t : {100, 200, 300, 400}) {
    ASSERT_TRUE(
        store.Append(c, MetricId::kVolTotalIos, t, static_cast<double>(t)).ok());
  }
  std::vector<Sample> slice =
      store.Slice(c, MetricId::kVolTotalIos, TimeInterval{150, 350});
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0].time, 200);
  EXPECT_EQ(slice[1].time, 300);
  EXPECT_EQ(store.total_samples(), 4u);
}

TEST(TimeSeriesStoreTest, RejectsOutOfOrderWithinSeries) {
  TimeSeriesStore store;
  ComponentId c{1};
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 200, 1).ok());
  EXPECT_FALSE(store.Append(c, MetricId::kVolTotalIos, 100, 2).ok());
  // Other series are independent.
  EXPECT_TRUE(store.Append(c, MetricId::kVolBytesRead, 100, 2).ok());
}

TEST(TimeSeriesStoreTest, MeanInIncludesCoveringTailSample) {
  // Samples are stamped at collection-interval end: a short run interval
  // [210, 240) is covered by the sample stamped at 300.
  TimeSeriesStore store;
  ComponentId c{1};
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 200, 10).ok());
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 300, 50).ok());
  Result<double> mean =
      store.MeanIn(c, MetricId::kVolTotalIos, TimeInterval{210, 240});
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(*mean, 50);
}

TEST(TimeSeriesStoreTest, MeanInAveragesInteriorAndTail) {
  TimeSeriesStore store;
  ComponentId c{1};
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 100, 10).ok());
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 200, 20).ok());
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 300, 60).ok());
  // [50, 250): samples at 100, 200 plus the tail sample at 300.
  Result<double> mean =
      store.MeanIn(c, MetricId::kVolTotalIos, TimeInterval{50, 250});
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(*mean, 30);
}

TEST(TimeSeriesStoreTest, MeanInFallsBackToStaleSample) {
  TimeSeriesStore store;
  ComponentId c{1};
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 100, 42).ok());
  Result<double> mean =
      store.MeanIn(c, MetricId::kVolTotalIos, TimeInterval{500, 600});
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(*mean, 42);
  // And errors when nothing exists at all.
  EXPECT_FALSE(
      store.MeanIn(ComponentId{2}, MetricId::kVolTotalIos, TimeInterval{0, 1})
          .ok());
}

TEST(TimeSeriesStoreTest, SliceViewMatchesSliceEverywhere) {
  TimeSeriesStore store;
  const ComponentId c{3};
  SeededRng rng(11);
  SimTimeMs t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<SimTimeMs>(rng.UniformInt(0, 400));  // Allows ties.
    ASSERT_TRUE(
        store.Append(c, MetricId::kVolBytesRead, t, rng.Normal(10, 2)).ok());
  }
  for (int q = 0; q < 300; ++q) {
    const SimTimeMs begin = static_cast<SimTimeMs>(rng.UniformInt(-100, t));
    const SimTimeMs end =
        begin + static_cast<SimTimeMs>(rng.UniformInt(0, 2000));
    const TimeInterval interval{begin, end};
    const std::vector<Sample> copy =
        store.Slice(c, MetricId::kVolBytesRead, interval);
    const SampleSpan view = store.SliceView(c, MetricId::kVolBytesRead, interval);
    ASSERT_EQ(copy.size(), view.size());
    for (size_t i = 0; i < copy.size(); ++i) {
      EXPECT_EQ(copy[i].time, view[i].time);
      EXPECT_EQ(copy[i].value, view[i].value);
    }
  }
  // Absent series and empty windows produce empty views, not UB.
  EXPECT_TRUE(store.SliceView(ComponentId{99}, MetricId::kVolBytesRead,
                              TimeInterval{0, 100})
                  .empty());
  EXPECT_TRUE(
      store.SliceView(c, MetricId::kVolBytesRead, TimeInterval{5, 5}).empty());
}

TEST(TimeSeriesStoreTest, GenerationCountsAppendsPerSeries) {
  TimeSeriesStore store;
  const ComponentId a{1}, b{2};
  EXPECT_EQ(store.Generation(a, MetricId::kVolBytesRead), 0u);
  ASSERT_TRUE(store.Append(a, MetricId::kVolBytesRead, 10, 1.0).ok());
  ASSERT_TRUE(store.Append(a, MetricId::kVolBytesRead, 20, 2.0).ok());
  ASSERT_TRUE(store.Append(a, MetricId::kVolBytesWritten, 10, 3.0).ok());
  EXPECT_EQ(store.Generation(a, MetricId::kVolBytesRead), 2u);
  EXPECT_EQ(store.Generation(a, MetricId::kVolBytesWritten), 1u);
  EXPECT_EQ(store.Generation(b, MetricId::kVolBytesRead), 0u);
  // A rejected append (time regression) does not advance the generation.
  EXPECT_FALSE(store.Append(a, MetricId::kVolBytesRead, 5, 4.0).ok());
  EXPECT_EQ(store.Generation(a, MetricId::kVolBytesRead), 2u);
}

// --- AppendSamples (bulk append) ---------------------------------------------

const ComponentId kBulkComponents[] = {ComponentId{1}, ComponentId{2},
                                       ComponentId{3}};
const MetricId kBulkMetrics[] = {MetricId::kVolTotalIos,
                                 MetricId::kVolBytesRead,
                                 MetricId::kVolBytesWritten};

/// Everything a TimeSeriesStore exposes about the series a bulk-append
/// test can touch, as text (doubles in hex, so equal text is equal bits).
std::string DumpStore(const TimeSeriesStore& store) {
  std::string out = StrFormat(
      "store_gen=%llu total=%zu series=%zu\n",
      static_cast<unsigned long long>(store.StoreGeneration()),
      store.total_samples(), store.series_count());
  for (ComponentId c : kBulkComponents) {
    out += StrFormat("C%u component_gen=%llu metrics=", c.value,
                     static_cast<unsigned long long>(
                         store.ComponentGeneration(c)));
    for (MetricId m : store.MetricsFor(c)) {
      out += StrFormat("%d,", static_cast<int>(m));
    }
    out += "\n";
    for (MetricId m : kBulkMetrics) {
      out += StrFormat(" m%d gen=%llu:", static_cast<int>(m),
                       static_cast<unsigned long long>(
                           store.Generation(c, m)));
      for (const Sample& sample : store.Series(c, m)) {
        out += StrFormat(" %lld=%a", static_cast<long long>(sample.time),
                         sample.value);
      }
      out += "\n";
    }
  }
  return out;
}

/// Records each OnAppend call with the store-wide counter it saw.
class RecordingListener : public AppendListener {
 public:
  explicit RecordingListener(const TimeSeriesStore* store) : store_(store) {}

  void OnAppend(ComponentId component, MetricId metric, const Sample& sample,
                uint64_t series_generation, uint32_t series_ordinal) override {
    calls.push_back(StrFormat(
        "C%u m%d %lld=%a gen=%llu ordinal=%u store_gen=%llu",
        component.value, static_cast<int>(metric),
        static_cast<long long>(sample.time), sample.value,
        static_cast<unsigned long long>(series_generation), series_ordinal,
        static_cast<unsigned long long>(store_->StoreGeneration())));
  }

  std::vector<std::string> calls;

 private:
  const TimeSeriesStore* store_;
};

/// One run of samples bound for one series.
struct SampleRun {
  ComponentId component;
  MetricId metric;
  std::vector<Sample> samples;
};

/// Random time-ordered series (ties allowed) cut into random runs, some
/// empty, interleaved across series while each series keeps its order.
std::vector<SampleRun> RandomRuns(SeededRng& rng) {
  std::vector<std::vector<SampleRun>> per_series;
  for (ComponentId c : kBulkComponents) {
    for (MetricId m : kBulkMetrics) {
      const int length = static_cast<int>(rng.UniformInt(0, 40));
      SimTimeMs t = rng.UniformInt(0, 1000);
      std::vector<SampleRun> runs;
      for (int i = 0; i < length;) {
        SampleRun run{c, m, {}};
        const int run_length = static_cast<int>(rng.UniformInt(0, 12));
        for (int k = 0; k < run_length && i < length; ++k, ++i) {
          t += rng.UniformInt(0, 300);
          run.samples.push_back(Sample{t, rng.Normal(100, 30)});
        }
        runs.push_back(std::move(run));
      }
      if (!runs.empty()) per_series.push_back(std::move(runs));
    }
  }
  std::vector<SampleRun> out;
  std::vector<size_t> next(per_series.size(), 0);
  size_t left = per_series.size();
  while (left > 0) {
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(per_series.size()) - 1));
    if (next[pick] == per_series[pick].size()) continue;
    out.push_back(per_series[pick][next[pick]++]);
    if (next[pick] == per_series[pick].size()) --left;
  }
  return out;
}

TEST(TimeSeriesStoreTest, AppendSamplesMatchesPerSampleAppends) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    SeededRng rng(seed);
    const std::vector<SampleRun> runs = RandomRuns(rng);
    // Half the seeds run with listeners installed: per-sample delivery is
    // then part of what must match.
    const bool listen = seed % 2 == 0;
    TimeSeriesStore per_sample, bulk;
    RecordingListener per_sample_listener(&per_sample);
    RecordingListener bulk_listener(&bulk);
    if (listen) {
      per_sample.SetAppendListener(&per_sample_listener);
      bulk.SetAppendListener(&bulk_listener);
    }
    for (const SampleRun& run : runs) {
      for (const Sample& sample : run.samples) {
        ASSERT_TRUE(per_sample
                        .Append(run.component, run.metric, sample.time,
                                sample.value)
                        .ok());
      }
      ASSERT_TRUE(
          bulk.AppendSamples(run.component, run.metric, run.samples).ok());
      ASSERT_EQ(DumpStore(per_sample), DumpStore(bulk));

      // A rejected run leaves the store exactly as it was.
      const std::vector<Sample>& series = bulk.Series(run.component,
                                                      run.metric);
      if (series.empty()) continue;
      const Sample tail = series.back();
      const std::vector<Sample> out_of_order = {
          {tail.time + 10, 1.0}, {tail.time + 5, 2.0}};
      const std::vector<Sample> older_than_tail = {{tail.time - 1, 3.0},
                                                   {tail.time + 1, 4.0}};
      const std::string before = DumpStore(bulk);
      const size_t calls_before = bulk_listener.calls.size();
      for (const std::vector<Sample>& bad : {out_of_order, older_than_tail}) {
        const Status status =
            bulk.AppendSamples(run.component, run.metric, bad);
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(DumpStore(bulk), before);
        EXPECT_EQ(bulk_listener.calls.size(), calls_before);
      }
    }
    EXPECT_EQ(per_sample_listener.calls, bulk_listener.calls);
    if (listen) {
      EXPECT_EQ(bulk_listener.calls.size(), bulk.total_samples());
    }
  }
}

TEST(TimeSeriesStoreTest, AppendSamplesRejectsDisorderedNewSeries) {
  TimeSeriesStore store;
  RecordingListener listener(&store);
  store.SetAppendListener(&listener);
  const ComponentId c{1};
  EXPECT_EQ(store
                .AppendSamples(c, MetricId::kVolTotalIos,
                               {{200, 1.0}, {100, 2.0}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.series_count(), 0u);
  EXPECT_EQ(store.StoreGeneration(), 0u);
  EXPECT_TRUE(store.MetricsFor(c).empty());
  EXPECT_TRUE(listener.calls.empty());
  // An empty run is a no-op that creates no series.
  EXPECT_TRUE(store.AppendSamples(c, MetricId::kVolTotalIos, {}).ok());
  EXPECT_EQ(store.series_count(), 0u);
}

// --- MeanIn -------------------------------------------------------------------

/// MeanIn's semantics spelled out sample by sample: the in-window samples
/// in order, then the first sample at or after interval.end (also for an
/// inverted interval, whose window is empty); with neither, the newest
/// sample at or before interval.begin.
Result<double> NaiveMeanIn(const std::vector<Sample>& series,
                           const TimeInterval& interval) {
  double sum = 0;
  size_t count = 0;
  for (const Sample& s : series) {
    if (s.time >= interval.begin && s.time < interval.end) {
      sum += s.value;
      ++count;
    }
  }
  for (const Sample& s : series) {
    if (s.time >= interval.end) {
      sum += s.value;
      ++count;
      break;
    }
  }
  if (count > 0) return sum / static_cast<double>(count);
  const Sample* latest = nullptr;
  for (const Sample& s : series) {
    if (s.time <= interval.begin) latest = &s;
  }
  if (latest == nullptr) return Status::NotFound("no sample");
  return latest->value;
}

TEST(TimeSeriesStoreTest, MeanInMatchesNaiveReference) {
  constexpr SimTimeMs kPeriod = 300;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    SeededRng rng(seed);
    TimeSeriesStore store;
    const ComponentId c{1};
    // Seed 1 leaves the series empty.
    const int length =
        seed == 1 ? 0 : static_cast<int>(rng.UniformInt(1, 60));
    SimTimeMs t = rng.UniformInt(0, 1000);
    for (int i = 0; i < length; ++i) {
      // Mostly one sampling period apart, with jitter, ties and gaps.
      t += rng.Bernoulli(0.1) ? 0 : kPeriod + rng.UniformInt(-50, 400);
      ASSERT_TRUE(
          store.Append(c, MetricId::kVolTotalIos, t, rng.Normal(50, 20)).ok());
    }
    const std::vector<Sample>& series =
        store.Series(c, MetricId::kVolTotalIos);
    const SimTimeMs first = series.empty() ? 0 : series.front().time;
    const SimTimeMs last = series.empty() ? 0 : series.back().time;
    std::vector<TimeInterval> intervals = {
        {first - 2000, first - 100},  // Before every sample.
        {last + 1, last + 2000},      // After every sample.
        {first, first},               // Zero-length, on a sample.
        {last + 7, last + 7},         // Zero-length, past the end.
        {first + 100, first + 200},   // Shorter than a sampling period.
        {last, first},                // Inverted.
        {first, last},
        {first, last + 1},
    };
    for (int q = 0; q < 200; ++q) {
      const SimTimeMs a = rng.UniformInt(first - 1000, last + 1000);
      // Lengths from -1500 (inverted) up to three sampling periods.
      const SimTimeMs b = a + rng.UniformInt(-1500, 3 * kPeriod);
      intervals.push_back(TimeInterval{a, b});
      // Edges on sample times.
      if (!series.empty()) {
        const size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(series.size()) - 1));
        const size_t j = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(series.size()) - 1));
        intervals.push_back(TimeInterval{series[i].time, series[j].time});
      }
    }
    // One cursor over the intervals as drawn (moving back and forth) and
    // one over them sorted by start (the forward sweep per-run means use).
    std::vector<TimeInterval> ascending = intervals;
    std::stable_sort(ascending.begin(), ascending.end(),
                     [](const TimeInterval& a, const TimeInterval& b) {
                       return a.begin < b.begin;
                     });
    MeanCursor any_order(series);
    MeanCursor forward(series);
    for (size_t q = 0; q < intervals.size(); ++q) {
      const TimeInterval& interval = intervals[q];
      SCOPED_TRACE(StrFormat("[%lld, %lld)",
                             static_cast<long long>(interval.begin),
                             static_cast<long long>(interval.end)));
      const Result<double> expected = NaiveMeanIn(series, interval);
      const Result<double> resolved = MeanIn(series, interval);
      const Result<double> by_key =
          store.MeanIn(c, MetricId::kVolTotalIos, interval);
      double cursor_mean = 0;
      ASSERT_EQ(resolved.ok(), expected.ok());
      ASSERT_EQ(by_key.ok(), expected.ok());
      ASSERT_EQ(any_order.MeanIn(interval, &cursor_mean), expected.ok());
      if (expected.ok()) {
        EXPECT_EQ(*resolved, *expected);
        EXPECT_EQ(*by_key, *expected);
        EXPECT_EQ(cursor_mean, *expected);
      }
      const Result<double> sorted_expected =
          NaiveMeanIn(series, ascending[q]);
      ASSERT_EQ(forward.MeanIn(ascending[q], &cursor_mean),
                sorted_expected.ok());
      if (sorted_expected.ok()) {
        EXPECT_EQ(cursor_mean, *sorted_expected);
      }
    }
  }
}

// A NaN sample would break every sort over the data (KDE fits, midranks),
// an infinity every mean. Both entry points refuse them and leave the
// store, its counters and a listener untouched.
TEST(TimeSeriesStoreTest, RejectsNonFiniteSamples) {
  const ComponentId c{1};
  const MetricId m = MetricId::kVolTotalIos;
  const double kBad[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (const bool listen : {false, true}) {
    SCOPED_TRACE(listen ? "with listener" : "without listener");
    TimeSeriesStore store;
    RecordingListener listener(&store);
    if (listen) store.SetAppendListener(&listener);
    // A fresh store: nothing may be created.
    for (double bad : kBad) {
      EXPECT_EQ(store.Append(c, m, 100, bad).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(store.AppendSamples(c, m, {{100, 1.0}, {200, bad}}).code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(store.series_count(), 0u);
    EXPECT_EQ(store.StoreGeneration(), 0u);
    EXPECT_TRUE(store.MetricsFor(c).empty());
    EXPECT_TRUE(listener.calls.empty());

    // An existing series: the whole run is refused, its finite prefix too.
    ASSERT_TRUE(store.Append(c, m, 50, 2.0).ok());
    const std::string before = DumpStore(store);
    const uint64_t generation = store.Generation(c, m);
    const size_t calls = listener.calls.size();
    for (double bad : kBad) {
      EXPECT_EQ(store.Append(c, m, 100, bad).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(store
                    .AppendSamples(c, m, {{100, 1.0}, {200, bad}, {300, 3.0}})
                    .code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(DumpStore(store), before);
    EXPECT_EQ(store.Generation(c, m), generation);
    EXPECT_EQ(listener.calls.size(), calls);
    // Large finite values are still measurements.
    EXPECT_TRUE(store.Append(c, m, 400, 1e308).ok());
  }
}

TEST(SeriesKeyHashTest, SpreadsMetricFamiliesAcrossBuckets) {
  // The regression this guards: the old hash (component * 1000003 ^ metric)
  // placed a component's whole metric family on consecutive buckets, so
  // families collided wholesale under small power-of-two tables. Hash a
  // realistic key population and require both near-full bucket coverage
  // and a small maximum load.
  const int components = 128;
  const int metrics = 32;
  const size_t buckets = 4096;  // Power of two: worst case for weak mixing.
  std::vector<int> load(buckets, 0);
  SeriesKeyHash hash;
  for (int c = 0; c < components; ++c) {
    for (int m = 0; m < metrics; ++m) {
      const SeriesKey key{ComponentId{static_cast<uint32_t>(c)},
                          static_cast<MetricId>(m)};
      ++load[hash(key) % buckets];
    }
  }
  int used = 0;
  int max_load = 0;
  for (int l : load) {
    if (l > 0) ++used;
    max_load = std::max(max_load, l);
  }
  // 4096 keys into 4096 buckets: a uniform hash fills ~63% of buckets and
  // the expected max load is ~6-7. Allow slack, but far below the old
  // hash's family-sized pileups (32+ per bucket).
  EXPECT_GE(used, static_cast<int>(buckets) / 2);
  EXPECT_LE(max_load, 12);
  // Adjacent metrics of one component must not land in adjacent buckets.
  const SeriesKeyHash h;
  int adjacent = 0;
  for (int m = 0; m + 1 < metrics; ++m) {
    const size_t b1 = h(SeriesKey{ComponentId{7}, static_cast<MetricId>(m)});
    const size_t b2 =
        h(SeriesKey{ComponentId{7}, static_cast<MetricId>(m + 1)});
    if (b1 % buckets + 1 == b2 % buckets) ++adjacent;
  }
  EXPECT_LE(adjacent, 3);
}

TEST(TimeSeriesStoreTest, LatestAtOrBefore) {
  TimeSeriesStore store;
  ComponentId c{1};
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 100, 1).ok());
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 200, 2).ok());
  EXPECT_DOUBLE_EQ(store.LatestAtOrBefore(c, MetricId::kVolTotalIos, 150)->value,
                   1);
  EXPECT_DOUBLE_EQ(store.LatestAtOrBefore(c, MetricId::kVolTotalIos, 200)->value,
                   2);
  EXPECT_FALSE(store.LatestAtOrBefore(c, MetricId::kVolTotalIos, 50).ok());
}

TEST(TimeSeriesStoreTest, MetricsForComponent) {
  TimeSeriesStore store;
  ComponentId c{1};
  ASSERT_TRUE(store.Append(c, MetricId::kVolTotalIos, 100, 1).ok());
  ASSERT_TRUE(store.Append(c, MetricId::kVolBytesRead, 100, 1).ok());
  EXPECT_EQ(store.MetricsFor(c).size(), 2u);
  EXPECT_TRUE(store.MetricsFor(ComponentId{9}).empty());
}

/// MetricsFor as a scan over every series: the reference the indexed
/// per-component lists must match.
std::vector<MetricId> ScannedMetricsFor(const TimeSeriesStore& store,
                                        ComponentId component) {
  std::vector<MetricId> out;
  store.ForEachSeries([&](ComponentId c, MetricId metric,
                          const std::vector<Sample>&) {
    if (c == component) out.push_back(metric);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TimeSeriesStoreTest, MetricsForMatchesScanOfRandomStore) {
  const std::vector<MetricMeta>& catalog = AllMetrics();
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    SeededRng rng(seed);
    TimeSeriesStore store;
    // Odd seeds route AppendSamples through its per-sample listener path.
    RecordingListener listener(&store);
    if (seed % 2 == 1) store.SetAppendListener(&listener);
    for (int op = 0; op < 300; ++op) {
      const ComponentId c{static_cast<uint32_t>(rng.UniformInt(0, 5))};
      const MetricId m =
          catalog[static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(catalog.size()) - 1))]
              .id;
      const std::vector<Sample>& series = store.Series(c, m);
      const SimTimeMs last = series.empty() ? 0 : series.back().time;
      const double kind = rng.Uniform();
      if (kind < 0.35) {
        // A single sample; one in five lands before the series' end, which
        // an existing series rejects.
        const SimTimeMs t =
            rng.Bernoulli(0.2) ? last - 1 : last + rng.UniformInt(0, 300);
        (void)store.Append(c, m, t, rng.Normal(10, 3));
      } else if (kind < 0.75) {
        // A time-ordered run of 0-5 samples (an empty run creates nothing).
        std::vector<Sample> run;
        SimTimeMs t = last;
        for (int64_t i = rng.UniformInt(0, 5); i > 0; --i) {
          t += rng.UniformInt(0, 300);
          run.push_back(Sample{t, rng.Normal(10, 3)});
        }
        ASSERT_TRUE(store.AppendSamples(c, m, std::move(run)).ok());
      } else {
        // A run out of order internally: rejected, and its metric must
        // not appear if the series did not exist.
        const SimTimeMs t = last + 500;
        EXPECT_EQ(store.AppendSamples(c, m, {{t, 1.0}, {t - 100, 2.0}})
                      .code(),
                  StatusCode::kInvalidArgument);
      }
      for (uint32_t v = 0; v <= 6; ++v) {
        const ComponentId component{v};
        ASSERT_EQ(store.MetricsFor(component),
                  ScannedMetricsFor(store, component))
            << "component " << v << " after op " << op;
      }
    }
  }
}

// --- NoiseModel ---------------------------------------------------------------------

TEST(NoiseModelTest, DefaultGaussianJitter) {
  NoiseModel noise(NoiseSpec{0.1, 0, 3.0, 0, 0}, SeededRng(5));
  double sum = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    sum = sum + *noise.Apply(ComponentId{1}, MetricId::kVolTotalIos, 0, 100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(NoiseModelTest, DropoutDropsSamples) {
  NoiseModel noise(NoiseSpec{0, 0, 3.0, 0.5, 0}, SeededRng(7));
  int dropped = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!noise.Apply(ComponentId{1}, MetricId::kVolTotalIos, 0, 1.0)) {
      ++dropped;
    }
  }
  EXPECT_NEAR(dropped / 2000.0, 0.5, 0.05);
}

TEST(NoiseModelTest, BiasShiftsValues) {
  NoiseModel noise(NoiseSpec{0, 0, 3.0, 0, 1.5}, SeededRng(9));
  EXPECT_DOUBLE_EQ(
      *noise.Apply(ComponentId{1}, MetricId::kVolTotalIos, 0, 10.0), 25.0);
}

TEST(NoiseModelTest, TargetedOverrideWins) {
  NoiseModel noise(NoiseSpec{0, 0, 3.0, 0, 0}, SeededRng(11));
  NoiseOverride override_spec;
  override_spec.component = ComponentId{7};
  override_spec.metric = MetricId::kVolPhysWriteTimeMs;
  override_spec.window = TimeInterval{100, 200};
  override_spec.spec = NoiseSpec{0, 0, 3.0, 0, 2.0};  // +200%.
  noise.AddOverride(override_spec);

  // Matching component+metric+time: biased.
  EXPECT_DOUBLE_EQ(
      *noise.Apply(ComponentId{7}, MetricId::kVolPhysWriteTimeMs, 150, 10.0),
      30.0);
  // Wrong time: clean.
  EXPECT_DOUBLE_EQ(
      *noise.Apply(ComponentId{7}, MetricId::kVolPhysWriteTimeMs, 250, 10.0),
      10.0);
  // Wrong metric: clean.
  EXPECT_DOUBLE_EQ(
      *noise.Apply(ComponentId{7}, MetricId::kVolPhysReadOps, 150, 10.0),
      10.0);
  // Wrong component: clean.
  EXPECT_DOUBLE_EQ(
      *noise.Apply(ComponentId{8}, MetricId::kVolPhysWriteTimeMs, 150, 10.0),
      10.0);
}

TEST(NoiseModelTest, LaterOverrideWinsOnOverlap) {
  NoiseModel noise(NoiseSpec{0, 0, 3.0, 0, 0}, SeededRng(13));
  NoiseOverride first;
  first.window = TimeInterval{0, 100};
  first.spec = NoiseSpec{0, 0, 3.0, 0, 1.0};
  noise.AddOverride(first);
  NoiseOverride second;
  second.window = TimeInterval{0, 100};
  second.spec = NoiseSpec{0, 0, 3.0, 0, 3.0};
  noise.AddOverride(second);
  EXPECT_DOUBLE_EQ(
      *noise.Apply(ComponentId{1}, MetricId::kVolTotalIos, 50, 1.0), 4.0);
}

// --- SanCollector ----------------------------------------------------------------

struct CollectorFixture {
  ComponentRegistry registry;
  san::SanTopology topology{&registry};
  san::SanPerfModel model{&topology};
  TimeSeriesStore store;
  NoiseModel noise{NoiseSpec{0, 0, 3.0, 0, 0}, SeededRng(1)};
  EventLog events;
  ComponentId volume, server;

  CollectorFixture() {
    server = topology.AddServer("srv", "Linux").value();
    ComponentId ss = topology.AddSubsystem("ss", "X").value();
    ComponentId pool = topology.AddPool("p", ss, san::RaidLevel::kRaid5).value();
    EXPECT_TRUE(topology.AddDisk("d1", pool).ok());
    EXPECT_TRUE(topology.AddDisk("d2", pool).ok());
    volume = topology.AddVolume("V", pool, 100).value();
  }
};

TEST(SanCollectorTest, EmitsAllVolumeMetricsPerInterval) {
  CollectorFixture f;
  SanCollector collector(&f.topology, &f.model, &f.store, &f.noise, &f.events,
                         SanCollectorConfig{Minutes(5), 0, 0});
  ASSERT_TRUE(collector.CollectRange(0, Minutes(15)).ok());
  // 3 intervals x 12 volume metrics.
  int volume_samples = 0;
  for (MetricId metric : f.store.MetricsFor(f.volume)) {
    volume_samples +=
        static_cast<int>(f.store.Series(f.volume, metric).size());
  }
  EXPECT_EQ(volume_samples, 3 * 12);
  // Server and disk series exist too.
  EXPECT_FALSE(f.store.MetricsFor(f.server).empty());
}

TEST(SanCollectorTest, SamplesReflectLoad) {
  CollectorFixture f;
  san::LoadEvent load;
  load.volume = f.volume;
  load.interval = TimeInterval{0, Minutes(10)};
  load.profile.read_iops = 100;
  ASSERT_TRUE(f.model.AddLoad(load).ok());
  SanCollector collector(&f.topology, &f.model, &f.store, &f.noise, &f.events,
                         SanCollectorConfig{Minutes(5), 0, 0});
  ASSERT_TRUE(collector.CollectRange(0, Minutes(10)).ok());
  const std::vector<Sample>& series =
      f.store.Series(f.volume, MetricId::kVolTotalIos);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_NEAR(series[0].value, 100, 1e-6);
}

TEST(SanCollectorTest, LatencyTriggerLogsEvent) {
  CollectorFixture f;
  // Saturate the two-disk pool so read latency exceeds the trigger.
  san::LoadEvent load;
  load.volume = f.volume;
  load.interval = TimeInterval{0, Minutes(10)};
  load.profile.read_iops = 300;
  load.profile.write_iops = 100;
  ASSERT_TRUE(f.model.AddLoad(load).ok());
  SanCollector collector(&f.topology, &f.model, &f.store, &f.noise, &f.events,
                         SanCollectorConfig{Minutes(5), 25.0, 0.85});
  ASSERT_TRUE(collector.CollectRange(0, Minutes(10)).ok());
  EXPECT_FALSE(f.events
                   .EventsOfTypeIn(EventType::kVolumePerfDegraded,
                                   TimeInterval{0, Minutes(10)})
                   .empty());
}

TEST(SanCollectorTest, RejectsEmptyRange) {
  CollectorFixture f;
  SanCollector collector(&f.topology, &f.model, &f.store, &f.noise, &f.events);
  EXPECT_FALSE(collector.CollectRange(100, 100).ok());
}

// A zero or negative interval never advances the sampling cursor: the
// collector must refuse it instead of looping forever.
TEST(SanCollectorTest, RejectsNonPositiveSamplingInterval) {
  for (SimTimeMs interval : {SimTimeMs{0}, -Minutes(5)}) {
    CollectorFixture f;
    SanCollector collector(&f.topology, &f.model, &f.store, &f.noise,
                           &f.events, SanCollectorConfig{interval, 0, 0});
    const Status status = collector.CollectRange(0, Minutes(15));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ(f.store.total_samples(), 0u);
  }
}

}  // namespace
}  // namespace diads::monitor
