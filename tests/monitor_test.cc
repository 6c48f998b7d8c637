// Unit tests for the monitoring substrate: the Figure-4 metric catalog, the
// time-series store (including the coarse-interval fallback semantics), the
// noise model with targeted overrides, and the SAN collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
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
  const SampleSpan slice =
      store.SliceView(c, MetricId::kVolTotalIos, TimeInterval{150, 350});
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

TEST(TimeSeriesStoreTest, SliceViewMatchesFilterEverywhere) {
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
    std::vector<Sample> expected;
    for (const Sample& s : store.Series(c, MetricId::kVolBytesRead)) {
      if (s.time >= begin && s.time < end) expected.push_back(s);
    }
    const SampleSpan view = store.SliceView(c, MetricId::kVolBytesRead, interval);
    ASSERT_EQ(expected.size(), view.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].time, view[i].time);
      EXPECT_EQ(expected[i].value, view[i].value);
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

// --- AdoptSeries (bulk adoption of a pinned series) --------------------------

const ComponentId kBulkComponents[] = {ComponentId{1}, ComponentId{2},
                                       ComponentId{3}};
const MetricId kBulkMetrics[] = {MetricId::kVolTotalIos,
                                 MetricId::kVolBytesRead,
                                 MetricId::kVolBytesWritten};

/// Samples as text (doubles in hex, so equal text is equal bits).
std::string DumpSamples(const std::vector<Sample>& samples) {
  std::string out;
  for (const Sample& sample : samples) {
    out += StrFormat(" %lld=%a", static_cast<long long>(sample.time),
                     sample.value);
  }
  return out;
}

/// Everything a TimeSeriesStore exposes about the series an adoption
/// test can touch, as text.
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
      out += DumpSamples(store.Series(c, m)) + "\n";
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

/// A run as a pinned series: written into a store of its own (which
/// validates it, as any source does) and pinned there. The pin outlives
/// that store.
PinnedSeries PinRun(const SampleRun& run) {
  TimeSeriesStore source;
  for (const Sample& sample : run.samples) {
    EXPECT_TRUE(
        source.Append(run.component, run.metric, sample.time, sample.value)
            .ok());
  }
  return source.Pin(run.component, run.metric);
}

TEST(TimeSeriesStoreTest, AdoptSeriesMatchesPerSampleAppends) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    SeededRng rng(seed);
    const std::vector<SampleRun> runs = RandomRuns(rng);
    // Half the seeds run with listeners installed: per-sample delivery is
    // then part of what must match.
    const bool listen = seed % 2 == 0;
    TimeSeriesStore per_sample, adopted;
    RecordingListener per_sample_listener(&per_sample);
    RecordingListener adopted_listener(&adopted);
    if (listen) {
      per_sample.SetAppendListener(&per_sample_listener);
      adopted.SetAppendListener(&adopted_listener);
    }
    for (const SampleRun& run : runs) {
      for (const Sample& sample : run.samples) {
        ASSERT_TRUE(per_sample
                        .Append(run.component, run.metric, sample.time,
                                sample.value)
                        .ok());
      }
      ASSERT_TRUE(
          adopted.AdoptSeries(run.component, run.metric, PinRun(run)).ok());
      ASSERT_EQ(DumpStore(per_sample), DumpStore(adopted));

      // A pinned run that starts before the series' last sample is
      // refused and leaves the store exactly as it was.
      const std::vector<Sample>& series = adopted.Series(run.component,
                                                         run.metric);
      if (series.empty()) continue;
      const Sample tail = series.back();
      const SampleRun older_than_tail{
          run.component,
          run.metric,
          {{tail.time - 1, 3.0}, {tail.time + 1, 4.0}}};
      const std::string before = DumpStore(adopted);
      const size_t calls_before = adopted_listener.calls.size();
      EXPECT_EQ(adopted
                    .AdoptSeries(run.component, run.metric,
                                 PinRun(older_than_tail))
                    .code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(DumpStore(adopted), before);
      EXPECT_EQ(adopted_listener.calls.size(), calls_before);
    }
    EXPECT_EQ(per_sample_listener.calls, adopted_listener.calls);
    if (listen) {
      EXPECT_EQ(adopted_listener.calls.size(), adopted.total_samples());
    }
  }
}

TEST(TimeSeriesStoreTest, EmptyPinsAdoptNothing) {
  TimeSeriesStore store;
  RecordingListener listener(&store);
  store.SetAppendListener(&listener);
  const ComponentId c{1};
  // Absent and reserved-but-empty series pin as empty, and an empty pin
  // is a no-op that creates no series.
  store.Reserve(c, MetricId::kVolBytesRead, 4);
  EXPECT_TRUE(store.Pin(c, MetricId::kVolTotalIos).empty());
  EXPECT_TRUE(store.Pin(c, MetricId::kVolBytesRead).empty());
  EXPECT_TRUE(store.AdoptSeries(c, MetricId::kVolTotalIos, PinnedSeries())
                  .ok());
  EXPECT_TRUE(store
                  .AdoptSeries(c, MetricId::kVolTotalIos,
                               store.Pin(c, MetricId::kVolBytesRead))
                  .ok());
  EXPECT_EQ(store.series_count(), 0u);
  EXPECT_EQ(store.StoreGeneration(), 0u);
  EXPECT_TRUE(store.MetricsFor(c).empty());
  EXPECT_TRUE(listener.calls.empty());
}

// --- Pinned series: copy-on-write, and Reserve -------------------------------

// A pin is a snapshot. Whatever the store writes afterwards — to the
// pinned series, to another pinned series, to series it creates later,
// with or without a listener — and whatever a store that adopted the pin
// writes, the pinned buffer keeps its samples, address and generation.
TEST(TimeSeriesStoreTest, PinnedSeriesNeverChangesAfterWrites) {
  const ComponentId a{1}, b{2};
  const MetricId m1 = MetricId::kVolTotalIos, m2 = MetricId::kVolBytesRead;
  for (const bool listen : {false, true}) {
    SCOPED_TRACE(listen ? "with listener" : "without listener");
    TimeSeriesStore store;
    RecordingListener listener(&store);
    if (listen) store.SetAppendListener(&listener);
    for (SimTimeMs t = 100; t <= 500; t += 100) {
      ASSERT_TRUE(store.Append(a, m1, t, static_cast<double>(t)).ok());
    }
    ASSERT_TRUE(store.Append(a, m2, 100, 1.0).ok());
    const PinnedSeries pinned = store.Pin(a, m1);
    const PinnedSeries other = store.Pin(a, m2);
    const std::string contents = DumpSamples(pinned.samples());
    const Sample* data = pinned.samples().data();
    EXPECT_EQ(pinned.generation(), 5u);
    EXPECT_EQ(data, store.Series(a, m1).data());  // Shared, not copied.

    TimeSeriesStore snapshot;
    ASSERT_TRUE(snapshot.AdoptSeries(a, m1, pinned).ok());
    EXPECT_EQ(snapshot.Series(a, m1).data(), data);
    EXPECT_EQ(snapshot.Generation(a, m1), 5u);
    EXPECT_EQ(snapshot.StoreGeneration(), 5u);

    for (SimTimeMs t = 600; t <= 2000; t += 100) {
      ASSERT_TRUE(store.Append(a, m1, t, 1.0).ok());
      ASSERT_TRUE(store.Append(a, m2, t, 2.0).ok());
      ASSERT_TRUE(store.Append(b, m1, t, 3.0).ok());
    }
    store.Reserve(a, m1, 1000);
    ASSERT_TRUE(snapshot.Append(a, m1, 600, 4.0).ok());

    EXPECT_EQ(DumpSamples(pinned.samples()), contents);
    EXPECT_EQ(pinned.samples().data(), data);
    EXPECT_EQ(pinned.generation(), 5u);
    EXPECT_EQ(other.samples().size(), 1u);
    EXPECT_EQ(store.Series(a, m1).size(), 20u);
    EXPECT_EQ(DumpSamples(store.Series(a, m1)).substr(0, contents.size()),
              contents);
    EXPECT_EQ(snapshot.Series(a, m1).size(), 6u);

    // A series created after the first pins behaves the same.
    const PinnedSeries later = store.Pin(b, m1);
    const std::string later_contents = DumpSamples(later.samples());
    ASSERT_TRUE(store.Append(b, m1, 5000, 9.0).ok());
    EXPECT_EQ(DumpSamples(later.samples()), later_contents);
    EXPECT_EQ(store.Series(b, m1).size(), later.samples().size() + 1);
    if (listen) {
      EXPECT_EQ(listener.calls.size(), store.total_samples());
    }
  }
}

// Pins are read on other threads while the store writes: four readers
// pin two series at once (the pinned flag is shared), then walk their
// pins while the owning thread appends to those series, to other series
// and to new ones. Every reader keeps seeing what it pinned. CI runs this
// under TSan, which also checks that no pinned buffer is written.
TEST(TimeSeriesStoreTest, PinnedSeriesAreReadSafelyWhileTheStoreWrites) {
  TimeSeriesStore store;
  const ComponentId c{1};
  const MetricId metrics[] = {MetricId::kVolTotalIos, MetricId::kVolBytesRead};
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(store.Append(c, metrics[0], i * 100, i).ok());
    ASSERT_TRUE(store.Append(c, metrics[1], i * 100, 2.0 * i).ok());
  }
  const std::string expected[] = {DumpSamples(store.Series(c, metrics[0])),
                                  DumpSamples(store.Series(c, metrics[1]))};

  constexpr int kReaders = 4;
  std::atomic<int> pinned{0};
  std::atomic<bool> written{false};
  int mismatches[kReaders] = {};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const PinnedSeries pin = store.Pin(c, metrics[r % 2]);
      pinned.fetch_add(1);
      do {
        if (DumpSamples(pin.samples()) != expected[r % 2]) ++mismatches[r];
      } while (!written.load());
    });
  }
  while (pinned.load() < kReaders) std::this_thread::yield();
  for (int i = 256; i < 1256; ++i) {
    EXPECT_TRUE(store.Append(c, metrics[0], i * 100, i).ok());
    EXPECT_TRUE(store.Append(c, metrics[1], i * 100, 2.0 * i).ok());
    EXPECT_TRUE(store
                    .Append(ComponentId{static_cast<uint32_t>(2 + i)},
                            metrics[0], i * 100, 1.0)
                    .ok());
  }
  written.store(true);
  for (std::thread& reader : readers) reader.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(mismatches[r], 0) << r;
  EXPECT_EQ(store.Series(c, metrics[0]).size(), 1256u);
}

// Copy-on-write copies a pinned buffer once, on the first write after the
// pin, and keeps its capacity; later writes go to the copy in place, also
// once the pin is released. The next pin starts the cycle again.
TEST(TimeSeriesStoreTest, FirstWriteAfterPinCopiesOnce) {
  TimeSeriesStore store;
  const ComponentId c{1};
  const MetricId m = MetricId::kVolTotalIos;
  store.Reserve(c, m, 16);
  for (SimTimeMs t : {100, 200, 300}) {
    ASSERT_TRUE(store.Append(c, m, t, 1.0).ok());
  }
  const Sample* original = store.Series(c, m).data();
  const Sample* copy = nullptr;
  {
    const PinnedSeries pinned = store.Pin(c, m);
    ASSERT_TRUE(store.Append(c, m, 400, 2.0).ok());
    copy = store.Series(c, m).data();
    EXPECT_NE(copy, original);
    EXPECT_EQ(pinned.samples().data(), original);
    EXPECT_EQ(pinned.samples().size(), 3u);
    EXPECT_EQ(store.Series(c, m).capacity(), 16u);
    for (SimTimeMs t : {500, 600, 700}) {
      ASSERT_TRUE(store.Append(c, m, t, 3.0).ok());
      EXPECT_EQ(store.Series(c, m).data(), copy);
    }
  }
  ASSERT_TRUE(store.Append(c, m, 800, 4.0).ok());
  EXPECT_EQ(store.Series(c, m).data(), copy);

  const PinnedSeries again = store.Pin(c, m);
  ASSERT_TRUE(store.Append(c, m, 900, 5.0).ok());
  EXPECT_NE(store.Series(c, m).data(), copy);
  const Sample* second_copy = store.Series(c, m).data();
  ASSERT_TRUE(store.Append(c, m, 1000, 6.0).ok());
  EXPECT_EQ(store.Series(c, m).data(), second_copy);
  EXPECT_EQ(again.samples().size(), 8u);
  EXPECT_EQ(store.Series(c, m).size(), 10u);
}

// Reserve sizes an empty series once, exactly, and a reserved series that
// has no sample yet is invisible: no count, no metric listing, no visit,
// no generation, no pin. Ordinals follow first samples, not reservations.
TEST(TimeSeriesStoreTest, ReserveSizesOnceAndStaysInvisible) {
  TimeSeriesStore store;
  RecordingListener listener(&store);
  store.SetAppendListener(&listener);
  const ComponentId c{1};
  const MetricId m1 = MetricId::kVolTotalIos, m2 = MetricId::kVolBytesRead;
  store.Reserve(c, m1, 7);
  store.Reserve(c, m2, 3);
  EXPECT_EQ(store.series_count(), 0u);
  EXPECT_TRUE(store.MetricsFor(c).empty());
  int visited = 0;
  store.ForEachSeries(
      [&](ComponentId, MetricId, const std::vector<Sample>&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(store.Generation(c, m1), 0u);
  EXPECT_EQ(store.ComponentGeneration(c), 0u);
  EXPECT_EQ(store.StoreGeneration(), 0u);
  EXPECT_EQ(store.total_samples(), 0u);
  EXPECT_TRUE(store.Pin(c, m1).empty());
  EXPECT_TRUE(store.Series(c, m1).empty());
  EXPECT_EQ(store.Series(c, m1).capacity(), 7u);

  ASSERT_TRUE(store.Append(c, m2, 100, 1.0).ok());
  ASSERT_TRUE(store.Append(c, m1, 100, 1.0).ok());
  ASSERT_EQ(listener.calls.size(), 2u);
  EXPECT_NE(listener.calls[0].find("ordinal=0"), std::string::npos);
  EXPECT_NE(listener.calls[1].find("ordinal=1"), std::string::npos);
  EXPECT_EQ(store.series_count(), 2u);

  const Sample* data = store.Series(c, m1).data();
  for (SimTimeMs t = 200; t <= 700; t += 100) {
    ASSERT_TRUE(store.Append(c, m1, t, 2.0).ok());
    EXPECT_EQ(store.Series(c, m1).data(), data);
  }
  EXPECT_EQ(store.Series(c, m1).size(), 7u);
  EXPECT_EQ(store.Series(c, m1).capacity(), 7u);

  // On a series with samples, a reservation it has room for changes
  // nothing, and one it has not grows it at least geometrically.
  store.Reserve(c, m2, 2);
  const Sample* m2_data = store.Series(c, m2).data();
  store.Reserve(c, m2, 1);
  EXPECT_EQ(store.Series(c, m2).data(), m2_data);
  store.Reserve(c, m1, 1);
  EXPECT_GE(store.Series(c, m1).capacity(), 14u);
  EXPECT_EQ(store.Series(c, m1).size(), 7u);
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
// an infinity every mean. Append refuses them and leaves the store, its
// counters and a listener untouched. (AdoptSeries takes only samples a
// store already accepted.)
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
    }
    EXPECT_EQ(store.series_count(), 0u);
    EXPECT_EQ(store.StoreGeneration(), 0u);
    EXPECT_TRUE(store.MetricsFor(c).empty());
    EXPECT_TRUE(listener.calls.empty());

    // An existing series.
    ASSERT_TRUE(store.Append(c, m, 50, 2.0).ok());
    const std::string before = DumpStore(store);
    const uint64_t generation = store.Generation(c, m);
    const size_t calls = listener.calls.size();
    for (double bad : kBad) {
      EXPECT_EQ(store.Append(c, m, 100, bad).code(),
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
    // Odd seeds route AdoptSeries through its per-sample listener path.
    RecordingListener listener(&store);
    if (seed % 2 == 1) store.SetAppendListener(&listener);
    for (int op = 0; op < 300; ++op) {
      const ComponentId c{static_cast<uint32_t>(rng.UniformInt(0, 5))};
      const MetricId m =
          catalog[static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(catalog.size()) - 1))]
              .id;
      const std::vector<Sample>& series = store.Series(c, m);
      const bool empty = series.empty();
      const SimTimeMs last = empty ? 0 : series.back().time;
      const double kind = rng.Uniform();
      if (kind < 0.35) {
        // A single sample; one in five lands before the series' end, which
        // an existing series rejects.
        const SimTimeMs t =
            rng.Bernoulli(0.2) ? last - 1 : last + rng.UniformInt(0, 300);
        (void)store.Append(c, m, t, rng.Normal(10, 3));
      } else if (kind < 0.65) {
        // A pinned time-ordered run of 0-5 samples (an empty run creates
        // nothing).
        SampleRun run{c, m, {}};
        SimTimeMs t = last;
        for (int64_t i = rng.UniformInt(0, 5); i > 0; --i) {
          t += rng.UniformInt(0, 300);
          run.samples.push_back(Sample{t, rng.Normal(10, 3)});
        }
        ASSERT_TRUE(store.AdoptSeries(c, m, PinRun(run)).ok());
      } else if (kind < 0.85) {
        // A pinned run starting before the series' last sample: refused
        // by an existing series, taken by a new one.
        const SampleRun run{c, m, {{last - 1, 1.0}, {last + 100, 2.0}}};
        EXPECT_EQ(store.AdoptSeries(c, m, PinRun(run)).ok(), empty);
      } else {
        // A reservation: invisible until the series' first sample.
        store.Reserve(c, m, static_cast<size_t>(rng.UniformInt(1, 8)));
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

// Each series is sized for the range's interval count before its first
// sample, so it is allocated once: a 12-minute range at 5-minute sampling
// has 3 intervals, the last one short.
TEST(SanCollectorTest, CollectRangeSizesEachSeriesOnce) {
  CollectorFixture f;
  SanCollector collector(&f.topology, &f.model, &f.store, &f.noise, &f.events,
                         SanCollectorConfig{Minutes(5), 0, 0});
  ASSERT_TRUE(collector.CollectRange(0, Minutes(12)).ok());
  size_t series = 0;
  f.store.ForEachSeries(
      [&](ComponentId, MetricId, const std::vector<Sample>& samples) {
        EXPECT_EQ(samples.size(), 3u);
        EXPECT_EQ(samples.capacity(), 3u);
        ++series;
      });
  EXPECT_EQ(series, f.store.series_count());
  EXPECT_GT(series, 12u);
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
