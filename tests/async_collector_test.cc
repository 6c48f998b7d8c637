// Tests for the async SAN metric collection pipeline: covering-slice
// semantics, fetch planning (dedup), the simulated-latency backend, the
// scatter/gather layer (overlap, bounded in-flight, timeout/retry, stale
// degradation, cancellation), and the end-to-end contract — a diagnosis
// over collected data is ReportDigest-identical to one over the source
// store, even when a component's fetches always time out, and even while
// the source store is appended to on another thread. Run under
// -fsanitize=thread alongside engine_test to validate the locking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "diads/report.h"
#include "diads/symptom_index.h"
#include "diads/workflow.h"
#include "monitor/async_collector.h"
#include "monitor/collection_planner.h"
#include "monitor/gather.h"
#include "monitor/timeseries.h"
#include "workload/scenario.h"

namespace diads::monitor {
namespace {

using workload::MatchesGroundTruth;
using workload::RunScenario;
using workload::ScenarioId;
using workload::ScenarioOutput;

ComponentId Comp(uint32_t value) { return ComponentId{value}; }

// --- TimeSeriesStore::CoveringSlice ----------------------------------------

class CoveringSliceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Samples at t = 0, 100, 200, ..., 900.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store_
                      .Append(Comp(1), MetricId::kVolTotalIos, i * 100,
                              static_cast<double>(i))
                      .ok());
    }
  }
  TimeSeriesStore store_;
};

TEST_F(CoveringSliceTest, IncludesBoundarySamples) {
  // Window (250, 650): in-window samples 300..600, plus 200 (stale
  // fallback for MeanIn) and 700 (tail reading).
  const SampleSpan slice =
      store_.CoveringSlice(Comp(1), MetricId::kVolTotalIos, {250, 650});
  ASSERT_EQ(slice.size(), 6u);
  EXPECT_EQ(slice.front().time, 200);
  EXPECT_EQ(slice.back().time, 700);
}

TEST_F(CoveringSliceTest, WindowBeforeAllSamplesKeepsTailOnly) {
  const SampleSpan slice =
      store_.CoveringSlice(Comp(1), MetricId::kVolTotalIos, {-500, -100});
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice.front().time, 0);  // First sample at/after window end.
}

TEST_F(CoveringSliceTest, WindowAfterAllSamplesKeepsNewestOnly) {
  const SampleSpan slice =
      store_.CoveringSlice(Comp(1), MetricId::kVolTotalIos, {2000, 3000});
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice.front().time, 900);  // Stale-fallback sample.
}

TEST_F(CoveringSliceTest, EmptySeriesYieldsEmptySlice) {
  EXPECT_TRUE(
      store_.CoveringSlice(Comp(2), MetricId::kVolTotalIos, {0, 100}).empty());
}

TEST_F(CoveringSliceTest, SubintervalQueriesMatchSourceStore) {
  // The contract the diagnosis relies on: a store rebuilt from the
  // covering slice answers every subinterval query identically.
  const TimeInterval window{150, 750};
  TimeSeriesStore rebuilt;
  for (const Sample& s :
       store_.CoveringSlice(Comp(1), MetricId::kVolTotalIos, window)) {
    ASSERT_TRUE(
        rebuilt.Append(Comp(1), MetricId::kVolTotalIos, s.time, s.value).ok());
  }
  for (SimTimeMs a = 150; a < 750; a += 37) {
    for (SimTimeMs b = a + 1; b <= 750; b += 53) {
      const TimeInterval sub{a, b};
      EXPECT_EQ(store_.ValuesIn(Comp(1), MetricId::kVolTotalIos, sub),
                rebuilt.ValuesIn(Comp(1), MetricId::kVolTotalIos, sub));
      Result<double> want =
          store_.MeanIn(Comp(1), MetricId::kVolTotalIos, sub);
      Result<double> got =
          rebuilt.MeanIn(Comp(1), MetricId::kVolTotalIos, sub);
      ASSERT_EQ(want.ok(), got.ok());
      if (want.ok()) {
        EXPECT_DOUBLE_EQ(*want, *got);
      }
    }
  }
}

// --- CollectionPlanner ------------------------------------------------------

TEST(CollectionPlannerTest, DeduplicatesAndSortsKeys) {
  TimeSeriesStore store;
  std::vector<SeriesKey> keys = {
      {Comp(5), MetricId::kVolTotalIos},
      {Comp(3), MetricId::kVolReadLatencyMs},
      {Comp(5), MetricId::kVolTotalIos},  // Duplicate.
      {Comp(5), MetricId::kVolBytesRead},
      {Comp(3), MetricId::kVolReadLatencyMs},  // Duplicate.
  };
  std::vector<FetchRequest> plan =
      CollectionPlanner::Plan(keys, {100, 200}, &store);
  ASSERT_EQ(plan.size(), 2u);  // One request per component.
  EXPECT_EQ(plan[0].component, Comp(3));
  EXPECT_EQ(plan[1].component, Comp(5));
  ASSERT_EQ(plan[1].metrics.size(), 2u);
  EXPECT_LT(static_cast<int>(plan[1].metrics[0]),
            static_cast<int>(plan[1].metrics[1]));
  EXPECT_EQ(CollectionPlanner::SeriesCount(plan), 3u);
  for (const FetchRequest& request : plan) {
    EXPECT_EQ(request.interval, (TimeInterval{100, 200}));
    EXPECT_EQ(request.source, &store);
  }
}

// --- SimulatedSanCollector --------------------------------------------------

class SimulatedCollectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store_
                      .Append(Comp(1), MetricId::kVolTotalIos, i * 10,
                              static_cast<double>(i))
                      .ok());
    }
  }

  FetchRequest RequestFor(ComponentId component) {
    FetchRequest request;
    request.component = component;
    request.interval = {0, 80};
    request.metrics = {MetricId::kVolTotalIos, MetricId::kVolBytesRead};
    request.source = &store_;
    return request;
  }

  TimeSeriesStore store_;
};

TEST_F(SimulatedCollectorTest, FetchReturnsCoveringSlices) {
  SimulatedLatencyOptions options;
  options.base_latency_ms = 0.1;
  SimulatedSanCollector collector(options);
  MetricBatch batch = collector.Fetch(RequestFor(Comp(1))).get();
  ASSERT_TRUE(batch.ok()) << batch.status.ToString();
  EXPECT_EQ(batch.component, Comp(1));
  // kVolBytesRead has no series: only the non-empty series comes back.
  ASSERT_EQ(batch.series.size(), 1u);
  EXPECT_EQ(batch.series[0].metric, MetricId::kVolTotalIos);
  EXPECT_EQ(batch.series[0].samples.size(), 8u);
  EXPECT_FALSE(batch.stale);
  EXPECT_EQ(collector.fetches_started(), 1u);
}

TEST_F(SimulatedCollectorTest, LatencyIsImposedPerComponent) {
  SimulatedLatencyOptions options;
  options.base_latency_ms = 1;
  options.per_component_ms[1] = 40;
  SimulatedSanCollector collector(options);
  const auto start = std::chrono::steady_clock::now();
  MetricBatch batch = collector.Fetch(RequestFor(Comp(1))).get();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_TRUE(batch.ok());
  EXPECT_GE(elapsed_ms, 35.0);  // The 40ms override, minus sched slop.
  EXPECT_GE(batch.fetch_ms, 35.0);
}

TEST_F(SimulatedCollectorTest, ShutdownCancelsQueuedAndSleepingFetches) {
  SimulatedLatencyOptions options;
  options.base_latency_ms = 10000;  // Would take forever if not cancelled.
  options.connections = 1;
  SimulatedSanCollector collector(options);
  std::vector<std::future<MetricBatch>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(collector.Fetch(RequestFor(Comp(1))));
  }
  collector.Shutdown();  // Must be prompt: wakes the sleeper, fails queue.
  for (std::future<MetricBatch>& future : futures) {
    MetricBatch batch = future.get();  // Resolves, never hangs.
    EXPECT_FALSE(batch.ok());
  }
  EXPECT_EQ(collector.fetches_cancelled(), 4u);
  // Fetches after shutdown fail fast.
  MetricBatch late = collector.Fetch(RequestFor(Comp(1))).get();
  EXPECT_FALSE(late.ok());
}

// --- MetricGatherer ---------------------------------------------------------

class GatherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint32_t c = 1; c <= 8; ++c) {
      for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(store_
                        .Append(Comp(c), MetricId::kVolTotalIos, i * 10,
                                static_cast<double>(c * 100 + i))
                        .ok());
      }
    }
  }

  std::vector<FetchRequest> EightComponentPlan() {
    std::vector<SeriesKey> keys;
    for (uint32_t c = 1; c <= 8; ++c) {
      keys.push_back(SeriesKey{Comp(c), MetricId::kVolTotalIos});
    }
    return CollectionPlanner::Plan(keys, {0, 60}, &store_);
  }

  TimeSeriesStore store_;
};

TEST_F(GatherTest, OverlapsFetchesAcrossComponents) {
  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 20;
  SimulatedSanCollector collector(latency);
  GatherOptions options;
  options.max_in_flight = 8;
  options.timeout_ms = 0;  // No timeouts: measure pure overlap.
  MetricGatherer gatherer(&collector, options);
  GatherResult result = gatherer.Gather(EightComponentPlan());
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.counters.fetches, 8u);
  EXPECT_EQ(result.fetch_ms.size(), 8u);
  // Serialized this costs 8 * 20 = 160ms; overlapped it is ~20ms. Allow
  // generous scheduling slop and still prove the overlap.
  EXPECT_LT(result.counters.gather_ms, 100.0);
  // Every series arrived intact.
  for (uint32_t c = 1; c <= 8; ++c) {
    EXPECT_EQ(
        result.collected.Series(Comp(c), MetricId::kVolTotalIos).size(), 6u);
  }
}

TEST_F(GatherTest, BoundedInFlightStillCompletesWidePlans) {
  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 1;
  SimulatedSanCollector collector(latency);
  GatherOptions options;
  options.max_in_flight = 2;  // Narrower than the 8-wide plan.
  MetricGatherer gatherer(&collector, options);
  GatherResult result = gatherer.Gather(EightComponentPlan());
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.counters.fetches, 8u);
  EXPECT_EQ(result.collected.series_count(), 8u);
}

TEST_F(GatherTest, TimeoutDegradesToStaleLocalData) {
  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 1;
  latency.per_component_ms[3] = 10000;  // Component 3 always times out.
  SimulatedSanCollector collector(latency);
  GatherOptions options;
  options.max_in_flight = 8;
  options.timeout_ms = 25;
  options.max_attempts = 2;
  MetricGatherer gatherer(&collector, options);
  GatherResult result = gatherer.Gather(EightComponentPlan());
  ASSERT_TRUE(result.degraded());
  ASSERT_EQ(result.stale_components.size(), 1u);
  EXPECT_EQ(result.stale_components[0], Comp(3));
  EXPECT_EQ(result.counters.timeouts, 2u);  // Both attempts timed out.
  EXPECT_EQ(result.counters.retries, 1u);
  EXPECT_EQ(result.counters.stale_components, 1u);
  // The stale component's data still arrived — from the local cache.
  EXPECT_EQ(
      result.collected.Series(Comp(3), MetricId::kVolTotalIos).size(), 6u);
  EXPECT_EQ(result.collected.series_count(), 8u);
}

TEST_F(GatherTest, TimeoutDegradationLogsAffectedComponent) {
  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 1;
  latency.per_component_ms[3] = 10000;  // Component 3 always times out.
  SimulatedSanCollector collector(latency);
  GatherOptions options;
  options.max_in_flight = 8;
  options.timeout_ms = 25;
  options.max_attempts = 2;
  MetricGatherer gatherer(&collector, options);

  const LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  CaptureLogSink capture;
  GatherResult result;
  {
    ScopedLogSink scoped(&capture);
    result = gatherer.Gather(EightComponentPlan());
  }
  SetLogLevel(previous);

  ASSERT_TRUE(result.degraded());
  const std::vector<LogRecord> warnings = capture.RecordsFor("monitor.gather");
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].level, LogLevel::kWarning);
  // The warning names the affected component, the reason, and the attempt
  // count — the triad the serving stats alone could never answer.
  EXPECT_NE(warnings[0].message.find("component C3"), std::string::npos)
      << warnings[0].message;
  EXPECT_NE(warnings[0].message.find("stale local data"), std::string::npos)
      << warnings[0].message;
  EXPECT_NE(warnings[0].message.find("timeout"), std::string::npos)
      << warnings[0].message;
  EXPECT_NE(warnings[0].message.find("2 attempts"), std::string::npos)
      << warnings[0].message;
  // Healthy components stay silent.
  EXPECT_EQ(capture.size(), 1u);
}

TEST_F(GatherTest, CollectorShutdownMidGatherDegradesInsteadOfFailing) {
  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 30;
  SimulatedSanCollector collector(latency);
  GatherOptions options;
  options.max_in_flight = 8;
  MetricGatherer gatherer(&collector, options);
  std::future<GatherResult> gather_future =
      std::async(std::launch::async,
                 [&] { return gatherer.Gather(EightComponentPlan()); });
  collector.Shutdown();  // While fetches are queued/sleeping.
  GatherResult result = gather_future.get();
  // Whatever was cancelled came back stale from local data; the gather
  // itself succeeded and is complete.
  EXPECT_EQ(result.collected.series_count(), 8u);
  EXPECT_EQ(result.counters.cancelled + result.fetch_ms.size(),
            result.counters.fetches);
}

// --- End-to-end: diagnosis over collected data ------------------------------

class CollectionDiagnosisTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    symptoms_ = new diag::SymptomsDb(diag::SymptomsDb::MakeDefault());
    Result<ScenarioOutput> scenario =
        RunScenario(ScenarioId::kS1SanMisconfiguration, {});
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = new ScenarioOutput(std::move(*scenario));
    diag::Workflow workflow(scenario_->MakeContext(), diag::WorkflowConfig{},
                            symptoms_);
    Result<diag::DiagnosisReport> serial = workflow.Diagnose();
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    serial_digest_ = new std::string(diag::ReportDigest(*serial));
  }
  static void TearDownTestSuite() {
    delete serial_digest_;
    delete scenario_;
    delete symptoms_;
    serial_digest_ = nullptr;
    scenario_ = nullptr;
    symptoms_ = nullptr;
  }

  static diag::SymptomsDb* symptoms_;
  static ScenarioOutput* scenario_;
  static std::string* serial_digest_;
};

diag::SymptomsDb* CollectionDiagnosisTest::symptoms_ = nullptr;
ScenarioOutput* CollectionDiagnosisTest::scenario_ = nullptr;
std::string* CollectionDiagnosisTest::serial_digest_ = nullptr;

TEST_F(CollectionDiagnosisTest, MetricKeysCoverEveryPlannedComponent) {
  diag::DiagnosisContext ctx = scenario_->MakeContext();
  const std::vector<SeriesKey> keys =
      diag::SymptomIndex::CollectMetricKeys(ctx);
  ASSERT_FALSE(keys.empty());
  // Every key names a series the store actually has.
  for (const SeriesKey& key : keys) {
    EXPECT_FALSE(ctx.store->Series(key.component, key.metric).empty());
  }
}

TEST_F(CollectionDiagnosisTest, CollectedDiagnosisIsDigestIdentical) {
  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0.1;
  SimulatedSanCollector collector(latency);
  MetricGatherer gatherer(&collector, GatherOptions{});
  diag::Workflow workflow(scenario_->MakeContext(), diag::WorkflowConfig{},
                          symptoms_);
  diag::CollectionOutcome outcome;
  Result<diag::DiagnosisReport> report = workflow.DiagnoseWithCollection(
      gatherer, diag::ImpactMethod::kInverseDependency, nullptr, &outcome);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(diag::ReportDigest(*report), *serial_digest_);
  EXPECT_FALSE(outcome.degraded());
  EXPECT_GT(outcome.planned_components, 0u);
  EXPECT_GE(outcome.planned_series, outcome.planned_components);
  EXPECT_EQ(outcome.gather.counters.fetches, outcome.planned_components);
}

// The partial-degradation contract (Table-1 correctness on stale data): a
// SAN component whose collector never answers must not change the root
// cause — its series are served stale from the local cache and the
// diagnosis is annotated, not failed.
TEST_F(CollectionDiagnosisTest,
       AlwaysTimedOutComponentStillYieldsCorrectRootCause) {
  diag::DiagnosisContext ctx = scenario_->MakeContext();
  // The slow component is V1 itself — the volume the true cause lives on.
  Result<ComponentId> v1 = ctx.topology->registry().FindByName("V1");
  ASSERT_TRUE(v1.ok());
  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0.1;
  latency.per_component_ms[v1->value] = 10000;  // Never answers in time.
  SimulatedSanCollector collector(latency);
  GatherOptions gather_options;
  gather_options.timeout_ms = 20;
  gather_options.max_attempts = 2;
  MetricGatherer gatherer(&collector, gather_options);

  diag::Workflow workflow(ctx, diag::WorkflowConfig{}, symptoms_);
  diag::CollectionOutcome outcome;
  Result<diag::DiagnosisReport> report = workflow.DiagnoseWithCollection(
      gatherer, diag::ImpactMethod::kInverseDependency, nullptr, &outcome);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Stale-data annotation is set and names V1.
  ASSERT_TRUE(outcome.degraded());
  ASSERT_EQ(outcome.gather.stale_components.size(), 1u);
  EXPECT_EQ(outcome.gather.stale_components[0], *v1);
  EXPECT_GE(outcome.gather.counters.timeouts, 2u);

  // The report is still byte-identical to the serial ground truth, and
  // the Table-1 root cause still matches.
  EXPECT_EQ(diag::ReportDigest(*report), *serial_digest_);
  const diag::RootCause* top = report->TopCause();
  ASSERT_NE(top, nullptr);
  ASSERT_FALSE(scenario_->ground_truth.empty());
  EXPECT_TRUE(MatchesGroundTruth(scenario_->ground_truth.front(), *top,
                                 ctx.topology->registry()));
}

// The isolation contract: a snapshot never changes after its fetch. One
// thread appends to the source store — to every series the snapshot
// pinned and to series it never saw — while another diagnoses over a
// snapshot gathered before the appends. The report is the one a serial
// diagnosis gave before the appends. Under TSan this
// also checks that pinned buffers are shared without a race.
TEST_F(CollectionDiagnosisTest, AppendsToSourceNeverReachAGatheredSnapshot) {
  Result<ScenarioOutput> scenario =
      RunScenario(ScenarioId::kS1SanMisconfiguration, {});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  TimeSeriesStore& source = scenario->testbed->store;
  const diag::Workflow workflow(scenario->MakeContext(),
                                diag::WorkflowConfig{}, symptoms_);
  Result<diag::DiagnosisReport> serial = workflow.Diagnose();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string serial_digest = diag::ReportDigest(*serial);

  SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0;
  latency.connections = 2;
  SimulatedSanCollector collector(latency);
  const MetricGatherer gatherer(&collector, GatherOptions{});
  const diag::CollectionOutcome outcome = workflow.Collect(gatherer);
  ASSERT_FALSE(outcome.degraded());
  std::vector<SeriesKey> pinned;
  outcome.gather.collected.ForEachSeries(
      [&](ComponentId c, MetricId m, const std::vector<Sample>&) {
        pinned.push_back(SeriesKey{c, m});
      });
  ASSERT_FALSE(pinned.empty());
  SimTimeMs end = 0;
  source.ForEachSeries(
      [&](ComponentId, MetricId, const std::vector<Sample>& samples) {
        end = std::max(end, samples.back().time);
      });
  const uint64_t generation_before = source.StoreGeneration();

  std::atomic<bool> diagnosed{false};
  int failed_appends = 0;
  std::thread appender([&] {
    // At least a few rounds, then on until the diagnosis is done.
    for (int round = 1; round <= 4 || !diagnosed.load(); ++round) {
      const SimTimeMs t = end + round * Minutes(5);
      for (const SeriesKey& key : pinned) {
        if (!source.Append(key.component, key.metric, t, 1e6 * round).ok()) {
          ++failed_appends;
        }
      }
      if (!source
               .Append(ComponentId{1000000u + static_cast<uint32_t>(round)},
                       MetricId::kVolTotalIos, t, 1.0)
               .ok()) {
        ++failed_appends;
      }
    }
  });
  Result<diag::DiagnosisReport> report = workflow.DiagnoseOverCollection(
      outcome, diag::ImpactMethod::kInverseDependency);
  diagnosed.store(true);
  appender.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(diag::ReportDigest(*report), serial_digest);
  EXPECT_EQ(failed_appends, 0);
  EXPECT_GT(source.StoreGeneration(), generation_before);
}

}  // namespace
}  // namespace diads::monitor
