// Tests for the concurrent diagnosis engine: the thread pool's lifecycle,
// the sharded result cache, the stats recorders, the determinism contract
// (engine output is report-identical to serial Workflow::Diagnose), and a
// stress run submitting a shuffled fleet of 100+ requests across scenarios
// while exercising cache contention and shutdown-while-busy. Run this
// binary under -fsanitize=thread (cmake -DDIADS_SANITIZE_THREAD=ON) to
// validate the locking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "diads/report.h"
#include "diads/workflow.h"
#include "engine/cache.h"
#include "engine/engine.h"
#include "engine/stats.h"
#include "engine/thread_pool.h"
#include "fleet/query.h"
#include "fleet/store.h"
#include "monitor/async_collector.h"
#include "obs/metrics.h"
#include "workload/fleet.h"
#include "workload/scenario.h"

namespace diads::engine {
namespace {

using workload::BuildFleet;
using workload::FleetOptions;
using workload::FleetWorkload;
using workload::RunScenario;
using workload::ScenarioId;
using workload::ScenarioOutput;
using workload::SerialDiagnosis;

// --- ThreadPool -------------------------------------------------------------

/// An untagged task that runs `run` and has no cancel callback.
QueueTask Running(std::function<void()> run) {
  QueueTask task;
  task.run = std::move(run);
  return task;
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool({/*workers=*/3, /*queue_capacity=*/16, /*fairness=*/{}});
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit(Running([&count] { ++count; })).ok());
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, BackpressureBlocksThenCompletes) {
  // One slow worker, capacity 2: submissions beyond the capacity block the
  // producer instead of growing the queue, and all tasks still run.
  ThreadPool pool({/*workers=*/1, /*queue_capacity=*/2, /*fairness=*/{}});
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit(Running([&count] {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                      ++count;
                    }))
                    .ok());
    EXPECT_LE(pool.QueueDepth(), 2u);
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ShutdownCancelsQueuedAndRejectsNew) {
  ThreadPool pool({/*workers=*/2, /*queue_capacity=*/64, /*fairness=*/{}});
  std::atomic<int> ran{0};
  std::atomic<int> cancelled{0};
  for (int i = 0; i < 20; ++i) {
    QueueTask task;
    task.run = [&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
    };
    task.cancel = [&cancelled](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kShutdown);
      ++cancelled;
    };
    ASSERT_TRUE(pool.Submit(std::move(task)).ok());
  }
  // Shutdown finishes whatever is running but fails still-queued tasks
  // with an explicit kShutdown — every accepted task resolves one way.
  pool.Shutdown();
  // How many ran vs were cancelled is a scheduling race; the contract is
  // that every accepted task resolved exactly one way.
  EXPECT_EQ(ran.load() + cancelled.load(), 20);
  Status status = pool.Submit(Running([] {}));
  EXPECT_EQ(status.code(), StatusCode::kShutdown);
}

TEST(ThreadPoolTest, DrainThenShutdownRunsEverything) {
  ThreadPool pool({/*workers=*/2, /*queue_capacity=*/64, /*fairness=*/{}});
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit(Running([&count] { ++count; })).ok());
  }
  pool.Drain();  // Graceful completion point: everything accepted runs.
  pool.Shutdown();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool({/*workers=*/2, /*queue_capacity=*/8, /*fairness=*/{}});
  pool.Shutdown();
  pool.Shutdown();
}

// --- Stats ------------------------------------------------------------------

TEST(EngineStatsTest, SnapshotAndJson) {
  obs::MetricsRegistry registry;
  ResultCache cache({/*capacity=*/8, /*shards=*/2});
  EngineStats stats(&registry, /*pool=*/nullptr, &cache);
  stats.Add(&EngineStatsSnapshot::submitted);
  stats.Add(&EngineStatsSnapshot::submitted);
  stats.Add(&EngineStatsSnapshot::completed);
  stats.RaiseTo(&EngineStatsSnapshot::max_queue_depth, 7);
  stats.RaiseTo(&EngineStatsSnapshot::max_queue_depth, 3);
  stats.Observe(&EngineStatsSnapshot::request_latency, 5.0);
  // Result-cache counters stay with the cache; the snapshot reads them.
  CacheKey key;
  key.query = "Q2";
  const int store = 0;  // Stands in for the authoritative store.
  EXPECT_EQ(cache.Get(key, &store, 1).report, nullptr);
  cache.Put(key, &store, 1, std::make_shared<diag::DiagnosisReport>());
  EXPECT_NE(cache.Get(key, &store, 1).report, nullptr);

  EngineStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.max_queue_depth, 7u);
  EXPECT_EQ(snap.queue_depth, 0u);  // No pool: owner rows read zero.
  EXPECT_DOUBLE_EQ(snap.CacheHitRate(), 0.5);
  EXPECT_EQ(snap.request_latency.count, 1u);
  EXPECT_DOUBLE_EQ(snap.request_latency.mean_ms, 5.0);
  EXPECT_FALSE(snap.Render().empty());

  // The registry's JSON is the snapshot's JSON form.
  Result<JsonValue> parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::map<std::string, const JsonValue*> by_name;
  for (const JsonValue& metric : parsed->Find("metrics")->array_items()) {
    by_name[metric.Find("name")->string_value()] = &metric;
  }
  ASSERT_TRUE(by_name.count("diads_engine_submitted_total"));
  EXPECT_EQ(by_name["diads_engine_submitted_total"]
                ->Find("value")
                ->number_value(),
            2.0);
  ASSERT_TRUE(by_name.count("diads_engine_result_cache_hits_total"));
  EXPECT_EQ(by_name["diads_engine_result_cache_hits_total"]
                ->Find("value")
                ->number_value(),
            1.0);
  ASSERT_TRUE(by_name.count("diads_engine_request_latency_ms"));
  const JsonValue* latency = by_name["diads_engine_request_latency_ms"];
  EXPECT_EQ(latency->Find("type")->string_value(), "histogram");
  EXPECT_EQ(latency->Find("value")->number_value(), 1.0);
  EXPECT_EQ(latency->Find("sum")->number_value(), 5.0);
}

// --- ResultCache ------------------------------------------------------------

CacheKey KeyNamed(const std::string& query, SimTimeMs begin = 0,
                  SimTimeMs end = 100) {
  CacheKey key;
  key.query = query;
  key.window_begin = begin;
  key.window_end = end;
  return key;
}

std::shared_ptr<const diag::DiagnosisReport> ReportStub(
    const std::string& summary) {
  auto report = std::make_shared<diag::DiagnosisReport>();
  report->summary = summary;
  return report;
}

/// The stamp of every entry in the LRU tests: one store (its address is
/// pure identity) at one generation.
const int kStore = 0;
constexpr uint64_t kGeneration = 7;

std::shared_ptr<const diag::DiagnosisReport> Lookup(ResultCache& cache,
                                                    const CacheKey& key) {
  return cache.Get(key, &kStore, kGeneration).report;
}

void Insert(ResultCache& cache, const CacheKey& key,
            const std::string& summary) {
  cache.Put(key, &kStore, kGeneration, ReportStub(summary));
}

TEST(ResultCacheTest, HitMissAccounting) {
  ResultCache cache({/*capacity=*/8, /*shards=*/2});
  EXPECT_EQ(Lookup(cache, KeyNamed("Q2")), nullptr);
  Insert(cache, KeyNamed("Q2"), "a");
  std::shared_ptr<const diag::DiagnosisReport> hit =
      Lookup(cache, KeyNamed("Q2"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->summary, "a");
  ResultCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.entries, 1u);
  EXPECT_EQ(counters.evictions, 0u);
}

TEST(ResultCacheTest, DistinctWindowsAreDistinctEntries) {
  ResultCache cache({8, 2});
  Insert(cache, KeyNamed("Q2", 0, 100), "early");
  Insert(cache, KeyNamed("Q2", 100, 200), "late");
  ASSERT_NE(Lookup(cache, KeyNamed("Q2", 0, 100)), nullptr);
  EXPECT_EQ(Lookup(cache, KeyNamed("Q2", 0, 100))->summary, "early");
  EXPECT_EQ(Lookup(cache, KeyNamed("Q2", 100, 200))->summary, "late");
}

TEST(ResultCacheTest, LruEvictionWithinShard) {
  // Single shard, capacity 2: inserting a third entry evicts the least
  // recently used one.
  ResultCache cache({/*capacity=*/2, /*shards=*/1});
  Insert(cache, KeyNamed("a"), "a");
  Insert(cache, KeyNamed("b"), "b");
  ASSERT_NE(Lookup(cache, KeyNamed("a")), nullptr);  // Refresh "a".
  Insert(cache, KeyNamed("c"), "c");                 // Evicts "b".
  EXPECT_NE(Lookup(cache, KeyNamed("a")), nullptr);
  EXPECT_EQ(Lookup(cache, KeyNamed("b")), nullptr);
  EXPECT_NE(Lookup(cache, KeyNamed("c")), nullptr);
  EXPECT_EQ(cache.TotalCounters().evictions, 1u);
}

TEST(ResultCacheTest, StampMismatchMissesAndDropsTheEntry) {
  ResultCache cache({8, 2});
  const int other_store = 0;
  Insert(cache, KeyNamed("Q2"), "a");
  // Another store's question with the same key never sees this report.
  EXPECT_EQ(cache.Get(KeyNamed("Q2"), &other_store, kGeneration).report,
            nullptr);
  EXPECT_EQ(cache.TotalCounters().invalidations, 1u);
  // The entry was dropped, so even the original stamp misses now.
  EXPECT_EQ(Lookup(cache, KeyNamed("Q2")), nullptr);
  Insert(cache, KeyNamed("Q2"), "a");
  // New data arrived (the generation moved on): a miss, and a drop.
  EXPECT_EQ(cache.Get(KeyNamed("Q2"), &kStore, kGeneration + 1).report,
            nullptr);
  ResultCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.invalidations, 2u);
  EXPECT_EQ(counters.entries, 0u);
  EXPECT_EQ(counters.hits, 0u);
}

TEST(ResultCacheTest, ConcurrentMixedAccess) {
  ResultCache cache({64, 8});
  std::atomic<uint64_t> gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &gets, t] {
      for (int i = 0; i < 200; ++i) {
        const CacheKey key = KeyNamed("Q" + std::to_string(i % 16));
        if ((i + t) % 3 == 0) {
          Insert(cache, key, "r");
        } else {
          Lookup(cache, key);
          ++gets;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ResultCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.hits + counters.misses, gets.load());
  EXPECT_LE(counters.entries, 16u);
}

// --- DiagnosisEngine: determinism -------------------------------------------

class EngineScenarioTest : public ::testing::Test {
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

  static DiagnosisRequest RequestForScenario() {
    DiagnosisRequest request;
    request.ctx = scenario_->MakeContext();
    request.tag = "tenant-a";
    return request;
  }

  static diag::SymptomsDb* symptoms_;
  static ScenarioOutput* scenario_;
  static std::string* serial_digest_;
};

diag::SymptomsDb* EngineScenarioTest::symptoms_ = nullptr;
ScenarioOutput* EngineScenarioTest::scenario_ = nullptr;
std::string* EngineScenarioTest::serial_digest_ = nullptr;

TEST_F(EngineScenarioTest, ReportIdenticalToSerialWorkflow) {
  // No collector given: the engine still answers through the gather, from
  // an in-process collector over the request's own store.
  EngineOptions options;
  options.workers = 4;
  DiagnosisEngine engine(options, symptoms_);
  std::future<DiagnosisResponse> future = engine.Submit(RequestForScenario());
  DiagnosisResponse response = future.get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ASSERT_NE(response.report, nullptr);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(diag::ReportDigest(*response.report), *serial_digest_);
  ASSERT_NE(response.collection, nullptr);
  EXPECT_GT(response.collection->fetches, 0u);
  EXPECT_FALSE(response.stale_data());
  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_GT(stats.collection_fetches, 0u);
  EXPECT_EQ(stats.collection_fetches, response.collection->fetches);
  EXPECT_EQ(stats.gather_latency.count, 1u);
}

TEST_F(EngineScenarioTest, RepeatIsServedFromCacheAndIdentical) {
  EngineOptions options;
  options.workers = 4;
  DiagnosisEngine engine(options, symptoms_);
  DiagnosisResponse first = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(first.ok());
  DiagnosisResponse second = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  // Cache hits share the very report object; no re-diagnosis happened.
  EXPECT_EQ(second.report.get(), first.report.get());
  EXPECT_EQ(diag::ReportDigest(*second.report), *serial_digest_);
  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(EngineScenarioTest, CacheDisabledStillIdentical) {
  EngineOptions options;
  options.workers = 4;
  options.enable_cache = false;
  options.coalesce_identical = false;
  DiagnosisEngine engine(options, symptoms_);
  DiagnosisResponse first = engine.Submit(RequestForScenario()).get();
  DiagnosisResponse second = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_NE(second.report.get(), first.report.get());  // Recomputed.
  EXPECT_EQ(diag::ReportDigest(*first.report), *serial_digest_);
  EXPECT_EQ(diag::ReportDigest(*second.report), *serial_digest_);
}

TEST_F(EngineScenarioTest, ModelCacheOnVsOffDigestIdentical) {
  // Fresh incidents (distinct tags) bypass the result cache, so every
  // request recomputes the module chain; with the model cache on, the
  // second one reuses the first one's fitted baselines and must still
  // produce a byte-identical report.
  EngineOptions on_options;
  on_options.workers = 2;
  on_options.enable_cache = false;
  on_options.coalesce_identical = false;
  on_options.enable_model_cache = true;
  DiagnosisEngine on_engine(on_options, symptoms_);
  DiagnosisRequest first = RequestForScenario();
  first.tag = "incident-1";
  DiagnosisRequest second = RequestForScenario();
  second.tag = "incident-2";
  DiagnosisResponse r1 = on_engine.Submit(std::move(first)).get();
  DiagnosisResponse r2 = on_engine.Submit(std::move(second)).get();
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.ok()) << r2.status.ToString();
  EXPECT_EQ(diag::ReportDigest(*r1.report), *serial_digest_);
  EXPECT_EQ(diag::ReportDigest(*r2.report), *serial_digest_);
  EngineStatsSnapshot on_stats = on_engine.Stats();
  EXPECT_GT(on_stats.model_cache_misses, 0u);
  EXPECT_GT(on_stats.model_cache_hits, 0u);  // Second incident reused.
  EXPECT_GT(on_stats.ModelCacheHitRate(), 0.0);

  EngineOptions off_options = on_options;
  off_options.enable_model_cache = false;
  DiagnosisEngine off_engine(off_options, symptoms_);
  DiagnosisRequest plain = RequestForScenario();
  plain.tag = "incident-3";
  DiagnosisResponse r3 = off_engine.Submit(std::move(plain)).get();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(diag::ReportDigest(*r3.report), *serial_digest_);
  EngineStatsSnapshot off_stats = off_engine.Stats();
  EXPECT_EQ(off_stats.model_cache_hits, 0u);
  EXPECT_EQ(off_stats.model_cache_misses, 0u);

  // A cache smaller than the scenario's model set: LRU would evict each
  // model just before the second incident asks for it again. The CLOCK
  // cache keeps its residents, declines the surplus, and must still
  // report byte-identically. One shard keeps the outcome independent of
  // where the store happens to be allocated (the key hashes its address).
  ASSERT_GT(on_stats.model_cache_entries, 8u);
  EngineOptions small_options = on_options;
  small_options.model_cache_shards = 1;
  small_options.model_cache_capacity =
      on_stats.model_cache_entries - on_stats.model_cache_entries / 8;
  DiagnosisEngine small_engine(small_options, symptoms_);
  DiagnosisRequest cold = RequestForScenario();
  cold.tag = "incident-4";
  DiagnosisResponse r4 = small_engine.Submit(std::move(cold)).get();
  ASSERT_TRUE(r4.ok()) << r4.status.ToString();
  const EngineStatsSnapshot after_cold = small_engine.Stats();
  DiagnosisRequest again = RequestForScenario();
  again.tag = "incident-5";
  DiagnosisResponse r5 = small_engine.Submit(std::move(again)).get();
  ASSERT_TRUE(r5.ok()) << r5.status.ToString();
  const EngineStatsSnapshot after_again = small_engine.Stats();
  EXPECT_EQ(diag::ReportDigest(*r4.report), *serial_digest_);
  EXPECT_EQ(diag::ReportDigest(*r5.report), *serial_digest_);
  EXPECT_GT(after_again.model_cache_hits, after_cold.model_cache_hits);
  EXPECT_GT(after_again.model_cache_declined, after_cold.model_cache_declined);
  EXPECT_LE(after_again.model_cache_entries,
            small_options.model_cache_capacity);
}

TEST_F(EngineScenarioTest, ConcurrentIdenticalRequestsCoalesce) {
  EngineOptions options;
  options.workers = 4;
  options.enable_cache = false;  // Force the in-flight path, not the cache.
  DiagnosisEngine engine(options, symptoms_);
  std::vector<std::future<DiagnosisResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.Submit(RequestForScenario()));
  }
  int coalesced = 0;
  for (std::future<DiagnosisResponse>& future : futures) {
    DiagnosisResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(diag::ReportDigest(*response.report), *serial_digest_);
    if (response.coalesced) ++coalesced;
  }
  // At least the requests submitted while the first was queued or running
  // joined it (timing-dependent, but with 8 instant submissions some must).
  EXPECT_GT(coalesced, 0);
  EXPECT_EQ(engine.Stats().coalesced, static_cast<uint64_t>(coalesced));
}

TEST_F(EngineScenarioTest, RejectsInvalidContext) {
  DiagnosisEngine engine(EngineOptions{}, symptoms_);
  DiagnosisRequest request;  // Null sources.
  DiagnosisResponse response = engine.Submit(std::move(request)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Stats().failed, 1u);
}

TEST_F(EngineScenarioTest, SubmitAfterShutdownResolvesRejected) {
  DiagnosisEngine engine(EngineOptions{}, symptoms_);
  engine.Shutdown();
  DiagnosisResponse response = engine.Submit(RequestForScenario()).get();
  EXPECT_EQ(response.status.code(), StatusCode::kShutdown);
  EXPECT_EQ(engine.Stats().rejected, 1u);
}

TEST_F(EngineScenarioTest, UncoalescedRefusalsAreBookedAndMeasured) {
  // Coalescing off, one tenant flooding identical requests past its queue
  // share: every request ends in exactly one terminal counter and one
  // request-latency observation, refusals included.
  EngineOptions options;
  options.workers = 1;
  options.queue_capacity = 4;  // Tenant share: 2 queued requests.
  options.enable_cache = false;
  options.coalesce_identical = false;
  DiagnosisEngine engine(options, symptoms_);
  constexpr int kFlood = 12;
  std::vector<std::future<DiagnosisResponse>> futures;
  for (int i = 0; i < kFlood; ++i) {
    futures.push_back(engine.Submit(RequestForScenario()));
  }
  int refused = 0;
  for (std::future<DiagnosisResponse>& future : futures) {
    DiagnosisResponse response = future.get();
    if (response.ok()) {
      EXPECT_FALSE(response.coalesced);
      EXPECT_EQ(diag::ReportDigest(*response.report), *serial_digest_);
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
          << response.status.ToString();
      EXPECT_EQ(response.report, nullptr);
      ++refused;
    }
  }
  // Submits take microseconds and a diagnosis milliseconds, so the flood
  // overruns its share of 2 queued requests.
  EXPECT_GT(refused, 0);
  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kFlood));
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(refused));
  EXPECT_EQ(stats.rejected_share, static_cast<uint64_t>(refused));
  EXPECT_EQ(stats.completed + stats.failed + stats.rejected, stats.submitted);
  EXPECT_EQ(stats.request_latency.count, stats.submitted);
}

TEST_F(EngineScenarioTest, ModuleLatenciesAreRecorded) {
  DiagnosisEngine engine(EngineOptions{}, symptoms_);
  ASSERT_TRUE(engine.Submit(RequestForScenario()).get().ok());
  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.co.count, 1u);
  EXPECT_EQ(stats.ia.count, 1u);
  EXPECT_EQ(stats.request_latency.count, 1u);
  // One request covers its modules: exact means, not bucket estimates.
  EXPECT_GE(stats.request_latency.mean_ms,
            stats.pd.mean_ms + stats.co.mean_ms + stats.da.mean_ms +
                stats.cr.mean_ms + stats.sd.mean_ms + stats.ia.mean_ms);
}

// --- DiagnosisEngine: the metric table ------------------------------------

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool letter = std::isalpha(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':';
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!letter && !(digit && i > 0)) return false;
  }
  return true;
}

/// What `row`'s collected sample carries, read through its snapshot
/// member (a histogram sample carries its observation count).
double SnapshotValue(const EngineStatsSnapshot& snapshot,
                     const EngineMetricRow& row) {
  if (row.count != nullptr) return static_cast<double>(snapshot.*row.count);
  if (row.value != nullptr) return snapshot.*row.value;
  return static_cast<double>((snapshot.*row.latency).count);
}

TEST_F(EngineScenarioTest, EveryMetricRowIsCollectedOnceAndReadsBack) {
  // A small workload that moves most rows: a computed diagnosis with an
  // async gather and a fleet publish, a cache hit, an invalid request, an
  // explicit invalidation, and a refusal after shutdown.
  fleet::FleetStore store;
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0.5;
  EngineOptions options;
  options.workers = 2;
  options.fleet_store = &store;
  DiagnosisEngine engine(
      options, symptoms_,
      std::make_shared<monitor::SimulatedSanCollector>(latency));
  ASSERT_TRUE(engine.Submit(RequestForScenario()).get().ok());
  ASSERT_TRUE(engine.Submit(RequestForScenario()).get().cache_hit);
  EXPECT_FALSE(engine.Submit(DiagnosisRequest{}).get().ok());
  EXPECT_EQ(engine.InvalidateTenantResults("tenant-a"), 1u);
  engine.Shutdown();
  EXPECT_FALSE(engine.Submit(RequestForScenario()).get().ok());

  // The clock-driven rows (elapsed, throughput) move between reads, so
  // each collected value must lie between a snapshot taken before the
  // scrape and one taken after it; every other row reads back exactly.
  const EngineStatsSnapshot before = engine.Stats();
  const std::vector<obs::MetricSample> samples = engine.metrics().Collect();
  const EngineStatsSnapshot after = engine.Stats();

  const std::vector<EngineMetricRow>& rows = EngineMetricRows();
  EXPECT_EQ(samples.size(), rows.size());
  std::set<std::pair<std::string, obs::Labels>> seen;
  size_t moved = 0;
  for (const EngineMetricRow& row : rows) {
    SCOPED_TRACE(row.name);
    EXPECT_TRUE(ValidMetricName(row.name));
    EXPECT_TRUE(seen.insert({row.name, row.labels()}).second)
        << "two rows share a name and labels";
    EXPECT_EQ((row.count != nullptr) + (row.value != nullptr) +
                  (row.latency != nullptr),
              1);
    EXPECT_EQ(row.type == obs::MetricType::kHistogram,
              row.latency != nullptr);
    const obs::MetricSample* sample = nullptr;
    int matches = 0;
    for (const obs::MetricSample& candidate : samples) {
      if (candidate.name == row.name && candidate.labels == row.labels()) {
        sample = &candidate;
        ++matches;
      }
    }
    ASSERT_EQ(matches, 1);
    EXPECT_EQ(sample->type, row.type);
    const double a = SnapshotValue(before, row);
    const double b = SnapshotValue(after, row);
    EXPECT_GE(sample->value, std::min(a, b));
    EXPECT_LE(sample->value, std::max(a, b));
    if (row.latency != nullptr && sample->value > 0) {
      EXPECT_DOUBLE_EQ((after.*row.latency).mean_ms,
                       sample->hist_sum / sample->value);
    }
    if (sample->value != 0) ++moved;
  }
  // Enough rows moved that a row filling the wrong member would show.
  EXPECT_GT(moved, rows.size() / 2);
}

TEST_F(EngineScenarioTest, CacheHitSoakKeepsMetricsMemoryFlat) {
  // A dashboard polling one answered question: every poll is a
  // result-cache hit that records a request latency. The engine's
  // instruments are fixed-size, so 10^5 polls leave the registry with the
  // samples and buckets one poll did.
  EngineOptions options;
  options.workers = 1;
  DiagnosisEngine engine(options, symptoms_);
  const DiagnosisRequest request = RequestForScenario();
  ASSERT_TRUE(engine.Submit(request).get().ok());
  ASSERT_TRUE(engine.Submit(request).get().cache_hit);
  const auto shape = [&engine] {
    std::vector<size_t> buckets;
    for (const obs::MetricSample& sample : engine.metrics().Collect()) {
      buckets.push_back(sample.hist_bounds.size());
    }
    return buckets;
  };
  const std::vector<size_t> after_one_poll = shape();

  constexpr uint64_t kPolls = 100000;
  for (uint64_t poll = 1; poll < kPolls; ++poll) {
    ASSERT_TRUE(engine.Submit(request).get().cache_hit);
  }
  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.request_latency.count, kPolls + 1);  // + the compute.
  EXPECT_EQ(stats.cache_hits, kPolls);
  EXPECT_EQ(shape(), after_one_poll);
}

// --- DiagnosisEngine: async collection --------------------------------------

TEST_F(EngineScenarioTest, AsyncCollectionIsDigestIdenticalAndMeasured) {
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0.5;
  auto collector =
      std::make_shared<monitor::SimulatedSanCollector>(latency);
  EngineOptions options;
  options.workers = 2;
  DiagnosisEngine engine(options, symptoms_, collector);
  DiagnosisResponse response = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(diag::ReportDigest(*response.report), *serial_digest_);
  ASSERT_NE(response.collection, nullptr);
  EXPECT_FALSE(response.stale_data());
  EXPECT_GT(response.collection->fetches, 0u);
  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.collection_fetches, response.collection->fetches);
  EXPECT_EQ(stats.collection_timeouts, 0u);
  EXPECT_EQ(stats.degraded_diagnoses, 0u);
  EXPECT_EQ(stats.gather_latency.count, 1u);
  EXPECT_EQ(stats.fetch_latency.count, response.collection->fetches);
}

TEST_F(EngineScenarioTest, StaleAnnotationSurvivesTheCache) {
  // V1's collector never answers: every computed diagnosis degrades, and a
  // later cache hit must still carry the stale-data annotation.
  diag::DiagnosisContext ctx = scenario_->MakeContext();
  Result<ComponentId> v1 = ctx.topology->registry().FindByName("V1");
  ASSERT_TRUE(v1.ok());
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0.5;
  latency.per_component_ms[v1->value] = 10000;
  auto collector =
      std::make_shared<monitor::SimulatedSanCollector>(latency);
  EngineOptions options;
  options.workers = 2;
  // Wide enough that an innocent 0.5ms fetch never times out on a loaded
  // machine (parallel ctest), narrow enough that V1's 10s stall always
  // does.
  options.gather.timeout_ms = 250;
  options.gather.max_attempts = 1;
  DiagnosisEngine engine(options, symptoms_, collector);

  DiagnosisResponse computed = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(computed.ok()) << computed.status.ToString();
  EXPECT_TRUE(computed.stale_data());
  EXPECT_EQ(diag::ReportDigest(*computed.report), *serial_digest_);

  DiagnosisResponse cached = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.cache_hit);
  ASSERT_NE(cached.collection, nullptr);
  EXPECT_TRUE(cached.stale_data());
  ASSERT_EQ(cached.collection->stale_components.size(), 1u);
  EXPECT_EQ(cached.collection->stale_components[0], *v1);

  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.degraded_diagnoses, 1u);  // The cache hit recollects nothing.
  EXPECT_EQ(stats.collection_stale, 1u);
}

// --- DiagnosisEngine: tracing + cost profiles -------------------------------

TEST_F(EngineScenarioTest, TraceCoversColdDiagnosisEndToEnd) {
  // One cold diagnosis through the full serving path (async collector +
  // fleet store + tracer) must leave a span tree covering queue wait,
  // result-cache lookup, the scatter/gather with per-component fetches,
  // every workflow module, the model-cache outcome, and the fleet
  // publish — with consistent parent/child nesting.
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0.5;
  auto collector =
      std::make_shared<monitor::SimulatedSanCollector>(latency);
  fleet::FleetStore store;
  obs::Tracer tracer;
  EngineOptions options;
  options.workers = 2;
  options.fleet_store = &store;
  options.tracer = &tracer;
  DiagnosisEngine engine(options, symptoms_, collector);

  DiagnosisResponse response = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(diag::ReportDigest(*response.report), *serial_digest_);

  const std::vector<obs::Span> spans = tracer.Spans();
  EXPECT_EQ(CheckSpanNesting(spans, /*slack_ns=*/1000000), "");

  std::set<std::string> names;
  for (const obs::Span& span : spans) names.insert(span.name);
  for (const char* required :
       {"diagnosis", "queue_wait", "result_cache", "gather", "module:PD",
        "module:CO", "module:DA", "module:CR", "module:SD", "module:IA",
        "model_cache", "fleet_publish"}) {
    EXPECT_TRUE(names.count(required) != 0)
        << "trace is missing span " << required;
  }
  bool saw_fetch = false;
  for (const std::string& name : names) {
    if (name.rfind("fetch:C", 0) == 0) saw_fetch = true;
  }
  EXPECT_TRUE(saw_fetch) << "no per-component fetch spans";

  // The root span carries the request identity and the outcome.
  const obs::Span* root = nullptr;
  for (const obs::Span& span : spans) {
    if (span.name == "diagnosis") root = &span;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
  ASSERT_NE(root->FindArg("tag"), nullptr);
  EXPECT_EQ(*root->FindArg("tag"), "tenant-a");
  ASSERT_NE(root->FindArg("outcome"), nullptr);
  EXPECT_EQ(*root->FindArg("outcome"), "ok");

  // Gather and module spans nest under the root (directly or via a
  // parent chain) — spot-check the gather's parentage.
  std::map<obs::SpanId, const obs::Span*> by_id;
  for (const obs::Span& span : spans) by_id[span.id] = &span;
  for (const obs::Span& span : spans) {
    if (span.name != "gather") continue;
    obs::SpanId ancestor = span.parent;
    bool reaches_root = false;
    while (ancestor != 0) {
      if (ancestor == root->id) { reaches_root = true; break; }
      auto it = by_id.find(ancestor);
      ASSERT_NE(it, by_id.end());
      ancestor = it->second->parent;
    }
    EXPECT_TRUE(reaches_root) << "gather span not under the diagnosis root";
  }

  // Chrome export of a real serving trace stays strictly parseable.
  EXPECT_TRUE(ValidateJson(tracer.ExportChromeTrace()).ok());
}

TEST_F(EngineScenarioTest, TracingIsDigestNeutral) {
  // Same scenario, tracer detached vs attached: byte-identical digests.
  // (The 24-config conformance matrix runs untraced; bench_engine_throughput
  // CI-gates the same property across a whole fleet.)
  std::string untraced_digest;
  {
    EngineOptions options;
    options.workers = 2;
    DiagnosisEngine engine(options, symptoms_);
    DiagnosisResponse response = engine.Submit(RequestForScenario()).get();
    ASSERT_TRUE(response.ok());
    untraced_digest = diag::ReportDigest(*response.report);
  }
  obs::Tracer tracer;
  EngineOptions options;
  options.workers = 2;
  options.tracer = &tracer;
  DiagnosisEngine engine(options, symptoms_);
  DiagnosisResponse response = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(diag::ReportDigest(*response.report), untraced_digest);
  EXPECT_EQ(untraced_digest, *serial_digest_);
  EXPECT_GT(tracer.span_count(), 0u);
}

TEST_F(EngineScenarioTest, ColdAndCachedResponsesCarryCostProfiles) {
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0.5;
  auto collector =
      std::make_shared<monitor::SimulatedSanCollector>(latency);
  EngineOptions options;
  options.workers = 2;
  DiagnosisEngine engine(options, symptoms_, collector);

  DiagnosisResponse cold = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  ASSERT_NE(cold.cost, nullptr);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_FALSE(cold.coalesced);
  EXPECT_FALSE(cold.cost->result_cache_hit);
  ASSERT_EQ(cold.cost->module_ms.size(), 6u);
  EXPECT_EQ(cold.cost->module_ms[0].first, "PD");
  EXPECT_EQ(cold.cost->module_ms[5].first, "IA");
  EXPECT_GT(cold.cost->gather_ms, 0.0);
  EXPECT_GT(cold.cost->fetches_issued, 0u);
  EXPECT_GT(cold.cost->samples_collected, 0u);
  EXPECT_GT(cold.cost->bytes_collected, 0u);
  EXPECT_TRUE(cold.cost->stale_components.empty());
  EXPECT_GE(cold.cost->queue_wait_ms, 0.0);
  // Total covers the parts it decomposes into.
  EXPECT_GE(cold.cost->total_ms,
            cold.cost->gather_ms + cold.cost->ModuleTotalMs());
  // The profile is digest-neutral metadata: it must parse as JSON.
  EXPECT_TRUE(ValidateJson(cold.cost->ToJson()).ok());

  DiagnosisResponse cached = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.cache_hit);
  ASSERT_NE(cached.cost, nullptr);
  EXPECT_TRUE(cached.cost->result_cache_hit);
  EXPECT_EQ(cached.cost->fetches_issued, 0u);  // Nothing recollected.
}

TEST_F(EngineScenarioTest, FleetVerdictCarriesCostProfile) {
  fleet::FleetStore store;
  EngineOptions options;
  options.workers = 2;
  options.fleet_store = &store;
  DiagnosisEngine engine(options, symptoms_);
  DiagnosisResponse response = engine.Submit(RequestForScenario()).get();
  ASSERT_TRUE(response.ok());
  ASSERT_NE(response.cost, nullptr);

  bool saw_cost = false;
  for (const fleet::FleetStore::Row& row : store.Snapshot()) {
    if (row.record == nullptr || row.record->cost == nullptr) continue;
    saw_cost = true;
    // The published profile is the same shared object the response holds.
    EXPECT_EQ(row.record->cost.get(), response.cost.get());
  }
  EXPECT_TRUE(saw_cost) << "no published row carries a cost profile";
}

// The shutdown-while-fetches-in-flight contract: Shutdown() must await
// running diagnoses (whose gathers are mid-flight against a slow
// simulated backend), fail still-queued ones with an explicit kShutdown,
// resolve every future, and join the collector's connection threads —
// deterministically, with no leaked threads. Run under TSan to validate
// the teardown ordering.
TEST(EngineAsyncShutdownTest, ShutdownWithFetchesInFlightResolvesEverything) {
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  Result<ScenarioOutput> scenario =
      RunScenario(ScenarioId::kS2DualExternalContention, {});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 5;  // Slow enough that fetches are in flight.
  latency.connections = 2;
  auto collector =
      std::make_shared<monitor::SimulatedSanCollector>(latency);
  EngineOptions options;
  options.workers = 2;
  options.enable_cache = false;
  options.coalesce_identical = false;  // Force every request to compute.
  options.gather.timeout_ms = 50;
  DiagnosisEngine engine(options, &symptoms, collector);

  std::vector<std::future<DiagnosisResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    DiagnosisRequest request;
    request.ctx = scenario->MakeContext();
    request.tag = "tenant-shutdown";
    futures.push_back(engine.Submit(std::move(request)));
  }
  engine.Shutdown();  // While gathers are mid-flight.
  size_t completed = 0, cancelled = 0;
  for (std::future<DiagnosisResponse>& future : futures) {
    DiagnosisResponse response = future.get();  // Must resolve, never hang.
    if (response.ok()) {
      ASSERT_NE(response.report, nullptr);
      ++completed;
    } else {
      // Still queued at shutdown: failed with the explicit status, not
      // silently dropped or run after teardown began.
      EXPECT_EQ(response.status.code(), StatusCode::kShutdown)
          << response.status.ToString();
      ++cancelled;
    }
  }
  // Whether a given request completed or was cancelled is a scheduling
  // race; the contract is only that every future resolves one way.
  EXPECT_EQ(completed + cancelled, 6u);
  // The collector was shut down with the engine: later fetches fail fast
  // rather than landing on dead connection threads.
  monitor::FetchRequest probe;
  probe.component = ComponentId{0};
  probe.source = &scenario->testbed->store;
  EXPECT_FALSE(collector->Fetch(probe).get().ok());
}

// Plan-change scenarios exercise the deployment what-if probe, which
// temporarily mutates the tenant catalog; the engine serializes probes and
// coalesces identical requests, so concurrent submissions stay correct.
TEST(EngineProbeTest, PlanChangeScenarioDeterministicUnderConcurrency) {
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  Result<ScenarioOutput> scenario =
      RunScenario(ScenarioId::kS6IndexDrop, {});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  diag::Workflow workflow(scenario->MakeContext(), diag::WorkflowConfig{},
                          &symptoms);
  Result<diag::DiagnosisReport> serial = workflow.Diagnose();
  ASSERT_TRUE(serial.ok());
  const std::string serial_digest = diag::ReportDigest(*serial);

  EngineOptions options;
  options.workers = 4;
  DiagnosisEngine engine(options, &symptoms);
  std::vector<std::future<DiagnosisResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    DiagnosisRequest request;
    request.ctx = scenario->MakeContext();
    request.tag = "tenant-s6";
    futures.push_back(engine.Submit(std::move(request)));
  }
  for (std::future<DiagnosisResponse>& future : futures) {
    DiagnosisResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(diag::ReportDigest(*response.report), serial_digest);
  }
}

// --- DiagnosisEngine: fleet stress -------------------------------------------

TEST(EngineStressTest, HundredPlusConcurrentRequestsAcrossScenarios) {
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  FleetOptions fleet_options;
  fleet_options.tenants = 5;               // All five Table-1 scenarios.
  fleet_options.requests_per_tenant = 24;  // 120 requests total.
  fleet_options.scenario_options.satisfactory_runs = 16;
  fleet_options.scenario_options.unsatisfactory_runs = 8;
  Result<FleetWorkload> fleet = BuildFleet(fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_EQ(fleet->requests.size(), 120u);

  // Serial ground truth per tenant.
  std::vector<std::string> expected_digest;
  for (const workload::FleetTenant& tenant : fleet->tenants) {
    Result<diag::DiagnosisReport> serial =
        SerialDiagnosis(tenant, diag::WorkflowConfig{}, &symptoms);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    expected_digest.push_back(diag::ReportDigest(*serial));
  }

  EngineOptions options;
  options.workers = 4;
  options.queue_capacity = 32;  // Exercise backpressure too.
  DiagnosisEngine engine(options, &symptoms);
  // Two waves: the first one's duplicates mostly coalesce onto in-flight
  // computations (submission far outpaces diagnosis); after the drain the
  // second wave is served from the warm cache.
  const size_t wave1 = 90;
  std::vector<std::future<DiagnosisResponse>> futures;
  futures.reserve(fleet->requests.size());
  for (size_t i = 0; i < wave1; ++i) {
    futures.push_back(engine.Submit(std::move(fleet->requests[i])));
  }
  engine.Drain();
  for (size_t i = wave1; i < fleet->requests.size(); ++i) {
    futures.push_back(engine.Submit(std::move(fleet->requests[i])));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    DiagnosisResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    ASSERT_NE(response.report, nullptr);
    if (i >= wave1) {
      EXPECT_TRUE(response.cache_hit) << "wave-2 request " << i;
    }
    EXPECT_EQ(diag::ReportDigest(*response.report),
              expected_digest[fleet->tenant_of_request[i]])
        << "request " << i << " (tenant "
        << fleet->tenants[fleet->tenant_of_request[i]].name << ")";
  }
  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.submitted, 120u);
  EXPECT_EQ(stats.completed, 120u);
  EXPECT_EQ(stats.failed, 0u);
  // 5 distinct diagnosis identities; nearly everything else hit the cache
  // or coalesced onto an in-flight computation. (A submission can race
  // into the tiny window between a cache publish and the in-flight map
  // cleanup and recompute, so allow a little slack over the ideal 115.)
  EXPECT_GE(stats.cache_hits + stats.coalesced, 109u);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(EngineStressTest, ShutdownWhileBusyResolvesEveryFuture) {
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  FleetOptions fleet_options;
  fleet_options.tenants = 2;
  fleet_options.requests_per_tenant = 10;
  fleet_options.scenario_options.satisfactory_runs = 12;
  fleet_options.scenario_options.unsatisfactory_runs = 6;
  Result<FleetWorkload> fleet = BuildFleet(fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  EngineOptions options;
  options.workers = 2;
  DiagnosisEngine engine(options, &symptoms);
  std::vector<std::future<DiagnosisResponse>> futures;
  for (engine::DiagnosisRequest& request : fleet->requests) {
    futures.push_back(engine.Submit(std::move(request)));
  }
  engine.Shutdown();  // While requests are queued / running.
  int completed = 0, shutdown_failed = 0;
  for (std::future<DiagnosisResponse>& future : futures) {
    DiagnosisResponse response = future.get();  // Must resolve, never hang.
    if (response.ok()) {
      ASSERT_NE(response.report, nullptr);
      ++completed;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kShutdown)
          << response.status.ToString();
      ++shutdown_failed;
    }
  }
  // Every accepted future resolves exactly once: running work completes,
  // still-queued work fails with the explicit kShutdown status.
  EXPECT_EQ(completed + shutdown_failed, 20);
}

TEST(EngineBatchTest, BatchDiagnosePreservesOrderAndMatchesSerial) {
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  FleetOptions fleet_options;
  fleet_options.tenants = 3;
  fleet_options.requests_per_tenant = 2;
  fleet_options.scenario_options.satisfactory_runs = 12;
  fleet_options.scenario_options.unsatisfactory_runs = 6;
  fleet_options.shuffle = false;
  Result<FleetWorkload> fleet = BuildFleet(fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  std::vector<std::string> expected_digest;
  for (const workload::FleetTenant& tenant : fleet->tenants) {
    Result<diag::DiagnosisReport> serial =
        SerialDiagnosis(tenant, diag::WorkflowConfig{}, &symptoms);
    ASSERT_TRUE(serial.ok());
    expected_digest.push_back(diag::ReportDigest(*serial));
  }

  EngineOptions options;
  options.workers = 4;
  DiagnosisEngine engine(options, &symptoms);
  std::vector<DiagnosisResponse> responses =
      engine.BatchDiagnose(std::move(fleet->requests));
  ASSERT_EQ(responses.size(), 6u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status.ToString();
    EXPECT_EQ(diag::ReportDigest(*responses[i].report),
              expected_digest[fleet->tenant_of_request[i]]);
  }
}

// --- Result-cache invalidation ----------------------------------------------

// Own fixture (not EngineScenarioTest): these tests append to the
// tenant's store, which must not perturb the shared scenario the
// determinism tests compare against.
class EngineInvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ScenarioOptions options;
    options.satisfactory_runs = 12;
    options.unsatisfactory_runs = 6;
    Result<ScenarioOutput> scenario =
        RunScenario(ScenarioId::kS1SanMisconfiguration, options);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = std::make_unique<ScenarioOutput>(std::move(*scenario));
    symptoms_ = std::make_unique<diag::SymptomsDb>(
        diag::SymptomsDb::MakeDefault());
  }

  DiagnosisRequest Request(const std::string& tag) {
    DiagnosisRequest request;
    request.ctx = scenario_->MakeContext();
    request.tag = tag;
    return request;
  }

  /// Appends one sample past the end of every existing V1 reading — the
  /// "new monitoring interval arrived" event.
  void AppendToV1() {
    workload::Testbed& testbed = *scenario_->testbed;
    const auto& series = testbed.store.Series(
        testbed.v1, monitor::MetricId::kVolTotalIos);
    const SimTimeMs at = series.empty() ? 0 : series.back().time + 1;
    ASSERT_TRUE(
        testbed.store.Append(testbed.v1, monitor::MetricId::kVolTotalIos,
                             at, 123.0)
            .ok());
  }

  /// Whether `store` holds `tag`'s tenant-level row for the scenario's
  /// analysis window.
  bool HasTenantRow(const fleet::FleetStore& store, const std::string& tag) {
    const TimeInterval window = scenario_->MakeContext().AnalysisWindow();
    return store.Get(fleet::FleetKey{tag, "", window.begin, window.end})
               .record != nullptr;
  }

  std::unique_ptr<ScenarioOutput> scenario_;
  std::unique_ptr<diag::SymptomsDb> symptoms_;
};

TEST_F(EngineInvalidationTest, PostAppendQueryIsNeverServedStaleReport) {
  EngineOptions options;
  options.workers = 2;
  DiagnosisEngine engine(options, symptoms_.get());

  DiagnosisResponse first = engine.Submit(Request("tenant-a")).get();
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  DiagnosisResponse repeat = engine.Submit(Request("tenant-a")).get();
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.cache_hit);

  // New monitoring data arrives: the cached report is now stale. The same
  // question must recompute, never serve the old object.
  AppendToV1();
  DiagnosisResponse fresh = engine.Submit(Request("tenant-a")).get();
  ASSERT_TRUE(fresh.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_NE(fresh.report.get(), first.report.get());

  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);

  // The recomputed answer equals a serial diagnosis over the *current*
  // (post-append) data — the report is fresh, not merely different.
  diag::Workflow workflow(scenario_->MakeContext(), diag::WorkflowConfig{},
                          symptoms_.get());
  Result<diag::DiagnosisReport> serial = workflow.Diagnose();
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(diag::ReportDigest(*fresh.report), diag::ReportDigest(*serial));

  // And the post-append entry is itself cacheable again.
  DiagnosisResponse cached = engine.Submit(Request("tenant-a")).get();
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.cache_hit);
}

TEST_F(EngineInvalidationTest, ExplicitTenantInvalidationIsScopedToTag) {
  EngineOptions options;
  options.workers = 2;
  DiagnosisEngine engine(options, symptoms_.get());
  ASSERT_TRUE(engine.Submit(Request("tenant-a")).get().ok());
  ASSERT_TRUE(engine.Submit(Request("tenant-b")).get().ok());

  EXPECT_EQ(engine.InvalidateTenantResults("tenant-a"), 1u);

  DiagnosisResponse a = engine.Submit(Request("tenant-a")).get();
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a.cache_hit);  // Dropped.
  DiagnosisResponse b = engine.Submit(Request("tenant-b")).get();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.cache_hit);  // Untouched.
  EXPECT_EQ(engine.Stats().cache_invalidations, 1u);
}

TEST_F(EngineInvalidationTest, CacheHitRepopulatesInvalidatedFleetStore) {
  // An explicit fleet-store removal with no new monitoring data must not
  // make the tenant vanish from fleet queries forever: the next
  // (generation-valid) cache hit republishes the verdict, once, after
  // each of the four removal paths. Every path drops the tenant-level row
  // and bumps the store's invalidation epoch, which is what sends a hit
  // to look at the store.
  fleet::FleetStore store;
  EngineOptions options;
  options.workers = 2;
  options.fleet_store = &store;
  DiagnosisEngine engine(options, symptoms_.get());

  ASSERT_TRUE(engine.Submit(Request("tenant-a")).get().ok());
  EXPECT_EQ(engine.Stats().fleet_publishes, 1u);
  ASSERT_GT(store.TotalCounters().entries, 0u);

  // A hit with no removal since the entry was stamped publishes nothing.
  DiagnosisResponse first_hit = engine.Submit(Request("tenant-a")).get();
  ASSERT_TRUE(first_hit.ok());
  EXPECT_TRUE(first_hit.cache_hit);
  EXPECT_EQ(engine.Stats().fleet_publishes, 1u);

  // DropStale drops the rows older than the generation it is told the
  // component has reached; claiming one more than V1 holds drops them
  // without an append, so the result cache keeps hitting.
  const uint64_t v1_generation =
      scenario_->testbed->store.ComponentGeneration(scenario_->testbed->v1);
  const std::vector<std::pair<std::string, std::function<size_t()>>>
      removals = {
          {"InvalidateTenant",
           [&] { return store.InvalidateTenant("tenant-a"); }},
          {"InvalidateComponent",
           [&] { return store.InvalidateComponent("tenant-a", "V1"); }},
          {"DropStale",
           [&] {
             return store.DropStale("tenant-a", "V1", v1_generation + 1);
           }},
          {"Clear",
           [&] {
             const size_t rows = store.TotalCounters().entries;
             store.Clear();
             return rows;
           }},
      };
  uint64_t publishes = 1;
  for (const auto& [name, remove] : removals) {
    SCOPED_TRACE(name);
    const uint64_t epoch = store.invalidation_epoch();
    ASSERT_GT(remove(), 0u);
    EXPECT_EQ(store.invalidation_epoch(), epoch + 1);
    EXPECT_FALSE(HasTenantRow(store, "tenant-a"));

    DiagnosisResponse hit = engine.Submit(Request("tenant-a")).get();
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(engine.Stats().fleet_publishes, ++publishes);
    EXPECT_TRUE(HasTenantRow(store, "tenant-a"));
    fleet::FleetQuery query(&store);
    EXPECT_EQ(query.TenantsSharingComponent("V1"),
              (std::vector<std::string>{"tenant-a"}));

    // A further hit with the store already populated does not republish.
    DiagnosisResponse again = engine.Submit(Request("tenant-a")).get();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.cache_hit);
    EXPECT_EQ(engine.Stats().fleet_publishes, publishes);
  }
}

TEST_F(EngineInvalidationTest, RemovalsRacingCacheHitsLeaveNoTenantRowLost) {
  // Pollers hit cached questions while one thread removes tenant and
  // component rows. A hit looks at the fleet store only when the store's
  // invalidation epoch moved, and records the epoch it read before
  // looking. That is sound only because a removal bumps the epoch after
  // its erase: bumped before, a poller could read the new epoch, still
  // find the row, record the epoch, and the erase then drop the row for
  // good. Each round ends with one poll per question, which must leave
  // every tenant row present. Only a round's last removal can lose a
  // row, so the test runs many rounds, and ballast rows of other tenants
  // lengthen each removal's walk over the shards: the window in which a
  // misordered bump would be seen.
  fleet::FleetStore store;
  for (int i = 0; i < 200; ++i) {
    fleet::TenantVerdict ballast;
    ballast.tenant = StrFormat("ballast-%03d", i);
    for (int c = 0; c < 20; ++c) {
      fleet::ComponentVerdict component;
      component.component = StrFormat("B%02d", c);
      ballast.components.push_back(component);
    }
    store.Publish(ballast);
  }
  EngineOptions options;
  options.workers = 2;
  options.fleet_store = &store;
  DiagnosisEngine engine(options, symptoms_.get());

  const std::vector<std::string> tenants = {"tenant-0", "tenant-1",
                                            "tenant-2", "tenant-3"};
  for (const std::string& tenant : tenants) {
    ASSERT_TRUE(engine.Submit(Request(tenant)).get().ok());
  }
  std::vector<DiagnosisRequest> questions;
  for (const std::string& tenant : tenants) {
    questions.push_back(Request(tenant));
  }
  auto poll = [&](const DiagnosisRequest& question) {
    DiagnosisResponse response = engine.Submit(question).get();
    return response.ok() && response.cache_hit;
  };

  constexpr int kRounds = 30;
  constexpr int kPollers = 3;
  constexpr int kRemovalsPerRound = 8;
  int rounds_losing_a_row = 0;
  std::atomic<int> failed_polls{0};
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> polls{0};
    std::vector<std::thread> pollers;
    for (int p = 0; p < kPollers; ++p) {
      pollers.emplace_back([&, p] {
        for (size_t i = static_cast<size_t>(p); !stop.load(); ++i) {
          if (!poll(questions[i % questions.size()])) ++failed_polls;
          ++polls;
        }
      });
    }
    std::thread remover([&] {
      for (int i = 0; i < kRemovalsPerRound; ++i) {
        // Remove only while the pollers are polling.
        const uint64_t seen = polls.load();
        while (polls.load() < seen + 2 * kPollers) std::this_thread::yield();
        const std::string& tenant = tenants[(round + i) % tenants.size()];
        if ((round + i) % 2 == 0) {
          store.InvalidateTenant(tenant);
        } else {
          store.InvalidateComponent(tenant, "V1");
        }
      }
    });
    remover.join();
    stop = true;
    for (std::thread& poller : pollers) poller.join();

    for (const DiagnosisRequest& question : questions) {
      ASSERT_TRUE(poll(question));
    }
    for (const std::string& tenant : tenants) {
      if (!HasTenantRow(store, tenant)) {
        ++rounds_losing_a_row;
        break;
      }
    }
  }
  EXPECT_EQ(rounds_losing_a_row, 0);
  EXPECT_EQ(failed_polls.load(), 0);
}

TEST_F(EngineInvalidationTest, ExplicitComponentInvalidationMatchesReport) {
  EngineOptions options;
  options.workers = 2;
  DiagnosisEngine engine(options, symptoms_.get());
  ASSERT_TRUE(engine.Submit(Request("tenant-a")).get().ok());

  // A component the S1 report never touched: no entry matches.
  EXPECT_EQ(engine.InvalidateComponentResults("tenant-a",
                                              ComponentId{0xFFFFFFF0u}),
            0u);
  EXPECT_TRUE(engine.Submit(Request("tenant-a")).get().cache_hit);

  // V1 is scored by Module DA and named by the root cause: the entry
  // whose report touched it drops.
  EXPECT_EQ(engine.InvalidateComponentResults("tenant-a",
                                              scenario_->testbed->v1),
            1u);
  EXPECT_FALSE(engine.Submit(Request("tenant-a")).get().cache_hit);
}

}  // namespace
}  // namespace diads::engine
