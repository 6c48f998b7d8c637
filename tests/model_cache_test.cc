// Unit and golden tests for the baseline-model cache: the CLOCK admission
// policy and sharding mechanics, generation-driven invalidation, the
// GetOrFitBaseline helper, and the digest contract — a workflow
// diagnosing with a shared cache produces byte-identical reports to one
// without, including after Append-driven invalidation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "diads/model_cache.h"
#include "diads/report.h"
#include "diads/symptoms_db.h"
#include "diads/workflow.h"
#include "workload/scenario.h"

namespace diads::diag {
namespace {

using workload::RunScenario;
using workload::ScenarioId;
using workload::ScenarioOptions;
using workload::ScenarioOutput;

BaselineModelKey KeyFor(uint64_t series, uint64_t provenance = 1) {
  BaselineModelKey key;
  key.source = reinterpret_cast<const void*>(0x1000);
  key.series = series;
  key.window_begin = 0;
  key.window_end = 100;
  key.config_fingerprint = 7;
  key.provenance_fingerprint = provenance;
  return key;
}

ExtractedBaseline MakeBaseline(std::vector<double> values, int missing = 0) {
  ExtractedBaseline out;
  out.values = std::move(values);
  out.missing = missing;
  return out;
}

TEST(BaselineModelCacheTest, MissThenHitReturnsSameModel) {
  BaselineModelCache cache;
  const BaselineModelKey key = KeyFor(1);
  int extractions = 0;
  const auto extract = [&extractions] {
    ++extractions;
    return MakeBaseline({1, 2, 3, 4, 5}, 2);
  };
  Result<CachedBaseline> first = GetOrFitBaseline(
      &cache, key, /*generation=*/5, stats::BandwidthRule::kSilverman,
      extract);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->model, nullptr);
  EXPECT_EQ(first->missing, 2);
  EXPECT_EQ(extractions, 1);

  Result<CachedBaseline> second = GetOrFitBaseline(
      &cache, key, /*generation=*/5, stats::BandwidthRule::kSilverman,
      extract);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(extractions, 1);  // Served from cache: no re-extraction.
  EXPECT_EQ(second->model.get(), first->model.get());
  EXPECT_EQ(second->values.get(), first->values.get());
  EXPECT_EQ(second->missing, 2);

  const BaselineModelCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.entries, 1u);
}

TEST(BaselineModelCacheTest, GenerationMismatchInvalidates) {
  BaselineModelCache cache;
  const BaselineModelKey key = KeyFor(1);
  double value = 10;
  const auto extract = [&value] {
    return MakeBaseline({value, value + 1, value + 2});
  };
  Result<CachedBaseline> first = GetOrFitBaseline(
      &cache, key, /*generation=*/1, stats::BandwidthRule::kSilverman,
      extract);
  ASSERT_TRUE(first.ok());
  // The source advanced (an Append): same key, new generation.
  value = 50;
  Result<CachedBaseline> second = GetOrFitBaseline(
      &cache, key, /*generation=*/2, stats::BandwidthRule::kSilverman,
      extract);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->model.get(), first->model.get());
  EXPECT_EQ(second->values->front(), 50);
  const BaselineModelCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.invalidations, 1u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.entries, 1u);  // Replaced, not duplicated.
  // And the refreshed entry hits at the new generation.
  Result<CachedBaseline> third = GetOrFitBaseline(
      &cache, key, /*generation=*/2, stats::BandwidthRule::kSilverman,
      extract);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->model.get(), second->model.get());
}

TEST(BaselineModelCacheTest, DistinctKeysDistinctEntries) {
  BaselineModelCache cache;
  const auto extract = [] { return MakeBaseline({1, 2, 3}); };
  ASSERT_TRUE(GetOrFitBaseline(&cache, KeyFor(1), 1,
                               stats::BandwidthRule::kSilverman, extract)
                  .ok());
  ASSERT_TRUE(GetOrFitBaseline(&cache, KeyFor(2), 1,
                               stats::BandwidthRule::kSilverman, extract)
                  .ok());
  BaselineModelKey other_provenance = KeyFor(1, /*provenance=*/99);
  ASSERT_TRUE(GetOrFitBaseline(&cache, other_provenance, 1,
                               stats::BandwidthRule::kSilverman, extract)
                  .ok());
  EXPECT_EQ(cache.TotalCounters().entries, 3u);
}

/// Looks series [first, first + count) up once each, in order, fitting on
/// a miss as the modules do. Returns how many lookups hit.
uint64_t RunCycle(BaselineModelCache& cache, uint64_t first, uint64_t count) {
  obs::ModelLookupCounters lookups;
  for (uint64_t series = first; series < first + count; ++series) {
    EXPECT_TRUE(GetOrFitBaseline(
                    &cache, KeyFor(series), /*generation=*/1,
                    stats::BandwidthRule::kSilverman,
                    [] { return MakeBaseline({1, 2, 3}); }, &lookups)
                    .ok());
  }
  return lookups.hits;
}

TEST(BaselineModelCacheTest, CapacityIsAnExactTotal) {
  struct Shape {
    size_t capacity;
    int shards;
    int expected_shards;
  };
  for (const Shape& shape : {Shape{4, 16, 4}, Shape{100, 16, 16},
                             Shape{64, 1, 1}}) {
    SCOPED_TRACE(testing::Message() << shape.capacity << " over "
                                    << shape.shards << " shards");
    BaselineModelCache cache(
        BaselineModelCache::Options{shape.capacity, shape.shards});
    EXPECT_EQ(cache.shard_count(), shape.expected_shards);
    for (uint64_t series = 0; series < 2000; ++series) {
      RunCycle(cache, series, 1);
      ASSERT_LE(cache.TotalCounters().entries, shape.capacity);
    }
    // Enough distinct keys reach every shard to fill it.
    EXPECT_EQ(cache.TotalCounters().entries, shape.capacity);
  }
}

TEST(BaselineModelCacheTest, CyclicWorkingSetLargerThanCacheKeepsResidents) {
  // 72 models recurring once per cycle through one 64-slot shard. LRU
  // evicts each model just before its next use and never hits.
  BaselineModelCache cache(BaselineModelCache::Options{/*capacity=*/64,
                                                       /*shards=*/1});
  EXPECT_EQ(RunCycle(cache, 0, 72), 0u);
  uint64_t hits = 0;
  for (int cycle = 2; cycle <= 4; ++cycle) hits += RunCycle(cache, 0, 72);
  EXPECT_GE(static_cast<double>(hits), 0.85 * 3 * 72);
  const BaselineModelCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_GT(counters.declined, 0u);
  EXPECT_EQ(counters.entries, 64u);

  // The working set moves to 72 other models: the old residents stop
  // being referenced, so the new set takes over within a cycle.
  RunCycle(cache, 1000, 72);
  EXPECT_GE(static_cast<double>(RunCycle(cache, 1000, 72)), 0.85 * 72);
  for (uint64_t series = 0; series < 72; ++series) {
    EXPECT_FALSE(cache.Get(KeyFor(series), /*generation=*/1).has_value())
        << "old model " << series << " is still cached";
  }
  EXPECT_EQ(cache.TotalCounters().entries, 64u);
}

TEST(BaselineModelCacheTest, InvalidatedSlotIsReusedWithoutEviction) {
  BaselineModelCache cache(BaselineModelCache::Options{/*capacity=*/4,
                                                       /*shards=*/1});
  RunCycle(cache, 0, 4);  // Full, and every resident referenced.
  // Series 1's source advanced: its slot is freed on lookup.
  EXPECT_FALSE(cache.Get(KeyFor(1), /*generation=*/2).has_value());
  // A newcomer takes the freed slot; without it the hand would find
  // only referenced residents and decline.
  EXPECT_EQ(RunCycle(cache, 9, 1), 0u);
  const BaselineModelCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.invalidations, 1u);
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.declined, 0u);
  EXPECT_EQ(counters.entries, 4u);
  for (uint64_t series : {0, 2, 3, 9}) {
    EXPECT_TRUE(cache.Get(KeyFor(series), /*generation=*/1).has_value())
        << "series " << series;
  }
}

TEST(BaselineModelCacheTest, SubTwoSampleBaselinesAreNotCached) {
  BaselineModelCache cache;
  int extractions = 0;
  const auto extract = [&extractions] {
    ++extractions;
    return MakeBaseline({42.0}, 3);
  };
  Result<CachedBaseline> first = GetOrFitBaseline(
      &cache, KeyFor(1), 1, stats::BandwidthRule::kSilverman, extract);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->model, nullptr);  // Below the fit threshold.
  EXPECT_EQ(first->missing, 3);
  ASSERT_EQ(first->values->size(), 1u);
  Result<CachedBaseline> second = GetOrFitBaseline(
      &cache, KeyFor(1), 1, stats::BandwidthRule::kSilverman, extract);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(extractions, 2);  // Re-extracted: skips are not cached.
  EXPECT_EQ(cache.TotalCounters().entries, 0u);
}

TEST(BaselineModelCacheTest, NullCacheStillFits) {
  const auto extract = [] { return MakeBaseline({5, 6, 7, 8}); };
  Result<CachedBaseline> base = GetOrFitBaseline(
      nullptr, KeyFor(1), 1, stats::BandwidthRule::kSilverman, extract);
  ASSERT_TRUE(base.ok());
  ASSERT_NE(base->model, nullptr);
  EXPECT_EQ(base->model->sample_count(), 4u);
}

TEST(BaselineModelCacheTest, ConcurrentMixedAccessIsSafe) {
  BaselineModelCache cache(BaselineModelCache::Options{/*capacity=*/64,
                                                       /*shards=*/8});
  std::atomic<int> fits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &fits, t] {
      for (int i = 0; i < 200; ++i) {
        const uint64_t series = static_cast<uint64_t>((i + t) % 16);
        Result<CachedBaseline> base = GetOrFitBaseline(
            &cache, KeyFor(series), /*generation=*/1,
            stats::BandwidthRule::kSilverman, [&fits] {
              ++fits;
              return MakeBaseline({1, 2, 3, 4});
            });
        ASSERT_TRUE(base.ok());
        ASSERT_NE(base->model, nullptr);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const BaselineModelCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.hits + counters.misses, 800u);
  EXPECT_LE(counters.entries, 16u);
}

// --- The digest contract over a real scenario -------------------------------

class ModelCacheScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    symptoms_ = new SymptomsDb(SymptomsDb::MakeDefault());
    Result<ScenarioOutput> scenario =
        RunScenario(ScenarioId::kS1SanMisconfiguration, ScenarioOptions{});
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = new ScenarioOutput(std::move(*scenario));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    delete symptoms_;
    scenario_ = nullptr;
    symptoms_ = nullptr;
  }

  static std::string DigestWithCache(BaselineModelCache* cache) {
    DiagnosisContext ctx = scenario_->MakeContext();
    ctx.model_cache = cache;
    Workflow workflow(std::move(ctx), WorkflowConfig{}, symptoms_);
    Result<DiagnosisReport> report = workflow.Diagnose();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return ReportDigest(*report);
  }

  static SymptomsDb* symptoms_;
  static ScenarioOutput* scenario_;
};

SymptomsDb* ModelCacheScenarioTest::symptoms_ = nullptr;
ScenarioOutput* ModelCacheScenarioTest::scenario_ = nullptr;

TEST_F(ModelCacheScenarioTest, CacheOnVsOffDigestIdentical) {
  const std::string without = DigestWithCache(nullptr);
  BaselineModelCache cache;
  const std::string cold = DigestWithCache(&cache);
  const BaselineModelCache::Counters after_cold = cache.TotalCounters();
  EXPECT_GT(after_cold.misses, 0u);
  const std::string warm = DigestWithCache(&cache);
  const BaselineModelCache::Counters after_warm = cache.TotalCounters();
  EXPECT_GT(after_warm.hits, 0u);
  EXPECT_EQ(cold, without);
  EXPECT_EQ(warm, without);
}

TEST_F(ModelCacheScenarioTest, AppendInvalidatesAndStaysIdentical) {
  // A private scenario instance: this test appends to its store.
  Result<ScenarioOutput> scenario =
      RunScenario(ScenarioId::kS2DualExternalContention, ScenarioOptions{});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  BaselineModelCache cache;
  DiagnosisContext ctx = scenario->MakeContext();
  monitor::TimeSeriesStore* store = &scenario->testbed->store;
  ASSERT_EQ(ctx.store, store);

  ctx.model_cache = &cache;
  Workflow workflow(ctx, WorkflowConfig{}, symptoms_);
  Result<DiagnosisReport> first = workflow.Diagnose();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // New monitoring samples arrive on every series the store knows (all
  // past each series' last timestamp, as a collector would append them).
  size_t appended = 0;
  const std::vector<ComponentId> components = [&] {
    std::vector<ComponentId> out;
    for (uint32_t v = 0; v < 4096; ++v) {
      const ComponentId candidate{v};
      if (!store->MetricsFor(candidate).empty()) out.push_back(candidate);
    }
    return out;
  }();
  for (ComponentId component : components) {
    for (monitor::MetricId metric : store->MetricsFor(component)) {
      const std::vector<monitor::Sample>& series =
          store->Series(component, metric);
      const SimTimeMs last = series.empty() ? 0 : series.back().time;
      ASSERT_TRUE(
          store->Append(component, metric, last + Minutes(5), 1.0).ok());
      ++appended;
    }
  }
  ASSERT_GT(appended, 0u);

  // Same diagnosis window, same runs: the metric models must be refit
  // (generation bumped), never served stale, and the post-append report
  // must equal a cache-less control over the same post-append store.
  const BaselineModelCache::Counters before = cache.TotalCounters();
  Result<DiagnosisReport> second = workflow.Diagnose();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const BaselineModelCache::Counters after = cache.TotalCounters();
  EXPECT_GT(after.invalidations, before.invalidations);

  DiagnosisContext control_ctx = scenario->MakeContext();
  Workflow control(std::move(control_ctx), WorkflowConfig{}, symptoms_);
  Result<DiagnosisReport> reference = control.Diagnose();
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(ReportDigest(*second), ReportDigest(*reference));
}

}  // namespace
}  // namespace diads::diag
