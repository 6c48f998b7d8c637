// Fleet store unit tests: verdict extraction, sharded publish/supersede/
// stale-drop semantics, generation-driven and explicit invalidation,
// cross-tenant query semantics on synthetic fleets, and the concurrent
// publisher/querier/invalidator soak the TSan CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "diads/symptoms_db.h"
#include "diads/workflow.h"
#include "fleet/query.h"
#include "fleet/store.h"
#include "fleet/verdict.h"
#include "workload/scenario.h"

namespace diads {
namespace {

using fleet::CauseVerdict;
using fleet::ComponentVerdict;
using fleet::FleetKey;
using fleet::FleetKeyHash;
using fleet::FleetQuery;
using fleet::FleetStore;
using fleet::MetricVerdict;
using fleet::TenantVerdict;

// --- Synthetic verdict helpers ---------------------------------------------

ComponentVerdict MakeComponent(const std::string& name, double max_anomaly,
                               uint64_t generation,
                               bool cause_subject = false) {
  ComponentVerdict out;
  out.component = name;
  out.kind = ComponentKind::kVolume;
  out.in_ccs = max_anomaly >= 0.8;
  out.max_anomaly = max_anomaly;
  out.metrics.push_back(MetricVerdict{monitor::MetricId::kVolReadLatencyMs,
                                      max_anomaly, 0.9, max_anomaly >= 0.8});
  out.cause_subject = cause_subject;
  out.generation = generation;
  return out;
}

TenantVerdict MakeVerdict(const std::string& tenant, uint64_t generation,
                          const std::vector<ComponentVerdict>& components,
                          const std::vector<CauseVerdict>& causes = {}) {
  TenantVerdict out;
  out.tenant = tenant;
  out.query = "Q2";
  out.window_begin = 1000;
  out.window_end = 2000;
  out.store_generation = generation;
  out.components = components;
  out.causes = causes;
  return out;
}

CauseVerdict MakeCause(diag::RootCauseType type, const std::string& subject,
                       double confidence) {
  CauseVerdict out;
  out.type = type;
  out.subject = subject;
  out.confidence = confidence;
  out.band = confidence >= 80 ? diag::ConfidenceBand::kHigh
                              : diag::ConfidenceBand::kMedium;
  return out;
}

// --- Key hashing -----------------------------------------------------------

TEST(FleetKeyHashTest, SimilarTenantNamesSpreadAcrossBuckets) {
  // Fleet tenant names share long prefixes ("t00-S1-...", "t01-S1-...");
  // the splitmix-finished hash must still spread them uniformly.
  constexpr int kBuckets = 16;
  std::vector<int> counts(kBuckets, 0);
  FleetKeyHash hash;
  for (int t = 0; t < 64; ++t) {
    for (const char* component : {"", "V1", "V2", "P1", "dbserver"}) {
      FleetKey key{"t" + std::to_string(t) + "-S1-san-misconfiguration",
                   component, 1000, 2000};
      ++counts[hash(key) % kBuckets];
    }
  }
  const int total = 64 * 5;
  const int expected = total / kBuckets;
  for (int i = 0; i < kBuckets; ++i) {
    EXPECT_GT(counts[i], expected / 4) << "bucket " << i << " starved";
    EXPECT_LT(counts[i], expected * 3) << "bucket " << i << " overloaded";
  }
}

// --- Publish / supersede / stale-drop semantics ----------------------------

TEST(FleetStoreTest, PublishThenGetRoundTrips) {
  FleetStore store;
  store.Publish(MakeVerdict(
      "tenant-a", 7, {MakeComponent("V1", 0.95, 5)},
      {MakeCause(diag::RootCauseType::kSanMisconfigurationContention, "V1",
                 90)}));

  FleetStore::Row component =
      store.Get(FleetKey{"tenant-a", "V1", 1000, 2000});
  ASSERT_NE(component.component, nullptr);
  EXPECT_EQ(component.generation, 5u);
  EXPECT_DOUBLE_EQ(component.component->max_anomaly, 0.95);

  FleetStore::Row record = store.Get(FleetKey{"tenant-a", "", 1000, 2000});
  ASSERT_NE(record.record, nullptr);
  EXPECT_EQ(record.generation, 7u);
  ASSERT_EQ(record.record->causes.size(), 1u);
  EXPECT_EQ(record.record->causes[0].subject, "V1");

  const FleetStore::Counters counters = store.TotalCounters();
  EXPECT_EQ(counters.publishes, 1u);
  EXPECT_EQ(counters.rows_inserted, 2u);  // Component row + tenant row.
  EXPECT_EQ(counters.entries, 2u);
}

TEST(FleetStoreTest, NewerGenerationSupersedesOlderIsDropped) {
  FleetStore store;
  store.Publish(MakeVerdict("t", 2, {MakeComponent("V1", 0.5, 2)}));
  store.Publish(MakeVerdict("t", 3, {MakeComponent("V1", 0.9, 3)}));

  FleetStore::Row row = store.Get(FleetKey{"t", "V1", 1000, 2000});
  ASSERT_NE(row.component, nullptr);
  EXPECT_EQ(row.generation, 3u);
  EXPECT_DOUBLE_EQ(row.component->max_anomaly, 0.9);

  // A publish derived from older data must never replace the newer row.
  store.Publish(MakeVerdict("t", 1, {MakeComponent("V1", 0.1, 1)}));
  row = store.Get(FleetKey{"t", "V1", 1000, 2000});
  EXPECT_EQ(row.generation, 3u);
  EXPECT_DOUBLE_EQ(row.component->max_anomaly, 0.9);

  const FleetStore::Counters counters = store.TotalCounters();
  EXPECT_EQ(counters.rows_stale_dropped, 2u);  // Component + tenant row.
  EXPECT_GE(counters.rows_superseded, 2u);
  EXPECT_EQ(counters.entries, 2u);
}

TEST(FleetStoreTest, InvalidationDropsExactlyTheTargetedRows) {
  FleetStore store;
  store.Publish(MakeVerdict("a", 1, {MakeComponent("V1", 0.9, 1),
                                     MakeComponent("V2", 0.9, 1)}));
  store.Publish(MakeVerdict("b", 1, {MakeComponent("V1", 0.9, 1)}));
  ASSERT_EQ(store.TotalCounters().entries, 5u);

  // Component invalidation takes the tenant-level row with it (the
  // engine's cache-hit repopulation check keys on its absence); other
  // components and other tenants are untouched.
  EXPECT_EQ(store.InvalidateComponent("a", "V2"), 2u);
  EXPECT_EQ(store.TotalCounters().entries, 3u);
  EXPECT_EQ(store.Get(FleetKey{"a", "V2", 1000, 2000}).component, nullptr);
  EXPECT_EQ(store.Get(FleetKey{"a", "", 1000, 2000}).record, nullptr);
  EXPECT_NE(store.Get(FleetKey{"a", "V1", 1000, 2000}).component, nullptr);
  EXPECT_NE(store.Get(FleetKey{"b", "", 1000, 2000}).record, nullptr);

  EXPECT_EQ(store.InvalidateTenant("a"), 1u);  // The remaining V1 row.
  EXPECT_EQ(store.TotalCounters().entries, 2u);
  EXPECT_NE(store.Get(FleetKey{"b", "V1", 1000, 2000}).component, nullptr);

  EXPECT_EQ(store.TotalCounters().invalidations, 3u);
}

TEST(FleetStoreTest, DropStaleUsesGenerationThreshold) {
  FleetStore store;
  store.Publish(MakeVerdict("t", 4, {MakeComponent("V1", 0.9, 4)}));
  // Current generation equal to the stored one: still fresh — and the
  // no-drop case must leave the tenant row alone.
  EXPECT_EQ(store.DropStale("t", "V1", 4), 0u);
  EXPECT_NE(store.Get(FleetKey{"t", "", 1000, 2000}).record, nullptr);
  // New appends advanced the tenant's component counter: now stale. The
  // tenant-level row goes too (see InvalidateComponent).
  EXPECT_EQ(store.DropStale("t", "V1", 5), 2u);
  EXPECT_EQ(store.Get(FleetKey{"t", "V1", 1000, 2000}).component, nullptr);
  EXPECT_EQ(store.Get(FleetKey{"t", "", 1000, 2000}).record, nullptr);
}

TEST(FleetStoreTest, InvalidationEpochCountsRemovalsThatErased) {
  // One bump per removal call that erased a row, whichever of the four it
  // is; publishes and removals that match nothing leave the epoch alone.
  FleetStore store;
  EXPECT_EQ(store.invalidation_epoch(), 0u);
  auto publish = [&] {
    store.Publish(MakeVerdict("t", 4, {MakeComponent("V1", 0.9, 4),
                                       MakeComponent("V2", 0.9, 4)}));
  };
  publish();
  EXPECT_EQ(store.invalidation_epoch(), 0u);
  EXPECT_EQ(store.InvalidateTenant("other"), 0u);
  EXPECT_EQ(store.InvalidateComponent("t", "V9"), 1u);  // The tenant row.
  EXPECT_EQ(store.invalidation_epoch(), 1u);
  EXPECT_EQ(store.DropStale("t", "V1", 4), 0u);
  EXPECT_EQ(store.invalidation_epoch(), 1u);
  EXPECT_EQ(store.DropStale("t", "V1", 5), 1u);  // V1 (tenant row gone).
  EXPECT_EQ(store.invalidation_epoch(), 2u);
  EXPECT_EQ(store.InvalidateTenant("t"), 1u);  // V2.
  EXPECT_EQ(store.invalidation_epoch(), 3u);
  store.Clear();  // Nothing left to clear.
  EXPECT_EQ(store.invalidation_epoch(), 3u);
  publish();
  store.Clear();
  EXPECT_EQ(store.invalidation_epoch(), 4u);
  EXPECT_EQ(store.TotalCounters().entries, 0u);
}

TEST(FleetStoreTest, ShardPublishDistributionIsPopulated) {
  FleetStore store(FleetStore::Options{8});
  for (int t = 0; t < 32; ++t) {
    store.Publish(MakeVerdict("tenant-" + std::to_string(t), 1,
                              {MakeComponent("V1", 0.9, 1)}));
  }
  const std::vector<uint64_t> shard_publishes = store.ShardPublishCounts();
  ASSERT_EQ(shard_publishes.size(), 8u);
  uint64_t total = 0;
  int populated = 0;
  for (uint64_t count : shard_publishes) {
    total += count;
    if (count > 0) ++populated;
  }
  EXPECT_EQ(total, 64u);  // 32 publishes x (1 component + 1 tenant row).
  EXPECT_GE(populated, 4);  // No single-shard hot spot.
}

// --- Query semantics on a synthetic fleet ----------------------------------

class FleetQuerySyntheticTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three tenants share the "P1" pool fault; tenant-d is clean on P1 but
    // has its own data-property problem.
    store_.Publish(MakeVerdict(
        "t-a", 1, {MakeComponent("P1", 0.92, 1, true),
                   MakeComponent("V1", 0.85, 1)},
        {MakeCause(diag::RootCauseType::kRaidRebuild, "P1", 88)}));
    store_.Publish(MakeVerdict(
        "t-b", 1, {MakeComponent("P1", 0.90, 1, true)},
        {MakeCause(diag::RootCauseType::kRaidRebuild, "P1", 84),
         MakeCause(diag::RootCauseType::kDiskFailure, "P1", 82)}));
    store_.Publish(MakeVerdict(
        "t-c", 1, {MakeComponent("P1", 0.40, 1)},
        {MakeCause(diag::RootCauseType::kDataPropertyChange, "partsupp",
                   86)}));
    store_.Publish(MakeVerdict(
        "t-d", 1, {MakeComponent("partsupp", 0.9, 1, true)},
        {MakeCause(diag::RootCauseType::kDataPropertyChange, "partsupp",
                   91)}));
  }

  FleetStore store_;
};

TEST_F(FleetQuerySyntheticTest, TenantsSharingComponentFiltersByScore) {
  FleetQuery query(&store_);
  EXPECT_EQ(query.TenantsSharingComponent("P1"),
            (std::vector<std::string>{"t-a", "t-b"}));  // t-c scored 0.40.
  EXPECT_EQ(query.TenantsSharingComponent("P1", std::nullopt, 0.3),
            (std::vector<std::string>{"t-a", "t-b", "t-c"}));
  EXPECT_EQ(query.TenantsSharingComponent(
                "P1", monitor::MetricId::kVolReadLatencyMs),
            (std::vector<std::string>{"t-a", "t-b"}));
  EXPECT_TRUE(query.TenantsSharingComponent(
                      "P1", monitor::MetricId::kVolTotalIos)
                  .empty());
  EXPECT_TRUE(query.TenantsSharingComponent("nosuch").empty());
}

TEST_F(FleetQuerySyntheticTest, TopImplicatedComponentsRanksByTenantCount) {
  FleetQuery query(&store_);
  // P1 and partsupp tie at 2 implicated tenants each; the confidence
  // tie-break puts partsupp (91) ahead of P1 (88).
  const std::vector<FleetQuery::ImplicatedComponent> top =
      query.TopImplicatedComponents(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].component, "partsupp");
  EXPECT_EQ(top[0].tenants, 2);
  EXPECT_EQ(top[0].tenant_names, (std::vector<std::string>{"t-c", "t-d"}));
  EXPECT_DOUBLE_EQ(top[0].max_confidence, 91);
  EXPECT_EQ(top[1].component, "P1");
  EXPECT_EQ(top[1].tenants, 2);
  EXPECT_EQ(top[1].tenant_names, (std::vector<std::string>{"t-a", "t-b"}));
  EXPECT_DOUBLE_EQ(top[1].max_confidence, 88);

  const std::vector<FleetQuery::ImplicatedComponent> top1 =
      query.TopImplicatedComponents(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].component, "partsupp");
}

TEST_F(FleetQuerySyntheticTest, RootCauseCooccurrenceCountsTenantPairs) {
  FleetQuery query(&store_);
  std::map<std::pair<int, int>, int> got;
  for (const FleetQuery::CauseCooccurrence& row :
       query.RootCauseCooccurrence()) {
    got[{static_cast<int>(row.a), static_cast<int>(row.b)}] = row.tenants;
  }
  const int raid = static_cast<int>(diag::RootCauseType::kRaidRebuild);
  const int disk = static_cast<int>(diag::RootCauseType::kDiskFailure);
  const int data = static_cast<int>(diag::RootCauseType::kDataPropertyChange);
  const std::pair<int, int> raid_raid{raid, raid};
  const std::pair<int, int> raid_disk{std::min(raid, disk),
                                      std::max(raid, disk)};
  const std::pair<int, int> data_data{data, data};
  const std::pair<int, int> raid_data{std::min(raid, data),
                                      std::max(raid, data)};
  EXPECT_EQ(got[raid_raid], 2);  // t-a, t-b.
  EXPECT_EQ(got[raid_disk], 1);  // t-b.
  EXPECT_EQ(got[data_data], 2);  // t-c, t-d.
  EXPECT_EQ(got.count(raid_data), 0u);

  EXPECT_GE(store_.TotalCounters().queries, 1u);
}

// --- Verdict extraction from a real diagnosis ------------------------------

TEST(ExtractVerdictTest, S1DiagnosisLowersToNamedVerdict) {
  workload::ScenarioOptions options;
  options.satisfactory_runs = 12;
  options.unsatisfactory_runs = 6;
  Result<workload::ScenarioOutput> scenario =
      workload::RunScenario(workload::ScenarioId::kS1SanMisconfiguration,
                            options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().message();
  const diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  diag::DiagnosisContext ctx = scenario->MakeContext();
  diag::Workflow workflow(ctx, diag::WorkflowConfig{}, &symptoms);
  Result<diag::DiagnosisReport> report = workflow.Diagnose();
  ASSERT_TRUE(report.ok()) << report.status().message();

  const TenantVerdict verdict =
      fleet::ExtractVerdict(ctx, *report, "tenant-0");
  EXPECT_EQ(verdict.tenant, "tenant-0");
  EXPECT_EQ(verdict.query, ctx.query);
  const TimeInterval window = ctx.AnalysisWindow();
  EXPECT_EQ(verdict.window_begin, window.begin);
  EXPECT_EQ(verdict.window_end, window.end);
  EXPECT_EQ(verdict.store_generation, ctx.store->StoreGeneration());
  EXPECT_GT(verdict.store_generation, 0u);

  // The ranked causes mirror the report, lowered to names.
  ASSERT_EQ(verdict.causes.size(), report->causes.size());
  const ComponentRegistry& registry = scenario->testbed->registry;
  for (size_t i = 0; i < verdict.causes.size(); ++i) {
    EXPECT_EQ(verdict.causes[i].type, report->causes[i].type);
    EXPECT_DOUBLE_EQ(verdict.causes[i].confidence,
                     report->causes[i].confidence);
    if (report->causes[i].subject.valid()) {
      EXPECT_EQ(verdict.causes[i].subject,
                registry.NameOf(report->causes[i].subject));
    }
  }

  // S1's contended volume must be present, CCS-flagged, generation-stamped,
  // and marked as a cause subject.
  const ComponentVerdict* v1 = nullptr;
  for (const ComponentVerdict& component : verdict.components) {
    if (component.component == "V1") v1 = &component;
    // Every per-component stamp matches the live store.
    Result<ComponentId> id = registry.FindByName(component.component);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(component.generation, ctx.store->ComponentGeneration(*id))
        << component.component;
  }
  ASSERT_NE(v1, nullptr);
  EXPECT_TRUE(v1->in_ccs);
  EXPECT_TRUE(v1->cause_subject);
  EXPECT_GT(v1->max_anomaly, 0.8);
  EXPECT_FALSE(v1->metrics.empty());
  EXPECT_GT(v1->best_cause_confidence, 0);

  // Components are sorted (the store's deterministic order contract).
  for (size_t i = 1; i < verdict.components.size(); ++i) {
    EXPECT_LT(verdict.components[i - 1].component,
              verdict.components[i].component);
  }
}

// --- Concurrent soak (the TSan job runs this binary) -----------------------

TEST(FleetStoreSoakTest, ConcurrentPublishQueryInvalidate) {
  constexpr int kTenants = 8;
  constexpr int kPublishers = 4;
  constexpr int kRoundsPerPublisher = 60;
  constexpr int kQueriers = 3;
  constexpr int kInvalidators = 2;

  FleetStore store(FleetStore::Options{8});
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_generation{1};
  // Highest generation ever published per tenant (indexed by tenant id);
  // written by publishers, read after the join for the lost-publish check.
  std::vector<std::atomic<uint64_t>> high_water(kTenants);
  for (auto& w : high_water) w.store(0);

  auto tenant_name = [](int t) { return "t" + std::to_string(t); };

  std::vector<std::thread> threads;
  // Publishers: each round takes a fresh store-wide generation (globally
  // monotone, as TimeSeriesStore::StoreGeneration is) and publishes a
  // verdict for a tenant it owns modulo kPublishers.
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([&, p] {
      for (int round = 0; round < kRoundsPerPublisher; ++round) {
        const int tenant = (p + round * kPublishers) % kTenants;
        const uint64_t generation = next_generation.fetch_add(1);
        TenantVerdict verdict = MakeVerdict(
            tenant_name(tenant), generation,
            {MakeComponent("V1", 0.9, generation, true),
             MakeComponent("P1", 0.85, generation)},
            {MakeCause(diag::RootCauseType::kRaidRebuild, "P1", 85)});
        store.Publish(verdict);
        uint64_t seen = high_water[tenant].load();
        while (generation > seen &&
               !high_water[tenant].compare_exchange_weak(seen, generation)) {
        }
      }
    });
  }
  // Queriers: run every cross-tenant query and check monotone generation
  // visibility — a key's generation never goes backwards between reads.
  std::atomic<bool> monotone{true};
  for (int q = 0; q < kQueriers; ++q) {
    threads.emplace_back([&] {
      std::map<std::string, uint64_t> last_seen;
      FleetQuery query(&store);
      while (!stop.load()) {
        query.TenantsSharingComponent("V1");
        query.TopImplicatedComponents(4);
        query.RootCauseCooccurrence();
        for (const FleetStore::Row& row : store.Snapshot()) {
          const std::string id = row.key.tenant + "/" + row.key.component;
          auto it = last_seen.find(id);
          if (it != last_seen.end() && row.generation < it->second) {
            monotone.store(false);
          }
          last_seen[id] = row.generation;
        }
      }
    });
  }
  // Invalidators: explicit per-component invalidation plus generation-
  // threshold drops; both only ever *remove* rows, so the monotone check
  // above stays valid.
  std::atomic<uint64_t> invalidated{0};
  for (int i = 0; i < kInvalidators; ++i) {
    threads.emplace_back([&, i] {
      int spin = 0;
      while (!stop.load()) {
        const int tenant = (i + spin++) % kTenants;
        invalidated.fetch_add(
            store.DropStale(tenant_name(tenant), "P1",
                            next_generation.load()));
        if (spin % 7 == 0) {
          invalidated.fetch_add(
              store.InvalidateComponent(tenant_name(tenant), "V1"));
        }
        std::this_thread::yield();
      }
    });
  }

  for (int p = 0; p < kPublishers; ++p) threads[p].join();
  stop.store(true);
  for (size_t t = kPublishers; t < threads.size(); ++t) threads[t].join();

  EXPECT_TRUE(monotone.load()) << "a row's generation went backwards";

  // No lost publishes: re-publish every tenant at a fresh generation (no
  // invalidator is running now) and verify every row lands and carries at
  // least the tenant's high-water generation.
  for (int t = 0; t < kTenants; ++t) {
    const uint64_t generation = next_generation.fetch_add(1);
    store.Publish(MakeVerdict(tenant_name(t), generation,
                              {MakeComponent("V1", 0.9, generation, true),
                               MakeComponent("P1", 0.85, generation)}));
    high_water[t].store(generation);
  }
  for (int t = 0; t < kTenants; ++t) {
    for (const char* component : {"", "V1", "P1"}) {
      FleetStore::Row row =
          store.Get(FleetKey{tenant_name(t), component, 1000, 2000});
      EXPECT_GE(row.generation, high_water[t].load())
          << tenant_name(t) << "/" << component;
      EXPECT_TRUE(row.component != nullptr || row.record != nullptr);
    }
  }

  // Exact row accounting: every publish-touched row was inserted,
  // superseded, or stale-dropped, and live rows = inserted - erased.
  const FleetStore::Counters counters = store.TotalCounters();
  const uint64_t publishes =
      static_cast<uint64_t>(kPublishers) * kRoundsPerPublisher + kTenants;
  EXPECT_EQ(counters.publishes, publishes);
  EXPECT_EQ(counters.rows_inserted + counters.rows_superseded +
                counters.rows_stale_dropped,
            publishes * 3);  // Each verdict touches 3 rows.
  EXPECT_EQ(counters.entries,
            counters.rows_inserted - counters.invalidations);
  EXPECT_EQ(counters.invalidations, invalidated.load());
  EXPECT_EQ(counters.entries, static_cast<size_t>(kTenants) * 3);
}

}  // namespace
}  // namespace diads
