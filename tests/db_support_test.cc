// Tests for the database support substrate: the activity model's
// piecewise-constant averaging, the DB collector's metric emission, buffer
// pool sizing behaviour, and lock-manager window arithmetic.
#include <gtest/gtest.h>

#include "common/event_log.h"
#include "db/buffer_pool.h"
#include "db/db_activity.h"
#include "db/lock_manager.h"
#include "db/tpch.h"
#include "monitor/metrics.h"

namespace diads::db {
namespace {

// --- DbActivityModel ------------------------------------------------------------

TEST(DbActivityModelTest, TimeWeightedAverage) {
  DbActivityModel model;
  DbActivityCounters counters;
  counters.blocks_read_per_sec = 100;
  counters.lock_wait_ms_per_sec = 10;
  // Active for 40% of the queried interval.
  ASSERT_TRUE(model.AddActivity(TimeInterval{0, 400}, counters).ok());
  const DbActivityCounters avg = model.AverageOver(TimeInterval{0, 1000});
  EXPECT_NEAR(avg.blocks_read_per_sec, 40.0, 1e-9);
  EXPECT_NEAR(avg.lock_wait_ms_per_sec, 4.0, 1e-9);
}

TEST(DbActivityModelTest, OverlappingWindowsAdd) {
  DbActivityModel model;
  DbActivityCounters a;
  a.buffer_hits_per_sec = 10;
  DbActivityCounters b;
  b.buffer_hits_per_sec = 30;
  ASSERT_TRUE(model.AddActivity(TimeInterval{0, 1000}, a).ok());
  ASSERT_TRUE(model.AddActivity(TimeInterval{0, 1000}, b).ok());
  EXPECT_NEAR(model.AverageOver(TimeInterval{0, 1000}).buffer_hits_per_sec,
              40.0, 1e-9);
}

TEST(DbActivityModelTest, DisjointWindowIsZero) {
  DbActivityModel model;
  DbActivityCounters counters;
  counters.seq_scans_per_sec = 5;
  ASSERT_TRUE(model.AddActivity(TimeInterval{0, 100}, counters).ok());
  EXPECT_DOUBLE_EQ(model.AverageOver(TimeInterval{500, 600}).seq_scans_per_sec,
                   0.0);
  EXPECT_FALSE(model.AddActivity(TimeInterval{100, 100}, counters).ok());
}

// --- DbCollector ------------------------------------------------------------------

TEST(DbCollectorTest, EmitsDatabaseColumnMetrics) {
  ComponentRegistry registry;
  EventLog events;
  ComponentId v1 = registry.MustRegister(ComponentKind::kVolume, "V1");
  ComponentId database =
      registry.MustRegister(ComponentKind::kDatabase, "db");
  Catalog catalog(&registry, &events);
  TpchOptions options;
  options.volume_v1 = v1;
  options.volume_v2 = v1;
  ASSERT_TRUE(BuildTpchCatalog(options, &catalog).ok());

  DbActivityModel activity;
  DbActivityCounters counters;
  counters.blocks_read_per_sec = 50;
  counters.index_scans_per_sec = 2;
  ASSERT_TRUE(
      activity.AddActivity(TimeInterval{0, Minutes(10)}, counters).ok());
  LockManager locks;
  monitor::TimeSeriesStore store;
  monitor::NoiseModel noise(monitor::NoiseSpec{0, 0, 3.0, 0, 0}, SeededRng(1));
  DbCollector collector(&activity, &locks, &catalog, database, &store, &noise,
                        Minutes(5));
  ASSERT_TRUE(collector.CollectRange(0, Minutes(10)).ok());

  // Two intervals of samples across the database metric column, each
  // series sized for them before its first sample.
  EXPECT_EQ(store.Series(database, monitor::MetricId::kDbBlocksRead).size(),
            2u);
  EXPECT_EQ(
      store.Series(database, monitor::MetricId::kDbBlocksRead).capacity(), 2u);
  EXPECT_NEAR(
      store.Series(database, monitor::MetricId::kDbBlocksRead)[0].value, 50,
      1e-9);
  EXPECT_NEAR(
      store.Series(database, monitor::MetricId::kDbIndexScans)[0].value, 2,
      1e-9);
  // Space usage reflects the catalog.
  EXPECT_GT(
      store.Series(database, monitor::MetricId::kDbSpaceUsageMb)[0].value,
      100.0);
  EXPECT_FALSE(collector.CollectRange(5, 5).ok());
}

// A zero or negative interval never advances the sampling cursor: the
// collector must refuse it instead of looping forever.
TEST(DbCollectorTest, RejectsNonPositiveSamplingInterval) {
  ComponentRegistry registry;
  EventLog events;
  const ComponentId database =
      registry.MustRegister(ComponentKind::kDatabase, "db");
  Catalog catalog(&registry, &events);
  DbActivityModel activity;
  LockManager locks;
  monitor::TimeSeriesStore store;
  monitor::NoiseModel noise(monitor::NoiseSpec{0, 0, 3.0, 0, 0}, SeededRng(1));
  for (SimTimeMs interval : {SimTimeMs{0}, -Minutes(5)}) {
    DbCollector collector(&activity, &locks, &catalog, database, &store,
                          &noise, interval);
    const Status status = collector.CollectRange(0, Minutes(10));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  EXPECT_EQ(store.total_samples(), 0u);
}

// --- BufferPool -------------------------------------------------------------------

struct BufferPoolFixture {
  ComponentRegistry registry;
  EventLog events;
  Catalog catalog{&registry, &events};

  BufferPoolFixture() {
    ComponentId v = registry.MustRegister(ComponentKind::kVolume, "V");
    TpchOptions options;
    options.volume_v1 = v;
    options.volume_v2 = v;
    EXPECT_TRUE(BuildTpchCatalog(options, &catalog).ok());
  }
};

TEST(BufferPoolTest, TinyTablesAreCached) {
  BufferPoolFixture f;
  BufferPool pool(&f.catalog, 64);
  EXPECT_GE(pool.HitRate("nation"), 0.99);
  EXPECT_GE(pool.HitRate("region"), 0.99);
}

TEST(BufferPoolTest, BigTablesMissUnderSmallPool) {
  BufferPoolFixture f;
  BufferPool small(&f.catalog, 64);
  BufferPool large(&f.catalog, 8192);
  EXPECT_LT(small.HitRate("partsupp"), 0.9);
  EXPECT_GT(large.HitRate("partsupp"), small.HitRate("partsupp"));
}

TEST(BufferPoolTest, HitRateMonotoneInPoolSize) {
  BufferPoolFixture f;
  double prev = 0;
  for (double mb : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0}) {
    BufferPool pool(&f.catalog, mb);
    const double hit = pool.HitRate("partsupp");
    EXPECT_GE(hit, prev - 1e-12) << mb;
    prev = hit;
  }
}

TEST(BufferPoolTest, OverrideWinsAndClamps) {
  BufferPoolFixture f;
  BufferPool pool(&f.catalog, 64);
  pool.OverrideHitRate("partsupp", 0.123);
  EXPECT_DOUBLE_EQ(pool.HitRate("partsupp"), 0.123);
  pool.OverrideHitRate("partsupp", 7.0);
  EXPECT_DOUBLE_EQ(pool.HitRate("partsupp"), 1.0);
  // Unknown tables get a neutral default rather than an error.
  EXPECT_GT(pool.HitRate("mystery"), 0.0);
}

// --- LockManager -------------------------------------------------------------------

TEST(LockManagerTest, WaitsStackAcrossWindows) {
  LockManager locks;
  ASSERT_TRUE(locks
                  .AddContention({"t", TimeInterval{0, 1000}, 100, 5})
                  .ok());
  ASSERT_TRUE(locks
                  .AddContention({"t", TimeInterval{500, 1500}, 50, 3})
                  .ok());
  EXPECT_EQ(locks.WaitFor("t", 250), 100);
  EXPECT_EQ(locks.WaitFor("t", 750), 150);  // Both windows active.
  EXPECT_EQ(locks.WaitFor("t", 1250), 50);
  EXPECT_EQ(locks.WaitFor("t", 2000), 0);
  EXPECT_EQ(locks.WaitFor("other", 750), 0);
  EXPECT_DOUBLE_EQ(locks.ExtraLocksHeldAt(750), 8.0);
}

TEST(LockManagerTest, ValidatesWindows) {
  LockManager locks;
  EXPECT_FALSE(locks.AddContention({"t", TimeInterval{10, 10}, 1, 0}).ok());
  EXPECT_FALSE(locks.AddContention({"t", TimeInterval{0, 10}, -1, 0}).ok());
}

}  // namespace
}  // namespace diads::db
