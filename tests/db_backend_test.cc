// Unit tests for the DbBackend abstraction and the non-default engines:
// parameter vocabularies (pairwise disjoint except buffer_pool_mb, each
// name bound to its own member), cost-model character (MySQL's flat I/O
// cost, index-nested-loop bias and BNL fallback; the column store's
// vectorized scans and zone-map pruning), plan fixtures, what-if
// re-optimisation, and the engines' diverging DML/ANALYZE statistics
// semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/backend.h"
#include "db/columnar_backend.h"
#include "db/columnar_plan.h"
#include "db/mysql_backend.h"
#include "db/mysql_optimizer.h"
#include "db/mysql_plan.h"
#include "db/tpch.h"
#include "san/topology.h"

namespace diads::db {
namespace {

class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topology_ = std::make_unique<san::SanTopology>(&registry_);
    ComponentId subsystem =
        *topology_->AddSubsystem("box", "IBM DS6000");
    ComponentId pool = *topology_->AddPool("P1", subsystem,
                                           san::RaidLevel::kRaid5);
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(topology_->AddDisk("disk" + std::to_string(i), pool).ok());
    }
    v1_ = *topology_->AddVolume("V1", pool, 200);
    v2_ = *topology_->AddVolume("V2", pool, 400);
    catalog_ = std::make_unique<Catalog>(&registry_, &event_log_);
    TpchOptions tpch;
    tpch.volume_v1 = v1_;
    tpch.volume_v2 = v2_;
    ASSERT_TRUE(BuildTpchCatalog(tpch, catalog_.get()).ok());
  }

  std::unique_ptr<DbBackend> Make(BackendKind kind) {
    BackendInit init;
    init.catalog = catalog_.get();
    return MakeDbBackend(kind, init);
  }

  ComponentRegistry registry_;
  EventLog event_log_;
  std::unique_ptr<san::SanTopology> topology_;
  std::unique_ptr<Catalog> catalog_;
  ComponentId v1_, v2_;
};

TEST_F(BackendTest, KindNamesRoundTrip) {
  for (BackendKind kind : AllBackendKinds()) {
    Result<BackendKind> parsed = BackendKindFromName(BackendKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(BackendKindFromName("oracle").ok());
}

TEST_F(BackendTest, DatabaseComponentNamesAreEngineSpecific) {
  EXPECT_EQ(Make(BackendKind::kPostgres)->DatabaseComponentName("dbserver"),
            "postgres@dbserver");
  EXPECT_EQ(Make(BackendKind::kMysql)->DatabaseComponentName("dbserver"),
            "mysql@dbserver");
  EXPECT_EQ(Make(BackendKind::kColumnar)->DatabaseComponentName("dbserver"),
            "columnar@dbserver");
}

TEST_F(BackendTest, ParamVocabulariesAreDisjointWhereTheEnginesDiffer) {
  auto pg = Make(BackendKind::kPostgres);
  auto my = Make(BackendKind::kMysql);
  auto col = Make(BackendKind::kColumnar);
  // random_page_cost exists only on PostgreSQL; io_block_read_cost only on
  // MySQL; the zone-map / batch knobs only on the columnar engine — each
  // engine rejects the others' knobs.
  EXPECT_TRUE(pg->GetParam("random_page_cost").ok());
  EXPECT_FALSE(my->GetParam("random_page_cost").ok());
  EXPECT_FALSE(my->SetParam("random_page_cost", 40.0).ok());
  EXPECT_FALSE(col->GetParam("random_page_cost").ok());
  EXPECT_FALSE(col->SetParam("random_page_cost", 40.0).ok());
  EXPECT_TRUE(my->GetParam("io_block_read_cost").ok());
  EXPECT_FALSE(pg->GetParam("io_block_read_cost").ok());
  EXPECT_FALSE(col->GetParam("io_block_read_cost").ok());
  EXPECT_TRUE(col->GetParam("vector_batch_rows").ok());
  EXPECT_TRUE(col->GetParam("zone_map_consult_cost").ok());
  for (const auto& backend : {pg.get(), my.get()}) {
    EXPECT_FALSE(backend->GetParam("vector_batch_rows").ok())
        << backend->name();
    EXPECT_FALSE(backend->SetParam("vector_batch_rows", 1024.0).ok())
        << backend->name();
    EXPECT_FALSE(backend->GetParam("zone_map_consult_cost").ok())
        << backend->name();
  }
  // Every advertised name is readable on its own engine.
  for (const auto& backend : {pg.get(), my.get(), col.get()}) {
    for (const std::string& name : backend->ParamNames()) {
      EXPECT_TRUE(backend->GetParam(name).ok()) << name;
    }
    const PlanMisconfigKnob knob = backend->MisconfigKnob();
    EXPECT_TRUE(backend->GetParam(knob.param).ok()) << knob.param;
  }
}

// Each engine's parameter table, row by row: a sentinel set through one
// name reads back through that name and moves no other, so a row that
// points at another row's member fails here. Every other engine's name
// except the shared buffer_pool_mb is rejected by both calls.
TEST_F(BackendTest, EachParamNameReadsAndWritesOnlyItsOwnMember) {
  constexpr double kSentinel = 7777.25;
  std::vector<std::unique_ptr<DbBackend>> backends;
  for (BackendKind kind : AllBackendKinds()) backends.push_back(Make(kind));
  for (const auto& backend : backends) {
    const std::vector<std::string> names = backend->ParamNames();
    for (const std::string& name : names) {
      std::map<std::string, double> before;
      for (const std::string& other : names) {
        before[other] = *backend->GetParam(other);
      }
      ASSERT_NE(before[name], kSentinel);
      ASSERT_TRUE(backend->SetParam(name, kSentinel).ok())
          << backend->name() << " " << name;
      EXPECT_EQ(*backend->GetParam(name), kSentinel)
          << backend->name() << " " << name;
      for (const std::string& other : names) {
        if (other == name) continue;
        EXPECT_EQ(*backend->GetParam(other), before[other])
            << backend->name() << ": setting " << name << " moved " << other;
      }
      ASSERT_TRUE(backend->SetParam(name, before[name]).ok());
    }
    for (const auto& other : backends) {
      if (other == backend) continue;
      for (const std::string& name : other->ParamNames()) {
        if (name == "buffer_pool_mb") continue;
        EXPECT_FALSE(backend->GetParam(name).ok())
            << backend->name() << " accepts " << other->name() << "'s "
            << name;
        EXPECT_FALSE(backend->SetParam(name, kSentinel).ok())
            << backend->name() << " accepts " << other->name() << "'s "
            << name;
      }
    }
  }
}

TEST_F(BackendTest, MysqlOptimizerUsesOnlyNestedLoopVocabulary) {
  auto my = Make(BackendKind::kMysql);
  Result<Plan> plan = my->OptimizeQuery(MakeTpchQ2Spec());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::set<std::string> vocab;
  for (const PlanOp& op : plan->ops()) {
    EXPECT_NE(op.type, OpType::kHashJoin);
    EXPECT_NE(op.type, OpType::kHash);
    EXPECT_NE(op.type, OpType::kMergeJoin);
    vocab.insert(op.engine_op);
  }
  // The index-nested-loop bias: big-table joins go through ref access.
  EXPECT_TRUE(vocab.count("ref"));
  EXPECT_TRUE(vocab.count("filesort"));
  EXPECT_TRUE(vocab.count("ref<auto_key0>")) << "derived-table join missing";
}

TEST_F(BackendTest, MysqlFallsBackToBnlWithoutAUsableIndex) {
  auto my = Make(BackendKind::kMysql);
  const Plan base = *my->OptimizeQuery(MakeTpchQ2Spec());
  // Drop both partsupp join indexes: every partsupp join loses its ref
  // access path and at least one must go through the join buffer.
  ASSERT_TRUE(catalog_->DropIndex(Hours(1), "partsupp_partkey_idx").ok());
  ASSERT_TRUE(catalog_->DropIndex(Hours(1), "partsupp_suppkey_idx").ok());
  Result<Plan> degraded = my->OptimizeQuery(MakeTpchQ2Spec());
  ASSERT_TRUE(degraded.ok());
  EXPECT_NE(degraded->Fingerprint(), base.Fingerprint());
  bool bnl = false;
  for (const PlanOp& op : degraded->ops()) {
    if (op.engine_op == "BNL" || op.engine_op == "join buffer") bnl = true;
  }
  EXPECT_TRUE(bnl) << degraded->Render();
}

TEST_F(BackendTest, MysqlMisconfigKnobFlipsThePlanAndWhatIfRevertsIt) {
  auto my = Make(BackendKind::kMysql);
  const QuerySpec spec = MakeTpchQ2Spec();
  const uint64_t base = my->OptimizeQuery(spec)->Fingerprint();
  const PlanMisconfigKnob knob = my->MisconfigKnob();
  const double old_value = *my->GetParam(knob.param);
  ASSERT_TRUE(my->SetParam(knob.param, knob.bad_value).ok());
  const uint64_t flipped = my->OptimizeQuery(spec)->Fingerprint();
  EXPECT_NE(flipped, base);
  // Module PD's what-if: re-optimising with the old value reproduces the
  // satisfactory-era plan without touching the live parameters.
  Result<Plan> what_if = my->OptimizeQueryWithParam(spec, knob.param,
                                                    old_value);
  ASSERT_TRUE(what_if.ok());
  EXPECT_EQ(what_if->Fingerprint(), base);
  EXPECT_EQ(my->OptimizeQuery(spec)->Fingerprint(), flipped);
}

TEST_F(BackendTest, ColumnarOptimizerUsesColumnarVocabulary) {
  auto col = Make(BackendKind::kColumnar);
  Result<Plan> plan = col->OptimizeQuery(MakeTpchQ2Spec());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::set<std::string> vocab;
  for (const PlanOp& op : plan->ops()) {
    EXPECT_NE(op.type, OpType::kNestLoopJoin)
        << "the column store joins by hashing only";
    EXPECT_NE(op.type, OpType::kMergeJoin);
    vocab.insert(op.engine_op);
  }
  EXPECT_TRUE(vocab.count("vector scan"));
  EXPECT_TRUE(vocab.count("zone-pruned scan"));
  EXPECT_TRUE(vocab.count("vectorized hash join"));
  EXPECT_TRUE(vocab.count("late materialize")) << "subplan must materialize";
}

TEST_F(BackendTest, ColumnarMisconfigKnobFlipsThePlanAndWhatIfRevertsIt) {
  auto col = Make(BackendKind::kColumnar);
  const QuerySpec spec = MakeTpchQ2Spec();
  const uint64_t base = col->OptimizeQuery(spec)->Fingerprint();
  const PlanMisconfigKnob knob = col->MisconfigKnob();
  const double old_value = *col->GetParam(knob.param);
  ASSERT_TRUE(col->SetParam(knob.param, knob.bad_value).ok());
  const uint64_t flipped = col->OptimizeQuery(spec)->Fingerprint();
  EXPECT_NE(flipped, base)
      << "an expensive zone-map consult must abandon pruned scans";
  // Module PD's what-if: re-optimising with the old value reproduces the
  // satisfactory-era plan without touching the live parameters.
  Result<Plan> what_if = col->OptimizeQueryWithParam(spec, knob.param,
                                                     old_value);
  ASSERT_TRUE(what_if.ok());
  EXPECT_EQ(what_if->Fingerprint(), base);
  EXPECT_EQ(col->OptimizeQuery(spec)->Fingerprint(), flipped);
  // And the revert round-trip: restoring the live parameter restores the
  // original plan exactly.
  ASSERT_TRUE(col->SetParam(knob.param, old_value).ok());
  EXPECT_EQ(col->OptimizeQuery(spec)->Fingerprint(), base);
}

TEST_F(BackendTest, FixturePlansShareTheStructuralContract) {
  for (BackendKind kind : AllBackendKinds()) {
    auto backend = Make(kind);
    Result<Plan> fixture = backend->MakePaperPlan();
    ASSERT_TRUE(fixture.ok());
    // Nine leaves; exactly two partsupp scans (the V1 leaves).
    EXPECT_EQ(fixture->LeafIndexes().size(), 9u) << backend->name();
    int partsupp_leaves = 0;
    for (int leaf : fixture->LeafIndexes()) {
      if (fixture->op(leaf).table == "partsupp") ++partsupp_leaves;
    }
    EXPECT_EQ(partsupp_leaves, 2) << backend->name();
  }
  // The vocabularies differ: no pair of engines may collide.
  std::vector<uint64_t> fingerprints;
  for (BackendKind kind : AllBackendKinds()) {
    fingerprints.push_back(Make(kind)->MakePaperPlan()->Fingerprint());
  }
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    for (size_t j = i + 1; j < fingerprints.size(); ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j])
          << BackendKindName(AllBackendKinds()[i]) << " vs "
          << BackendKindName(AllBackendKinds()[j]);
    }
  }
}

TEST_F(BackendTest, ColumnarFixtureScalesWithScaleFactor) {
  Result<Plan> sf1 = MakeColumnarQ2Plan(1.0);
  Result<Plan> sf2 = MakeColumnarQ2Plan(2.0);
  ASSERT_TRUE(sf1.ok() && sf2.ok());
  EXPECT_EQ(sf1->Fingerprint(), sf2->Fingerprint())
      << "scale changes estimates, not structure";
  double pages1 = 0, pages2 = 0;
  for (const PlanOp& op : sf1->ops()) pages1 += op.est_pages;
  for (const PlanOp& op : sf2->ops()) pages2 += op.est_pages;
  EXPECT_GT(pages2, 1.8 * pages1);
  EXPECT_FALSE(MakeColumnarQ2Plan(0.0).ok());
}

TEST_F(BackendTest, MysqlFixtureScalesWithScaleFactor) {
  Result<Plan> sf1 = MakeMysqlQ2Plan(1.0);
  Result<Plan> sf2 = MakeMysqlQ2Plan(2.0);
  ASSERT_TRUE(sf1.ok() && sf2.ok());
  EXPECT_EQ(sf1->Fingerprint(), sf2->Fingerprint())
      << "scale changes estimates, not structure";
  double pages1 = 0, pages2 = 0;
  for (const PlanOp& op : sf1->ops()) pages1 += op.est_pages;
  for (const PlanOp& op : sf2->ops()) pages2 += op.est_pages;
  EXPECT_GT(pages2, 1.8 * pages1);
  EXPECT_FALSE(MakeMysqlQ2Plan(0.0).ok());
}

// --- DML / ANALYZE statistics semantics --------------------------------------

TEST_F(BackendTest, PostgresDmlLeavesOptimizerStatsStaleUntilAnalyze) {
  auto pg = Make(BackendKind::kPostgres);
  const double before =
      (*catalog_->FindTable("partsupp"))->optimizer_stats.row_count;
  ASSERT_TRUE(pg->ApplyDml(Hours(1), "partsupp", 1.7, "bulk load").ok());
  EXPECT_EQ((*catalog_->FindTable("partsupp"))->optimizer_stats.row_count,
            before);
  EXPECT_NEAR((*catalog_->FindTable("partsupp"))->actual_stats.row_count,
              before * 1.7, 1.0);
  ASSERT_TRUE(pg->Analyze(Hours(2), "partsupp").ok());
  EXPECT_NEAR((*catalog_->FindTable("partsupp"))->optimizer_stats.row_count,
              before * 1.7, 1.0);
}

TEST_F(BackendTest, MysqlDmlAutoRecalcRefreshesStatsPastThreshold) {
  auto my = Make(BackendKind::kMysql);
  const double before =
      (*catalog_->FindTable("partsupp"))->optimizer_stats.row_count;

  // Below the 10% auto-recalc threshold: stats stay stale.
  ASSERT_TRUE(my->ApplyDml(Hours(1), "partsupp", 1.05, "small load").ok());
  EXPECT_EQ((*catalog_->FindTable("partsupp"))->optimizer_stats.row_count,
            before);

  // Cumulative drift crosses 10%: the automatic recalculation fires, the
  // optimizer view snaps (approximately — sampled dives) to the truth,
  // and the kTableStatsChanged event a real deployment would see appears.
  ASSERT_TRUE(my->ApplyDml(Hours(2), "partsupp", 1.08, "more load").ok());
  const double actual =
      (*catalog_->FindTable("partsupp"))->actual_stats.row_count;
  const double refreshed =
      (*catalog_->FindTable("partsupp"))->optimizer_stats.row_count;
  EXPECT_NE(refreshed, before);
  EXPECT_NEAR(refreshed, actual, 0.03 * actual);
  bool recalc_logged = false;
  for (const SystemEvent& event : event_log_.all()) {
    if (event.type == EventType::kTableStatsChanged) recalc_logged = true;
  }
  EXPECT_TRUE(recalc_logged);
}

// Module PD's what-if probe reverts a kTableStatsChanged event to its
// logged old_row_count. MySQL's sampled dives and the columnar segment
// metadata leave non-integer counts, so the log must round-trip the exact
// value: a rounded one would re-plan a state the optimizer never saw.
TEST_F(BackendTest, StatsRefreshLogsTheExactPreviousRowCount) {
  const std::pair<BackendKind, const char*> cases[] = {
      {BackendKind::kMysql, "nation"}, {BackendKind::kColumnar, "supplier"}};
  for (const auto& [kind, table] : cases) {
    auto backend = Make(kind);
    // Past both engines' refresh thresholds: the first refresh leaves a
    // sampled, non-integer count; the second logs it as the old one.
    ASSERT_TRUE(backend->ApplyDml(Hours(1), table, 1.5, "").ok());
    const double refreshed =
        (*catalog_->FindTable(table))->optimizer_stats.row_count;
    ASSERT_NE(refreshed, std::round(refreshed)) << backend->name();
    ASSERT_TRUE(backend->ApplyDml(Hours(2), table, 1.5, "").ok());
    const SystemEvent& last = event_log_.all().back();
    ASSERT_EQ(last.type, EventType::kTableStatsChanged) << backend->name();
    EXPECT_EQ(last.attrs.at("table"), table);
    EXPECT_EQ(std::stod(last.attrs.at("old_row_count")), refreshed)
        << backend->name() << " logged " << last.attrs.at("old_row_count");
  }
}

TEST_F(BackendTest, MysqlAnalyzeResetsTheAutoRecalcDriftCounter) {
  auto my = Make(BackendKind::kMysql);
  // 8% drift: below threshold, no recalc.
  ASSERT_TRUE(my->ApplyDml(Hours(1), "partsupp", 1.08, "load").ok());
  // Explicit ANALYZE refreshes stats AND resets the drift counter, as
  // InnoDB does — subsequent DML is measured against this refresh.
  ASSERT_TRUE(my->Analyze(Hours(2), "partsupp").ok());
  const auto events_after_analyze = event_log_.all().size();
  // Another 3% of drift: cumulative change since the *refresh* is 3%, so
  // no automatic recalculation may fire (only the kDmlBatch event lands).
  ASSERT_TRUE(my->ApplyDml(Hours(3), "partsupp", 1.03, "small load").ok());
  int stats_events = 0;
  for (size_t i = events_after_analyze; i < event_log_.all().size(); ++i) {
    if (event_log_.all()[i].type == EventType::kTableStatsChanged) {
      ++stats_events;
    }
  }
  EXPECT_EQ(stats_events, 0);
}

TEST_F(BackendTest, MysqlSilentDmlNeverRecalculates) {
  auto my = Make(BackendKind::kMysql);
  const double before =
      (*catalog_->FindTable("part"))->optimizer_stats.row_count;
  ASSERT_TRUE(
      my->ApplyDmlSilently(Hours(1), "part", 8.0, "silent drift").ok());
  EXPECT_EQ((*catalog_->FindTable("part"))->optimizer_stats.row_count,
            before);
  for (const SystemEvent& event : event_log_.all()) {
    EXPECT_NE(event.type, EventType::kTableStatsChanged);
  }
}

TEST_F(BackendTest, ColumnarDmlReorganizesSegmentsPastChurnThreshold) {
  auto col = Make(BackendKind::kColumnar);
  const double before =
      (*catalog_->FindTable("partsupp"))->optimizer_stats.row_count;

  // Below the 30% churn threshold: no reorganization, stats stay stale.
  ASSERT_TRUE(col->ApplyDml(Hours(1), "partsupp", 1.1, "small load").ok());
  EXPECT_EQ((*catalog_->FindTable("partsupp"))->optimizer_stats.row_count,
            before);

  // Inject physical-layout damage, then push cumulative churn past 30%:
  // the reorganization rewrites the segments (healing the bloat) and
  // refreshes statistics from segment metadata.
  ASSERT_TRUE(
      catalog_->SetTableStorageBloatSilently("partsupp", 2.2).ok());
  ASSERT_TRUE(col->ApplyDml(Hours(2), "partsupp", 1.25, "more load").ok());
  const TableDef& table = **catalog_->FindTable("partsupp");
  EXPECT_EQ(table.storage_bloat, 1.0) << "reorganization must heal bloat";
  const double actual = table.actual_stats.row_count;
  EXPECT_NE(table.optimizer_stats.row_count, before);
  EXPECT_NEAR(table.optimizer_stats.row_count, actual, 0.02 * actual);
  bool reorg_logged = false;
  for (const SystemEvent& event : event_log_.all()) {
    if (event.type == EventType::kTableStatsChanged) reorg_logged = true;
  }
  EXPECT_TRUE(reorg_logged);
}

TEST_F(BackendTest, ColumnarAnalyzeRefreshesStatsButNotSegments) {
  auto col = Make(BackendKind::kColumnar);
  ASSERT_TRUE(
      catalog_->SetTableStorageBloatSilently("partsupp", 2.2).ok());
  ASSERT_TRUE(
      catalog_->SetIndexScanBloatSilently("partsupp_partkey_idx", 2.5).ok());
  ASSERT_TRUE(col->ApplyDmlSilently(Hours(1), "partsupp", 1.2, "load").ok());
  ASSERT_TRUE(col->Analyze(Hours(2), "partsupp").ok());
  const TableDef& table = **catalog_->FindTable("partsupp");
  // Statistics snapped to the truth...
  EXPECT_NEAR(table.optimizer_stats.row_count, table.actual_stats.row_count,
              1.0);
  // ...but an ANALYZE rewrites no segments: the layout damage survives.
  EXPECT_EQ(table.storage_bloat, 2.2);
  EXPECT_EQ((*catalog_->FindIndex("partsupp_partkey_idx"))->scan_bloat, 2.5);
}

TEST_F(BackendTest, AnalyzeDriftSpecFlipsEachEnginesPlan) {
  for (BackendKind kind : AllBackendKinds()) {
    // Fresh catalog per engine (the drift mutates shared state).
    ComponentRegistry registry;
    EventLog event_log;
    san::SanTopology topology(&registry);
    ComponentId subsystem = *topology.AddSubsystem("box", "x");
    ComponentId pool = *topology.AddPool("P", subsystem,
                                         san::RaidLevel::kRaid5);
    ASSERT_TRUE(topology.AddDisk("d1", pool).ok());
    ComponentId v1 = *topology.AddVolume("V1", pool, 200);
    ComponentId v2 = *topology.AddVolume("V2", pool, 400);
    Catalog catalog(&registry, &event_log);
    TpchOptions tpch;
    tpch.volume_v1 = v1;
    tpch.volume_v2 = v2;
    ASSERT_TRUE(BuildTpchCatalog(tpch, &catalog).ok());
    BackendInit init;
    init.catalog = &catalog;
    auto backend = MakeDbBackend(kind, init);

    const QuerySpec spec = MakeTpchQ2Spec();
    const uint64_t base = backend->OptimizeQuery(spec)->Fingerprint();
    const StatsDriftSpec drift = backend->AnalyzeDriftSpec();
    ASSERT_TRUE(backend
                    ->ApplyDmlSilently(Hours(1), drift.table, drift.factor,
                                       "drift")
                    .ok());
    EXPECT_EQ(backend->OptimizeQuery(spec)->Fingerprint(), base)
        << backend->name() << ": drift must stay invisible";
    ASSERT_TRUE(backend->Analyze(Hours(2), drift.table).ok());
    EXPECT_NE(backend->OptimizeQuery(spec)->Fingerprint(), base)
        << backend->name() << ": ANALYZE must flip the plan";
  }
}

TEST_F(BackendTest, ExecutorParamsReflectEngineCostModel) {
  auto my = Make(BackendKind::kMysql);
  DbParams params = my->ExecutorParams();
  // The flat I/O cost: no random-access premium.
  EXPECT_EQ(params.seq_page_cost, params.random_page_cost);
  ASSERT_TRUE(my->SetParam("io_block_read_cost", 25.0).ok());
  params = my->ExecutorParams();
  EXPECT_EQ(params.seq_page_cost, 25.0);
  EXPECT_EQ(params.random_page_cost, 25.0);

  auto pg = Make(BackendKind::kPostgres);
  const DbParams pg_params = pg->ExecutorParams();
  EXPECT_GT(pg_params.random_page_cost, pg_params.seq_page_cost)
      << "PostgreSQL keeps its random-access premium";

  auto col = Make(BackendKind::kColumnar);
  const DbParams col_params = col->ExecutorParams();
  EXPECT_EQ(col_params.seq_page_cost, col_params.random_page_cost)
      << "columnar I/O is sequential segment streaming either way";
  // Batch dispatch amortizes over the batch: the per-operator cost falls
  // as batches grow.
  ASSERT_TRUE(col->SetParam("vector_batch_rows", 8192.0).ok());
  EXPECT_LT(col->ExecutorParams().cpu_operator_cost,
            col_params.cpu_operator_cost);
}

}  // namespace
}  // namespace diads::db
