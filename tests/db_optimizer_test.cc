// Unit tests for the optimizer: access-path selection, join enumeration,
// subquery blocks, and — critically for Module PD — plan sensitivity to
// index drops, statistics refreshes, and cost parameters. The shared
// left-deep DP is checked against a brute-force walk of every join order
// on all three engines' cost models.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <numeric>

#include "common/event_log.h"
#include "db/backend.h"
#include "db/catalog.h"
#include "db/columnar_optimizer.h"
#include "db/join_planner.h"
#include "db/mysql_optimizer.h"
#include "db/optimizer.h"
#include "db/query.h"
#include "db/tpch.h"
#include "support/conformance_util.h"

namespace diads::db {
namespace {

struct OptimizerFixture {
  ComponentRegistry registry;
  EventLog events;
  ComponentId v1, v2;
  Catalog catalog{&registry, &events};

  OptimizerFixture() {
    v1 = registry.MustRegister(ComponentKind::kVolume, "V1");
    v2 = registry.MustRegister(ComponentKind::kVolume, "V2");
    TpchOptions options;
    options.volume_v1 = v1;
    options.volume_v2 = v2;
    EXPECT_TRUE(BuildTpchCatalog(options, &catalog).ok());
  }

  Plan Optimize(const QuerySpec& spec, DbParams params = {}) {
    Result<Plan> plan = PlanQuery(PostgresCostModel(&catalog, params), spec);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }
};

int CountOps(const Plan& plan, OpType type) {
  int n = 0;
  for (const PlanOp& op : plan.ops()) {
    if (op.type == type) ++n;
  }
  return n;
}

bool HasIndexScanOn(const Plan& plan, const std::string& table,
                    const std::string& index = std::string()) {
  for (const PlanOp& op : plan.ops()) {
    if (op.type == OpType::kIndexScan && op.table == table &&
        (index.empty() || op.index_name == index)) {
      return true;
    }
  }
  return false;
}

TEST(OptimizerTest, SingleTableAccessPaths) {
  OptimizerFixture f;
  // Selective indexed filter on part -> index scan.
  QuerySpec selective;
  selective.name = "sel";
  selective.tables = {{"p", "part", 0.004, "p_size"}};
  Plan plan = f.Optimize(selective);
  EXPECT_TRUE(HasIndexScanOn(plan, "part", "part_size_idx"));

  // Unselective scan -> sequential.
  QuerySpec full;
  full.name = "full";
  full.tables = {{"p", "part", 1.0, ""}};
  Plan seq_plan = f.Optimize(full);
  EXPECT_FALSE(HasIndexScanOn(seq_plan, "part"));
  EXPECT_EQ(CountOps(seq_plan, OpType::kSeqScan), 1);
}

TEST(OptimizerTest, HighRandomPageCostKillsIndexScans) {
  OptimizerFixture f;
  QuerySpec selective;
  selective.name = "sel";
  selective.tables = {{"p", "part", 0.004, "p_size"}};
  DbParams expensive_random;
  expensive_random.random_page_cost = 200.0;
  Plan plan = f.Optimize(selective, expensive_random);
  EXPECT_FALSE(HasIndexScanOn(plan, "part"));
}

TEST(OptimizerTest, JoinProducesSinglePlanCoveringAllTables) {
  OptimizerFixture f;
  QuerySpec spec = MakeSupplierRollupSpec();
  Plan plan = f.Optimize(spec);
  int scans = 0;
  for (const PlanOp& op : plan.ops()) {
    if (op.is_scan()) ++scans;
  }
  EXPECT_EQ(scans, 3);  // supplier, nation, region.
  EXPECT_EQ(CountOps(plan, OpType::kAggregate), 1);
  EXPECT_EQ(CountOps(plan, OpType::kSort), 1);
  EXPECT_EQ(plan.op(plan.root_index()).type, OpType::kResult);
}

TEST(OptimizerTest, EstimatesPropagateUp) {
  OptimizerFixture f;
  QuerySpec spec = MakeSupplierRollupSpec();
  Plan plan = f.Optimize(spec);
  // Root cost must be at least any single scan's cost (cumulative costs).
  const double root_cost = plan.op(plan.root_index()).est_cost;
  for (const PlanOp& op : plan.ops()) {
    EXPECT_LE(op.est_cost, root_cost + 1e-9)
        << OpTypeName(op.type) << " cost exceeds root";
    EXPECT_GE(op.est_rows, 0);
  }
}

TEST(OptimizerTest, Q2HasNineLeavesAndSubqueryBlock) {
  OptimizerFixture f;
  Plan plan = f.Optimize(MakeTpchQ2Spec());
  EXPECT_EQ(plan.LeafIndexes().size(), 9u);
  EXPECT_EQ(CountOps(plan, OpType::kAggregate), 1);  // min() group by.
  EXPECT_EQ(CountOps(plan, OpType::kLimit), 1);
  // Both partsupp occurrences scanned.
  int partsupp_scans = 0;
  for (const PlanOp& op : plan.ops()) {
    if (op.is_scan() && op.table == "partsupp") ++partsupp_scans;
  }
  EXPECT_EQ(partsupp_scans, 2);
}

TEST(OptimizerTest, DeterministicAcrossRuns) {
  OptimizerFixture f;
  Plan a = f.Optimize(MakeTpchQ2Spec());
  Plan b = f.Optimize(MakeTpchQ2Spec());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// --- Plan-change sensitivity (the Module PD levers) -----------------------------

TEST(OptimizerTest, IndexDropFlipsQ2Plan) {
  OptimizerFixture f;
  Plan before = f.Optimize(MakeTpchQ2Spec());
  ASSERT_TRUE(HasIndexScanOn(before, "partsupp", "partsupp_partkey_idx"));
  ASSERT_TRUE(f.catalog.SetIndexDroppedSilently("partsupp_partkey_idx", true)
                  .ok());
  Plan after = f.Optimize(MakeTpchQ2Spec());
  EXPECT_NE(before.Fingerprint(), after.Fingerprint());
  EXPECT_FALSE(HasIndexScanOn(after, "partsupp", "partsupp_partkey_idx"));
  // Restore: the original plan comes back (PD's what-if probe relies on
  // this reversibility).
  ASSERT_TRUE(f.catalog.SetIndexDroppedSilently("partsupp_partkey_idx", false)
                  .ok());
  Plan restored = f.Optimize(MakeTpchQ2Spec());
  EXPECT_EQ(before.Fingerprint(), restored.Fingerprint());
}

TEST(OptimizerTest, RandomPageCostFlipsQ2Plan) {
  OptimizerFixture f;
  Plan cheap = f.Optimize(MakeTpchQ2Spec());
  DbParams params;
  params.random_page_cost = 40.0;
  Plan expensive = f.Optimize(MakeTpchQ2Spec(), params);
  EXPECT_NE(cheap.Fingerprint(), expensive.Fingerprint());
}

TEST(OptimizerTest, StatsRefreshAfterGrowthFlipsQ2Plan) {
  OptimizerFixture f;
  Plan before = f.Optimize(MakeTpchQ2Spec());
  // part grows 8x and the optimizer learns about it.
  ASSERT_TRUE(f.catalog.ApplyDml(1, "part", 8.0, "").ok());
  ASSERT_TRUE(f.catalog.Analyze(2, "part").ok());
  Plan after = f.Optimize(MakeTpchQ2Spec());
  EXPECT_NE(before.Fingerprint(), after.Fingerprint());
}

TEST(OptimizerTest, StaleStatsKeepThePlan) {
  OptimizerFixture f;
  Plan before = f.Optimize(MakeTpchQ2Spec());
  // Actual data moves but ANALYZE never runs: same plan (scenario 3's
  // precondition).
  ASSERT_TRUE(f.catalog.ApplyDml(1, "partsupp", 1.7, "").ok());
  Plan after = f.Optimize(MakeTpchQ2Spec());
  EXPECT_EQ(before.Fingerprint(), after.Fingerprint());
}

TEST(OptimizerTest, WorkMemAffectsSortSpill) {
  OptimizerFixture f;
  QuerySpec spec;
  spec.name = "bigsort";
  spec.tables = {{"ps", "partsupp", 1.0, ""}};
  spec.sort = true;
  DbParams small_mem;
  small_mem.work_mem_mb = 1.0;
  DbParams big_mem;
  big_mem.work_mem_mb = 4096.0;
  Plan spilling = f.Optimize(spec, small_mem);
  Plan in_memory = f.Optimize(spec, big_mem);
  // The spilling sort is costlier (same structure, different cost).
  EXPECT_GT(spilling.op(spilling.root_index()).est_cost,
            in_memory.op(in_memory.root_index()).est_cost);
}

TEST(OptimizerTest, ParamByNameRoundTrip) {
  DbParams params;
  ASSERT_TRUE(SetParamByName(&params, "random_page_cost", 11.5).ok());
  EXPECT_DOUBLE_EQ(params.random_page_cost, 11.5);
  EXPECT_DOUBLE_EQ(GetParamByName(params, "random_page_cost").value(), 11.5);
  ASSERT_TRUE(SetParamByName(&params, "work_mem_mb", 64).ok());
  EXPECT_DOUBLE_EQ(params.work_mem_mb, 64);
  EXPECT_DOUBLE_EQ(GetParamByName(params, "work_mem_mb").value(), 64);
  EXPECT_FALSE(SetParamByName(&params, "no_such_param", 1).ok());
  EXPECT_FALSE(GetParamByName(params, "no_such_param").ok());
}

TEST(OptimizerTest, RejectsEmptyBlock) {
  OptimizerFixture f;
  QuerySpec empty;
  empty.name = "empty";
  EXPECT_FALSE(
      PlanQuery(PostgresCostModel(&f.catalog, DbParams{}), empty).ok());
}

// Property sweep: whatever the random_page_cost, the optimizer must return
// a valid single-rooted plan with all 9 scans for Q2.
class OptimizerParamSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(OptimizerParamSweepTest, Q2AlwaysPlansCompletely) {
  OptimizerFixture f;
  DbParams params;
  params.random_page_cost = GetParam();
  Plan plan = f.Optimize(MakeTpchQ2Spec(), params);
  EXPECT_EQ(plan.LeafIndexes().size(), 9u);
  EXPECT_EQ(plan.op(plan.root_index()).type, OpType::kResult);
}

INSTANTIATE_TEST_SUITE_P(RandomPageCosts, OptimizerParamSweepTest,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                                           40.0, 100.0));

// --- The DP against brute force ---------------------------------------------

/// `kind`'s cost model at default parameters, or with `param` set to
/// `value` when `param` is non-empty.
std::unique_ptr<CostModel> MakeCostModel(BackendKind kind,
                                         const Catalog* catalog,
                                         const std::string& param,
                                         double value) {
  switch (kind) {
    case BackendKind::kPostgres: {
      DbParams params;
      if (!param.empty()) {
        EXPECT_TRUE(SetParamByName(&params, param, value).ok());
      }
      return std::make_unique<PostgresCostModel>(catalog, params);
    }
    case BackendKind::kMysql: {
      MysqlParams params;
      if (!param.empty()) {
        EXPECT_TRUE(SetMysqlParamByName(&params, param, value).ok());
      }
      return std::make_unique<MysqlCostModel>(catalog, params);
    }
    case BackendKind::kColumnar: {
      ColumnarParams params;
      if (!param.empty()) {
        EXPECT_TRUE(SetColumnarParamByName(&params, param, value).ok());
      }
      return std::make_unique<ColumnarCostModel>(catalog, params);
    }
  }
  return nullptr;
}

/// A block's tables and joins, with nothing planned above them.
QuerySpec JoinsOnly(const QuerySpec& block) {
  QuerySpec out;
  out.name = block.name;
  out.tables = block.tables;
  out.joins = block.joins;
  return out;
}

struct BruteForceResult {
  double min_cost = std::numeric_limits<double>::infinity();
  /// Every order that reaches a subset of tables gives it the same row
  /// estimate — the condition under which one DP state per subset is exact.
  bool subset_rows_agree = true;
};

/// Joins `block`'s tables in every left-deep order through `model`'s own
/// hooks, under the DP's predicate lookup and its connected-prefix rule: a
/// table no predicate joins to the prefix may follow only when no remaining
/// table joins it. For a fixed order, taking the best join method at each
/// step is exact, because every method of one step yields the same rows
/// and width.
BruteForceResult WalkEveryOrder(const CostModel& model,
                                const QuerySpec& block) {
  const size_t n = block.tables.size();
  std::vector<PlanNodePtr> scans;
  for (const TableRef& ref : block.tables) {
    Result<PlanNodePtr> scan = model.ScanPath(block, ref);
    EXPECT_TRUE(scan.ok()) << scan.status().ToString();
    scans.push_back(*scan);
  }
  auto any_joins = [&](uint32_t joined) {
    for (size_t i = 0; i < n; ++i) {
      bool unused = false;
      if (!(joined & (1u << i)) &&
          FindJoinPredicate(block, joined, i, &unused) != nullptr) {
        return true;
      }
    }
    return false;
  };

  BruteForceResult out;
  std::map<uint32_t, double> subset_rows;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  do {
    PlanNodePtr plan = scans[order[0]];
    uint32_t joined = 1u << order[0];
    bool allowed = true;
    for (size_t k = 1; k < n; ++k) {
      const size_t inner = order[k];
      bool inner_is_left = false;
      const JoinPredicate* pred =
          FindJoinPredicate(block, joined, inner, &inner_is_left);
      if (pred == nullptr && any_joins(joined)) {
        allowed = false;
        break;
      }
      const double rows =
          pred != nullptr ? JoinOutputRows(model, block, plan->rows,
                                           scans[inner]->rows, *pred)
                          : plan->rows * scans[inner]->rows;
      plan = model.Join(JoinStep{block, plan, block.tables[inner],
                                 scans[inner], pred, inner_is_left, rows});
      joined |= 1u << inner;
      auto [it, first] = subset_rows.emplace(joined, plan->rows);
      if (!first && it->second != plan->rows) out.subset_rows_agree = false;
    }
    if (allowed) out.min_cost = std::min(out.min_cost, plan->cost);
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

class DpVersusBruteForceTest : public ::testing::TestWithParam<BackendKind> {
};

// Q2's main and subquery blocks, the supplier roll-up, and the roll-up
// without its nation-region predicate (so region joins by cartesian
// product), over a trimmed copy of the golden plan sweep: the base
// catalog, each index dropped, and each table scaled x0.05, x8 and x1000,
// under every parameter at x0.1 and x10. Wherever every join order agrees
// on each subset's row estimate, the DP must find the brute-force minimum
// bit for bit. Nation x0.05 (1.25 rows against 25 join-key values) is the
// state where the max(1, ...) floor of the join estimate makes orders
// disagree; there the DP may only be costlier, never cheaper (see
// db/join_planner.h).
TEST_P(DpVersusBruteForceTest, DpFindsTheCheapestLeftDeepOrder) {
  const BackendKind kind = GetParam();
  const QuerySpec q2 = MakeTpchQ2Spec();
  QuerySpec blocks[] = {JoinsOnly(q2), JoinsOnly(*q2.subplan),
                        JoinsOnly(MakeSupplierRollupSpec()),
                        JoinsOnly(MakeSupplierRollupSpec())};
  blocks[3].name += ".cartesian";
  blocks[3].joins.pop_back();
  int disagreeing_blocks = 0;
  for (const testsupport::PlanSweepState& state :
       testsupport::PlanSweepStates()) {
    if (!state.scale_table.empty() && state.scale != 0.05 &&
        state.scale != 8.0 && state.scale != 1000.0) {
      continue;
    }
    Result<std::unique_ptr<testsupport::PlanSweepCatalog>> sweep =
        testsupport::MakePlanSweepCatalog(state, kind);
    ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
    const Catalog* catalog = &(*sweep)->catalog;
    const DbBackend& backend = *(*sweep)->backend;
    std::vector<std::unique_ptr<CostModel>> models;
    models.push_back(MakeCostModel(kind, catalog, "", 0));
    for (const std::string& param : backend.ParamNames()) {
      for (double factor : {0.1, 10.0}) {
        models.push_back(MakeCostModel(kind, catalog, param,
                                       *backend.GetParam(param) * factor));
      }
    }
    for (const std::unique_ptr<CostModel>& model : models) {
      for (const QuerySpec& block : blocks) {
        const BruteForceResult brute = WalkEveryOrder(*model, block);
        Result<Plan> plan = PlanQuery(*model, block);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        const double dp_cost = plan->op(plan->root_index()).est_cost;
        if (brute.subset_rows_agree) {
          EXPECT_EQ(dp_cost, brute.min_cost)
              << state.name << " " << block.name;
        } else {
          ++disagreeing_blocks;
          EXPECT_GE(dp_cost, brute.min_cost)
              << state.name << " " << block.name;
        }
      }
    }
  }
  // The sweep must keep reaching the floor's disagreeing orders.
  EXPECT_GT(disagreeing_blocks, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, DpVersusBruteForceTest, ::testing::ValuesIn(AllBackendKinds()),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendKindName(info.param));
    });

}  // namespace
}  // namespace diads::db
