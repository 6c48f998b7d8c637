// Tests for the Annotated Plan Graph: construction from catalog + topology,
// inner/outer dependency paths (the Section 3 semantics, including the
// paper's O23 example), annotations over run intervals, and the renderers.
#include <gtest/gtest.h>

#include <set>

#include "apg/apg.h"
#include "apg/browser.h"
#include "apg/render.h"
#include "support/conformance_util.h"
#include "workload/scenario.h"
#include "workload/testbed.h"

namespace diads::apg {
namespace {

using workload::BuildFigure1Testbed;
using workload::Testbed;
using workload::TestbedOptions;

class ApgTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::unique_ptr<Testbed>> tb = BuildFigure1Testbed(TestbedOptions{});
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    tb_ = std::move(*tb);
    Result<Apg> apg = tb_->BuildApg();
    ASSERT_TRUE(apg.ok()) << apg.status().ToString();
    apg_ = std::make_unique<Apg>(std::move(*apg));
  }

  std::set<std::string> PathNames(const std::vector<ComponentId>& path) {
    std::set<std::string> names;
    for (ComponentId c : path) names.insert(tb_->registry.NameOf(c));
    return names;
  }

  int OpIndex(int op_number) {
    return apg_->plan().IndexOfOpNumber(op_number).value();
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<Apg> apg_;
};

TEST_F(ApgTest, OperatorComponentsRegisteredStably) {
  // Every operator gets a registry component; rebuilding yields the same
  // ids (names are keyed by plan fingerprint).
  Result<Apg> again = tb_->BuildApg();
  ASSERT_TRUE(again.ok());
  for (const db::PlanOp& op : apg_->plan().ops()) {
    EXPECT_EQ(apg_->OperatorComponent(op.index).value(),
              again->OperatorComponent(op.index).value());
  }
  // Reverse lookup round-trips.
  const ComponentId o8 = apg_->OperatorComponent(OpIndex(8)).value();
  EXPECT_EQ(apg_->OpIndexOf(o8).value(), OpIndex(8));
}

TEST_F(ApgTest, ScanVolumesFollowTablespaceMapping) {
  EXPECT_EQ(apg_->VolumeOfOp(OpIndex(8)).value(), tb_->v1);   // partsupp.
  EXPECT_EQ(apg_->VolumeOfOp(OpIndex(22)).value(), tb_->v1);  // partsupp2.
  EXPECT_EQ(apg_->VolumeOfOp(OpIndex(7)).value(), tb_->v2);   // part.
  EXPECT_EQ(apg_->VolumeOfOp(OpIndex(13)).value(), tb_->v2);  // nation.
  // Interior operators have no volume.
  EXPECT_FALSE(apg_->VolumeOfOp(OpIndex(3)).ok());
}

TEST_F(ApgTest, InnerPathMatchesPaperO23Example) {
  // Section 3: "the inner dependency path for the Index Scan operator O23
  // ... includes the server, HBA, FCSwitches, storage subsystem, Pool P2,
  // Volume V2, and Disks 5-10". Our O23 is the nation2 index scan on V2 —
  // same volume, same path.
  std::set<std::string> names =
      PathNames(apg_->InnerPath(OpIndex(23)).value());
  EXPECT_TRUE(names.count("dbserver"));
  EXPECT_TRUE(names.count("dbserver-hba0"));
  EXPECT_TRUE(names.count("edge-sw1"));
  EXPECT_TRUE(names.count("core-sw1"));
  EXPECT_TRUE(names.count("edge-sw2"));
  EXPECT_TRUE(names.count("ds6000"));
  EXPECT_TRUE(names.count("P2"));
  EXPECT_TRUE(names.count("V2"));
  for (int d = 5; d <= 10; ++d) {
    EXPECT_TRUE(names.count("disk" + std::to_string(d))) << d;
  }
  // Not V1's hardware.
  EXPECT_FALSE(names.count("V1"));
  EXPECT_FALSE(names.count("disk1"));
}

TEST_F(ApgTest, OuterPathContainsSharersAndWorkloads) {
  // Section 3: "The outer dependency path includes Volumes V3 and V4
  // (because of the shared disks) and other database queries." Our O23 is
  // on V2, whose pool sharer is V4 driven by app-workload-v4.
  std::set<std::string> names =
      PathNames(apg_->OuterPath(OpIndex(23)).value());
  EXPECT_TRUE(names.count("V4"));
  EXPECT_TRUE(names.count("app-workload-v4"));
  EXPECT_FALSE(names.count("V3"));  // V3 shares with V1, not V2.

  // And the V1 leaf's outer path holds V3.
  std::set<std::string> v1_outer =
      PathNames(apg_->OuterPath(OpIndex(8)).value());
  EXPECT_TRUE(v1_outer.count("V3"));
  EXPECT_TRUE(v1_outer.count("app-workload-v3"));
}

TEST_F(ApgTest, InteriorPathsAreLeafUnions) {
  // O3 (top hash join) subsumes every leaf: its inner path covers both
  // volumes and all ten disks.
  std::set<std::string> names = PathNames(apg_->InnerPath(OpIndex(3)).value());
  EXPECT_TRUE(names.count("V1"));
  EXPECT_TRUE(names.count("V2"));
  for (int d = 1; d <= 10; ++d) {
    EXPECT_TRUE(names.count("disk" + std::to_string(d))) << d;
  }
  // The database component is on every inner path.
  EXPECT_TRUE(names.count("postgres@dbserver"));
}

TEST_F(ApgTest, LeafOpsOnComponent) {
  std::vector<int> v1_leaves = apg_->LeafOpsOnComponent(tb_->v1);
  std::set<int> v1_numbers;
  for (int leaf : v1_leaves) {
    v1_numbers.insert(apg_->plan().op(leaf).op_number);
  }
  EXPECT_EQ(v1_numbers, (std::set<int>{8, 22}));
  EXPECT_EQ(apg_->LeafOpsOnComponent(tb_->v2).size(), 7u);
  // All nine leaves depend on the subsystem.
  EXPECT_EQ(apg_->LeafOpsOnComponent(tb_->subsystem).size(), 9u);
}

TEST_F(ApgTest, PlanVolumes) {
  std::vector<ComponentId> volumes = apg_->PlanVolumes();
  EXPECT_EQ(volumes.size(), 2u);
}

TEST_F(ApgTest, AnnotationsSliceTheRunInterval) {
  // Execute a run, collect monitors, annotate its interval.
  Result<int> run_id = tb_->RunQ2(Hours(8));
  ASSERT_TRUE(run_id.ok());
  const db::QueryRunRecord& run = *tb_->runs.FindRun(*run_id).value();
  ASSERT_TRUE(
      tb_->CollectMonitors(Hours(8) - Minutes(10), run.interval.end + Minutes(10))
          .ok());
  ApgAnnotations annotations = AnnotateApg(*apg_, tb_->store, run.interval);
  EXPECT_EQ(annotations.interval, run.interval);
  // V1 is annotated with storage metrics.
  auto it = annotations.per_component.find(tb_->v1);
  ASSERT_NE(it, annotations.per_component.end());
  EXPECT_GE(it->second.metric_means.size(), 10u);
  // The server is annotated too.
  EXPECT_TRUE(annotations.per_component.count(tb_->db_server));
}

TEST_F(ApgTest, AsciiRenderShowsBothLayers) {
  const std::string out = RenderApgAscii(*apg_);
  EXPECT_NE(out.find("O8"), std::string::npos);
  EXPECT_NE(out.find("partsupp"), std::string::npos);
  EXPECT_NE(out.find("[V1]"), std::string::npos);
  EXPECT_NE(out.find("IBM DS6000"), std::string::npos);
  EXPECT_NE(out.find("Pool P1"), std::string::npos);
  EXPECT_NE(out.find("disk10"), std::string::npos);
  EXPECT_NE(out.find("app-workload-v3"), std::string::npos);
}

TEST_F(ApgTest, DotRenderIsWellFormed) {
  const std::string out = RenderApgDot(*apg_);
  EXPECT_EQ(out.find("digraph apg {"), 0u);
  EXPECT_NE(out.find("}"), std::string::npos);
  EXPECT_NE(out.find("op0"), std::string::npos);
  EXPECT_NE(out.find("style=dashed"), std::string::npos);  // Scan->volume.
  EXPECT_NE(out.find("outer"), std::string::npos);
}

TEST_F(ApgTest, DependencyPathRender) {
  const std::string out = RenderDependencyPaths(*apg_, OpIndex(23));
  EXPECT_NE(out.find("O23"), std::string::npos);
  EXPECT_NE(out.find("inner:"), std::string::npos);
  EXPECT_NE(out.find("outer:"), std::string::npos);
  EXPECT_NE(out.find("V2"), std::string::npos);
}

TEST_F(ApgTest, BrowserQuerySelectionScreen) {
  ASSERT_TRUE(tb_->RunQ2(Hours(8)).ok());
  ASSERT_TRUE(tb_->RunQ2(Hours(9)).ok());
  ASSERT_TRUE(tb_->runs
                  .LabelByTimeWindow("Q2", TimeInterval{Hours(8), Hours(8) + 1},
                                     db::RunLabel::kSatisfactory)
                  .ok());
  ASSERT_TRUE(tb_->runs
                  .LabelByTimeWindow("Q2", TimeInterval{Hours(9), Hours(9) + 1},
                                     db::RunLabel::kUnsatisfactory)
                  .ok());
  ApgBrowser browser(apg_.get(), &tb_->store, &tb_->runs);
  const std::string out = browser.RenderQuerySelectionScreen("Q2");
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("[x]"), std::string::npos);  // Unsatisfactory box.
  EXPECT_NE(out.find("[ ]"), std::string::npos);
}

TEST_F(ApgTest, BrowserTreePathAndMetricTable) {
  Result<int> run_id = tb_->RunQ2(Hours(8));
  ASSERT_TRUE(run_id.ok());
  const db::QueryRunRecord& run = *tb_->runs.FindRun(*run_id).value();
  ASSERT_TRUE(tb_->CollectMonitors(Hours(8) - Minutes(10),
                                   run.interval.end + Minutes(30))
                  .ok());
  ASSERT_TRUE(tb_->runs
                  .LabelByTimeWindow("Q2",
                                     TimeInterval{Hours(8), run.interval.end},
                                     db::RunLabel::kUnsatisfactory)
                  .ok());
  ApgBrowser browser(apg_.get(), &tb_->store, &tb_->runs);

  Result<std::string> tree = browser.RenderTreePath(OpIndex(8));
  ASSERT_TRUE(tree.ok());
  // Figure 6's left panel: root to disks through the selected scan.
  EXPECT_NE(tree->find("O1 Result"), std::string::npos);
  EXPECT_NE(tree->find("O8"), std::string::npos);
  EXPECT_NE(tree->find("Volume V1"), std::string::npos);
  EXPECT_NE(tree->find("Disk disk1"), std::string::npos);

  const std::string table = browser.RenderMetricTable(
      tb_->v1, TimeInterval{Hours(8) - Minutes(10), run.interval.end + Minutes(20)},
      "Q2");
  EXPECT_NE(table.find("writeTime"), std::string::npos);
  EXPECT_NE(table.find("Unsatisfactory"), std::string::npos);
  EXPECT_NE(table.find("[x]"), std::string::npos);
}

TEST_F(ApgTest, BuildRejectsNullPlan) {
  EXPECT_FALSE(
      tb_->apg_builder.Build(nullptr, tb_->query_q2, tb_->database,
                             tb_->db_server)
          .ok());
}

// AllComponents is computed once when the APG is built; it must equal the
// per-call derivation it replaced (the union of every operator's inner and
// outer paths in SortPath order) on every scenario's APG.
TEST(ApgAllComponentsTest, EqualsUnionOfPathsForEveryScenario) {
  for (const auto& [id, backend] : testsupport::AllConformanceCases()) {
    workload::ScenarioOptions options;
    options.testbed.backend = backend;
    Result<workload::ScenarioOutput> scenario =
        workload::RunScenario(id, options);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const Apg& apg = *scenario->apg;
    std::set<ComponentId> parts;
    for (const db::PlanOp& op : apg.plan().ops()) {
      Result<std::vector<ComponentId>> inner = apg.InnerPath(op.index);
      Result<std::vector<ComponentId>> outer = apg.OuterPath(op.index);
      ASSERT_TRUE(inner.ok() && outer.ok());
      parts.insert(inner->begin(), inner->end());
      parts.insert(outer->begin(), outer->end());
    }
    EXPECT_EQ(apg.AllComponents(),
              SortPath(parts, apg.topology().registry()))
        << testsupport::CaseName(id, backend);
  }
}

}  // namespace
}  // namespace diads::apg
