// Tests for the individual diagnosis modules (PD, CO, DA, CR, SD, IA) over
// scenario-1 data — checking each module's Section 4.1/Section 5 behaviour:
// COS holds the V1 leaves plus their pipeline ancestors, DA prunes V2, CR
// stays quiet, SD scores the misconfiguration entry highest, IA attributes
// ~100% of the slowdown.
//
// The scenario is simulated once and shared across tests (SetUpTestSuite).
#include <gtest/gtest.h>

#include <set>

#include "diads/correlated_operators.h"
#include "diads/correlated_records.h"
#include "diads/dependency_analysis.h"
#include "diads/impact_analysis.h"
#include "diads/plan_diff.h"
#include "diads/symptoms_db.h"
#include "diads/workflow.h"
#include "workload/scenario.h"

namespace diads::diag {
namespace {

using workload::RunScenario;
using workload::ScenarioId;
using workload::ScenarioOutput;

class Scenario1Modules : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<ScenarioOutput> scenario =
        RunScenario(ScenarioId::kS1SanMisconfiguration, {});
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = new ScenarioOutput(std::move(*scenario));
    ctx_ = new DiagnosisContext(scenario_->MakeContext());
    config_ = new WorkflowConfig();
    Result<CoResult> co = RunCorrelatedOperators(*ctx_, *config_);
    ASSERT_TRUE(co.ok()) << co.status().ToString();
    co_ = new CoResult(std::move(*co));
    Result<DaResult> da = RunDependencyAnalysis(*ctx_, *config_, *co_);
    ASSERT_TRUE(da.ok()) << da.status().ToString();
    da_ = new DaResult(std::move(*da));
    Result<CrResult> cr = RunCorrelatedRecords(*ctx_, *config_, *co_);
    ASSERT_TRUE(cr.ok()) << cr.status().ToString();
    cr_ = new CrResult(std::move(*cr));
    Result<PdResult> pd = RunPlanDiff(*ctx_);
    ASSERT_TRUE(pd.ok()) << pd.status().ToString();
    pd_ = new PdResult(std::move(*pd));
  }

  static void TearDownTestSuite() {
    delete pd_;
    delete cr_;
    delete da_;
    delete co_;
    delete config_;
    delete ctx_;
    delete scenario_;
    pd_ = nullptr;
    cr_ = nullptr;
    da_ = nullptr;
    co_ = nullptr;
    config_ = nullptr;
    ctx_ = nullptr;
    scenario_ = nullptr;
  }

  static int OpIndex(int op_number) {
    return ctx_->apg->plan().IndexOfOpNumber(op_number).value();
  }

  static std::set<int> CosNumbers() {
    std::set<int> numbers;
    for (int index : co_->correlated_operator_set) {
      numbers.insert(ctx_->apg->plan().op(index).op_number);
    }
    return numbers;
  }

  static ScenarioOutput* scenario_;
  static DiagnosisContext* ctx_;
  static WorkflowConfig* config_;
  static CoResult* co_;
  static DaResult* da_;
  static CrResult* cr_;
  static PdResult* pd_;
};

ScenarioOutput* Scenario1Modules::scenario_ = nullptr;
DiagnosisContext* Scenario1Modules::ctx_ = nullptr;
WorkflowConfig* Scenario1Modules::config_ = nullptr;
CoResult* Scenario1Modules::co_ = nullptr;
DaResult* Scenario1Modules::da_ = nullptr;
CrResult* Scenario1Modules::cr_ = nullptr;
PdResult* Scenario1Modules::pd_ = nullptr;

// --- Module PD ---------------------------------------------------------------

TEST_F(Scenario1Modules, PdFindsNoPlanChange) {
  // "Modules PD and CR: These two modules correctly identify
  // (respectively) that the plan and the data properties have not changed."
  EXPECT_FALSE(pd_->plans_differ);
  EXPECT_EQ(pd_->satisfactory_fingerprints,
            pd_->unsatisfactory_fingerprints);
}

// --- Module CO ---------------------------------------------------------------

TEST_F(Scenario1Modules, CoContainsBothV1Leaves) {
  // "This set correctly contains both the leaf operators (O8 and O22)
  // connected to volume V1."
  const std::set<int> cos = CosNumbers();
  EXPECT_TRUE(cos.count(8));
  EXPECT_TRUE(cos.count(22));
}

TEST_F(Scenario1Modules, CoContainsUpstreamAncestors) {
  // "The ... intermediate operators present in this set are ranked highly
  // because of event propagation."
  const std::set<int> cos = CosNumbers();
  for (int number : {2, 3, 4, 5, 6, 17, 18, 19, 20}) {
    EXPECT_TRUE(cos.count(number)) << "O" << number;
  }
}

TEST_F(Scenario1Modules, CoExcludesRootAndBuildPipelines) {
  // The Result root only spans the emission phase; the hash-build
  // pipelines never touch V1. Neither should be correlated.
  const std::set<int> cos = CosNumbers();
  EXPECT_FALSE(cos.count(1));
  for (int number : {9, 10, 11, 12, 13, 14, 15, 24, 25}) {
    EXPECT_FALSE(cos.count(number)) << "O" << number;
  }
}

TEST_F(Scenario1Modules, CoScoresAreOrdered) {
  // Every COS member scores above threshold; every excluded op below.
  for (const OperatorAnomaly& a : co_->scores) {
    if (co_->InCos(a.op_index)) {
      EXPECT_GE(a.score, config_->operator_anomaly.threshold);
    } else {
      EXPECT_LT(a.score, config_->operator_anomaly.threshold);
    }
  }
}

// --- Module DA ---------------------------------------------------------------

TEST_F(Scenario1Modules, DaFlagsV1NotV2) {
  // Table 2's first column: V1's metrics anomalous, V2's are not.
  EXPECT_TRUE(da_->InCcs(scenario_->testbed->v1));
  EXPECT_FALSE(da_->InCcs(scenario_->testbed->v2));
}

TEST_F(Scenario1Modules, DaScoresV1WriteMetricsHigh) {
  const MetricAnomaly* write_io = da_->Find(
      scenario_->testbed->v1, monitor::MetricId::kVolPhysWriteOps);
  ASSERT_NE(write_io, nullptr);
  EXPECT_GE(write_io->anomaly_score, 0.8);
  const MetricAnomaly* write_time = da_->Find(
      scenario_->testbed->v1, monitor::MetricId::kVolPhysWriteTimeMs);
  ASSERT_NE(write_time, nullptr);
  EXPECT_GE(write_time->anomaly_score, 0.8);
}

TEST_F(Scenario1Modules, DaScoresV2MetricsLow) {
  EXPECT_LT(da_->MaxAnomalyFor(scenario_->testbed->v2), 0.8);
}

TEST_F(Scenario1Modules, DaFlagsP1DisksViaDependencyPaths) {
  // The contended pool's disks sit on O8/O22's inner paths and show
  // correlated utilisation.
  const ComponentRegistry& registry = scenario_->testbed->registry;
  int p1_disks_in_ccs = 0;
  for (ComponentId c : da_->correlated_component_set) {
    const std::string name = registry.NameOf(c);
    if (name == "disk1" || name == "disk2" || name == "disk3" ||
        name == "disk4") {
      ++p1_disks_in_ccs;
    }
  }
  EXPECT_GE(p1_disks_in_ccs, 3);
}

TEST_F(Scenario1Modules, DaOnlyScoresDependencyPathComponents) {
  // Every scored component must be on some COS operator's inner or outer
  // path — property (i) of Section 4.1.
  std::set<ComponentId> allowed;
  for (int op_index : co_->correlated_operator_set) {
    const std::vector<ComponentId> inner =
        ctx_->apg->InnerPath(op_index).value();
    const std::vector<ComponentId> outer =
        ctx_->apg->OuterPath(op_index).value();
    allowed.insert(inner.begin(), inner.end());
    allowed.insert(outer.begin(), outer.end());
  }
  for (const MetricAnomaly& m : da_->metrics) {
    EXPECT_TRUE(allowed.count(m.component))
        << scenario_->testbed->registry.NameOf(m.component);
  }
}

// --- Module CR ---------------------------------------------------------------

TEST_F(Scenario1Modules, CrFindsNoDataPropertyChange) {
  EXPECT_FALSE(cr_->data_properties_changed);
  EXPECT_TRUE(cr_->correlated_record_set.empty());
}

// --- Module SD ---------------------------------------------------------------

TEST_F(Scenario1Modules, SdRanksMisconfigurationHighest) {
  SymptomsDb db = SymptomsDb::MakeDefault();
  Result<std::vector<RootCause>> causes =
      RunSymptomsDatabase(*ctx_, *config_, *pd_, *co_, *da_, *cr_, db);
  ASSERT_TRUE(causes.ok()) << causes.status().ToString();
  ASSERT_FALSE(causes->empty());
  EXPECT_EQ(causes->front().type,
            RootCauseType::kSanMisconfigurationContention);
  EXPECT_EQ(causes->front().subject, scenario_->testbed->v1);
  EXPECT_EQ(causes->front().band, ConfidenceBand::kHigh);
  // "V1's contention due to a change in database workload got a medium
  // confidence score": the external-workload entry lands mid-band.
  bool external_v1_medium = false;
  for (const RootCause& cause : *causes) {
    if (cause.type == RootCauseType::kExternalWorkloadContention &&
        cause.subject == scenario_->testbed->v1 &&
        cause.band == ConfidenceBand::kMedium) {
      external_v1_medium = true;
    }
  }
  EXPECT_TRUE(external_v1_medium);
}

TEST_F(Scenario1Modules, SdWithoutDatabaseStillNarrows) {
  // Section 5: "DIADS produces good results even when the symptoms
  // database is incomplete" — with none at all, the fallback still points
  // at V1.
  std::vector<RootCause> causes = FallbackCauses(*ctx_, *config_, *da_, *cr_);
  ASSERT_FALSE(causes.empty());
  EXPECT_EQ(causes.front().subject, scenario_->testbed->v1);
}

// --- Module IA ---------------------------------------------------------------

TEST_F(Scenario1Modules, IaAttributesNearlyAllSlowdownToV1) {
  // "Impact analysis done using the inverse dependency analysis technique
  // gave an impact score of 99.8% for the high-confidence root cause."
  SymptomsDb db = SymptomsDb::MakeDefault();
  std::vector<RootCause> causes =
      RunSymptomsDatabase(*ctx_, *config_, *pd_, *co_, *da_, *cr_, db)
          .value();
  ASSERT_TRUE(
      RunImpactAnalysis(*ctx_, *config_, *co_, *cr_, &causes).ok());
  const RootCause& top = causes.front();
  EXPECT_EQ(top.type, RootCauseType::kSanMisconfigurationContention);
  ASSERT_TRUE(top.impact_pct.has_value());
  EXPECT_GT(*top.impact_pct, 90.0);
}

TEST_F(Scenario1Modules, IaOperatorsAffectedByVolumeCause) {
  RootCause cause;
  cause.type = RootCauseType::kSanMisconfigurationContention;
  cause.subject = scenario_->testbed->v1;
  std::vector<int> ops = OperatorsAffectedBy(*ctx_, cause, *co_, *cr_);
  std::set<int> numbers;
  for (int index : ops) {
    numbers.insert(ctx_->apg->plan().op(index).op_number);
  }
  EXPECT_EQ(numbers, (std::set<int>{8, 22}));
}

TEST_F(Scenario1Modules, IaCostModelVariantAlsoImplicatesV1) {
  SymptomsDb db = SymptomsDb::MakeDefault();
  std::vector<RootCause> causes =
      RunSymptomsDatabase(*ctx_, *config_, *pd_, *co_, *da_, *cr_, db)
          .value();
  ASSERT_TRUE(RunImpactAnalysis(*ctx_, *config_, *co_, *cr_, &causes,
                                ImpactMethod::kCostModel)
                  .ok());
  for (const RootCause& cause : causes) {
    if (cause.type == RootCauseType::kSanMisconfigurationContention &&
        cause.subject == scenario_->testbed->v1) {
      ASSERT_TRUE(cause.impact_pct.has_value());
      // The V1 scans carry the bulk of the plan's estimated self cost.
      EXPECT_GT(*cause.impact_pct, 50.0);
      return;
    }
  }
  FAIL() << "misconfiguration cause missing";
}

// --- Renderers ------------------------------------------------------------------

TEST_F(Scenario1Modules, PanelsRender) {
  EXPECT_NE(RenderPdResult(*pd_).find("plans differ: no"), std::string::npos);
  EXPECT_NE(RenderCoResult(*ctx_, *co_).find("O8"), std::string::npos);
  EXPECT_NE(RenderDaResult(*ctx_, *da_).find("V1"), std::string::npos);
  EXPECT_NE(RenderCrResult(*ctx_, *cr_).find("data properties"),
            std::string::npos);
}

// --- Context helpers --------------------------------------------------------------

TEST_F(Scenario1Modules, ContextWindows) {
  const TimeInterval analysis = ctx_->AnalysisWindow();
  EXPECT_EQ(analysis.begin, scenario_->satisfactory_window.begin);
  EXPECT_EQ(analysis.end, scenario_->unsatisfactory_window.end);
  const TimeInterval transition = ctx_->TransitionWindow();
  EXPECT_GE(transition.begin, scenario_->satisfactory_window.end);
  EXPECT_LE(transition.end, scenario_->unsatisfactory_window.begin);
  // The misconfiguration events happened inside the transition window.
  EXPECT_FALSE(
      ctx_->events->EventsOfTypeIn(EventType::kVolumeCreated, transition)
          .empty());
}

TEST_F(Scenario1Modules, RunPartitionsMatchScenario) {
  EXPECT_EQ(ctx_->SatisfactoryRuns().size(), 20u);
  EXPECT_EQ(ctx_->UnsatisfactoryRuns().size(), 10u);
}

}  // namespace
}  // namespace diads::diag
