// Tests for the workflow drivers: the batch Workflow (Figure 2's module
// sequence), the InteractiveSession (Figure 7's ordering, re-execution, and
// result editing), the symptoms database validation rules, and the what-if
// plan probe integration in Module PD.
#include <gtest/gtest.h>

#include "diads/workflow.h"
#include "workload/scenario.h"

namespace diads::diag {
namespace {

using workload::RunScenario;
using workload::ScenarioId;
using workload::ScenarioOutput;

class WorkflowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<ScenarioOutput> scenario =
        RunScenario(ScenarioId::kS1SanMisconfiguration, {});
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = new ScenarioOutput(std::move(*scenario));
    symptoms_ = new SymptomsDb(SymptomsDb::MakeDefault());
  }
  static void TearDownTestSuite() {
    delete symptoms_;
    delete scenario_;
    symptoms_ = nullptr;
    scenario_ = nullptr;
  }

  static ScenarioOutput* scenario_;
  static SymptomsDb* symptoms_;
};

ScenarioOutput* WorkflowTest::scenario_ = nullptr;
SymptomsDb* WorkflowTest::symptoms_ = nullptr;

TEST_F(WorkflowTest, BatchDiagnosisEndToEnd) {
  Workflow workflow(scenario_->MakeContext(), WorkflowConfig{}, symptoms_);
  Result<DiagnosisReport> report = workflow.Diagnose();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->causes.empty());
  EXPECT_EQ(report->causes.front().type,
            RootCauseType::kSanMisconfigurationContention);
  EXPECT_FALSE(report->summary.empty());
  EXPECT_NE(report->summary.find("SAN misconfiguration"), std::string::npos);
}

TEST_F(WorkflowTest, BatchWithoutSymptomsDbUsesFallback) {
  Workflow workflow(scenario_->MakeContext(), WorkflowConfig{}, nullptr);
  Result<DiagnosisReport> report = workflow.Diagnose();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->causes.empty());
  // The fallback still pinpoints V1, capped below high confidence.
  EXPECT_EQ(report->causes.front().subject, scenario_->testbed->v1);
  EXPECT_NE(report->causes.front().band, ConfidenceBand::kHigh);
}

TEST_F(WorkflowTest, InteractiveEnforcesFirstPassOrder) {
  InteractiveSession session(scenario_->MakeContext(), WorkflowConfig{},
                             symptoms_);
  using Module = InteractiveSession::Module;
  // Figure 7: "all modules after dependency analysis are disabled" before
  // the earlier ones have run.
  EXPECT_TRUE(session.CanRun(Module::kPd));
  EXPECT_FALSE(session.CanRun(Module::kCo));
  EXPECT_FALSE(session.CanRun(Module::kSd));
  EXPECT_FALSE(session.Run(Module::kIa).ok());

  ASSERT_TRUE(session.Run(Module::kPd).ok());
  EXPECT_TRUE(session.CanRun(Module::kCo));
  ASSERT_TRUE(session.Run(Module::kCo).ok());
  EXPECT_TRUE(session.CanRun(Module::kDa));
  EXPECT_TRUE(session.CanRun(Module::kCr));
  EXPECT_FALSE(session.CanRun(Module::kSd));  // Needs DA and CR.
  ASSERT_TRUE(session.Run(Module::kDa).ok());
  ASSERT_TRUE(session.Run(Module::kCr).ok());
  EXPECT_TRUE(session.CanRun(Module::kSd));
  ASSERT_TRUE(session.Run(Module::kSd).ok());
  ASSERT_TRUE(session.Run(Module::kIa).ok());
  EXPECT_FALSE(session.NextModule().has_value());
  EXPECT_EQ(session.report().causes.front().type,
            RootCauseType::kSanMisconfigurationContention);
}

TEST_F(WorkflowTest, InteractiveReExecutionAllowed) {
  InteractiveSession session(scenario_->MakeContext(), WorkflowConfig{},
                             symptoms_);
  using Module = InteractiveSession::Module;
  ASSERT_TRUE(session.Run(Module::kPd).ok());
  ASSERT_TRUE(session.Run(Module::kCo).ok());
  // "each module can be re-executed as many times as needed".
  Result<std::string> again = session.Run(Module::kCo);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->find("Module CO"), std::string::npos);
  // Earlier modules can re-run too.
  EXPECT_TRUE(session.Run(Module::kPd).ok());
}

TEST_F(WorkflowTest, InteractiveCosEditing) {
  InteractiveSession session(scenario_->MakeContext(), WorkflowConfig{},
                             symptoms_);
  using Module = InteractiveSession::Module;
  EXPECT_FALSE(session.RemoveFromCos(8).ok());  // CO has not run.
  ASSERT_TRUE(session.Run(Module::kPd).ok());
  ASSERT_TRUE(session.Run(Module::kCo).ok());
  const size_t before = session.report().co.correlated_operator_set.size();
  ASSERT_TRUE(session.RemoveFromCos(8).ok());
  EXPECT_EQ(session.report().co.correlated_operator_set.size(), before - 1);
  EXPECT_FALSE(session.RemoveFromCos(8).ok());  // Already removed.
  ASSERT_TRUE(session.AddToCos(8).ok());
  EXPECT_EQ(session.report().co.correlated_operator_set.size(), before);
  // Out-of-range operator number.
  EXPECT_FALSE(session.AddToCos(99).ok());
}

TEST_F(WorkflowTest, NextModuleWalksFigure2Order) {
  InteractiveSession session(scenario_->MakeContext(), WorkflowConfig{},
                             symptoms_);
  using Module = InteractiveSession::Module;
  const Module expected[] = {Module::kPd, Module::kCo, Module::kDa,
                             Module::kCr, Module::kSd, Module::kIa};
  for (Module module : expected) {
    ASSERT_TRUE(session.NextModule().has_value());
    EXPECT_EQ(*session.NextModule(), module);
    ASSERT_TRUE(session.Run(module).ok());
  }
}

// --- SymptomsDb validation ----------------------------------------------------

TEST(SymptomsDbTest, DefaultDatabaseIsValid) {
  SymptomsDb db = SymptomsDb::MakeDefault();
  EXPECT_GE(db.size(), 9u);
}

TEST(SymptomsDbTest, WeightsMustSumTo100) {
  SymptomsDb db;
  EXPECT_FALSE(db.AddEntry("bad", RootCauseType::kLockContention,
                           {{"lock_wait_high()", 50}})
                   .ok());
  EXPECT_TRUE(db.AddEntry("good", RootCauseType::kLockContention,
                          {{"lock_wait_high()", 60},
                           {"op_anomaly_exists()", 40}})
                  .ok());
}

TEST(SymptomsDbTest, RejectsUnparseableConditions) {
  SymptomsDb db;
  EXPECT_FALSE(db.AddEntry("bad", RootCauseType::kLockContention,
                           {{"this is not an expression", 100}})
                   .ok());
  EXPECT_FALSE(db.AddEntry("bad2", RootCauseType::kLockContention,
                           {{"lock_wait_high()", -10},
                            {"op_anomaly_exists()", 110}})
                   .ok());
}

TEST(SymptomsDbTest, DuplicateAndRemove) {
  SymptomsDb db;
  ASSERT_TRUE(db.AddEntry("e", RootCauseType::kLockContention,
                          {{"lock_wait_high()", 100}})
                  .ok());
  EXPECT_FALSE(db.AddEntry("e", RootCauseType::kLockContention,
                           {{"lock_wait_high()", 100}})
                   .ok());
  EXPECT_TRUE(db.RemoveEntry("e").ok());
  EXPECT_FALSE(db.RemoveEntry("e").ok());
  EXPECT_EQ(db.size(), 0u);
}

// --- Module PD with the what-if probe ------------------------------------------

class PlanChangeWorkflowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<ScenarioOutput> scenario =
        RunScenario(ScenarioId::kS6IndexDrop, {});
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = new ScenarioOutput(std::move(*scenario));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static ScenarioOutput* scenario_;
};

ScenarioOutput* PlanChangeWorkflowTest::scenario_ = nullptr;

TEST_F(PlanChangeWorkflowTest, DetectsAndExplainsPlanChange) {
  SymptomsDb symptoms = SymptomsDb::MakeDefault();
  Workflow workflow(scenario_->MakeContext(), WorkflowConfig{}, &symptoms);
  Result<DiagnosisReport> report = workflow.Diagnose();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->pd.plans_differ);
  ASSERT_EQ(report->pd.candidates.size(), 1u);
  EXPECT_EQ(report->pd.candidates[0].event.type, EventType::kIndexDropped);
  ASSERT_TRUE(report->pd.candidates[0].could_explain.has_value());
  EXPECT_TRUE(*report->pd.candidates[0].could_explain);
  ASSERT_FALSE(report->causes.empty());
  EXPECT_EQ(report->causes.front().type, RootCauseType::kPlanChange);
  EXPECT_EQ(report->causes.front().band, ConfidenceBand::kHigh);
  EXPECT_NE(report->summary.find("explained by"), std::string::npos);
}

TEST_F(PlanChangeWorkflowTest, WithoutProbeCandidateStaysUnverified) {
  DiagnosisContext ctx = scenario_->MakeContext();
  ctx.plan_whatif_probe = nullptr;
  Result<PdResult> pd = RunPlanDiff(ctx);
  ASSERT_TRUE(pd.ok());
  EXPECT_TRUE(pd->plans_differ);
  ASSERT_EQ(pd->candidates.size(), 1u);
  EXPECT_FALSE(pd->candidates[0].could_explain.has_value());
}

}  // namespace
}  // namespace diads::diag
