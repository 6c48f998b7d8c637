// Tests for the symptom expression language: lexing/parsing (including
// error positions), boolean structure, and name-resolution helpers.
// Predicate evaluation against real module results is covered by
// diag_modules_test and workflow_test; here we exercise the language.
#include <gtest/gtest.h>

#include "diads/symptom_expr.h"
#include "diads/symptom_index.h"
#include "diads/symptoms_db.h"
#include "diads/workflow.h"
#include "workload/scenario.h"

namespace diads::diag {
namespace {

TEST(SymptomParserTest, SimpleCall) {
  Result<SymptomExpr> expr = ParseSymptomExpr("op_anomaly_exists()");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  EXPECT_EQ(expr->kind, SymptomExpr::Kind::kCall);
  EXPECT_EQ(expr->callee, "op_anomaly_exists");
  EXPECT_TRUE(expr->args.empty());
  EXPECT_TRUE(expr->children.empty());
}

TEST(SymptomParserTest, NamedArguments) {
  Result<SymptomExpr> expr =
      ParseSymptomExpr("metric_anomaly(component=V1, metric=writeTime)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr->args.at("component"), "V1");
  EXPECT_EQ(expr->args.at("metric"), "writeTime");
}

TEST(SymptomParserTest, VolumeVariable) {
  Result<SymptomExpr> expr =
      ParseSymptomExpr("op_anomaly_majority(volume=$V)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr->args.at("volume"), "$V");
}

TEST(SymptomParserTest, NotAndOrPrecedence) {
  Result<SymptomExpr> expr = ParseSymptomExpr(
      "not plan_changed() and op_anomaly_exists() or lock_wait_high()");
  ASSERT_TRUE(expr.ok());
  // Or binds loosest: ((not pc) and oae) or lwh.
  EXPECT_EQ(expr->kind, SymptomExpr::Kind::kOr);
  ASSERT_EQ(expr->children.size(), 2u);
  EXPECT_EQ(expr->children[0].kind, SymptomExpr::Kind::kAnd);
  EXPECT_EQ(expr->children[0].children[0].kind, SymptomExpr::Kind::kNot);
  EXPECT_EQ(expr->children[1].callee, "lock_wait_high");
}

TEST(SymptomParserTest, Parentheses) {
  Result<SymptomExpr> expr = ParseSymptomExpr(
      "not (plan_changed() or lock_wait_high())");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr->kind, SymptomExpr::Kind::kNot);
  EXPECT_EQ(expr->children[0].kind, SymptomExpr::Kind::kOr);
}

TEST(SymptomParserTest, TemporalBefore) {
  Result<SymptomExpr> expr = ParseSymptomExpr(
      "before(event(type=VolumeCreated), event(type=VolumePerfDegraded))");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr->callee, "before");
  ASSERT_EQ(expr->children.size(), 2u);
  EXPECT_EQ(expr->children[0].callee, "event");
  EXPECT_EQ(expr->children[0].args.at("type"), "VolumeCreated");
  EXPECT_EQ(expr->children[1].args.at("type"), "VolumePerfDegraded");
}

TEST(SymptomParserTest, RoundTripToString) {
  const std::string text =
      "op_anomaly_majority(volume=$V) and not record_count_change()";
  Result<SymptomExpr> expr = ParseSymptomExpr(text);
  ASSERT_TRUE(expr.ok());
  // Reparse the rendering: same structure.
  Result<SymptomExpr> again = ParseSymptomExpr(expr->ToString());
  ASSERT_TRUE(again.ok()) << expr->ToString();
  EXPECT_EQ(again->ToString(), expr->ToString());
}

TEST(SymptomParserTest, Errors) {
  // Missing parens.
  EXPECT_FALSE(ParseSymptomExpr("plan_changed").ok());
  // Trailing garbage.
  EXPECT_FALSE(ParseSymptomExpr("plan_changed() xyz()").ok());
  // Unbalanced.
  EXPECT_FALSE(ParseSymptomExpr("(plan_changed()").ok());
  // Bad characters.
  EXPECT_FALSE(ParseSymptomExpr("plan_changed() & other()").ok());
  // Dangling argument.
  EXPECT_FALSE(ParseSymptomExpr("event(type=)").ok());
  // Empty input.
  EXPECT_FALSE(ParseSymptomExpr("").ok());
}

TEST(SymptomParserTest, ErrorsMentionPosition) {
  Result<SymptomExpr> expr = ParseSymptomExpr("plan_changed() !");
  ASSERT_FALSE(expr.ok());
  EXPECT_NE(expr.status().message().find("position"), std::string::npos);
}

TEST(MetricShortNameTest, RoundTrip) {
  EXPECT_EQ(ParseMetricShortName("writeTime").value(),
            monitor::MetricId::kVolPhysWriteTimeMs);
  EXPECT_EQ(ParseMetricShortName("writeIO").value(),
            monitor::MetricId::kVolPhysWriteOps);
  EXPECT_EQ(ParseMetricShortName("lockWait").value(),
            monitor::MetricId::kDbLockWaitMs);
  // Full Figure-4 names also resolve.
  EXPECT_EQ(ParseMetricShortName("Buffer Hits").value(),
            monitor::MetricId::kDbBufferHits);
  EXPECT_FALSE(ParseMetricShortName("bogus").ok());
}

// The indexed lookup path (SymptomIndex) must answer every predicate of
// the default symptoms database exactly as the linear-scan path does, for
// every volume binding, over real module results.
TEST(SymptomIndexTest, IndexedEvaluationMatchesLinearScans) {
  Result<workload::ScenarioOutput> scenario = workload::RunScenario(
      workload::ScenarioId::kS4ConcurrentDbSan, {});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const DiagnosisContext ctx = scenario->MakeContext();
  const WorkflowConfig config;
  const SymptomsDb db = SymptomsDb::MakeDefault();
  Workflow workflow(ctx, config, &db);
  Result<DiagnosisReport> report = workflow.Diagnose();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const SymptomIndex index =
      SymptomIndex::Build(ctx, config, report->co, report->da);
  std::vector<ComponentId> bindings = ctx.apg->PlanVolumes();
  bindings.push_back(ComponentId{});  // Unbound evaluation too.
  int compared = 0;
  for (const RootCauseEntry& entry : db.entries()) {
    for (ComponentId binding : bindings) {
      if (entry.bind_volumes != binding.valid()) continue;
      SymptomEvalContext eval;
      eval.ctx = &ctx;
      eval.config = &config;
      eval.pd = &report->pd;
      eval.co = &report->co;
      eval.da = &report->da;
      eval.cr = &report->cr;
      eval.bound_volume = binding;
      for (const Condition& condition : entry.conditions) {
        eval.index = nullptr;
        Result<bool> linear = EvaluateSymptom(condition.parsed, eval);
        eval.index = &index;
        Result<bool> indexed = EvaluateSymptom(condition.parsed, eval);
        ASSERT_EQ(linear.ok(), indexed.ok()) << condition.expr_text;
        if (!linear.ok()) continue;
        EXPECT_EQ(*linear, *indexed)
            << entry.name << ": " << condition.expr_text;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 50);  // The default DB exercises every predicate.
}

}  // namespace
}  // namespace diads::diag
