// Module DA against a frozen copy of its previous implementation
// (tests/support/da_oracle): every MetricAnomaly field and the CCS must
// match bit for bit over the 50 conformance configurations at seeds 42, 7
// and 101.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "diads/correlated_operators.h"
#include "diads/dependency_analysis.h"
#include "support/conformance_util.h"
#include "support/da_oracle.h"
#include "workload/scenario.h"

namespace diads::diag {
namespace {

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

::testing::AssertionResult SameDa(const Result<DaResult>& expected,
                                  const Result<DaResult>& actual) {
  if (expected.ok() != actual.ok()) {
    return ::testing::AssertionFailure()
           << "status " << actual.status().ToString() << ", oracle "
           << expected.status().ToString();
  }
  if (!expected.ok()) {
    if (expected.status().code() == actual.status().code()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "different error codes";
  }
  const std::vector<MetricAnomaly>& want = expected->metrics;
  const std::vector<MetricAnomaly>& got = actual->metrics;
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " metrics scored, oracle " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const MetricAnomaly& w = want[i];
    const MetricAnomaly& g = got[i];
    if (w.component != g.component || w.metric != g.metric ||
        Bits(w.anomaly_score) != Bits(g.anomaly_score) ||
        Bits(w.correlation) != Bits(g.correlation) ||
        w.correlated != g.correlated) {
      return ::testing::AssertionFailure()
             << "metric " << i << " (component " << g.component.value
             << ", metric " << static_cast<int>(g.metric) << "): score "
             << StrFormat("%a", g.anomaly_score) << " corr "
             << StrFormat("%a", g.correlation) << " correlated "
             << g.correlated << "; oracle component " << w.component.value
             << " metric " << static_cast<int>(w.metric) << " score "
             << StrFormat("%a", w.anomaly_score) << " corr "
             << StrFormat("%a", w.correlation) << " correlated "
             << w.correlated;
    }
  }
  if (expected->correlated_component_set != actual->correlated_component_set) {
    return ::testing::AssertionFailure() << "CCS differs";
  }
  return ::testing::AssertionSuccess();
}

/// Module CO's result, or none when CO fails (the workflow runs DA over
/// an empty COS when the plans differ).
CoResult CoFor(const DiagnosisContext& ctx, const WorkflowConfig& config) {
  Result<CoResult> co = RunCorrelatedOperators(ctx, config);
  return co.ok() ? *co : CoResult{};
}

class DaOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DaOracleTest, EveryConfigurationMatches) {
  const WorkflowConfig config;
  for (const auto& [id, backend] : testsupport::AllConformanceCases()) {
    SCOPED_TRACE(testsupport::CaseName(id, backend));
    workload::ScenarioOptions options;
    options.seed = GetParam();
    options.testbed.backend = backend;
    Result<workload::ScenarioOutput> scenario =
        workload::RunScenario(id, options);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const DiagnosisContext ctx = scenario->MakeContext();
    const CoResult co = CoFor(ctx, config);
    const Result<DaResult> expected =
        testsupport::OracleDependencyAnalysis(ctx, config, co);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_TRUE(SameDa(expected, RunDependencyAnalysis(ctx, config, co)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaOracleTest,
                         ::testing::Values(42u, 7u, 101u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Per-run means: a non-empty series has one for every run, including a
// run with no sample of its own (it reads the next sample), and an empty
// series has none.
TEST(MetricPerRunTest, OneMeanPerRunOfANonEmptySeries) {
  db::QueryRunRecord a;
  a.interval = TimeInterval{100, 200};
  db::QueryRunRecord b;
  b.interval = TimeInterval{300, 400};
  db::QueryRunRecord gap;
  gap.interval = TimeInterval{210, 220};
  std::vector<double> out = {1.0, 2.0, 3.0};
  MetricPerRun({}, {&a, &b}, &out);
  EXPECT_TRUE(out.empty());
  const std::vector<monitor::Sample> series = {{150, 4.0}, {350, 8.0}};
  MetricPerRun(series, {&a, &gap, &b}, &out);
  EXPECT_EQ(out, (std::vector<double>{6.0, 8.0, 8.0}));
}

}  // namespace
}  // namespace diads::diag
