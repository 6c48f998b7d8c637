// Module DA against a frozen copy of its previous implementation
// (tests/support/da_oracle): every MetricAnomaly field and the CCS must
// match bit for bit over the 50 conformance configurations at seeds 42, 7
// and 101, with no model cache, with a cold and then warm cache, and with a
// one-shard cache too small for the configuration's models, which declines
// newcomers. Cached baselines that report a run without samples exercise
// the correlation guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/strings.h"
#include "diads/correlated_operators.h"
#include "diads/dependency_analysis.h"
#include "diads/model_cache.h"
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

TEST_P(DaOracleTest, EveryConfigurationMatchesInEveryCacheSetting) {
  const WorkflowConfig config;
  uint64_t declined = 0;
  uint64_t warm_hits = 0;
  for (const auto& [id, backend] : testsupport::AllConformanceCases()) {
    SCOPED_TRACE(testsupport::CaseName(id, backend));
    workload::ScenarioOptions options;
    options.seed = GetParam();
    options.testbed.backend = backend;
    Result<workload::ScenarioOutput> scenario =
        workload::RunScenario(id, options);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    DiagnosisContext ctx = scenario->MakeContext();
    const CoResult co = CoFor(ctx, config);
    const Result<DaResult> expected =
        testsupport::OracleDependencyAnalysis(ctx, config, co);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    // No cache.
    EXPECT_TRUE(SameDa(expected, RunDependencyAnalysis(ctx, config, co)))
        << "no cache";

    // A cold cache, then the same cache warm.
    BaselineModelCache cache(BaselineModelCache::Options{1 << 16, 16});
    ctx.model_cache = &cache;
    EXPECT_TRUE(SameDa(expected, RunDependencyAnalysis(ctx, config, co)))
        << "cold cache";
    const BaselineModelCache::Counters cold = cache.TotalCounters();
    EXPECT_TRUE(SameDa(expected, RunDependencyAnalysis(ctx, config, co)))
        << "warm cache";
    warm_hits += cache.TotalCounters().hits - cold.hits;

    // One shard holding 7/8 of the models: hits, misses and declined
    // newcomers in one run.
    const size_t models = cold.entries;
    BaselineModelCache small(
        BaselineModelCache::Options{std::max<size_t>(1, models * 7 / 8), 1});
    ctx.model_cache = &small;
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_TRUE(SameDa(expected, RunDependencyAnalysis(ctx, config, co)))
          << "undersized cache, pass " << pass;
    }
    declined += small.TotalCounters().declined;
  }
  EXPECT_GT(warm_hits, 0u);
  EXPECT_GT(declined, 0u) << "the undersized cache never declined a model";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaOracleTest,
                         ::testing::Values(42u, 7u, 101u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// A cached baseline can record a satisfactory run that had no sample for
// the series (a collector gap). The metric is still scored, but its
// correlation must stay 0: with a run missing, the baseline and the
// operators' spans no longer line up run by run. Both a realistic entry
// (one value short) and one whose length still matches (so that only the
// missing-run guard, not the length check, keeps it uncorrelated) must
// give the oracle's answer.
TEST(DaOracleMissingRunTest, CachedBaselineWithMissingRunsMatchesOracle) {
  const WorkflowConfig config;
  Result<workload::ScenarioOutput> scenario =
      workload::RunScenario(workload::ScenarioId::kS1SanMisconfiguration);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  DiagnosisContext ctx = scenario->MakeContext();
  const CoResult co = CoFor(ctx, config);
  const Result<DaResult> plain =
      testsupport::OracleDependencyAnalysis(ctx, config, co);
  ASSERT_TRUE(plain.ok());
  // The metric with the strongest correlation.
  const MetricAnomaly* target = nullptr;
  for (const MetricAnomaly& m : plain->metrics) {
    if (target == nullptr ||
        std::fabs(m.correlation) > std::fabs(target->correlation)) {
      target = &m;
    }
  }
  ASSERT_NE(target, nullptr);
  ASSERT_NE(target->correlation, 0.0);

  const std::vector<const db::QueryRunRecord*> good = ctx.SatisfactoryRuns();
  BaselineModelKey key;
  key.source = ctx.Authority();
  key.series = SeriesIdOfMetric(target->component, target->metric);
  key.window_begin = ctx.AnalysisWindow().begin;
  key.window_end = ctx.AnalysisWindow().end;
  key.config_fingerprint = AnomalyConfigFingerprint(config.metric_anomaly);
  key.provenance_fingerprint = RunSetFingerprint(good);
  const uint64_t generation =
      ctx.Authority()->Generation(target->component, target->metric);
  std::vector<double> values;
  ASSERT_EQ(MetricPerRun(ctx.store->Series(target->component, target->metric),
                         good, &values),
            0);

  for (const bool drop_a_value : {true, false}) {
    SCOPED_TRACE(drop_a_value ? "one value short" : "full length");
    std::vector<double> cached_values = values;
    if (drop_a_value) cached_values.pop_back();
    CachedBaseline entry;
    entry.values =
        std::make_shared<const std::vector<double>>(cached_values);
    entry.model = std::make_shared<const stats::SortedKde>(
        *stats::SortedKde::Fit(cached_values,
                               config.metric_anomaly.bandwidth_rule));
    entry.missing = 1;
    BaselineModelCache oracle_cache;
    BaselineModelCache module_cache;
    oracle_cache.Put(key, generation, entry);
    module_cache.Put(key, generation, entry);
    DiagnosisContext oracle_ctx = ctx;
    oracle_ctx.model_cache = &oracle_cache;
    DiagnosisContext module_ctx = ctx;
    module_ctx.model_cache = &module_cache;
    const Result<DaResult> expected =
        testsupport::OracleDependencyAnalysis(oracle_ctx, config, co);
    const Result<DaResult> actual =
        RunDependencyAnalysis(module_ctx, config, co);
    EXPECT_TRUE(SameDa(expected, actual));
    ASSERT_TRUE(actual.ok());
    const MetricAnomaly* scored =
        actual->Find(target->component, target->metric);
    ASSERT_NE(scored, nullptr);
    EXPECT_EQ(scored->correlation, 0.0);
  }
}

// Per-run means skip runs without a sample and count them: over an empty
// series every run is missing.
TEST(MetricPerRunTest, CountsRunsWithoutSamples) {
  db::QueryRunRecord a;
  a.interval = TimeInterval{100, 200};
  db::QueryRunRecord b;
  b.interval = TimeInterval{300, 400};
  const std::vector<const db::QueryRunRecord*> runs = {&a, &b};
  std::vector<double> out = {1.0, 2.0, 3.0};
  EXPECT_EQ(MetricPerRun({}, runs, &out), 2);
  EXPECT_TRUE(out.empty());
  const std::vector<monitor::Sample> series = {{150, 4.0}, {350, 8.0}};
  EXPECT_EQ(MetricPerRun(series, runs, &out), 0);
  EXPECT_EQ(out, (std::vector<double>{6.0, 8.0}));
}

}  // namespace
}  // namespace diads::diag
