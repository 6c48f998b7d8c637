// Cross-backend scenario conformance harness.
//
// The headline contract of the backend abstraction: every Table-1 /
// plan-change scenario must behave identically — in diagnosis outcome, APG
// structural schema, and recorded ReportDigest — whichever engine the
// testbed runs. 16 backend-neutral scenarios x 3 backends plus the two
// column-store-native scenarios = 50 diagnosed configurations:
//
//   * DiagnosesInjectedRootCause — the full workflow localises the
//     injected fault with high confidence and ranks it top, per
//     configuration;
//   * ApgSatisfiesStructuralSchema — both engines' APGs satisfy the same
//     node/edge-kind invariants and leaf->volume reachability
//     (apg/schema.h), and preserve the paper's load-bearing layout: nine
//     leaves, exactly two on V1;
//   * GoldenReportDigests — per-(scenario, backend) ReportDigest hashes
//     match tests/golden_report_digests.txt, so future changes cannot
//     silently regress either engine (regenerate explicitly with
//     DIADS_UPDATE_GOLDEN_DIGESTS=1);
//   * StoreDigestsMatchGoldenTable — per-(scenario, backend) hashes of the
//     whole monitoring store match tests/golden_store_digests.txt, so the
//     SAN/DB sample generators cannot drift even in series no diagnosis
//     reads;
//   * PlanDigestsMatchGoldenTable — per-(catalog state, backend) hashes of
//     every plan the optimizer produces over a sweep of 45 catalog states
//     and every parameter's value match tests/golden_plan_digests.txt, so
//     a planner refactor cannot move a single estimate bit;
//   * CollectedDiagnosisMatchesGoldenDigest — the serving path (gather
//     into a collected snapshot, then diagnose over it) reproduces the
//     same golden digest per configuration, and so does a store holding
//     only a copy of each planned series' covering slice;
//   * cross-backend parity properties — semantically identical testbeds
//     expose identical SAN component sets and identical
//     SeriesKeyHash-keyed metric inventories through either backend
//     (what CollectionPlanner batches and Module DA scores).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "apg/schema.h"
#include "common/strings.h"
#include "db/query.h"
#include "diads/symptom_index.h"
#include "monitor/async_collector.h"
#include "monitor/collection_planner.h"
#include "monitor/gather.h"
#include "monitor/timeseries.h"
#include "support/conformance_util.h"

namespace diads {
namespace {

using db::BackendKind;
using testsupport::AllConformanceCases;
using testsupport::AllScenarioIds;
using testsupport::CaseName;
using testsupport::DiagnosedScenario;
using testsupport::GetDiagnosed;
using workload::GroundTruthCause;
using workload::MatchesGroundTruth;
using workload::ScenarioId;

class ConformanceCaseTest
    : public ::testing::TestWithParam<std::pair<ScenarioId, BackendKind>> {
 protected:
  /// nullptr (with a recorded failure) when the configuration fails to
  /// run — callers ASSERT on it, so one broken configuration fails its
  /// own tests without taking the rest of the binary down.
  const DiagnosedScenario* Diagnosed() {
    Result<const DiagnosedScenario*> d =
        GetDiagnosed(GetParam().first, GetParam().second);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return d.ok() ? *d : nullptr;
  }
};

TEST_P(ConformanceCaseTest, DiagnosesInjectedRootCause) {
  const DiagnosedScenario* d = Diagnosed();
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(testsupport::DiagnosesGroundTruth(*d));
}

TEST_P(ConformanceCaseTest, ApgSatisfiesStructuralSchema) {
  const DiagnosedScenario* d_ptr = Diagnosed();
  ASSERT_NE(d_ptr, nullptr);
  const DiagnosedScenario& d = *d_ptr;
  const apg::Apg& apg = *d.scenario.apg;
  const Status schema = apg::ValidateApgSchema(apg);
  EXPECT_TRUE(schema.ok()) << schema.ToString();

  // The paper's load-bearing layout survives vocabulary translation: nine
  // leaf scans, exactly two of them (the partsupp scans) on V1.
  const ComponentRegistry& registry = d.scenario.testbed->registry;
  const std::vector<int> leaves = apg.plan().LeafIndexes();
  EXPECT_EQ(leaves.size(), 9u);
  int v1_leaves = 0;
  for (int leaf : leaves) {
    Result<ComponentId> volume = apg.VolumeOfOp(leaf);
    ASSERT_TRUE(volume.ok());
    if (registry.NameOf(*volume) == "V1") {
      ++v1_leaves;
      EXPECT_EQ(apg.plan().op(leaf).table, "partsupp");
    }
  }
  EXPECT_EQ(v1_leaves, 2);

  // Both backends read exactly {V1, V2}.
  std::set<std::string> volumes;
  for (ComponentId v : apg.PlanVolumes()) volumes.insert(registry.NameOf(v));
  EXPECT_EQ(volumes, (std::set<std::string>{"V1", "V2"}));
}

// The engine diagnoses through gather -> collected snapshot ->
// DiagnoseOverCollection, not through the serial Diagnose the golden table
// is computed from. Both must give the golden digest, on every
// configuration.
TEST_P(ConformanceCaseTest, CollectedDiagnosisMatchesGoldenDigest) {
  const DiagnosedScenario* d = Diagnosed();
  ASSERT_NE(d, nullptr);
  // A run that regenerates the goldens writes them from the serial
  // digests; hold the serving path to those instead of the old file.
  std::string expected = d->digest_hash;
  if (!testsupport::UpdateGoldenDigestsRequested()) {
    Result<testsupport::GoldenDigestTable> golden =
        testsupport::LoadGoldenDigests(testsupport::GoldenDigestPath());
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    auto it = golden->find({workload::ScenarioName(GetParam().first),
                            db::BackendKindName(GetParam().second)});
    ASSERT_TRUE(it != golden->end()) << "no golden digest for this case";
    expected = it->second;
  }

  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0;
  latency.connections = 2;
  monitor::SimulatedSanCollector collector(latency);
  const monitor::MetricGatherer gatherer(&collector, monitor::GatherOptions{});
  const diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  const diag::Workflow workflow(d->scenario.MakeContext(),
                                diag::WorkflowConfig{}, &symptoms);
  {
    diag::CollectionOutcome outcome;
    Result<diag::DiagnosisReport> report = workflow.DiagnoseWithCollection(
        gatherer, diag::ImpactMethod::kInverseDependency, nullptr, &outcome);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(outcome.degraded());
    EXPECT_EQ(diag::ReportDigestHashHex(*report), expected);
  }

  // A snapshot shares whole series, but a fetch still ships only each
  // series' covering slice: a store of copies of those slices must give
  // the golden digest as well.
  SCOPED_TRACE("covering-slice copies");
  diag::DiagnosisContext covering_ctx = d->scenario.MakeContext();
  const std::vector<monitor::FetchRequest> plan =
      monitor::CollectionPlanner::Plan(
          diag::SymptomIndex::CollectMetricKeys(covering_ctx),
          covering_ctx.AnalysisWindow(), covering_ctx.store);
  monitor::TimeSeriesStore covering;
  for (const monitor::FetchRequest& request : plan) {
    for (monitor::MetricId metric : request.metrics) {
      for (const monitor::Sample& sample : request.source->CoveringSlice(
               request.component, metric, request.interval)) {
        ASSERT_TRUE(covering
                        .Append(request.component, metric, sample.time,
                                sample.value)
                        .ok());
      }
    }
  }
  ASSERT_LT(covering.total_samples(), covering_ctx.store->total_samples());
  covering_ctx.store = &covering;
  Result<diag::DiagnosisReport> report =
      diag::Workflow(covering_ctx, diag::WorkflowConfig{}, &symptoms)
          .Diagnose();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(diag::ReportDigestHashHex(*report), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ConformanceCaseTest, ::testing::ValuesIn(AllConformanceCases()),
    [](const ::testing::TestParamInfo<std::pair<ScenarioId, BackendKind>>&
           info) {
      return CaseName(info.param.first, info.param.second);
    });

// --- Engine-vocabulary expectations ------------------------------------------

TEST(BackendVocabularyTest, MysqlPlansCarryMysqlVocabulary) {
  Result<const DiagnosedScenario*> d =
      GetDiagnosed(ScenarioId::kS1SanMisconfiguration, BackendKind::kMysql);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const db::Plan& plan = (*d)->scenario.apg->plan();
  bool has_engine_op = false;
  for (const db::PlanOp& op : plan.ops()) {
    EXPECT_NE(op.type, db::OpType::kHashJoin) << "MySQL has no hash join";
    EXPECT_NE(op.type, db::OpType::kHash);
    EXPECT_NE(op.type, db::OpType::kMergeJoin);
    if (!op.engine_op.empty()) has_engine_op = true;
  }
  EXPECT_TRUE(has_engine_op) << "engine vocabulary annotations missing";
  // The vocabulary maps into the shared taxonomy: spot-check the markers.
  std::set<std::string> vocab;
  for (const db::PlanOp& op : plan.ops()) vocab.insert(op.engine_op);
  EXPECT_TRUE(vocab.count("ref"));
  EXPECT_TRUE(vocab.count("eq_ref"));
  EXPECT_TRUE(vocab.count("filesort"));
  EXPECT_TRUE(vocab.count("ALL"));
}

TEST(BackendVocabularyTest, ColumnarPlansCarryColumnarVocabulary) {
  Result<const DiagnosedScenario*> d =
      GetDiagnosed(ScenarioId::kS1SanMisconfiguration, BackendKind::kColumnar);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const db::Plan& plan = (*d)->scenario.apg->plan();
  for (const db::PlanOp& op : plan.ops()) {
    EXPECT_NE(op.type, db::OpType::kNestLoopJoin)
        << "the column store joins by hashing only";
    EXPECT_NE(op.type, db::OpType::kMergeJoin);
  }
  std::set<std::string> vocab;
  for (const db::PlanOp& op : plan.ops()) vocab.insert(op.engine_op);
  EXPECT_TRUE(vocab.count("vector scan"));
  EXPECT_TRUE(vocab.count("zone-pruned scan"));
  EXPECT_TRUE(vocab.count("vectorized hash join"));
  EXPECT_TRUE(vocab.count("hash build"));
  EXPECT_TRUE(vocab.count("late materialize"));
}

TEST(BackendVocabularyTest, PostgresPlansKeepHashJoins) {
  Result<const DiagnosedScenario*> d =
      GetDiagnosed(ScenarioId::kS1SanMisconfiguration, BackendKind::kPostgres);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const db::Plan& plan = (*d)->scenario.apg->plan();
  bool has_hash_join = false;
  for (const db::PlanOp& op : plan.ops()) {
    if (op.type == db::OpType::kHashJoin) has_hash_join = true;
  }
  EXPECT_TRUE(has_hash_join);
  EXPECT_EQ(plan.size(), 25u);
}

// --- Cross-backend parity properties -----------------------------------------

// Semantically identical testbeds built through any backend expose the
// same SAN component universe (same names, same ids — the registry orders
// registration identically), so fleet-level tooling never needs to know
// the engine. Generalised over AllBackendKinds(): every backend is
// compared against the first, so adding a fourth engine extends the
// property automatically.
TEST(BackendParityTest, SanComponentUniverseIdentical) {
  const std::vector<BackendKind> kinds = db::AllBackendKinds();
  ASSERT_GE(kinds.size(), 3u);
  Result<const DiagnosedScenario*> base =
      GetDiagnosed(ScenarioId::kS1SanMisconfiguration, kinds[0]);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const ComponentRegistry& base_reg = (*base)->scenario.testbed->registry;
  for (size_t k = 1; k < kinds.size(); ++k) {
    SCOPED_TRACE(db::BackendKindName(kinds[k]));
    Result<const DiagnosedScenario*> other =
        GetDiagnosed(ScenarioId::kS1SanMisconfiguration, kinds[k]);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    const ComponentRegistry& other_reg =
        (*other)->scenario.testbed->registry;
    for (ComponentKind kind :
         {ComponentKind::kServer, ComponentKind::kFcSwitch,
          ComponentKind::kStorageSubsystem, ComponentKind::kStoragePool,
          ComponentKind::kVolume, ComponentKind::kDisk}) {
      const std::vector<ComponentId> base_ids = base_reg.AllOfKind(kind);
      const std::vector<ComponentId> other_ids = other_reg.AllOfKind(kind);
      ASSERT_EQ(base_ids.size(), other_ids.size())
          << ComponentKindName(kind) << " count differs";
      for (size_t i = 0; i < base_ids.size(); ++i) {
        EXPECT_EQ(base_ids[i].value, other_ids[i].value);
        EXPECT_EQ(base_reg.NameOf(base_ids[i]),
                  other_reg.NameOf(other_ids[i]));
      }
    }
    // The database component differs in name (postgres@ vs mysql@ vs
    // columnar@) but not in identity.
    EXPECT_EQ((*base)->scenario.testbed->database.value,
              (*other)->scenario.testbed->database.value);
  }
}

// Property (satellite): SeriesKeyHash-keyed metric lookups and
// SymptomIndex::CollectMetricKeys return identical key sets for
// semantically identical testbeds built through any backend.
TEST(BackendParityTest, CollectMetricKeysIdenticalAcrossBackends) {
  auto keys_of = [](const DiagnosedScenario& d) {
    diag::DiagnosisContext ctx = d.scenario.MakeContext();
    std::vector<monitor::SeriesKey> keys =
        diag::SymptomIndex::CollectMetricKeys(ctx);
    std::set<std::pair<uint32_t, int>> out;
    for (const monitor::SeriesKey& key : keys) {
      out.emplace(key.component.value, static_cast<int>(key.metric));
    }
    EXPECT_EQ(out.size(), keys.size()) << "duplicate keys";
    return out;
  };

  std::vector<const DiagnosedScenario*> diagnosed;
  for (BackendKind kind : db::AllBackendKinds()) {
    Result<const DiagnosedScenario*> d =
        GetDiagnosed(ScenarioId::kS1SanMisconfiguration, kind);
    ASSERT_TRUE(d.ok()) << db::BackendKindName(kind) << ": "
                        << d.status().ToString();
    diagnosed.push_back(*d);
  }
  const auto base_keys = keys_of(*diagnosed[0]);
  EXPECT_FALSE(base_keys.empty());
  for (size_t k = 1; k < diagnosed.size(); ++k) {
    SCOPED_TRACE(db::BackendKindName(db::AllBackendKinds()[k]));
    EXPECT_EQ(base_keys, keys_of(*diagnosed[k]));
  }

  // Key-set equality above implies SeriesKeyHash equality (the hash is a
  // stateless function of the key), so sharded stores and caches place
  // every backend's series the same way. What still needs checking is
  // residency: every planned key is actually a live series in EVERY
  // backend's store, i.e. the collectors produced the same inventory.
  for (const auto& [component, metric] : base_keys) {
    for (const DiagnosedScenario* d : diagnosed) {
      const auto metrics =
          d->scenario.testbed->store.MetricsFor(ComponentId{component});
      EXPECT_TRUE(std::find(metrics.begin(), metrics.end(),
                            static_cast<monitor::MetricId>(metric)) !=
                  metrics.end());
    }
  }
}

// --- Golden digest tables ----------------------------------------------------

/// Compares a computed per-configuration table with the golden file at
/// `path` (or, with DIADS_UPDATE_GOLDEN_DIGESTS=1, rewrites that file), and
/// dumps it for CI next to DIADS_DIGEST_OUT with `dump_suffix`.
void CheckGoldenTable(const testsupport::GoldenDigestTable& computed,
                      const std::string& path, const std::string& subject,
                      const std::string& dump_suffix) {
  testsupport::MaybeDumpComputedDigests(computed, dump_suffix, subject);
  if (testsupport::UpdateGoldenDigestsRequested()) {
    const Status written =
        testsupport::WriteGoldenDigests(computed, path, subject);
    ASSERT_TRUE(written.ok()) << written.ToString();
    GTEST_SKIP() << "golden " << subject << " hashes regenerated at " << path;
  }

  Result<testsupport::GoldenDigestTable> golden =
      testsupport::LoadGoldenDigests(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ASSERT_FALSE(golden->empty())
      << "no golden " << subject << " hashes checked in at " << path
      << "; bootstrap with DIADS_UPDATE_GOLDEN_DIGESTS=1";
  EXPECT_EQ(golden->size(), computed.size());
  for (const auto& [key, hash] : computed) {
    auto it = golden->find(key);
    ASSERT_TRUE(it != golden->end())
        << "no golden " << subject << " hash for " << key.first << "/"
        << key.second;
    EXPECT_EQ(it->second, hash)
        << key.first << " on " << key.second << " drifted from its golden "
        << subject << " hash. If the change is intentional, regenerate with "
        << "DIADS_UPDATE_GOLDEN_DIGESTS=1 and review the diff.";
  }
}

/// One table row per conformance configuration, taken from its memoised
/// diagnosis by `field`.
testsupport::GoldenDigestTable ComputeTable(
    std::string DiagnosedScenario::*field) {
  testsupport::GoldenDigestTable computed;
  for (const auto& [id, backend] : AllConformanceCases()) {
    Result<const DiagnosedScenario*> d = GetDiagnosed(id, backend);
    EXPECT_TRUE(d.ok()) << CaseName(id, backend) << ": "
                        << d.status().ToString();
    if (!d.ok()) continue;
    computed[{workload::ScenarioName(id), db::BackendKindName(backend)}] =
        (*d)->*field;
  }
  return computed;
}

TEST(GoldenDigestTest, ReportDigestsMatchGoldenTable) {
  const testsupport::GoldenDigestTable computed =
      ComputeTable(&DiagnosedScenario::digest_hash);
  ASSERT_FALSE(HasFailure());
  CheckGoldenTable(computed, testsupport::GoldenDigestPath(), "ReportDigest",
                   "");
}

// Every sample every collector stored, per configuration: a change to a
// port, disk or server series that no ReportDigest reads still fails here.
TEST(GoldenDigestTest, StoreDigestsMatchGoldenTable) {
  const testsupport::GoldenDigestTable computed =
      ComputeTable(&DiagnosedScenario::store_digest_hash);
  ASSERT_FALSE(HasFailure());
  CheckGoldenTable(computed, testsupport::GoldenStoreDigestPath(),
                   "StoreDigest", "_store");
}

// Every plan of Q2 and the supplier roll-up, per catalog state and backend:
// once with the live parameters, then once per parameter at each sweep
// multiple of its value. The scenarios reach only a handful of plans; this
// table pins 17,550 of them, estimates included, so a planner change that
// moves any plan of any engine fails here. The table's first column holds
// the catalog state.
TEST(GoldenDigestTest, PlanDigestsMatchGoldenTable) {
  testsupport::GoldenDigestTable computed;
  const db::QuerySpec specs[] = {db::MakeTpchQ2Spec(),
                                 db::MakeSupplierRollupSpec()};
  for (const testsupport::PlanSweepState& state :
       testsupport::PlanSweepStates()) {
    for (BackendKind kind : db::AllBackendKinds()) {
      Result<std::unique_ptr<testsupport::PlanSweepCatalog>> sweep =
          testsupport::MakePlanSweepCatalog(state, kind);
      ASSERT_TRUE(sweep.ok()) << state.name << ": "
                              << sweep.status().ToString();
      const db::DbBackend& backend = *(*sweep)->backend;
      uint64_t h = kFnv1a64OffsetBasis;
      for (const db::QuerySpec& spec : specs) {
        Result<db::Plan> plan = backend.OptimizeQuery(spec);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        h = testsupport::FoldPlan(h, *plan);
        for (const std::string& param : backend.ParamNames()) {
          const double value = *backend.GetParam(param);
          for (double factor : testsupport::PlanSweepParamFactors()) {
            plan = backend.OptimizeQueryWithParam(spec, param, value * factor);
            ASSERT_TRUE(plan.ok()) << plan.status().ToString();
            h = testsupport::FoldPlan(h, *plan);
          }
        }
      }
      computed[{state.name, backend.name()}] =
          StrFormat("%016llx", static_cast<unsigned long long>(h));
    }
  }
  CheckGoldenTable(computed, testsupport::GoldenPlanDigestPath(), "Plan",
                   "_plan");
}

}  // namespace
}  // namespace diads
