#include "support/conformance_util.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "common/strings.h"
#include "db/tpch.h"

namespace diads::testsupport {

using workload::ScenarioId;

const std::vector<ScenarioId>& AllScenarioIds() {
  static const std::vector<ScenarioId> ids = [] {
    std::vector<ScenarioId> out;
    for (int i = 0; i < static_cast<int>(ScenarioId::kCount); ++i) {
      const ScenarioId id = static_cast<ScenarioId>(i);
      if (!workload::GetScenarioSpec(id).only_backend.has_value()) {
        out.push_back(id);
      }
    }
    return out;
  }();
  return ids;
}

std::vector<std::pair<ScenarioId, db::BackendKind>> AllConformanceCases() {
  std::vector<std::pair<ScenarioId, db::BackendKind>> cases;
  for (db::BackendKind backend : db::AllBackendKinds()) {
    for (int i = 0; i < static_cast<int>(ScenarioId::kCount); ++i) {
      const ScenarioId id = static_cast<ScenarioId>(i);
      if (workload::GetScenarioSpec(id).RunsOn(backend)) {
        cases.emplace_back(id, backend);
      }
    }
  }
  return cases;
}

std::string CaseName(ScenarioId id, db::BackendKind backend) {
  std::string name = workload::ScenarioName(id);
  name += "_";
  name += db::BackendKindName(backend);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

Result<DiagnosedScenario> DiagnoseScenario(ScenarioId id,
                                           db::BackendKind backend) {
  workload::ScenarioOptions options;
  options.testbed.backend = backend;
  DIADS_ASSIGN_OR_RETURN(workload::ScenarioOutput scenario,
                         workload::RunScenario(id, options));
  const std::string store_digest_hash = StoreDigestHashHex(
      scenario.testbed->store, scenario.testbed->registry);
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  diag::Workflow workflow(scenario.MakeContext(), diag::WorkflowConfig{},
                          &symptoms);
  DIADS_ASSIGN_OR_RETURN(diag::DiagnosisReport report, workflow.Diagnose());
  DiagnosedScenario out;
  out.scenario = std::move(scenario);
  out.digest = diag::ReportDigest(report);
  out.digest_hash = diag::ReportDigestHashHex(report);
  out.store_digest_hash = store_digest_hash;
  out.report = std::move(report);
  return out;
}

Result<const DiagnosedScenario*> GetDiagnosed(ScenarioId id,
                                              db::BackendKind backend) {
  // Memoised per binary; intentionally leaked so testbeds stay valid for
  // every test that borrows from them.
  static auto* cache =
      new std::map<std::pair<int, int>, std::unique_ptr<DiagnosedScenario>>();
  const std::pair<int, int> key{static_cast<int>(id),
                                static_cast<int>(backend)};
  auto it = cache->find(key);
  if (it == cache->end()) {
    Result<DiagnosedScenario> diagnosed = DiagnoseScenario(id, backend);
    DIADS_RETURN_IF_ERROR(diagnosed.status());
    it = cache->emplace(key, std::make_unique<DiagnosedScenario>(
                                 std::move(*diagnosed)))
             .first;
  }
  return const_cast<const DiagnosedScenario*>(it->second.get());
}

::testing::AssertionResult DiagnosesGroundTruth(
    const workload::ScenarioOutput& scenario,
    const diag::DiagnosisReport& report) {
  const ComponentRegistry& registry = scenario.testbed->registry;
  for (const workload::GroundTruthCause& truth : scenario.ground_truth) {
    if (!truth.primary) continue;
    bool found = false;
    for (const diag::RootCause& cause : report.causes) {
      if (cause.band == diag::ConfidenceBand::kHigh &&
          workload::MatchesGroundTruth(truth, cause, registry)) {
        found = true;
      }
    }
    if (!found) {
      return ::testing::AssertionFailure()
             << "missing high-confidence cause: "
             << diag::RootCauseTypeName(truth.type) << " on "
             << truth.subject_name << "\nreport:\n"
             << diag::RenderIaResult(scenario.MakeContext(), report.causes);
    }
  }
  if (report.causes.empty()) {
    return ::testing::AssertionFailure() << "report has no causes";
  }
  for (const workload::GroundTruthCause& truth : scenario.ground_truth) {
    if (workload::MatchesGroundTruth(truth, report.causes.front(),
                                     registry)) {
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure()
         << "top cause is not a ground-truth cause: "
         << diag::RootCauseTypeName(report.causes.front().type);
}

::testing::AssertionResult DiagnosesGroundTruth(const DiagnosedScenario& d) {
  return DiagnosesGroundTruth(d.scenario, d.report);
}

std::string GoldenDigestPath() {
  return std::string(DIADS_SOURCE_DIR) + "/tests/golden_report_digests.txt";
}

std::string GoldenStoreDigestPath() {
  return std::string(DIADS_SOURCE_DIR) + "/tests/golden_store_digests.txt";
}

std::string StoreDigestHashHex(const monitor::TimeSeriesStore& store,
                               const ComponentRegistry& registry) {
  struct Series {
    std::string component;
    std::string metric;
    const std::vector<monitor::Sample>* samples;
  };
  std::vector<Series> series;
  store.ForEachSeries([&](ComponentId component, monitor::MetricId metric,
                          const std::vector<monitor::Sample>& samples) {
    series.push_back(Series{registry.NameOf(component),
                            monitor::MetricShortName(metric), &samples});
  });
  std::sort(series.begin(), series.end(),
            [](const Series& a, const Series& b) {
              return std::tie(a.component, a.metric) <
                     std::tie(b.component, b.metric);
            });
  uint64_t h = kFnv1a64OffsetBasis;
  for (const Series& s : series) {
    h = Fnv1a64Fold(h, s.component);
    h = Fnv1a64Fold(h, s.metric);
    h = Fnv1a64FoldWord(h, s.samples->size());
    for (const monitor::Sample& sample : *s.samples) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(sample.value));
      std::memcpy(&bits, &sample.value, sizeof(bits));
      h = Fnv1a64FoldWord(h, static_cast<uint64_t>(sample.time));
      h = Fnv1a64FoldWord(h, bits);
    }
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

Result<GoldenDigestTable> LoadGoldenDigests(const std::string& path) {
  GoldenDigestTable table;
  std::ifstream in(path);
  if (!in.is_open()) return table;  // Bootstrap: no goldens yet.
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string scenario, backend, hash;
    if (!(fields >> scenario >> backend >> hash)) {
      return Status::InvalidArgument(
          StrFormat("malformed golden digest line %d: '%s'", line_no,
                    line.c_str()));
    }
    table[{scenario, backend}] = hash;
  }
  return table;
}

std::string FormatGoldenDigests(const GoldenDigestTable& table,
                                const std::string& subject) {
  std::string out =
      "# Golden per-(scenario, backend) " + subject + " hashes.\n"
      "# One line per conformance configuration: <scenario> <backend> "
      "<fnv1a64 of " + subject + ">.\n"
      "# Regenerate with: DIADS_UPDATE_GOLDEN_DIGESTS=1 "
      "./build/backend_conformance_test\n";
  for (const auto& [key, hash] : table) {
    out += key.first + " " + key.second + " " + hash + "\n";
  }
  return out;
}

Status WriteGoldenDigests(const GoldenDigestTable& table,
                          const std::string& path,
                          const std::string& subject) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open golden digest file: " + path);
  }
  out << FormatGoldenDigests(table, subject);
  return out.good() ? Status::Ok()
                    : Status::Internal("write failed: " + path);
}

bool UpdateGoldenDigestsRequested() {
  const char* env = std::getenv("DIADS_UPDATE_GOLDEN_DIGESTS");
  return env != nullptr && std::string(env) == "1";
}

void MaybeDumpComputedDigests(const GoldenDigestTable& computed,
                              const std::string& suffix,
                              const std::string& subject) {
  const char* env = std::getenv("DIADS_DIGEST_OUT");
  if (env == nullptr || *env == '\0') return;
  std::string path = env;
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  const bool has_extension =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  path.insert(has_extension ? dot : path.size(), suffix);
  (void)WriteGoldenDigests(computed, path, subject);
}

std::string GoldenPlanDigestPath() {
  return std::string(DIADS_SOURCE_DIR) + "/tests/golden_plan_digests.txt";
}

std::vector<PlanSweepState> PlanSweepStates() {
  std::vector<PlanSweepState> states = {{"base", "", "", 1.0}};
  for (const char* index :
       {"region_pkey", "nation_pkey", "nation_regionkey_idx", "supplier_pkey",
        "supplier_nationkey_idx", "part_pkey", "part_size_idx",
        "partsupp_partkey_idx", "partsupp_suppkey_idx"}) {
    states.push_back({std::string("drop-") + index, index, "", 1.0});
  }
  for (const char* table :
       {"region", "nation", "supplier", "part", "partsupp"}) {
    for (double scale : {0.05, 0.5, 2.0, 8.0, 48.0, 90.0, 1000.0}) {
      states.push_back(
          {StrFormat("%s-x%g", table, scale), "", table, scale});
    }
  }
  return states;
}

const std::vector<double>& PlanSweepParamFactors() {
  static const std::vector<double> factors = {0.01, 0.1, 0.5, 1.0,
                                              2.0,  10.0, 40.0, 1000.0};
  return factors;
}

Result<std::unique_ptr<PlanSweepCatalog>> MakePlanSweepCatalog(
    const PlanSweepState& state, db::BackendKind kind) {
  auto out = std::make_unique<PlanSweepCatalog>();
  db::TpchOptions tpch;
  tpch.volume_v1 = out->registry.MustRegister(ComponentKind::kVolume, "V1");
  tpch.volume_v2 = out->registry.MustRegister(ComponentKind::kVolume, "V2");
  DIADS_RETURN_IF_ERROR(db::BuildTpchCatalog(tpch, &out->catalog));
  db::BackendInit init;
  init.catalog = &out->catalog;
  out->backend = db::MakeDbBackend(kind, init);
  if (!state.drop_index.empty()) {
    DIADS_RETURN_IF_ERROR(out->catalog.DropIndex(1, state.drop_index));
  }
  if (!state.scale_table.empty()) {
    DIADS_RETURN_IF_ERROR(out->backend->ApplyDmlSilently(
        1, state.scale_table, state.scale, ""));
    DIADS_RETURN_IF_ERROR(out->backend->Analyze(2, state.scale_table));
  }
  return out;
}

uint64_t FoldPlan(uint64_t h, const db::Plan& plan) {
  auto fold_string = [&h](const std::string& s) {
    h = Fnv1a64FoldWord(h, s.size());
    h = Fnv1a64Fold(h, s);
  };
  auto fold_double = [&h](double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    h = Fnv1a64FoldWord(h, bits);
  };
  fold_string(plan.query_name());
  h = Fnv1a64FoldWord(h, static_cast<uint64_t>(plan.root_index()));
  h = Fnv1a64FoldWord(h, plan.size());
  for (const db::PlanOp& op : plan.ops()) {
    h = Fnv1a64FoldWord(h, static_cast<uint64_t>(op.op_number));
    h = Fnv1a64FoldWord(h, static_cast<uint64_t>(op.type));
    h = Fnv1a64FoldWord(h, op.children.size());
    for (int child : op.children) {
      h = Fnv1a64FoldWord(h, static_cast<uint64_t>(child));
    }
    fold_string(op.table_alias);
    fold_string(op.table);
    fold_string(op.index_name);
    fold_string(op.engine_op);
    fold_string(op.detail);
    fold_double(op.est_rows);
    fold_double(op.est_cost);
    fold_double(op.est_pages);
  }
  return h;
}

}  // namespace diads::testsupport
