#include "matrix.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <tuple>

#include "diads/report.h"

namespace perfbench {

using diads::Result;
using diads::Status;
using diads::workload::ScenarioId;

namespace {

/// The backend-neutral scenarios in conformance order.
const std::vector<ScenarioId>& NeutralScenarios() {
  static const std::vector<ScenarioId> ids = {
      ScenarioId::kS1SanMisconfiguration, ScenarioId::kS1bBurstyV2,
      ScenarioId::kS2DualExternalContention,
      ScenarioId::kS3DataPropertyChange,  ScenarioId::kS4ConcurrentDbSan,
      ScenarioId::kS5LockingWithNoise,    ScenarioId::kS6IndexDrop,
      ScenarioId::kS7ParamChange,         ScenarioId::kS8AnalyzeAfterDrift,
      ScenarioId::kS9CpuSaturation,       ScenarioId::kS10RaidRebuild,
      ScenarioId::kS11DiskFailure,        ScenarioId::kF1HbaFailover,
      ScenarioId::kF2MultipathImbalance,  ScenarioId::kF3IslRebuildCrosstalk,
      ScenarioId::kF4RetrySnowball,
  };
  return ids;
}

}  // namespace

std::vector<StreamSample> ExtractStream(
    const diads::monitor::TimeSeriesStore& store) {
  std::vector<StreamSample> stream;
  stream.reserve(store.total_samples());
  store.ForEachSeries([&](diads::ComponentId component,
                          diads::monitor::MetricId metric,
                          const std::vector<diads::monitor::Sample>& samples) {
    for (const diads::monitor::Sample& sample : samples) {
      stream.push_back(StreamSample{sample.time, component, metric,
                                    sample.value});
    }
  });
  std::sort(stream.begin(), stream.end(),
            [](const StreamSample& a, const StreamSample& b) {
              return std::make_tuple(a.time, a.component.value,
                                     static_cast<int>(a.metric)) <
                     std::make_tuple(b.time, b.component.value,
                                     static_cast<int>(b.metric));
            });
  return stream;
}

diads::engine::DiagnosisRequest MatrixConfig::Request(
    const std::string& tag) const {
  diads::engine::DiagnosisRequest request;
  request.ctx = tenant.output->MakeContext();
  request.tag = tag;
  return request;
}

Result<Matrix> BuildMatrix(uint64_t seed, bool with_streams,
                           const diads::obs::TraceContext& trace) {
  std::vector<std::pair<ScenarioId, diads::db::BackendKind>> cases;
  for (diads::db::BackendKind backend : diads::db::AllBackendKinds()) {
    for (ScenarioId id : NeutralScenarios()) cases.emplace_back(id, backend);
  }
  cases.emplace_back(ScenarioId::kC1CompressionDrift,
                     diads::db::BackendKind::kColumnar);
  cases.emplace_back(ScenarioId::kC2ZoneMapStale,
                     diads::db::BackendKind::kColumnar);

  Matrix matrix;
  matrix.configs.reserve(cases.size());
  for (const auto& [id, backend] : cases) {
    diads::workload::ScenarioOptions options;
    options.seed = seed;
    options.testbed.backend = backend;
    MatrixConfig config{id, backend, diads::db::BackendKindName(backend), {},
                        {}};
    config.tenant.name = std::string(diads::workload::ScenarioName(id)) +
                         "/" + config.backend_name;
    config.tenant.scenario = id;
    {
      diads::obs::SpanHandle span =
          trace.StartSpan("workload.run_scenario", "setup");
      span.Note("config", config.tenant.name);
      Result<diads::workload::ScenarioOutput> output =
          diads::workload::RunScenario(id, options);
      if (!output.ok()) {
        return Status::Internal(config.tenant.name + ": " +
                                output.status().ToString());
      }
      config.tenant.output = std::make_unique<diads::workload::ScenarioOutput>(
          std::move(output).value());
    }
    const diads::workload::Testbed& testbed = *config.tenant.output->testbed;
    matrix.q2_runs += testbed.runs.size();
    matrix.samples_appended += testbed.store.total_samples();
    if (with_streams) config.stream = ExtractStream(testbed.store);
    matrix.configs.push_back(std::move(config));
  }
  return matrix;
}

Result<std::vector<Reference>> SerialReferences(
    const Matrix& matrix, const diads::diag::SymptomsDb& symptoms) {
  std::vector<Reference> references;
  references.reserve(matrix.configs.size());
  for (const MatrixConfig& config : matrix.configs) {
    Result<diads::diag::DiagnosisReport> report =
        diads::workload::SerialDiagnosis(config.tenant,
                                         diads::diag::WorkflowConfig{},
                                         &symptoms);
    if (!report.ok()) {
      return Status::Internal(config.tenant.name + ": " +
                              report.status().ToString());
    }
    references.push_back(Reference{diads::diag::ReportDigest(*report),
                                   diads::diag::ReportDigestHashHex(*report),
                                   Top1Correct(config, *report)});
  }
  return references;
}

bool Top1Correct(const MatrixConfig& config,
                 const diads::diag::DiagnosisReport& report) {
  const diads::diag::RootCause* top = report.TopCause();
  if (top == nullptr) return false;
  const diads::workload::ScenarioOutput& output = *config.tenant.output;
  for (const diads::workload::GroundTruthCause& truth : output.ground_truth) {
    if (diads::workload::MatchesGroundTruth(truth, *top,
                                            output.testbed->registry)) {
      return true;
    }
  }
  return false;
}

Result<GoldenTable> LoadGolden(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read golden digests: " + path);
  GoldenTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string scenario, backend, hash;
    if (!(fields >> scenario >> backend >> hash)) {
      return Status::InvalidArgument("malformed golden line: " + line);
    }
    table[{scenario, backend}] = hash;
  }
  return table;
}

}  // namespace perfbench
