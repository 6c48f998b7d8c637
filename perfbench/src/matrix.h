// The 50-configuration conformance matrix the workloads run over, and
// the correctness oracle every answer is checked against.
//
// A configuration is one of the 16 backend-neutral scenarios on the
// postgres, mysql or columnar backend, or C1/C2 on columnar. Each is one
// tenant in the shape of workload/fleet.h (a FleetTenant owning its
// finished scenario), run at the benchmark seed.
#ifndef DIADS_PERFBENCH_MATRIX_H_
#define DIADS_PERFBENCH_MATRIX_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "diads/symptoms_db.h"
#include "engine/engine.h"
#include "obs/trace.h"
#include "workload/fleet.h"

namespace perfbench {

/// One sample of a configuration's monitoring stream, in replay order.
struct StreamSample {
  diads::SimTimeMs time = 0;
  diads::ComponentId component;
  diads::monitor::MetricId metric = diads::monitor::MetricId::kVolTotalIos;
  double value = 0;
};

struct MatrixConfig {
  diads::workload::ScenarioId id;
  diads::db::BackendKind backend;
  std::string backend_name;            ///< "postgres", "mysql", "columnar".
  diads::workload::FleetTenant tenant; ///< name = "<scenario>/<backend>".
  /// The monitoring stream sorted by (time, component, metric); filled
  /// only when the matrix is built with streams.
  std::vector<StreamSample> stream;

  /// The canonical question over this configuration, tagged `tag`.
  diads::engine::DiagnosisRequest Request(const std::string& tag) const;
};

struct Matrix {
  std::vector<MatrixConfig> configs;
  uint64_t q2_runs = 0;           ///< Q2 executions across all scenarios.
  uint64_t samples_appended = 0;  ///< Monitoring samples stored.
};

/// A store's samples as one stream sorted by (time, component, metric):
/// the order a live deployment's collectors would have appended them.
std::vector<StreamSample> ExtractStream(
    const diads::monitor::TimeSeriesStore& store);

/// Runs every configuration at `seed` (one RunScenario each, in a
/// "workload.run_scenario" span under `trace`). With `with_streams`, also
/// extracts and sorts each configuration's monitoring stream.
diads::Result<Matrix> BuildMatrix(uint64_t seed, bool with_streams,
                                  const diads::obs::TraceContext& trace);

/// What a correct answer for one configuration is.
struct Reference {
  std::string digest;    ///< ReportDigest of the serial diagnosis.
  std::string hash_hex;  ///< ReportDigestHashHex of the same.
  bool top1_correct = false;
};

/// A serial Workflow::Diagnose per configuration (workload::
/// SerialDiagnosis with the default config and symptoms database).
diads::Result<std::vector<Reference>> SerialReferences(
    const Matrix& matrix, const diads::diag::SymptomsDb& symptoms);

/// True when the report's top cause matches an injected ground truth.
bool Top1Correct(const MatrixConfig& config,
                 const diads::diag::DiagnosisReport& report);

/// (scenario name, backend name) -> digest hash, from a golden file in
/// the tests/golden_report_digests.txt format.
using GoldenTable = std::map<std::pair<std::string, std::string>, std::string>;
diads::Result<GoldenTable> LoadGolden(const std::string& path);

}  // namespace perfbench

#endif  // DIADS_PERFBENCH_MATRIX_H_
