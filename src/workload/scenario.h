// The evaluation scenarios: Table 1 of the paper (S1-S5, plus S1b, Section
// 5's bursty-V2 twist), plan changes for Module PD (S6-S8), Section 6's
// injector list (S9-S11: "server, disk, or volume contention, RAID
// rebuilds"), fabric failover on the dual-fabric multipath testbed
// (F1-F4), and column-store-native faults that only the columnar backend
// runs (C1-C2). Each is one ScenarioSpec row in scenario.cc.
//
// Each scenario builds a fresh testbed, executes a history of periodic Q2
// runs (the report-generation workload), injects its fault(s) at the
// transition point, executes the post-fault runs, collects the monitors
// over the whole span, and labels runs by time window — the paper's "all
// runs from 8 AM to 2 PM were satisfactory" style of declarative
// labelling.
#ifndef DIADS_WORKLOAD_SCENARIO_H_
#define DIADS_WORKLOAD_SCENARIO_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apg/apg.h"
#include "diads/diagnosis.h"
#include "workload/fault_injector.h"
#include "workload/testbed.h"

namespace diads::workload {

enum class ScenarioId {
  kS1SanMisconfiguration,
  kS1bBurstyV2,
  kS2DualExternalContention,
  kS3DataPropertyChange,
  kS4ConcurrentDbSan,
  kS5LockingWithNoise,
  kS6IndexDrop,
  kS7ParamChange,
  kS8AnalyzeAfterDrift,
  kS9CpuSaturation,
  kS10RaidRebuild,
  kS11DiskFailure,
  // Failover family: runs on the dual-fabric multipath testbed
  // (BuildMultipathTestbed) instead of Figure-1.
  kF1HbaFailover,
  kF2MultipathImbalance,
  kF3IslRebuildCrosstalk,
  kF4RetrySnowball,
  // Column-store family: requires TestbedOptions::backend == kColumnar.
  kC1CompressionDrift,
  kC2ZoneMapStale,
  // Not a scenario: the number of them. Keep last.
  kCount,
};

/// "S1-san-misconfiguration" etc.; "?" outside the enum.
const char* ScenarioName(ScenarioId id);

struct ScenarioOptions {
  uint64_t seed = 42;
  int satisfactory_runs = 20;
  int unsatisfactory_runs = 10;
  SimTimeMs period = Minutes(30);     ///< Gap between run starts.
  SimTimeMs start = Hours(8);         ///< Day-0 08:00.
  TestbedOptions testbed;
};

/// What the injector actually did — the answer key for evaluation.
struct GroundTruthCause {
  diag::RootCauseType type;
  std::string subject_name;  ///< Registry name ("V1", "table:partsupp", ...).
  bool primary = true;       ///< False for injected-but-negligible faults.
};

/// Which plan the runs execute.
enum class PlanSource {
  kPaperPlan,  ///< The Figure-1 paper plan, before and after the fault.
  kOptimizer,  ///< The optimizer's choice, re-optimized after the fault.
  /// As kOptimizer, after silent data drift before the run history (S8:
  /// the satisfactory era runs a stale-statistics plan).
  kOptimizerAfterSilentDrift,
};

/// What a scenario's injector acts on at the transition point.
struct FaultPoint {
  Testbed* tb = nullptr;
  FaultInjector* injector = nullptr;
  SimTimeMs t0 = 0;           ///< Start of the run history.
  SimTimeMs t_fault = 0;      ///< Fault onset.
  TimeInterval fault_window;  ///< From t_fault to the end of the load.
  /// The row's ground truth, already copied to the output; an injector
  /// fills in what depends on the testbed (S9's database name).
  std::vector<GroundTruthCause>* ground_truth = nullptr;
};

/// One row of the scenario catalogue.
struct ScenarioSpec {
  ScenarioId id;
  const char* name;
  const char* description;
  /// BuildFigure1Testbed, or BuildMultipathTestbed for the F family.
  Result<std::unique_ptr<Testbed>> (*build_testbed)(const TestbedOptions&);
  PlanSource plan;
  /// The one backend the scenario runs on; every backend when unset.
  std::optional<db::BackendKind> only_backend;
  std::vector<GroundTruthCause> ground_truth;
  /// Injects the fault(s) at the transition point.
  Status (*inject)(const FaultPoint& at);

  bool RunsOn(db::BackendKind backend) const {
    return !only_backend.has_value() || *only_backend == backend;
  }
};

/// The row for `id`; a row named "?" that RunScenario rejects for a value
/// outside the enum.
const ScenarioSpec& GetScenarioSpec(ScenarioId id);

/// A finished scenario: the testbed (owning all state), the APG of the
/// diagnosed plan, labelled windows, and the ground truth.
struct ScenarioOutput {
  std::unique_ptr<Testbed> testbed;
  std::unique_ptr<apg::Apg> apg;
  TimeInterval satisfactory_window;
  TimeInterval unsatisfactory_window;
  std::vector<GroundTruthCause> ground_truth;
  ScenarioId id = ScenarioId::kS1SanMisconfiguration;

  /// Assembles the DiagnosisContext over this scenario's state. The output
  /// borrows from `testbed` and `apg`; keep the ScenarioOutput alive.
  diag::DiagnosisContext MakeContext() const;
};

/// Runs a scenario end to end.
Result<ScenarioOutput> RunScenario(ScenarioId id,
                                   const ScenarioOptions& options = {});

/// True if `cause` matches a ground-truth entry (type and, when the truth
/// names a subject, subject).
bool MatchesGroundTruth(const GroundTruthCause& truth,
                        const diag::RootCause& cause,
                        const ComponentRegistry& registry);

}  // namespace diads::workload

#endif  // DIADS_WORKLOAD_SCENARIO_H_
