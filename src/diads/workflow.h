// The DIADS diagnosis workflow (Figure 2) — batch and interactive modes.
//
// Batch mode (Section 6's default) runs PD -> CO -> DA -> CR -> SD -> IA and
// returns only the final report. Interactive mode (Figure 7) exposes the
// same modules one step at a time: results render after each module, the
// administrator can re-execute or bypass modules, edit the correlated
// operator set before it feeds Module DA, and stop early once the answer is
// clear — exactly the affordances the paper's workflow-execution screen
// describes ("Only the first execution of the modules should be in order,
// after that each module can be re-executed as many times as needed").
#ifndef DIADS_DIADS_WORKFLOW_H_
#define DIADS_DIADS_WORKFLOW_H_

#include <optional>
#include <string>
#include <vector>

#include "diads/correlated_operators.h"
#include "diads/correlated_records.h"
#include "diads/dependency_analysis.h"
#include "diads/diagnosis.h"
#include "diads/impact_analysis.h"
#include "diads/plan_diff.h"
#include "diads/symptoms_db.h"
#include "monitor/gather.h"

namespace diads::diag {

/// Wall-clock milliseconds spent in each module during one Diagnose() call.
/// Filled by Workflow::Diagnose when a non-null pointer is passed; the
/// serving layer feeds these into its per-module latency percentiles.
struct ModuleTimings {
  double pd_ms = 0, co_ms = 0, da_ms = 0, cr_ms = 0, sd_ms = 0, ia_ms = 0;
};

/// What one diagnosis's metric collection did (DiagnoseWithCollection).
/// Owns the collected snapshot the diagnosis ran over, so it must outlive
/// nothing — the report copies everything it keeps.
struct CollectionOutcome {
  monitor::GatherResult gather;
  size_t planned_components = 0;  ///< Fetch requests in the plan.
  size_t planned_series = 0;      ///< (component, metric) keys after dedup.

  bool degraded() const { return gather.degraded(); }
};

/// Batch workflow entry point.
///
/// Thread-safety: Diagnose() is const and touches only the read-only state
/// behind the DiagnosisContext, so one Workflow (or many Workflows sharing
/// a context and SymptomsDb) may diagnose concurrently from any number of
/// threads — with one exception: `ctx.plan_whatif_probe` is deployment
/// code that may temporarily mutate the deployment's catalog, racing any
/// concurrent diagnosis that reads the same catalog. Callers running
/// concurrent diagnoses over one deployment must either supply a
/// thread-safe probe or serialize probe-carrying diagnoses against the
/// rest (the DiagnosisEngine holds a per-catalog reader/writer lock for
/// this reason).
class Workflow {
 public:
  /// `symptoms_db` may be null: DIADS still narrows the search space via
  /// CO/DA/CR (Section 5 notes it "produces good results even when the
  /// symptoms database is incomplete"); causes then come from a fallback
  /// that reports the correlated components directly.
  Workflow(DiagnosisContext ctx, WorkflowConfig config,
           const SymptomsDb* symptoms_db);

  /// Runs the full drill-down and roll-up. When `timings` is non-null it
  /// receives the per-module wall-clock breakdown.
  Result<DiagnosisReport> Diagnose(
      ImpactMethod impact_method = ImpactMethod::kInverseDependency,
      ModuleTimings* timings = nullptr) const;

  /// The collection half of DiagnoseWithCollection: extracts the
  /// diagnosis window's metric needs (SymptomIndex::CollectMetricKeys),
  /// batches them into one fetch plan, and issues a single overlapped
  /// scatter/gather through `gatherer`. Touches only the context's store
  /// (never the catalog), so callers that serialize diagnoses behind a
  /// catalog lock can collect before taking it.
  CollectionOutcome Collect(const monitor::MetricGatherer& gatherer) const;

  /// The diagnosis half: the module chain over a Collect() snapshot.
  Result<DiagnosisReport> DiagnoseOverCollection(
      const CollectionOutcome& outcome,
      ImpactMethod impact_method = ImpactMethod::kInverseDependency,
      ModuleTimings* timings = nullptr) const;

  /// Collection-aware Diagnose: Collect() then DiagnoseOverCollection().
  /// Components that time out are served from locally cached series and
  /// reported via `outcome` (may be null) — the diagnosis itself never
  /// fails for collection reasons, and its report is
  /// ReportDigest-identical to a plain Diagnose over the source store.
  Result<DiagnosisReport> DiagnoseWithCollection(
      const monitor::MetricGatherer& gatherer,
      ImpactMethod impact_method = ImpactMethod::kInverseDependency,
      ModuleTimings* timings = nullptr,
      CollectionOutcome* outcome = nullptr) const;

  const DiagnosisContext& context() const { return ctx_; }
  const WorkflowConfig& config() const { return config_; }

 private:
  DiagnosisContext ctx_;
  WorkflowConfig config_;
  const SymptomsDb* symptoms_db_;
};

/// Builds causes straight from CO/DA/CR results when no symptoms database
/// is available: every CCS volume becomes an unexplained-contention
/// candidate, record-count changes a data-property candidate. Confidence is
/// capped at medium (the point of the symptoms DB is semantic certainty).
std::vector<RootCause> FallbackCauses(const DiagnosisContext& ctx,
                                      const WorkflowConfig& config,
                                      const DaResult& da, const CrResult& cr);

/// One-paragraph human summary of a report.
std::string SummarizeReport(const DiagnosisContext& ctx,
                            const DiagnosisReport& report);

/// Interactive workflow session (Figure 7).
class InteractiveSession {
 public:
  enum class Module { kPd, kCo, kDa, kCr, kSd, kIa };

  InteractiveSession(DiagnosisContext ctx, WorkflowConfig config,
                     const SymptomsDb* symptoms_db);

  /// True when the module's prerequisites have run at least once.
  bool CanRun(Module module) const;

  /// Executes (or re-executes) a module; returns its rendered result panel.
  Result<std::string> Run(Module module);

  /// The next module in first-pass order, or nullopt when all have run.
  std::optional<Module> NextModule() const;

  /// Administrator edit: remove an operator (by O-number) from the COS
  /// before running later modules. Interactive mode's result-editing knob.
  Status RemoveFromCos(int op_number);

  /// Administrator edit: force an operator into the COS.
  Status AddToCos(int op_number);

  /// Report assembled from whatever has run so far.
  const DiagnosisReport& report() const { return report_; }

  static const char* ModuleName(Module module);

 private:
  DiagnosisContext ctx_;
  WorkflowConfig config_;
  const SymptomsDb* symptoms_db_;
  DiagnosisReport report_;
  bool ran_pd_ = false, ran_co_ = false, ran_da_ = false, ran_cr_ = false,
       ran_sd_ = false, ran_ia_ = false;
};

}  // namespace diads::diag

#endif  // DIADS_DIADS_WORKFLOW_H_
