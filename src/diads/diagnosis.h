// Shared types of the DIADS diagnosis workflow (Figure 2).
//
// The workflow drills down Query -> Plans -> Operators -> Components ->
// Events -> Symptoms and rolls back up through Impact. Each module consumes
// the DiagnosisContext (the run history, monitoring data, events, and the
// APG) plus the results of earlier modules, and contributes one section of
// the DiagnosisReport.
#ifndef DIADS_DIADS_DIAGNOSIS_H_
#define DIADS_DIADS_DIAGNOSIS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apg/apg.h"
#include "common/event_log.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "db/catalog.h"
#include "db/run_record.h"
#include "monitor/metrics.h"
#include "monitor/timeseries.h"
#include "obs/cost_profile.h"
#include "obs/trace.h"
#include "san/topology.h"
#include "stats/anomaly.h"

namespace diads::diag {

class BaselineModelCache;  // diads/model_cache.h

/// Workflow thresholds. Defaults follow Section 5 (anomaly threshold 0.8)
/// and Section 4.1 (confidence bands high >= 80%, medium >= 50%).
struct WorkflowConfig {
  stats::AnomalyConfig operator_anomaly;   ///< Module CO scoring.
  stats::AnomalyConfig metric_anomaly;     ///< Module DA scoring.
  stats::AnomalyConfig record_deviation;   ///< Module CR scoring (two-sided).
  /// Minimum |Spearman| between a metric and an operator's running time for
  /// Module DA's correlation pruning (property (ii) of Section 4.1).
  double correlation_threshold = 0.5;
  double high_confidence = 80.0;
  double medium_confidence = 50.0;
  /// Causes below this confidence are dropped from the report entirely.
  double report_floor = 25.0;
};

/// Everything the workflow reads. All pointers must outlive the workflow.
struct DiagnosisContext {
  const db::RunCatalog* runs = nullptr;
  std::string query;
  const monitor::TimeSeriesStore* store = nullptr;
  const EventLog* events = nullptr;
  const apg::Apg* apg = nullptr;
  const san::SanTopology* topology = nullptr;
  const db::Catalog* catalog = nullptr;
  ComponentId database;

  /// Optional Module PD probe: given a plan-affecting event, re-optimize
  /// the query as if the event had not happened and return the resulting
  /// plan fingerprint. Supplied by the deployment (it owns a mutable
  /// catalog copy); nullptr disables what-if probing.
  std::function<Result<uint64_t>(const SystemEvent&)> plan_whatif_probe;

  /// Optional anomaly-model fast path: when non-null, Modules CO/DA/CR
  /// memoize their fitted baseline KDEs here across diagnoses. Pure
  /// performance — a hit reproduces the refit's scores bit for bit, so
  /// reports are ReportDigest-identical with the cache on or off.
  BaselineModelCache* model_cache = nullptr;
  /// Identity of the metric series in model-cache keys. Defaults to
  /// `store` when null; the engine points it at the tenant's live store
  /// so diagnoses over per-request collected snapshots (whose store
  /// pointers are ephemeral) still share models. Series generations come
  /// from `store`: a snapshot records each series' generation at its
  /// fetch, so only the pointer of this store is used while diagnosing.
  const monitor::TimeSeriesStore* model_authority = nullptr;

  /// Observability plumbing. Both are strictly write-only side channels:
  /// nothing the workflow computes reads them, so enabling tracing or
  /// lookup accounting cannot change a report (ReportDigest-neutral).
  ///
  /// Trace context for this diagnosis; modules open child spans under it.
  /// Disabled (no-op) by default.
  obs::TraceContext trace;
  /// When non-null, GetOrFitBaseline attributes its cache hits/misses to
  /// this diagnosis here (feeds the per-diagnosis CostProfile).
  obs::ModelLookupCounters* model_lookups = nullptr;

  /// The effective authority: `model_authority` when set, else `store`.
  /// The single fallback rule every consumer must share — model-cache
  /// keys name their source by it, and the engine's result-cache stamps
  /// and fleet verdict stamps validate against its append counters; they
  /// only agree because they all call this. Module DA reads no counter of
  /// it: a collected snapshot shares the source's buffers and carries
  /// their generations, so its series' generations equal the
  /// authority's at the fetch.
  const monitor::TimeSeriesStore* Authority() const {
    return model_authority != nullptr ? model_authority : store;
  }

  /// The diagnosis window: first labelled run start to last labelled run
  /// end ({0, 0} when no run of the query is labelled). The run catalog
  /// maintains it as runs are labelled (db::RunCatalog::LabelledWindow),
  /// so this is one lookup, not a scan of the run history.
  TimeInterval AnalysisWindow() const;
  /// Window between the last satisfactory and first unsatisfactory run —
  /// where Module PD looks for the change that broke things.
  TimeInterval TransitionWindow() const;

  std::vector<const db::QueryRunRecord*> SatisfactoryRuns() const;
  std::vector<const db::QueryRunRecord*> UnsatisfactoryRuns() const;
};

// --- Module PD ------------------------------------------------------------

struct PlanChangeCandidate {
  SystemEvent event;
  /// True if reverting the event reproduces the satisfactory-era plan
  /// (nullopt when no probe was available).
  std::optional<bool> could_explain;
  std::string reasoning;
};

struct PdResult {
  bool plans_differ = false;
  std::vector<uint64_t> satisfactory_fingerprints;
  std::vector<uint64_t> unsatisfactory_fingerprints;
  std::vector<PlanChangeCandidate> candidates;
};

// --- Module CO ------------------------------------------------------------

struct OperatorAnomaly {
  int op_index = -1;
  int op_number = 0;
  double score = 0;      ///< prob(S <= u) aggregated over unsatisfactory runs.
  bool anomalous = false;
};

struct CoResult {
  std::vector<OperatorAnomaly> scores;          ///< One per plan operator.
  std::vector<int> correlated_operator_set;     ///< COS, op indexes.

  const OperatorAnomaly* FindOp(int op_index) const;
  bool InCos(int op_index) const;
};

// --- Module DA ------------------------------------------------------------

struct MetricAnomaly {
  ComponentId component;
  monitor::MetricId metric = monitor::MetricId::kVolTotalIos;
  double anomaly_score = 0;
  /// Max |Spearman| between this metric (per-run means) and the running
  /// time of any COS operator that depends on the component.
  double correlation = 0;
  bool correlated = false;  ///< Passed both thresholds.
};

struct DaResult {
  std::vector<MetricAnomaly> metrics;           ///< All scored metrics.
  std::vector<ComponentId> correlated_component_set;  ///< CCS.

  bool InCcs(ComponentId component) const;
  /// Best (highest-scoring) entry for a component/metric pair, if scored.
  const MetricAnomaly* Find(ComponentId component,
                            monitor::MetricId metric) const;
  /// Highest anomaly score across a component's metrics (0 if none).
  double MaxAnomalyFor(ComponentId component) const;
};

// --- Module CR ------------------------------------------------------------

struct RecordCountAnomaly {
  int op_index = -1;
  int op_number = 0;
  double deviation_score = 0;  ///< Two-sided KDE deviation.
  bool significant = false;
};

struct CrResult {
  std::vector<RecordCountAnomaly> scores;
  std::vector<int> correlated_record_set;  ///< CRS (subset of COS).
  bool data_properties_changed = false;

  bool InCrs(int op_index) const;
};

// --- Modules SD / IA --------------------------------------------------------

/// The root-cause taxonomy DIADS reports over.
enum class RootCauseType {
  kSanMisconfigurationContention,
  kExternalWorkloadContention,
  kDataPropertyChange,
  kLockContention,
  kPlanChange,
  kRaidRebuild,
  kDiskFailure,
  kBufferPoolPressure,
  kCpuSaturation,
  // Fabric/multipath causes (appended; values are stable in digests).
  kHbaFailure,
  kMultipathImbalance,
  kRetryStorm,
  // Column-store storage-layout causes (appended; values are stable in
  // digests).
  kCompressionRatioDrift,
  kZoneMapStaleness,
  // Not a cause: the number of them. Keep last.
  kCount,
};

/// How Module SD picks a cause instance's subject.
enum class SubjectRule {
  kBoundVolume,  ///< The volume bound to `$V`: the entry runs per volume.
  kCrsTable,     ///< The table behind the highest-deviation CRS scan leaf.
  kFirstEvent,   ///< The subject of the first `subject_event` in the window.
  kDatabase,     ///< The database.
};

/// Which operators op(R) Module IA charges with a cause's slowdown.
enum class ImpactScope {
  kSubjectVolumeLeaves,  ///< Leaves reading the subject volume.
  kCrsScanLeaves,        ///< CRS scan leaves (their record counts moved).
  kSubjectTableLeaves,   ///< Leaves scanning the subject table, else the
                         ///< COS scan leaves.
  kCos,                  ///< The correlated operator set.
  kWholePlan,            ///< Every operator: the plan itself changed.
};

/// One row of the root-cause catalogue: everything the modules and the
/// report know about a type.
struct RootCauseTraits {
  RootCauseType type;
  const char* name;
  /// The report's recommended action; "$subject" names the subject.
  const char* action;
  SubjectRule subject;
  /// The event whose subject SubjectRule::kFirstEvent takes; when no such
  /// event (or no CRS table) exists the subject falls back to the database.
  EventType subject_event;
  ImpactScope impact;
};

/// The row for `type`; a row named "?" for a value outside the enum.
const RootCauseTraits& GetRootCauseTraits(RootCauseType type);

const char* RootCauseTypeName(RootCauseType type);

enum class ConfidenceBand { kHigh, kMedium, kLow };

const char* ConfidenceBandName(ConfidenceBand band);

struct RootCause {
  RootCauseType type = RootCauseType::kExternalWorkloadContention;
  /// Primary subject (the contended volume, the changed table, ...).
  ComponentId subject;
  double confidence = 0;  ///< 0..100, Module SD.
  ConfidenceBand band = ConfidenceBand::kLow;
  std::string explanation;           ///< Which conditions fired.
  std::optional<double> impact_pct;  ///< Module IA, high-confidence only.
};

/// The complete workflow output.
struct DiagnosisReport {
  PdResult pd;
  CoResult co;
  DaResult da;
  CrResult cr;
  std::vector<RootCause> causes;  ///< Sorted by confidence, then impact.
  std::string summary;            ///< One-paragraph human text.

  /// Top cause or nullptr.
  const RootCause* TopCause() const {
    return causes.empty() ? nullptr : &causes.front();
  }
};

/// Per-run series extraction helpers shared by the modules.
///
/// Running time t(O) per run for one operator (paper: stop - start).
std::vector<double> OperatorSpans(
    const std::vector<const db::QueryRunRecord*>& runs, int op_index);
/// Actual record counts per run for one operator.
std::vector<double> OperatorRecordCounts(
    const std::vector<const db::QueryRunRecord*>& runs, int op_index);
/// Per-run mean (monitor::MeanIn) of one metric series over each run's
/// interval, written to `out` in run order after clearing it (so a reused
/// buffer allocates nothing once it has grown). Runs with no sample are
/// skipped in `out`; returns how many. Runs in time order sweep the
/// series forward once (monitor::MeanCursor).
int MetricPerRun(const std::vector<monitor::Sample>& series,
                 const std::vector<const db::QueryRunRecord*>& runs,
                 std::vector<double>* out);

}  // namespace diads::diag

#endif  // DIADS_DIADS_DIAGNOSIS_H_
