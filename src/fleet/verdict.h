// Compact, storable form of one tenant's diagnosis verdict.
//
// A DiagnosisReport is per-diagnosis and borrows nothing, but it speaks in
// the tenant's local vocabulary: ComponentIds that index the tenant's own
// registry. A fleet store joining verdicts *across* tenants needs a
// vocabulary that survives the tenant boundary, so ExtractVerdict lowers a
// report into registry *names* ("V1", "P1", "postgres@dbserver") — the
// deterministic infrastructure naming every Figure-1 testbed shares — plus
// the decision-relevant numbers a cross-tenant query consumes:
//
//   * per component: the Module DA symptom truth assignments (which
//     metrics scored anomalous, with what score and correlation), CCS
//     membership, and whether a reported root cause named the component;
//   * per diagnosis: the ranked root causes (type, subject, confidence,
//     band, impact) and a Module PD plan-diff summary.
//
// Each extracted component verdict is stamped with the authoritative
// store's per-component append generation (and the whole verdict with the
// store-wide generation), so the fleet store can drop stale entries the
// moment new monitoring data arrives — the same counters the engine's
// result cache validates against, no TTLs involved.
#ifndef DIADS_FLEET_VERDICT_H_
#define DIADS_FLEET_VERDICT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "diads/diagnosis.h"

namespace diads::fleet {

/// One Module DA truth assignment: did this metric look anomalous, and did
/// it correlate with a COS operator's running time?
struct MetricVerdict {
  monitor::MetricId metric = monitor::MetricId::kVolTotalIos;
  double anomaly_score = 0;
  double correlation = 0;
  bool correlated = false;  ///< Passed both DA thresholds.
};

/// Everything one diagnosis concluded about one component.
struct ComponentVerdict {
  std::string component;  ///< Registry name — the cross-tenant join key.
  ComponentKind kind = ComponentKind::kVolume;
  bool in_ccs = false;     ///< Member of the correlated component set.
  double max_anomaly = 0;  ///< Highest anomaly score across metrics.
  std::vector<MetricVerdict> metrics;  ///< Sorted by metric id.
  bool cause_subject = false;  ///< A reported root cause named it.
  double best_cause_confidence = 0;
  std::vector<diag::RootCauseType> cause_types;  ///< Sorted, deduped.
  /// TimeSeriesStore::ComponentGeneration of the authoritative store at
  /// extraction time — the fleet store's staleness stamp for this entry.
  uint64_t generation = 0;
};

/// One ranked root cause, lowered to names.
struct CauseVerdict {
  diag::RootCauseType type = diag::RootCauseType::kExternalWorkloadContention;
  std::string subject;  ///< Registry name; "" when the cause names none.
  double confidence = 0;
  diag::ConfidenceBand band = diag::ConfidenceBand::kLow;
  double impact_pct = -1;  ///< Negative when Module IA did not assess it.
};

/// Module PD, summarized.
struct PlanDiffSummary {
  bool plans_differ = false;
  int satisfactory_plans = 0;    ///< Distinct fingerprints.
  int unsatisfactory_plans = 0;
  int candidates = 0;            ///< Plan-affecting events considered.
  int explaining_candidates = 0; ///< could_explain == true.
};

/// Provenance of an auto-submitted diagnosis: which detected incident
/// asked the question. Attached by the engine when a DiagnosisRequest
/// carries one (the SlowdownDetector's auto-submit path) and stamped onto
/// the published TenantVerdict. Observability metadata only — verdict
/// content and digests never read it, so an auto-triggered diagnosis is
/// byte-identical to the same question asked by an administrator.
struct IncidentStamp {
  /// Detector-wide monotone incident number — the "fresh generation
  /// stamp" distinguishing a re-crossing from a still-active incident.
  uint64_t sequence = 0;
  /// Registry name of the component whose series confirmed ("" when the
  /// detector could not resolve one).
  std::string subject;
  monitor::MetricId metric = monitor::MetricId::kVolTotalIos;
  SimTimeMs onset_time = 0;      ///< First crossing sample of the streak.
  SimTimeMs confirmed_time = 0;  ///< Sample that confirmed the incident.
};

/// One completed diagnosis, ready for the fleet store.
struct TenantVerdict {
  std::string tenant;  ///< The engine request tag.
  std::string query;
  SimTimeMs window_begin = 0;  ///< The diagnosis (analysis) window.
  SimTimeMs window_end = 0;
  /// TimeSeriesStore::StoreGeneration at extraction time.
  uint64_t store_generation = 0;
  PlanDiffSummary plan_diff;
  std::vector<CauseVerdict> causes;           ///< Ranked as reported.
  std::vector<ComponentVerdict> components;   ///< Sorted by name.
  /// What the diagnosis *cost* (set by the engine just before publish;
  /// null for verdicts extracted outside the serving path). Observability
  /// metadata only — verdict content and digests never read it.
  std::shared_ptr<const obs::CostProfile> cost;
  /// The detected incident this diagnosis answered (set by the engine for
  /// auto-submitted requests; null for administrator-driven ones). Same
  /// metadata-only contract as `cost`.
  std::shared_ptr<const IncidentStamp> incident;
};

/// Lowers a finished diagnosis into its storable verdict. Component names
/// come from the context's registry (via the SAN topology); generation
/// stamps come from the context's authoritative store
/// (DiagnosisContext::Authority(): model_authority when set, else the
/// store itself, which the engine's result-cache stamps read too).
/// Components named by a cause but never scored by Module DA (tables,
/// pools) still get a verdict entry, so implicated-set queries see them.
TenantVerdict ExtractVerdict(const diag::DiagnosisContext& ctx,
                             const diag::DiagnosisReport& report,
                             const std::string& tenant);

}  // namespace diads::fleet

#endif  // DIADS_FLEET_VERDICT_H_
