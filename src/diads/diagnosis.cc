#include "diads/diagnosis.h"

#include <algorithm>

#include "common/enum_table.h"

namespace diads::diag {

TimeInterval DiagnosisContext::AnalysisWindow() const {
  return runs->LabelledWindow(query);
}

TimeInterval DiagnosisContext::TransitionWindow() const {
  SimTimeMs last_good = 0;
  SimTimeMs first_bad = 0;
  bool has_good = false;
  bool has_bad = false;
  for (const db::QueryRunRecord& run : runs->runs()) {
    if (run.query_name != query) continue;
    const db::RunLabel label = runs->LabelOf(run.run_id);
    if (label == db::RunLabel::kSatisfactory) {
      last_good = std::max(last_good, run.interval.end);
      has_good = true;
    } else if (label == db::RunLabel::kUnsatisfactory) {
      first_bad = has_bad ? std::min(first_bad, run.interval.begin)
                          : run.interval.begin;
      has_bad = true;
    }
  }
  if (!has_good || !has_bad || first_bad <= last_good) {
    // Interleaved or missing labels: fall back to the whole window.
    return AnalysisWindow();
  }
  return TimeInterval{last_good, first_bad};
}

std::vector<const db::QueryRunRecord*> DiagnosisContext::SatisfactoryRuns()
    const {
  return runs->RunsWithLabel(query, db::RunLabel::kSatisfactory);
}

std::vector<const db::QueryRunRecord*> DiagnosisContext::UnsatisfactoryRuns()
    const {
  return runs->RunsWithLabel(query, db::RunLabel::kUnsatisfactory);
}

const OperatorAnomaly* CoResult::FindOp(int op_index) const {
  for (const OperatorAnomaly& a : scores) {
    if (a.op_index == op_index) return &a;
  }
  return nullptr;
}

bool CoResult::InCos(int op_index) const {
  return std::find(correlated_operator_set.begin(),
                   correlated_operator_set.end(),
                   op_index) != correlated_operator_set.end();
}

bool DaResult::InCcs(ComponentId component) const {
  return std::find(correlated_component_set.begin(),
                   correlated_component_set.end(),
                   component) != correlated_component_set.end();
}

const MetricAnomaly* DaResult::Find(ComponentId component,
                                    monitor::MetricId metric) const {
  for (const MetricAnomaly& m : metrics) {
    if (m.component == component && m.metric == metric) return &m;
  }
  return nullptr;
}

double DaResult::MaxAnomalyFor(ComponentId component) const {
  double best = 0;
  for (const MetricAnomaly& m : metrics) {
    if (m.component == component) best = std::max(best, m.anomaly_score);
  }
  return best;
}

bool CrResult::InCrs(int op_index) const {
  return std::find(correlated_record_set.begin(), correlated_record_set.end(),
                   op_index) != correlated_record_set.end();
}

namespace {

using S = SubjectRule;
using I = ImpactScope;
using E = EventType;
using T = RootCauseType;

/// SubjectRule::kFirstEvent is the only rule that reads `subject_event`.
constexpr EventType kNoEvent = EventType::kCount;

constexpr RootCauseTraits kRootCauses[] = {
    {T::kSanMisconfigurationContention,
     "SAN misconfiguration causing volume contention",
     "review the recent volume/zoning/mapping changes around '$subject' "
     "with the SAN team; the new volume shares its physical disks.",
     S::kBoundVolume, kNoEvent, I::kSubjectVolumeLeaves},
    {T::kExternalWorkloadContention,
     "External workload causing volume contention",
     "relocate or throttle the competing workload, or move the affected "
     "tablespace to an unshared pool.",
     S::kBoundVolume, kNoEvent, I::kSubjectVolumeLeaves},
    {T::kDataPropertyChange, "Change in data properties",
     "run ANALYZE so the optimizer sees the new data profile, and "
     "re-evaluate the plan.",
     S::kCrsTable, kNoEvent, I::kCrsScanLeaves},
    {T::kLockContention, "Table lock contention",
     "identify the competing transaction holding table locks (pg_locks) and "
     "reschedule or shorten it.",
     S::kFirstEvent, E::kTableLockContention, I::kSubjectTableLeaves},
    // A plan change explains the whole slowdown by construction (the whole
    // plan is different); IA's per-operator attribution does not apply.
    {T::kPlanChange, "Query plan change",
     "review the configuration/schema event identified by Module PD; revert "
     "it or tune the new plan.",
     S::kDatabase, kNoEvent, I::kWholePlan},
    {T::kRaidRebuild, "RAID rebuild interference",
     "expect degraded performance until the rebuild completes; consider "
     "rate-limiting the rebuild.",
     S::kBoundVolume, kNoEvent, I::kSubjectVolumeLeaves},
    {T::kDiskFailure, "Disk failure degradation",
     "replace the failed disk; performance recovers after the array heals.",
     S::kBoundVolume, kNoEvent, I::kSubjectVolumeLeaves},
    {T::kBufferPoolPressure, "Buffer pool pressure",
     "revisit the buffer pool sizing change.", S::kDatabase, kNoEvent,
     I::kCos},
    {T::kCpuSaturation, "Database server CPU saturation",
     "move the competing job off the database server or cap its CPU share.",
     S::kDatabase, kNoEvent, I::kCos},
    // Fabric faults: the failed HBA / degraded port may be gone from the
    // post-fault APG (I/O rerouted around it), so its leaves would carry
    // zero impact; they are charged with the COS like CPU saturation.
    {T::kHbaFailure, "HBA failure masked by path failover",
     "replace the failed HBA; the surviving path is carrying the full load "
     "and is congested.",
     S::kFirstEvent, E::kHbaFailed, I::kCos},
    {T::kMultipathImbalance, "Asymmetric multipath load imbalance",
     "replace or re-seat the degraded port/SFP, or rebalance the multipath "
     "weights away from it.",
     S::kFirstEvent, E::kPortDegraded, I::kCos},
    {T::kRetryStorm, "I/O retry storm cascade",
     "raise the driver retry backoff and shed load on the volume until the "
     "queue drains; retries are amplifying the original slowdown.",
     S::kBoundVolume, kNoEvent, I::kSubjectVolumeLeaves},
    // Storage-layout degradation is table-scoped exactly like lock
    // contention: the drifted/stale table's leaves pay the extra reads.
    {T::kCompressionRatioDrift, "Compression ratio drift inflating scan I/O",
     "reorganize (recompress) the drifted table's segments; churn has "
     "degraded the compression ratio, so every scan reads far more pages for "
     "the same rows.",
     S::kFirstEvent, E::kCompressionRatioDrifted, I::kSubjectTableLeaves},
    {T::kZoneMapStaleness, "Stale zone maps defeating segment pruning",
     "rebuild the table's zone maps (or lower zone_map_refresh_threshold); "
     "stale min/max metadata is defeating segment pruning, so scans touch "
     "segments they should skip.",
     S::kFirstEvent, E::kZoneMapStale, I::kSubjectTableLeaves},
};
static_assert(IsEnumIndexed(kRootCauses, &RootCauseTraits::type),
              "kRootCauses needs one row per RootCauseType, in enum order");

constexpr RootCauseTraits kUnknownRootCause{T::kCount, "?", "", S::kDatabase,
                                            kNoEvent, I::kCos};

}  // namespace

const RootCauseTraits& GetRootCauseTraits(RootCauseType type) {
  return EnumRow(kRootCauses, type, kUnknownRootCause);
}

const char* RootCauseTypeName(RootCauseType type) {
  return GetRootCauseTraits(type).name;
}

const char* ConfidenceBandName(ConfidenceBand band) {
  switch (band) {
    case ConfidenceBand::kHigh:
      return "high";
    case ConfidenceBand::kMedium:
      return "medium";
    case ConfidenceBand::kLow:
      return "low";
  }
  return "?";
}

void OperatorSpans(const std::vector<const db::QueryRunRecord*>& runs,
                   int op_index, std::vector<double>* out) {
  out->clear();
  for (const db::QueryRunRecord* run : runs) {
    const db::OperatorRunStats* stats = run->FindOp(op_index);
    if (stats != nullptr) {
      out->push_back(static_cast<double>(stats->span_ms()));
    }
  }
}

void OperatorRecordCounts(const std::vector<const db::QueryRunRecord*>& runs,
                          int op_index, std::vector<double>* out) {
  out->clear();
  for (const db::QueryRunRecord* run : runs) {
    const db::OperatorRunStats* stats = run->FindOp(op_index);
    if (stats != nullptr) out->push_back(stats->actual_rows);
  }
}

void MetricPerRun(const std::vector<monitor::Sample>& series,
                  const std::vector<const db::QueryRunRecord*>& runs,
                  std::vector<double>* out) {
  out->clear();
  monitor::MeanCursor cursor(series);
  for (const db::QueryRunRecord* run : runs) {
    double mean = 0;
    if (cursor.MeanIn(run->interval, &mean)) out->push_back(mean);
  }
}

bool FitBaseline(const DiagnosisContext& ctx, stats::BandwidthRule rule,
                 SeriesScratch* scratch) {
  if (ctx.model_lookups != nullptr) ++ctx.model_lookups->misses;
  // Refit fails only on an empty baseline, which is under the threshold.
  return scratch->baseline.size() >= 2 &&
         scratch->model.Refit(scratch->baseline, rule).ok();
}

}  // namespace diads::diag
