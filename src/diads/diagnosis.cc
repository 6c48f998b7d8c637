#include "diads/diagnosis.h"

#include <algorithm>

namespace diads::diag {

TimeInterval DiagnosisContext::AnalysisWindow() const {
  TimeInterval out{0, 0};
  bool first = true;
  for (const db::QueryRunRecord& run : runs->runs()) {
    if (run.query_name != query) continue;
    if (runs->LabelOf(run.run_id) == db::RunLabel::kUnlabeled) continue;
    if (first) {
      out = run.interval;
      first = false;
    } else {
      out.begin = std::min(out.begin, run.interval.begin);
      out.end = std::max(out.end, run.interval.end);
    }
  }
  return out;
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

const char* RootCauseTypeName(RootCauseType type) {
  switch (type) {
    case RootCauseType::kSanMisconfigurationContention:
      return "SAN misconfiguration causing volume contention";
    case RootCauseType::kExternalWorkloadContention:
      return "External workload causing volume contention";
    case RootCauseType::kDataPropertyChange:
      return "Change in data properties";
    case RootCauseType::kLockContention:
      return "Table lock contention";
    case RootCauseType::kPlanChange:
      return "Query plan change";
    case RootCauseType::kRaidRebuild:
      return "RAID rebuild interference";
    case RootCauseType::kDiskFailure:
      return "Disk failure degradation";
    case RootCauseType::kBufferPoolPressure:
      return "Buffer pool pressure";
    case RootCauseType::kCpuSaturation:
      return "Database server CPU saturation";
    case RootCauseType::kHbaFailure:
      return "HBA failure masked by path failover";
    case RootCauseType::kMultipathImbalance:
      return "Asymmetric multipath load imbalance";
    case RootCauseType::kRetryStorm:
      return "I/O retry storm cascade";
    case RootCauseType::kCompressionRatioDrift:
      return "Compression ratio drift inflating scan I/O";
    case RootCauseType::kZoneMapStaleness:
      return "Stale zone maps defeating segment pruning";
  }
  return "?";
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

std::vector<double> OperatorSpans(
    const std::vector<const db::QueryRunRecord*>& runs, int op_index) {
  std::vector<double> out;
  out.reserve(runs.size());
  for (const db::QueryRunRecord* run : runs) {
    const db::OperatorRunStats* stats = run->FindOp(op_index);
    if (stats != nullptr) {
      out.push_back(static_cast<double>(stats->span_ms()));
    }
  }
  return out;
}

std::vector<double> OperatorRecordCounts(
    const std::vector<const db::QueryRunRecord*>& runs, int op_index) {
  std::vector<double> out;
  out.reserve(runs.size());
  for (const db::QueryRunRecord* run : runs) {
    const db::OperatorRunStats* stats = run->FindOp(op_index);
    if (stats != nullptr) out.push_back(stats->actual_rows);
  }
  return out;
}

int MetricPerRun(const std::vector<monitor::Sample>& series,
                 const std::vector<const db::QueryRunRecord*>& runs,
                 std::vector<double>* out) {
  out->clear();
  monitor::MeanCursor cursor(series);
  int missed = 0;
  for (const db::QueryRunRecord* run : runs) {
    double mean = 0;
    if (cursor.MeanIn(run->interval, &mean)) {
      out->push_back(mean);
    } else {
      ++missed;
    }
  }
  return missed;
}

}  // namespace diads::diag
