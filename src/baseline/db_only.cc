#include "baseline/db_only.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "monitor/metrics.h"

namespace diads::baseline {

DbOnlyDiagnoser::DbOnlyDiagnoser(const db::RunCatalog* runs,
                                 const monitor::TimeSeriesStore* store,
                                 ComponentId database,
                                 stats::AnomalyConfig config)
    : runs_(runs), store_(store), database_(database), config_(config) {
  assert(runs_ && store_);
}

Result<std::vector<DbOnlyCause>> DbOnlyDiagnoser::Diagnose(
    const std::string& query) const {
  const std::vector<const db::QueryRunRecord*> good =
      runs_->RunsWithLabel(query, db::RunLabel::kSatisfactory);
  const std::vector<const db::QueryRunRecord*> bad =
      runs_->RunsWithLabel(query, db::RunLabel::kUnsatisfactory);
  if (good.size() < 2 || bad.empty()) {
    return Status::FailedPrecondition(
        "db-only diagnosis needs labelled runs on both sides");
  }

  // Operator anomaly scan (scans only; the tool reports "slow operators").
  int anomalous_scans = 0;
  int scored_scans = 0;
  const db::Plan* plan = bad.front()->plan.get();
  std::vector<double> baseline;
  std::vector<double> observed;
  for (const db::PlanOp& op : plan->ops()) {
    if (!op.is_scan()) continue;
    diag::OperatorSpans(good, op.index, &baseline);
    diag::OperatorSpans(bad, op.index, &observed);
    if (baseline.size() < 2 || observed.empty()) continue;
    ++scored_scans;
    Result<stats::AnomalyScore> score =
        stats::ScoreAnomaly(baseline, observed, config_);
    DIADS_RETURN_IF_ERROR(score.status());
    if (score->anomalous) ++anomalous_scans;
  }

  // DB-level metric movements between the windows.
  auto metric_anomaly = [&](monitor::MetricId metric) -> double {
    std::vector<double> baseline;
    std::vector<double> observed;
    for (const db::QueryRunRecord* run : good) {
      Result<double> mean = store_->MeanIn(database_, metric, run->interval);
      if (mean.ok()) baseline.push_back(*mean);
    }
    for (const db::QueryRunRecord* run : bad) {
      Result<double> mean = store_->MeanIn(database_, metric, run->interval);
      if (mean.ok()) observed.push_back(*mean);
    }
    if (baseline.size() < 2 || observed.empty()) return 0;
    Result<stats::AnomalyScore> score =
        stats::ScoreAnomaly(baseline, observed, config_);
    return score.ok() ? score->score : 0;
  };
  const double blocks_read_score =
      metric_anomaly(monitor::MetricId::kDbBlocksRead);
  const double lock_wait_score =
      metric_anomaly(monitor::MetricId::kDbLockWaitMs);

  const double scan_fraction =
      scored_scans > 0
          ? static_cast<double>(anomalous_scans) / scored_scans
          : 0;

  // Generic-cause heuristics — the silo tool's rulebook. I/O-bound scans
  // with no visible lock problem look like a buffer-pool or plan problem
  // from inside the database, whatever the SAN is doing.
  std::vector<DbOnlyCause> out;
  if (lock_wait_score >= config_.threshold) {
    out.push_back(
        {diag::RootCauseType::kLockContention, 40 + 55 * lock_wait_score,
         "lock wait time is elevated: likely lock contention"});
  }
  if (scan_fraction > 0) {
    out.push_back(
        {diag::RootCauseType::kBufferPoolPressure,
         25 + 50 * scan_fraction * std::max(0.4, blocks_read_score),
         StrFormat("%d of %d scan operators slowed down: suboptimal buffer "
                   "pool setting suspected",
                   anomalous_scans, scored_scans)});
    out.push_back(
        {diag::RootCauseType::kPlanChange, 20 + 45 * scan_fraction,
         "scan-heavy slowdown: suboptimal choice of execution plan "
         "suspected"});
  }
  std::sort(out.begin(), out.end(),
            [](const DbOnlyCause& a, const DbOnlyCause& b) {
              return a.score > b.score;
            });
  return out;
}

}  // namespace diads::baseline
