#include "diads/correlated_operators.h"

#include <algorithm>
#include <iterator>

#include "common/strings.h"
#include "common/table_printer.h"

namespace diads::diag {

Result<CoResult> RunCorrelatedOperators(const DiagnosisContext& ctx,
                                        const WorkflowConfig& config) {
  const std::vector<const db::QueryRunRecord*> good = ctx.SatisfactoryRuns();
  const std::vector<const db::QueryRunRecord*> bad = ctx.UnsatisfactoryRuns();
  if (good.size() < 2) {
    return Status::FailedPrecondition(
        "Module CO needs at least two satisfactory runs");
  }
  if (bad.empty()) {
    return Status::FailedPrecondition(
        "Module CO needs at least one unsatisfactory run");
  }

  // Restrict to runs of the plan under diagnosis (Module PD has already
  // peeled off runs with different plans).
  const uint64_t fp = ctx.apg->plan().Fingerprint();
  auto same_plan = [fp](const db::QueryRunRecord* run) {
    return run->plan_fingerprint == fp;
  };
  std::vector<const db::QueryRunRecord*> good_p;
  std::vector<const db::QueryRunRecord*> bad_p;
  std::copy_if(good.begin(), good.end(), std::back_inserter(good_p),
               same_plan);
  std::copy_if(bad.begin(), bad.end(), std::back_inserter(bad_p), same_plan);
  if (good_p.size() < 2 || bad_p.empty()) {
    return Status::FailedPrecondition(
        "Module CO needs satisfactory and unsatisfactory runs of the same "
        "plan");
  }

  CoResult out;
  SeriesScratch scratch;
  for (const db::PlanOp& op : ctx.apg->plan().ops()) {
    OperatorSpans(good_p, op.index, &scratch.baseline);
    const bool fitted =
        FitBaseline(ctx, config.operator_anomaly.bandwidth_rule, &scratch);
    OperatorSpans(bad_p, op.index, &scratch.observed);
    if (!fitted || scratch.observed.empty()) continue;
    Result<stats::AnomalyScore> score =
        stats::ScoreWithModel(scratch.model, scratch.observed,
                              config.operator_anomaly, &scratch.score);
    DIADS_RETURN_IF_ERROR(score.status());
    OperatorAnomaly a;
    a.op_index = op.index;
    a.op_number = op.op_number;
    a.score = score->score;
    a.anomalous = score->anomalous;
    if (a.anomalous) out.correlated_operator_set.push_back(op.index);
    out.scores.push_back(a);
  }
  return out;
}

std::string RenderCoResult(const DiagnosisContext& ctx, const CoResult& co) {
  TablePrinter table({"Operator", "Type", "Anomaly score", "In COS"});
  std::vector<OperatorAnomaly> sorted = co.scores;
  std::sort(sorted.begin(), sorted.end(),
            [](const OperatorAnomaly& a, const OperatorAnomaly& b) {
              return a.score > b.score;
            });
  for (const OperatorAnomaly& a : sorted) {
    const db::PlanOp& op = ctx.apg->plan().op(a.op_index);
    std::string type = db::OpTypeName(op.type);
    if (op.is_scan()) type += " on " + op.table;
    table.AddRow({StrFormat("O%d", a.op_number), type,
                  FormatDouble(a.score, 3), a.anomalous ? "yes" : ""});
  }
  return StrFormat(
             "=== Module CO: correlated operators (|COS| = %zu) ===\n",
             co.correlated_operator_set.size()) +
         table.Render();
}

}  // namespace diads::diag
