#include "diads/correlated_records.h"

#include <algorithm>

#include "common/strings.h"
#include "common/table_printer.h"

namespace diads::diag {

Result<CrResult> RunCorrelatedRecords(const DiagnosisContext& ctx,
                                      const WorkflowConfig& config,
                                      const CoResult& co) {
  const std::vector<const db::QueryRunRecord*> good = ctx.SatisfactoryRuns();
  const std::vector<const db::QueryRunRecord*> bad = ctx.UnsatisfactoryRuns();
  if (good.size() < 2 || bad.empty()) {
    return Status::FailedPrecondition(
        "Module CR needs labelled runs on both sides");
  }

  CrResult out;
  SeriesScratch scratch;
  for (int op_index : co.correlated_operator_set) {
    OperatorRecordCounts(good, op_index, &scratch.baseline);
    const bool fitted =
        FitBaseline(ctx, config.record_deviation.bandwidth_rule, &scratch);
    OperatorRecordCounts(bad, op_index, &scratch.observed);
    if (!fitted || scratch.observed.empty()) continue;
    Result<stats::AnomalyScore> score =
        stats::ScoreDeviationWithModel(scratch.model, scratch.observed,
                                       config.record_deviation,
                                       &scratch.score);
    DIADS_RETURN_IF_ERROR(score.status());
    RecordCountAnomaly a;
    a.op_index = op_index;
    a.op_number = ctx.apg->plan().op(op_index).op_number;
    a.deviation_score = score->score;
    a.significant = score->anomalous;
    if (a.significant) out.correlated_record_set.push_back(op_index);
    out.scores.push_back(a);
  }

  // Data properties changed if any *leaf scan* shows a record-count shift;
  // interior shifts alone could be join-side effects.
  for (int op_index : out.correlated_record_set) {
    if (ctx.apg->plan().op(op_index).is_scan()) {
      out.data_properties_changed = true;
      break;
    }
  }
  return out;
}

std::string RenderCrResult(const DiagnosisContext& ctx, const CrResult& cr) {
  TablePrinter table({"Operator", "Type", "Deviation score", "In CRS"});
  std::vector<RecordCountAnomaly> sorted = cr.scores;
  std::sort(sorted.begin(), sorted.end(),
            [](const RecordCountAnomaly& a, const RecordCountAnomaly& b) {
              return a.deviation_score > b.deviation_score;
            });
  for (const RecordCountAnomaly& a : sorted) {
    const db::PlanOp& op = ctx.apg->plan().op(a.op_index);
    std::string type = db::OpTypeName(op.type);
    if (op.is_scan()) type += " on " + op.table;
    table.AddRow({StrFormat("O%d", a.op_number), type,
                  FormatDouble(a.deviation_score, 3),
                  a.significant ? "yes" : ""});
  }
  return StrFormat(
             "=== Module CR: record-count analysis (data properties "
             "changed: %s) ===\n",
             cr.data_properties_changed ? "YES" : "no") +
         table.Render();
}

}  // namespace diads::diag
