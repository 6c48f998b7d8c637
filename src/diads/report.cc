#include "diads/report.h"

#include "common/strings.h"
#include "diads/correlated_operators.h"
#include "diads/correlated_records.h"
#include "diads/dependency_analysis.h"
#include "diads/impact_analysis.h"
#include "diads/plan_diff.h"
#include "diads/symptoms_db.h"

namespace diads::diag {

std::string CsvEscape(const std::string& field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') needs_quotes = true;
  }
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string RenderFullReport(const DiagnosisContext& ctx,
                             const DiagnosisReport& report) {
  const ComponentRegistry& registry = ctx.topology->registry();
  std::string out;
  out += StrFormat("==================== DIADS diagnosis report ============"
                   "========\nQuery: %s\nAnalysis window: %s\n",
                   ctx.query.c_str(), ctx.AnalysisWindow().ToString().c_str());
  out += StrFormat(
      "Runs: %zu satisfactory, %zu unsatisfactory\n\nANSWER: %s\n\n",
      ctx.SatisfactoryRuns().size(), ctx.UnsatisfactoryRuns().size(),
      report.summary.c_str());

  const RootCause* top = report.TopCause();
  if (top != nullptr) {
    std::string action = GetRootCauseTraits(top->type).action;
    const std::string placeholder = "$subject";
    const size_t at = action.find(placeholder);
    if (at != std::string::npos) {
      action.replace(at, placeholder.size(),
                     registry.Contains(top->subject)
                         ? registry.NameOf(top->subject)
                         : "?");
    }
    out += "Recommended action: " + action + "\n\n";
  }

  out += RenderPdResult(report.pd) + "\n";
  out += RenderCoResult(ctx, report.co) + "\n";
  out += RenderDaResult(ctx, report.da) + "\n";
  out += RenderCrResult(ctx, report.cr) + "\n";
  out += RenderIaResult(ctx, report.causes) + "\n";
  return out;
}

std::string ExportCausesCsv(const DiagnosisContext& ctx,
                            const DiagnosisReport& report) {
  const ComponentRegistry& registry = ctx.topology->registry();
  std::string out = "cause,subject,confidence,band,impact_pct\n";
  for (const RootCause& cause : report.causes) {
    out += StrFormat(
        "%s,%s,%.1f,%s,%s\n",
        CsvEscape(RootCauseTypeName(cause.type)).c_str(),
        CsvEscape(registry.Contains(cause.subject)
                      ? registry.NameOf(cause.subject)
                      : "")
            .c_str(),
        cause.confidence, ConfidenceBandName(cause.band),
        cause.impact_pct.has_value()
            ? FormatDouble(*cause.impact_pct, 1).c_str()
            : "");
  }
  return out;
}

std::string ExportOperatorScoresCsv(const DiagnosisContext& ctx,
                                    const DiagnosisReport& report) {
  std::string out =
      "operator,type,table,anomaly_score,in_cos,record_deviation,in_crs\n";
  for (const OperatorAnomaly& a : report.co.scores) {
    const db::PlanOp& op = ctx.apg->plan().op(a.op_index);
    double deviation = 0;
    bool in_crs = false;
    for (const RecordCountAnomaly& r : report.cr.scores) {
      if (r.op_index == a.op_index) {
        deviation = r.deviation_score;
        in_crs = r.significant;
      }
    }
    out += StrFormat("O%d,%s,%s,%.4f,%d,%.4f,%d\n", a.op_number,
                     CsvEscape(db::OpTypeName(op.type)).c_str(),
                     CsvEscape(op.table).c_str(), a.score,
                     a.anomalous ? 1 : 0, deviation, in_crs ? 1 : 0);
  }
  return out;
}

std::string ExportMetricScoresCsv(const DiagnosisContext& ctx,
                                  const DiagnosisReport& report) {
  const ComponentRegistry& registry = ctx.topology->registry();
  std::string out =
      "component,kind,metric,anomaly_score,correlation,in_ccs\n";
  for (const MetricAnomaly& m : report.da.metrics) {
    out += StrFormat(
        "%s,%s,%s,%.4f,%.4f,%d\n",
        CsvEscape(registry.NameOf(m.component)).c_str(),
        ComponentKindName(registry.KindOf(m.component)),
        CsvEscape(monitor::MetricShortName(m.metric)).c_str(),
        m.anomaly_score, m.correlation,
        report.da.InCcs(m.component) ? 1 : 0);
  }
  return out;
}

std::string ReportDigest(const DiagnosisReport& report) {
  std::string out;
  out += StrFormat("pd:differ=%d;", report.pd.plans_differ ? 1 : 0);
  for (uint64_t f : report.pd.satisfactory_fingerprints) {
    out += StrFormat("s%016llx,", static_cast<unsigned long long>(f));
  }
  for (uint64_t f : report.pd.unsatisfactory_fingerprints) {
    out += StrFormat("u%016llx,", static_cast<unsigned long long>(f));
  }
  for (const PlanChangeCandidate& c : report.pd.candidates) {
    out += StrFormat(
        "cand(%s@%lld,%s);", EventTypeName(c.event.type),
        static_cast<long long>(c.event.time),
        c.could_explain.has_value() ? (*c.could_explain ? "yes" : "no")
                                    : "unknown");
  }
  out += "\nco:";
  for (const OperatorAnomaly& a : report.co.scores) {
    out += StrFormat("O%d=%.6f%s,", a.op_number, a.score,
                     a.anomalous ? "!" : "");
  }
  out += "cos=";
  for (int op : report.co.correlated_operator_set) {
    out += StrFormat("%d,", op);
  }
  out += "\nda:";
  for (const MetricAnomaly& m : report.da.metrics) {
    out += StrFormat("c%u/m%d=%.6f/%.6f%s,", m.component.value,
                     static_cast<int>(m.metric), m.anomaly_score,
                     m.correlation, m.correlated ? "!" : "");
  }
  out += "ccs=";
  for (ComponentId c : report.da.correlated_component_set) {
    out += StrFormat("%u,", c.value);
  }
  out += "\ncr:";
  for (const RecordCountAnomaly& a : report.cr.scores) {
    out += StrFormat("O%d=%.6f%s,", a.op_number, a.deviation_score,
                     a.significant ? "!" : "");
  }
  out += StrFormat("crs_changed=%d;crs=",
                   report.cr.data_properties_changed ? 1 : 0);
  for (int op : report.cr.correlated_record_set) {
    out += StrFormat("%d,", op);
  }
  out += "\ncauses:";
  for (const RootCause& cause : report.causes) {
    out += StrFormat(
        "%s/c%u/conf%.4f/%s/impact%s{%s};", RootCauseTypeName(cause.type),
        cause.subject.value, cause.confidence, ConfidenceBandName(cause.band),
        cause.impact_pct.has_value() ? StrFormat("%.4f", *cause.impact_pct).c_str()
                                     : "-",
        cause.explanation.c_str());
  }
  out += "\nsummary:" + report.summary;
  return out;
}

uint64_t ReportDigestHash(const DiagnosisReport& report) {
  return Fnv1a64(ReportDigest(report));
}

std::string ReportDigestHashHex(const DiagnosisReport& report) {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(ReportDigestHash(report)));
}

}  // namespace diads::diag
