#include "diads/impact_analysis.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/strings.h"
#include "common/table_printer.h"
#include "stats/descriptive.h"

namespace diads::diag {
namespace {

/// Mean self-time of one operator over a run set.
double MeanSelfMs(const std::vector<const db::QueryRunRecord*>& runs,
                  int op_index) {
  std::vector<double> values;
  for (const db::QueryRunRecord* run : runs) {
    const db::OperatorRunStats* stats = run->FindOp(op_index);
    if (stats != nullptr) values.push_back(stats->self_ms());
  }
  return stats::Mean(values);
}

double MeanDurationMs(const std::vector<const db::QueryRunRecord*>& runs) {
  std::vector<double> values;
  for (const db::QueryRunRecord* run : runs) {
    values.push_back(static_cast<double>(run->duration_ms()));
  }
  return stats::Mean(values);
}

}  // namespace

std::vector<int> OperatorsAffectedBy(const DiagnosisContext& ctx,
                                     const RootCause& cause,
                                     const CoResult& co, const CrResult& cr) {
  const ComponentRegistry& registry = ctx.topology->registry();
  const db::Plan& plan = ctx.apg->plan();
  std::set<int> ops;
  switch (GetRootCauseTraits(cause.type).impact) {
    case ImpactScope::kSubjectVolumeLeaves:
      // comp(R) = the subject volume and its disks; op(R) = leaves reading it.
      if (registry.Contains(cause.subject)) {
        for (int leaf : ctx.apg->LeafOpsOnComponent(cause.subject)) {
          ops.insert(leaf);
        }
      }
      break;
    case ImpactScope::kCrsScanLeaves:
      for (int op_index : cr.correlated_record_set) {
        if (plan.op(op_index).is_scan()) ops.insert(op_index);
      }
      break;
    case ImpactScope::kSubjectTableLeaves:
      if (registry.Contains(cause.subject) &&
          registry.KindOf(cause.subject) == ComponentKind::kTable) {
        for (int leaf : plan.LeafIndexes()) {
          Result<const db::TableDef*> table =
              ctx.catalog->FindTable(plan.op(leaf).table);
          if (table.ok() && (*table)->id == cause.subject) ops.insert(leaf);
        }
      }
      if (ops.empty()) {
        for (int op_index : co.correlated_operator_set) {
          if (plan.op(op_index).is_scan()) ops.insert(op_index);
        }
      }
      break;
    case ImpactScope::kCos:
      ops.insert(co.correlated_operator_set.begin(),
                 co.correlated_operator_set.end());
      break;
    case ImpactScope::kWholePlan:
      for (const db::PlanOp& op : plan.ops()) ops.insert(op.index);
      break;
  }
  return std::vector<int>(ops.begin(), ops.end());
}

Status RunImpactAnalysis(const DiagnosisContext& ctx,
                         const WorkflowConfig& /*config*/, const CoResult& co,
                         const CrResult& cr, std::vector<RootCause>* causes,
                         ImpactMethod method) {
  const std::vector<const db::QueryRunRecord*> good = ctx.SatisfactoryRuns();
  const std::vector<const db::QueryRunRecord*> bad = ctx.UnsatisfactoryRuns();
  if (good.empty() || bad.empty()) {
    return Status::FailedPrecondition(
        "Module IA needs labelled runs on both sides");
  }
  const double extra_plan_ms =
      std::max(1.0, MeanDurationMs(bad) - MeanDurationMs(good));

  for (RootCause& cause : *causes) {
    if (cause.band == ConfidenceBand::kLow) continue;
    if (GetRootCauseTraits(cause.type).impact == ImpactScope::kWholePlan) {
      cause.impact_pct = 100.0;
      continue;
    }
    const std::vector<int> ops = OperatorsAffectedBy(ctx, cause, co, cr);
    double impact = 0;
    switch (method) {
      case ImpactMethod::kInverseDependency: {
        double extra_self = 0;
        for (int op_index : ops) {
          extra_self +=
              std::max(0.0, MeanSelfMs(bad, op_index) -
                                MeanSelfMs(good, op_index));
        }
        impact = extra_self / extra_plan_ms * 100.0;
        break;
      }
      case ImpactMethod::kCostModel: {
        // Static apportioning: the share of total estimated cost carried by
        // op(R)'s self cost (cumulative minus children), scaled to 100%.
        const db::Plan& plan = ctx.apg->plan();
        double total_self_cost = 0;
        auto self_cost = [&plan](int op_index) {
          double cost = plan.op(op_index).est_cost;
          for (int child : plan.op(op_index).children) {
            cost -= plan.op(child).est_cost;
          }
          return std::max(0.0, cost);
        };
        for (const db::PlanOp& op : plan.ops()) {
          total_self_cost += self_cost(op.index);
        }
        double ops_cost = 0;
        for (int op_index : ops) ops_cost += self_cost(op_index);
        impact = total_self_cost > 0 ? ops_cost / total_self_cost * 100.0 : 0;
        break;
      }
    }
    cause.impact_pct = std::clamp(impact, 0.0, 100.0);
  }

  // Final ranking: confidence band first, then impact, then confidence.
  std::sort(causes->begin(), causes->end(),
            [](const RootCause& a, const RootCause& b) {
              if (a.band != b.band) {
                return static_cast<int>(a.band) < static_cast<int>(b.band);
              }
              const double ia = a.impact_pct.value_or(-1);
              const double ib = b.impact_pct.value_or(-1);
              if (ia != ib) return ia > ib;
              return a.confidence > b.confidence;
            });
  return Status::Ok();
}

std::string RenderIaResult(const DiagnosisContext& ctx,
                           const std::vector<RootCause>& causes) {
  const ComponentRegistry& registry = ctx.topology->registry();
  TablePrinter table(
      {"Root cause", "Subject", "Confidence", "Band", "Impact"});
  for (const RootCause& cause : causes) {
    table.AddRow({RootCauseTypeName(cause.type),
                  registry.Contains(cause.subject)
                      ? registry.NameOf(cause.subject)
                      : "-",
                  FormatDouble(cause.confidence, 0) + "%",
                  ConfidenceBandName(cause.band),
                  cause.impact_pct.has_value()
                      ? FormatDouble(*cause.impact_pct, 1) + "%"
                      : "-"});
  }
  return "=== Module IA: impact analysis ===\n" + table.Render();
}

}  // namespace diads::diag
