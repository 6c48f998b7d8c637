#include "diads/workflow.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "common/strings.h"
#include "diads/symptom_index.h"
#include "monitor/collection_planner.h"

namespace diads::diag {
namespace {

/// Scoped wall-clock timer writing milliseconds into `*slot` (null-safe).
class ModuleTimer {
 public:
  explicit ModuleTimer(double* slot)
      : slot_(slot), start_(std::chrono::steady_clock::now()) {}
  ~ModuleTimer() {
    if (slot_ == nullptr) return;
    *slot_ = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  }

 private:
  double* slot_;
  std::chrono::steady_clock::time_point start_;
};

double* Slot(ModuleTimings* timings, double ModuleTimings::*member) {
  return timings == nullptr ? nullptr : &(timings->*member);
}

}  // namespace

Workflow::Workflow(DiagnosisContext ctx, WorkflowConfig config,
                   const SymptomsDb* symptoms_db)
    : ctx_(std::move(ctx)), config_(config), symptoms_db_(symptoms_db) {
  assert(ctx_.runs && ctx_.store && ctx_.events && ctx_.apg &&
         ctx_.topology && ctx_.catalog);
}

Result<DiagnosisReport> Workflow::Diagnose(ImpactMethod impact_method,
                                           ModuleTimings* timings) const {
  DiagnosisReport report;

  // Query -> Plans.
  {
    obs::SpanHandle span = ctx_.trace.StartSpan("module:PD", "workflow");
    ModuleTimer timer(Slot(timings, &ModuleTimings::pd_ms));
    Result<PdResult> pd = RunPlanDiff(ctx_);
    DIADS_RETURN_IF_ERROR(pd.status());
    report.pd = std::move(*pd);
  }

  // Plans -> Operators. (When plans differ the remaining drill-down still
  // runs on the shared plan's runs if any exist; if none exist the plan
  // change itself is the diagnosis.)
  {
    obs::SpanHandle span = ctx_.trace.StartSpan("module:CO", "workflow");
    ModuleTimer timer(Slot(timings, &ModuleTimings::co_ms));
    Result<CoResult> co = RunCorrelatedOperators(ctx_, config_);
    if (co.ok()) {
      report.co = std::move(*co);
    } else if (!report.pd.plans_differ) {
      return co.status();
    }
  }

  // Operators -> Components.
  {
    obs::SpanHandle span = ctx_.trace.StartSpan("module:DA", "workflow");
    ModuleTimer timer(Slot(timings, &ModuleTimings::da_ms));
    Result<DaResult> da = RunDependencyAnalysis(ctx_, config_, report.co);
    if (da.ok()) report.da = std::move(*da);
  }

  // Operators -> record counts.
  {
    obs::SpanHandle span = ctx_.trace.StartSpan("module:CR", "workflow");
    ModuleTimer timer(Slot(timings, &ModuleTimings::cr_ms));
    Result<CrResult> cr = RunCorrelatedRecords(ctx_, config_, report.co);
    if (cr.ok()) report.cr = std::move(*cr);
  }

  // Symptoms -> causes.
  {
    obs::SpanHandle span = ctx_.trace.StartSpan("module:SD", "workflow");
    ModuleTimer timer(Slot(timings, &ModuleTimings::sd_ms));
    if (symptoms_db_ != nullptr) {
      Result<std::vector<RootCause>> causes =
          RunSymptomsDatabase(ctx_, config_, report.pd, report.co, report.da,
                              report.cr, *symptoms_db_);
      DIADS_RETURN_IF_ERROR(causes.status());
      report.causes = std::move(*causes);
    } else {
      report.causes = FallbackCauses(ctx_, config_, report.da, report.cr);
    }
  }

  // Impact roll-up.
  {
    obs::SpanHandle span = ctx_.trace.StartSpan("module:IA", "workflow");
    ModuleTimer timer(Slot(timings, &ModuleTimings::ia_ms));
    DIADS_RETURN_IF_ERROR(RunImpactAnalysis(
        ctx_, config_, report.co, report.cr, &report.causes, impact_method));
  }
  report.summary = SummarizeReport(ctx_, report);
  return report;
}

CollectionOutcome Workflow::Collect(
    const monitor::MetricGatherer& gatherer) const {
  CollectionOutcome out;
  obs::SpanHandle span = ctx_.trace.StartSpan("gather", "collect");
  const std::vector<monitor::FetchRequest> plan =
      monitor::CollectionPlanner::Plan(SymptomIndex::CollectMetricKeys(ctx_),
                                       ctx_.AnalysisWindow(), ctx_.store);
  out.planned_components = plan.size();
  out.planned_series = monitor::CollectionPlanner::SeriesCount(plan);
  out.gather = gatherer.Gather(plan, ctx_.trace.Under(span));
  if (span.active()) {
    span.Note("components", static_cast<uint64_t>(out.planned_components));
    span.Note("series", static_cast<uint64_t>(out.planned_series));
    span.Note("samples", out.gather.counters.samples_collected);
    span.Note("stale", out.gather.counters.stale_components);
  }
  return out;
}

Result<DiagnosisReport> Workflow::DiagnoseOverCollection(
    const CollectionOutcome& outcome, ImpactMethod impact_method,
    ModuleTimings* timings) const {
  // Diagnose over the collected snapshot: every module reads the fetched
  // series, pinned at the fetch, instead of round-tripping to the store
  // per series. The model cache keeps naming the series by the tenant's
  // live store — the snapshot's pointer is ephemeral — and takes their
  // generations from the snapshot.
  DiagnosisContext collected_ctx = ctx_;
  collected_ctx.model_authority = ctx_.Authority();
  collected_ctx.store = &outcome.gather.collected;
  Workflow collected_workflow(std::move(collected_ctx), config_,
                              symptoms_db_);
  return collected_workflow.Diagnose(impact_method, timings);
}

Result<DiagnosisReport> Workflow::DiagnoseWithCollection(
    const monitor::MetricGatherer& gatherer, ImpactMethod impact_method,
    ModuleTimings* timings, CollectionOutcome* outcome) const {
  CollectionOutcome local_outcome;
  CollectionOutcome& out = outcome != nullptr ? *outcome : local_outcome;
  out = Collect(gatherer);
  return DiagnoseOverCollection(out, impact_method, timings);
}

std::vector<RootCause> FallbackCauses(const DiagnosisContext& ctx,
                                      const WorkflowConfig& config,
                                      const DaResult& da, const CrResult& cr) {
  std::vector<RootCause> causes;
  const ComponentRegistry& registry = ctx.topology->registry();
  for (ComponentId component : da.correlated_component_set) {
    if (!registry.Contains(component) ||
        registry.KindOf(component) != ComponentKind::kVolume) {
      continue;
    }
    RootCause cause;
    cause.type = RootCauseType::kExternalWorkloadContention;
    cause.subject = component;
    // Without a symptoms database the semantics stay tentative: confidence
    // scales with the strongest metric anomaly, capped below high.
    cause.confidence =
        std::min(config.high_confidence - 1.0,
                 da.MaxAnomalyFor(component) * 100.0 * 0.75);
    cause.band = cause.confidence >= config.medium_confidence
                     ? ConfidenceBand::kMedium
                     : ConfidenceBand::kLow;
    cause.explanation = StrFormat(
        "no symptoms database: volume '%s' has metrics correlated with the "
        "slowdown",
        registry.NameOf(component).c_str());
    causes.push_back(std::move(cause));
  }
  if (cr.data_properties_changed) {
    RootCause cause;
    cause.type = RootCauseType::kDataPropertyChange;
    cause.subject = ctx.database;
    cause.confidence = config.high_confidence - 1.0;
    cause.band = ConfidenceBand::kMedium;
    cause.explanation =
        "no symptoms database: correlated record-count changes detected";
    causes.push_back(std::move(cause));
  }
  std::sort(causes.begin(), causes.end(),
            [](const RootCause& a, const RootCause& b) {
              return a.confidence > b.confidence;
            });
  return causes;
}

std::string SummarizeReport(const DiagnosisContext& ctx,
                            const DiagnosisReport& report) {
  const ComponentRegistry& registry = ctx.topology->registry();
  std::string out;
  if (report.pd.plans_differ) {
    out += "The plan used for unsatisfactory runs differs from the "
           "satisfactory-era plan. ";
    for (const PlanChangeCandidate& c : report.pd.candidates) {
      if (c.could_explain.value_or(false)) {
        out += StrFormat("The change is explained by: %s (%s). ",
                         EventTypeName(c.event.type),
                         c.event.description.c_str());
      }
    }
  }
  out += StrFormat(
      "%zu operators are correlated with the slowdown; %zu components "
      "passed dependency pruning; data properties %s. ",
      report.co.correlated_operator_set.size(),
      report.da.correlated_component_set.size(),
      report.cr.data_properties_changed ? "changed" : "did not change");
  const RootCause* top = report.TopCause();
  if (top != nullptr) {
    out += StrFormat(
        "Top root cause: %s%s%s (confidence %.0f%%, %s%s).",
        RootCauseTypeName(top->type),
        registry.Contains(top->subject) ? " on " : "",
        registry.Contains(top->subject)
            ? registry.NameOf(top->subject).c_str()
            : "",
        top->confidence, ConfidenceBandName(top->band),
        top->impact_pct.has_value()
            ? StrFormat(", impact %.1f%%", *top->impact_pct).c_str()
            : "");
  } else {
    out += "No root cause reached the reporting floor.";
  }
  return out;
}

// --- InteractiveSession -----------------------------------------------------

InteractiveSession::InteractiveSession(DiagnosisContext ctx,
                                       WorkflowConfig config,
                                       const SymptomsDb* symptoms_db)
    : ctx_(std::move(ctx)), config_(config), symptoms_db_(symptoms_db) {}

const char* InteractiveSession::ModuleName(Module module) {
  switch (module) {
    case Module::kPd:
      return "PD (plan diffing)";
    case Module::kCo:
      return "CO (correlated operators)";
    case Module::kDa:
      return "DA (dependency analysis)";
    case Module::kCr:
      return "CR (correlated record-counts)";
    case Module::kSd:
      return "SD (symptoms database)";
    case Module::kIa:
      return "IA (impact analysis)";
  }
  return "?";
}

bool InteractiveSession::CanRun(Module module) const {
  switch (module) {
    case Module::kPd:
      return true;
    case Module::kCo:
      return ran_pd_;
    case Module::kDa:
    case Module::kCr:
      return ran_co_;
    case Module::kSd:
      return ran_da_ && ran_cr_;
    case Module::kIa:
      return ran_sd_;
  }
  return false;
}

std::optional<InteractiveSession::Module> InteractiveSession::NextModule()
    const {
  if (!ran_pd_) return Module::kPd;
  if (!ran_co_) return Module::kCo;
  if (!ran_da_) return Module::kDa;
  if (!ran_cr_) return Module::kCr;
  if (!ran_sd_) return Module::kSd;
  if (!ran_ia_) return Module::kIa;
  return std::nullopt;
}

Result<std::string> InteractiveSession::Run(Module module) {
  if (!CanRun(module)) {
    return Status::FailedPrecondition(StrFormat(
        "module %s cannot run yet: execute the earlier modules first",
        ModuleName(module)));
  }
  switch (module) {
    case Module::kPd: {
      Result<PdResult> pd = RunPlanDiff(ctx_);
      DIADS_RETURN_IF_ERROR(pd.status());
      report_.pd = std::move(*pd);
      ran_pd_ = true;
      return RenderPdResult(report_.pd);
    }
    case Module::kCo: {
      Result<CoResult> co = RunCorrelatedOperators(ctx_, config_);
      DIADS_RETURN_IF_ERROR(co.status());
      report_.co = std::move(*co);
      ran_co_ = true;
      return RenderCoResult(ctx_, report_.co);
    }
    case Module::kDa: {
      Result<DaResult> da = RunDependencyAnalysis(ctx_, config_, report_.co);
      DIADS_RETURN_IF_ERROR(da.status());
      report_.da = std::move(*da);
      ran_da_ = true;
      return RenderDaResult(ctx_, report_.da);
    }
    case Module::kCr: {
      Result<CrResult> cr = RunCorrelatedRecords(ctx_, config_, report_.co);
      DIADS_RETURN_IF_ERROR(cr.status());
      report_.cr = std::move(*cr);
      ran_cr_ = true;
      return RenderCrResult(ctx_, report_.cr);
    }
    case Module::kSd: {
      if (symptoms_db_ != nullptr) {
        Result<std::vector<RootCause>> causes =
            RunSymptomsDatabase(ctx_, config_, report_.pd, report_.co,
                                report_.da, report_.cr, *symptoms_db_);
        DIADS_RETURN_IF_ERROR(causes.status());
        report_.causes = std::move(*causes);
      } else {
        report_.causes = FallbackCauses(ctx_, config_, report_.da, report_.cr);
      }
      ran_sd_ = true;
      return RenderSdResult(ctx_, report_.causes);
    }
    case Module::kIa: {
      DIADS_RETURN_IF_ERROR(RunImpactAnalysis(
          ctx_, config_, report_.co, report_.cr, &report_.causes));
      ran_ia_ = true;
      report_.summary = SummarizeReport(ctx_, report_);
      return RenderIaResult(ctx_, report_.causes) + "\n" + report_.summary +
             "\n";
    }
  }
  return Status::Internal("unknown module");
}

Status InteractiveSession::RemoveFromCos(int op_number) {
  if (!ran_co_) {
    return Status::FailedPrecondition("Module CO has not run yet");
  }
  Result<int> op_index = ctx_.apg->plan().IndexOfOpNumber(op_number);
  DIADS_RETURN_IF_ERROR(op_index.status());
  auto& cos = report_.co.correlated_operator_set;
  auto it = std::find(cos.begin(), cos.end(), *op_index);
  if (it == cos.end()) {
    return Status::NotFound(StrFormat("O%d is not in the COS", op_number));
  }
  cos.erase(it);
  return Status::Ok();
}

Status InteractiveSession::AddToCos(int op_number) {
  if (!ran_co_) {
    return Status::FailedPrecondition("Module CO has not run yet");
  }
  Result<int> op_index = ctx_.apg->plan().IndexOfOpNumber(op_number);
  DIADS_RETURN_IF_ERROR(op_index.status());
  auto& cos = report_.co.correlated_operator_set;
  if (std::find(cos.begin(), cos.end(), *op_index) == cos.end()) {
    cos.push_back(*op_index);
  }
  return Status::Ok();
}

}  // namespace diads::diag
