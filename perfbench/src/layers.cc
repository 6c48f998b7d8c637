#include "layers.h"

#include <memory>

#include "diads/correlated_operators.h"
#include "diads/correlated_records.h"
#include "diads/dependency_analysis.h"
#include "diads/impact_analysis.h"
#include "diads/plan_diff.h"
#include "diads/report.h"
#include "diads/workflow.h"
#include "fleet/log.h"
#include "fleet/store.h"
#include "fleet/verdict.h"
#include "monitor/gather.h"
#include "serving.h"

namespace perfbench {

using diads::Result;
using diads::Status;
namespace diag = diads::diag;
namespace obs = diads::obs;

namespace {

/// The module chain of Workflow::Diagnose over a collected snapshot, one
/// span per module, with the workflow's own error rules.
Result<diag::DiagnosisReport> RunModules(const diag::DiagnosisContext& ctx,
                                         const diag::SymptomsDb& symptoms,
                                         const obs::TraceContext& trace) {
  const diag::WorkflowConfig config;
  diag::DiagnosisReport report;
  {
    obs::SpanHandle span = trace.StartSpan("diads.pd", "module");
    Result<diag::PdResult> pd = diag::RunPlanDiff(ctx);
    DIADS_RETURN_IF_ERROR(pd.status());
    report.pd = std::move(pd).value();
  }
  {
    obs::SpanHandle span = trace.StartSpan("diads.co", "module");
    Result<diag::CoResult> co = diag::RunCorrelatedOperators(ctx, config);
    if (co.ok()) {
      report.co = std::move(co).value();
    } else if (!report.pd.plans_differ) {
      return co.status();
    }
  }
  {
    obs::SpanHandle span = trace.StartSpan("diads.da", "module");
    Result<diag::DaResult> da =
        diag::RunDependencyAnalysis(ctx, config, report.co);
    if (da.ok()) report.da = std::move(da).value();
  }
  {
    obs::SpanHandle span = trace.StartSpan("diads.cr", "module");
    Result<diag::CrResult> cr =
        diag::RunCorrelatedRecords(ctx, config, report.co);
    if (cr.ok()) report.cr = std::move(cr).value();
  }
  {
    obs::SpanHandle span = trace.StartSpan("diads.sd", "module");
    Result<std::vector<diag::RootCause>> causes = diag::RunSymptomsDatabase(
        ctx, config, report.pd, report.co, report.da, report.cr, symptoms);
    DIADS_RETURN_IF_ERROR(causes.status());
    report.causes = std::move(causes).value();
  }
  {
    obs::SpanHandle span = trace.StartSpan("diads.ia", "module");
    DIADS_RETURN_IF_ERROR(diag::RunImpactAnalysis(
        ctx, config, report.co, report.cr, &report.causes,
        diag::ImpactMethod::kInverseDependency));
  }
  report.summary = diag::SummarizeReport(ctx, report);
  return report;
}

/// Appends `stream` into `store`; false on the first failed append.
bool AppendAll(const std::vector<StreamSample>& stream,
               diads::monitor::TimeSeriesStore* store) {
  for (const StreamSample& s : stream) {
    if (!store->Append(s.component, s.metric, s.time, s.value).ok()) {
      return false;
    }
  }
  return true;
}

void Fail(LayerPass* out, const std::string& why) {
  ++out->failed;
  if (out->failures.size() < 20) out->failures.push_back("layer pass: " + why);
}

}  // namespace

Status RunLayerPass(const Matrix& matrix,
                    const std::vector<Reference>& references,
                    const diag::SymptomsDb& symptoms,
                    diads::monitor::AsyncCollector* collector,
                    const std::string& log_dir, obs::Tracer* tracer,
                    LayerPass* out) {
  const diads::monitor::MetricGatherer gatherer(collector,
                                                diads::monitor::GatherOptions{});
  diads::fleet::FleetStore fleet;
  diads::fleet::LogOptions log_options;
  log_options.dir = log_dir;
  Result<std::unique_ptr<diads::fleet::SegmentLog>> log =
      diads::fleet::SegmentLog::Open(log_options);
  DIADS_RETURN_IF_ERROR(log.status());
  diads::detect::SlowdownDetector detector(diads::detect::DetectorOptions{});
  const obs::TraceContext root = tracer->Root();

  for (size_t c = 0; c < matrix.configs.size(); ++c) {
    const MatrixConfig& config = matrix.configs[c];
    diads::workload::Testbed& testbed = *config.tenant.output->testbed;
    const size_t first_span = tracer->span_count();
    std::unique_ptr<diag::DiagnosisReport> report;
    {
      obs::SpanHandle question = root.StartSpan("question", "pass");
      question.Note("config", config.tenant.name);
      const obs::TraceContext in_question = root.Under(question);
      {
        obs::SpanHandle span = in_question.StartSpan("db.optimize_q2", "db");
        if (!testbed.OptimizeQ2().ok()) Fail(out, "OptimizeQ2 failed");
      }
      {
        obs::SpanHandle span = in_question.StartSpan("apg.build", "apg");
        if (!testbed.BuildApg().ok()) Fail(out, "BuildApg failed");
      }

      const Clock::time_point diagnose_start = Clock::now();
      obs::SpanHandle diagnose = in_question.StartSpan("diagnose", "pass");
      const obs::TraceContext in_diagnose = in_question.Under(diagnose);
      const diag::DiagnosisContext ctx = config.tenant.output->MakeContext();
      const diag::Workflow workflow(ctx, diag::WorkflowConfig{}, &symptoms);
      diag::CollectionOutcome outcome;
      {
        obs::SpanHandle span = in_diagnose.StartSpan("monitor.gather",
                                                     "monitor");
        outcome = workflow.Collect(gatherer);
      }
      // The engine's view of a collected snapshot (see
      // Workflow::DiagnoseOverCollection), with lookups counted.
      obs::ModelLookupCounters lookups;
      diag::DiagnosisContext collected = ctx;
      collected.model_authority = ctx.Authority();
      collected.store = &outcome.gather.collected;
      collected.model_lookups = &lookups;
      Result<diag::DiagnosisReport> modules =
          RunModules(collected, symptoms, in_diagnose);
      if (!modules.ok()) {
        Fail(out, config.tenant.name + ": " + modules.status().ToString());
        continue;
      }
      report = std::make_unique<diag::DiagnosisReport>(
          std::move(modules).value());
      diads::fleet::TenantVerdict verdict;
      {
        obs::SpanHandle span = in_diagnose.StartSpan("fleet.extract", "fleet");
        verdict = diads::fleet::ExtractVerdict(ctx, *report,
                                               config.tenant.name);
      }
      {
        obs::SpanHandle span = in_diagnose.StartSpan("fleet.publish", "fleet");
        fleet.Publish(verdict);
      }
      {
        obs::SpanHandle span =
            in_diagnose.StartSpan("fleet.log_append", "fleet");
        if (!(*log)->Append(verdict).ok()) Fail(out, "log append failed");
      }
      diagnose.End();
      out->diagnose_ms.push_back(MsSince(diagnose_start));

      const diads::monitor::GatherCounters& gathered =
          outcome.gather.counters;
      out->gather_fetches += gathered.fetches;
      out->gather_samples += gathered.samples_collected;
      out->gather_bytes += gathered.bytes_collected;
      out->model_lookups += lookups.hits + lookups.misses;
      out->da_metrics_scored += report->da.metrics.size();

      // The stream probe: the same samples into a bare store and into one
      // a detector watches; the difference is the detector's probe.
      const std::vector<StreamSample> extracted =
          config.stream.empty() ? ExtractStream(testbed.store)
                                : std::vector<StreamSample>();
      const std::vector<StreamSample>& stream =
          config.stream.empty() ? extracted : config.stream;
      diads::monitor::TimeSeriesStore bare, watched;
      {
        obs::SpanHandle span = in_question.StartSpan("monitor.append",
                                                     "monitor");
        if (!AppendAll(stream, &bare)) Fail(out, "bare append failed");
      }
      DIADS_RETURN_IF_ERROR(
          detector.Watch(config.tenant.name, &watched, nullptr));
      {
        obs::SpanHandle span =
            in_question.StartSpan("detect.watched_append", "detect");
        if (!AppendAll(stream, &watched)) Fail(out, "watched append failed");
      }
      detector.Unwatch(&watched);
      out->stream_appends += stream.size();
    }
    ++out->questions;
    std::vector<obs::Span> spans = tracer->Spans();
    spans.erase(spans.begin(),
                spans.begin() + static_cast<std::ptrdiff_t>(first_span));
    FoldSpans(spans, "." + config.backend_name, &out->spans);
    if (report != nullptr &&
        diag::ReportDigest(*report) != references[c].digest) {
      Fail(out, config.tenant.name + ": decomposed report differs from the "
                                     "serial diagnosis");
    }
  }
  out->detector = detector.Stats();

  const diads::fleet::LogCounters written = (*log)->Counters();
  out->log_bytes = written.bytes_written;
  out->log_records = written.appends;
  log->reset();  // Flushes and closes: the log is now ready to recover.
  out->fleet_rows = fleet.TotalCounters().entries;

  const size_t first_span = tracer->span_count();
  const std::vector<std::string> components = FleetComponents(fleet);
  LatencySampler query_latency;
  const std::string live = RunQueryMix(fleet, components, root, &query_latency);
  diads::fleet::FleetStore recovered;
  diads::fleet::ReplayStats replay;
  {
    obs::SpanHandle span = root.StartSpan("fleet.recover", "fleet");
    replay = diads::fleet::RecoverFromLog(log_dir, &recovered);
  }
  std::vector<obs::Span> spans = tracer->Spans();
  spans.erase(spans.begin(),
              spans.begin() + static_cast<std::ptrdiff_t>(first_span));
  FoldSpans(spans, "", &out->spans);
  out->recover_records = replay.records_replayed;
  out->recover_dropped = replay.records_dropped;
  if (replay.records_dropped != 0 || replay.decode_failures != 0 ||
      replay.records_replayed != out->log_records) {
    Fail(out, "recovery lost records: " + replay.Render());
  }
  LatencySampler unused;
  if (RunQueryMix(recovered, components, obs::TraceContext(), &unused) !=
      live) {
    Fail(out, "recovered fleet answers the query mix differently");
  }
  return Status::Ok();
}

}  // namespace perfbench
