// Extending the symptoms database — Section 7's "Machine Learning and
// Domain Knowledge Interplay".
//
// "An interesting course of future work is to enhance this relationship
// with machine learning techniques contributing towards identifying
// potential symptoms which can be checked by an expert and added to the
// symptoms database. ... this provides a self-evolving mechanism towards
// bettering the quality of the symptoms databases."
//
// This example walks that loop once:
//   1. run a RAID-rebuild incident against a symptoms database that has
//      never heard of RAID rebuilds (the entry is removed) — DIADS still
//      localises V1, but only with generic, medium-confidence causes;
//   2. harvest the machine-identified symptoms from the module results
//      (the correlated metrics and the unexplained rebuild events);
//   3. play the expert: write a new Codebook entry from those symptoms in
//      the symptom expression language and add it;
//   4. re-diagnose — the new entry names the cause at high confidence.
//
//   $ ./custom_symptoms
#include <cstdio>

#include "common/strings.h"
#include "diads/workflow.h"
#include "workload/scenario.h"

using namespace diads;

namespace {

void PrintTop(const char* heading, const diag::DiagnosisReport& report,
              const ComponentRegistry& registry) {
  std::printf("%s\n", heading);
  size_t shown = 0;
  for (const diag::RootCause& cause : report.causes) {
    if (shown++ >= 3) break;
    std::printf("  %s%s%s — %.0f%% (%s)%s\n",
                diag::RootCauseTypeName(cause.type),
                registry.Contains(cause.subject) ? " on " : "",
                registry.Contains(cause.subject)
                    ? registry.NameOf(cause.subject).c_str()
                    : "",
                cause.confidence, diag::ConfidenceBandName(cause.band),
                cause.impact_pct.has_value()
                    ? StrFormat(", impact %.0f%%", *cause.impact_pct).c_str()
                    : "");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Simulating a RAID rebuild incident on V1's pool...\n\n");
  Result<workload::ScenarioOutput> scenario =
      workload::RunScenario(workload::ScenarioId::kS10RaidRebuild, {});
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const ComponentRegistry& registry = scenario->testbed->registry;
  diag::DiagnosisContext ctx = scenario->MakeContext();

  // --- 1. Diagnose with an incomplete database -----------------------------
  diag::SymptomsDb incomplete = diag::SymptomsDb::MakeDefault();
  if (!incomplete.RemoveEntry("raid-rebuild").ok()) {
    std::fprintf(stderr, "cannot remove entry\n");
    return 1;
  }
  diag::Workflow workflow(ctx, diag::WorkflowConfig{}, &incomplete);
  Result<diag::DiagnosisReport> before = workflow.Diagnose();
  if (!before.ok()) {
    std::fprintf(stderr, "diagnosis failed\n");
    return 1;
  }
  PrintTop("WITHOUT a raid-rebuild entry (the DB has never seen this "
           "failure mode):",
           *before, registry);

  // --- 2. Harvest machine-identified symptoms ------------------------------
  std::printf("Machine-identified symptoms the expert reviews:\n");
  for (const diag::MetricAnomaly& m : before->da.metrics) {
    if (!m.correlated) continue;
    if (registry.KindOf(m.component) != ComponentKind::kVolume) continue;
    std::printf("  metric_anomaly(component=%s, metric=%s)   score %.2f, "
                "corr %+.2f\n",
                registry.NameOf(m.component).c_str(),
                monitor::MetricShortName(m.metric), m.anomaly_score,
                m.correlation);
  }
  for (const SystemEvent& event :
       ctx.events->EventsOfTypeIn(EventType::kRaidRebuildStarted,
                                  ctx.AnalysisWindow())) {
    std::printf("  unexplained event: %s (%s)\n",
                EventTypeName(event.type), event.description.c_str());
  }
  std::printf("\n");

  // --- 3. The expert writes a new Codebook entry ---------------------------
  std::printf("Expert adds entry 'rebuild-interference' from those "
              "symptoms...\n\n");
  Status added = incomplete.AddEntry(
      "rebuild-interference", diag::RootCauseType::kRaidRebuild,
      {
          {"event_near(type=RaidRebuildStarted, volume=$V)", 35},
          {"volume_metric_anomaly(volume=$V)", 25},
          {"op_anomaly_majority(volume=$V)", 20},
          {"before(event(type=RaidRebuildStarted), "
           "event(type=VolumePerfDegraded))", 10},
          {"no_plan_change()", 5},
          {"not record_count_change()", 5},
      });
  if (!added.ok()) {
    std::fprintf(stderr, "entry rejected: %s\n", added.ToString().c_str());
    return 1;
  }

  // --- 4. Re-diagnose -------------------------------------------------------
  Result<diag::DiagnosisReport> after = workflow.Diagnose();
  if (!after.ok()) {
    std::fprintf(stderr, "diagnosis failed\n");
    return 1;
  }
  PrintTop("WITH the new entry:", *after, registry);

  const diag::RootCause* top = after->TopCause();
  if (top != nullptr && top->type == diag::RootCauseType::kRaidRebuild) {
    std::printf("The database has evolved: the incident is now named at "
                "%.0f%% confidence.\n",
                top->confidence);
  }
  return 0;
}
