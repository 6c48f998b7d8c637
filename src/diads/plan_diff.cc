#include "diads/plan_diff.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "common/table_printer.h"

namespace diads::diag {

Result<PdResult> RunPlanDiff(const DiagnosisContext& ctx) {
  const std::vector<const db::QueryRunRecord*> good = ctx.SatisfactoryRuns();
  const std::vector<const db::QueryRunRecord*> bad = ctx.UnsatisfactoryRuns();
  if (good.empty() || bad.empty()) {
    return Status::FailedPrecondition(
        "Module PD needs labelled runs on both sides");
  }

  PdResult out;
  std::set<uint64_t> good_fps;
  std::set<uint64_t> bad_fps;
  for (const db::QueryRunRecord* run : good) {
    good_fps.insert(run->plan_fingerprint);
  }
  for (const db::QueryRunRecord* run : bad) {
    bad_fps.insert(run->plan_fingerprint);
  }
  out.satisfactory_fingerprints.assign(good_fps.begin(), good_fps.end());
  out.unsatisfactory_fingerprints.assign(bad_fps.begin(), bad_fps.end());

  // Plans differ when some unsatisfactory run used a plan never seen in a
  // satisfactory run.
  out.plans_differ = false;
  for (uint64_t fp : bad_fps) {
    if (!good_fps.count(fp)) out.plans_differ = true;
  }
  if (!out.plans_differ) return out;

  // Plan-change analysis: scan schema/configuration events in the
  // transition window and what-if probe each.
  const TimeInterval window = ctx.TransitionWindow();
  const uint64_t good_fp = *good_fps.rbegin();
  for (const SystemEvent& event : ctx.events->EventsIn(window)) {
    if (!IsPlanAffectingEvent(event.type)) continue;
    PlanChangeCandidate candidate;
    candidate.event = event;
    if (ctx.plan_whatif_probe) {
      Result<uint64_t> reverted_fp = ctx.plan_whatif_probe(event);
      if (reverted_fp.ok()) {
        candidate.could_explain = (*reverted_fp == good_fp);
        candidate.reasoning = *candidate.could_explain
                                  ? "reverting this event reproduces the "
                                    "satisfactory-era plan"
                                  : "reverting this event does not restore "
                                    "the satisfactory-era plan";
      } else {
        candidate.reasoning =
            "what-if probe failed: " + reverted_fp.status().ToString();
      }
    } else {
      candidate.reasoning = "no what-if probe available; candidate unverified";
    }
    out.candidates.push_back(std::move(candidate));
  }
  return out;
}

std::string RenderPdResult(const PdResult& pd) {
  std::string out = StrFormat(
      "=== Module PD: plan diffing ===\nplans differ: %s\n",
      pd.plans_differ ? "YES" : "no (same plan in good and bad runs)");
  for (uint64_t fp : pd.satisfactory_fingerprints) {
    out += StrFormat("  satisfactory plan:   P%016llx\n",
                     static_cast<unsigned long long>(fp));
  }
  for (uint64_t fp : pd.unsatisfactory_fingerprints) {
    out += StrFormat("  unsatisfactory plan: P%016llx\n",
                     static_cast<unsigned long long>(fp));
  }
  if (pd.plans_differ) {
    TablePrinter table({"Event", "Time", "Could explain", "Reasoning"});
    for (const PlanChangeCandidate& c : pd.candidates) {
      table.AddRow({EventTypeName(c.event.type),
                    FormatSimTime(c.event.time),
                    c.could_explain.has_value()
                        ? (*c.could_explain ? "YES" : "no")
                        : "unverified",
                    c.reasoning});
    }
    out += table.Render();
  }
  return out;
}

}  // namespace diads::diag
