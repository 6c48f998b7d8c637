#include "apg/browser.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/strings.h"
#include "common/table_printer.h"
#include "monitor/metrics.h"

namespace diads::apg {

ApgBrowser::ApgBrowser(const Apg* apg, const monitor::TimeSeriesStore* store,
                       const db::RunCatalog* runs)
    : apg_(apg), store_(store), runs_(runs) {
  assert(apg_ && store_ && runs_);
}

std::string ApgBrowser::RenderQuerySelectionScreen(
    const std::string& query) const {
  TablePrinter table({"Run", "Query", "Plan", "Start time", "End time",
                      "Duration", "Unsatisfactory"});
  for (const db::QueryRunRecord& run : runs_->runs()) {
    if (run.query_name != query) continue;
    const db::RunLabel label = runs_->LabelOf(run.run_id);
    table.AddRow({
        StrFormat("#%d", run.run_id),
        run.query_name,
        StrFormat("P%016llx",
                  static_cast<unsigned long long>(run.plan_fingerprint)),
        FormatSimTime(run.interval.begin),
        FormatSimTime(run.interval.end),
        FormatDuration(run.duration_ms()),
        label == db::RunLabel::kUnsatisfactory
            ? "[x]"
            : (label == db::RunLabel::kSatisfactory ? "[ ]" : "[?]"),
    });
  }
  return "=== Query selection (Figure 3) ===\n" + table.Render();
}

Result<std::string> ApgBrowser::RenderTreePath(int op_index) const {
  const db::Plan& plan = apg_->plan();
  if (op_index < 0 || op_index >= static_cast<int>(plan.size())) {
    return Status::OutOfRange("op index out of range");
  }
  // Root -> ... -> op -> volume chain -> disks.
  std::vector<int> chain = plan.AncestorsOf(op_index);
  std::reverse(chain.begin(), chain.end());
  chain.push_back(op_index);

  std::string out = "=== APG tree path (Figure 6, left panel) ===\n";
  int depth = 0;
  for (int index : chain) {
    const db::PlanOp& op = plan.op(index);
    out += StrFormat("%*sO%d %s%s\n", depth * 2, "", op.op_number,
                     db::OpTypeName(op.type),
                     op.is_scan() ? (" on " + op.table).c_str() : "");
    ++depth;
  }
  Result<std::vector<ComponentId>> inner = apg_->InnerPath(op_index);
  DIADS_RETURN_IF_ERROR(inner.status());
  const ComponentRegistry& registry = apg_->topology().registry();
  for (ComponentId c : *inner) {
    if (registry.KindOf(c) == ComponentKind::kDatabase) continue;
    out += StrFormat("%*s%s %s\n", depth * 2, "",
                     ComponentKindName(registry.KindOf(c)),
                     registry.NameOf(c).c_str());
    ++depth;
  }
  return out;
}

bool ApgBrowser::SampleUnsatisfactory(SimTimeMs t,
                                      const std::string& query) const {
  for (const db::QueryRunRecord& run : runs_->runs()) {
    if (run.query_name != query) continue;
    if (runs_->LabelOf(run.run_id) != db::RunLabel::kUnsatisfactory) continue;
    if (run.interval.Contains(t)) return true;
  }
  return false;
}

std::string ApgBrowser::RenderMetricTable(ComponentId component,
                                          const TimeInterval& window,
                                          const std::string& query) const {
  const ComponentRegistry& registry = apg_->topology().registry();
  std::vector<monitor::MetricId> metrics = store_->MetricsFor(component);

  // Collect the sample grid (all metrics share the collector's timestamps).
  std::set<SimTimeMs> times;
  for (monitor::MetricId m : metrics) {
    for (const monitor::Sample& s : store_->SliceView(component, m, window)) {
      times.insert(s.time);
    }
  }

  std::vector<std::string> headers{"Time"};
  for (monitor::MetricId m : metrics) {
    headers.push_back(monitor::MetricShortName(m));
  }
  headers.push_back("Unsatisfactory");
  TablePrinter table(headers);
  for (SimTimeMs t : times) {
    std::vector<std::string> row{FormatSimTime(t)};
    for (monitor::MetricId m : metrics) {
      Result<monitor::Sample> sample = store_->LatestAtOrBefore(component, m, t);
      row.push_back(sample.ok() && sample->time == t
                        ? FormatDouble(sample->value, 2)
                        : "-");
    }
    row.push_back(SampleUnsatisfactory(t, query) ? "[x]" : "[ ]");
    table.AddRow(std::move(row));
  }
  return StrFormat("=== Metrics for %s '%s' %s (Figure 6, right panel) ===\n",
                   ComponentKindName(registry.KindOf(component)),
                   registry.NameOf(component).c_str(),
                   window.ToString().c_str()) +
         table.Render();
}

}  // namespace diads::apg
