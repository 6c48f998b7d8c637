#include "diads/dependency_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/strings.h"
#include "common/table_printer.h"
#include "diads/model_cache.h"
#include "stats/correlation.h"

namespace diads::diag {
namespace {

/// One COS operator's running time over every labelled run, ranked once
/// per diagnosis and correlated with each metric on its paths.
struct OpSpanRanks {
  size_t count = 0;            ///< Runs the operator appeared in.
  std::vector<int32_t> ranks;  ///< stats::CentredRanks of the spans.
  int64_t sum_sq = 0;          ///< Sum of ranks[i]^2.
};

/// The metric loop's buffers, reused for every metric of a diagnosis:
/// once they have grown to the run count, scoring a metric allocates
/// nothing.
struct MetricScratch {
  std::vector<double> observed;  ///< Per-unsatisfactory-run means.
  stats::ScoreScratch score;     ///< CDFs and the observations' order.
  std::vector<int32_t> ranks;    ///< The metric's centred ranks, all runs.
};

/// stats::CentredRanks of baseline-then-observations without sorting
/// either side again: the baseline's ascending values and argsort come
/// with its fitted model, the observations' ascending order from the
/// scoring sweep, and one merge of the two visits the tie groups in
/// order. Writes `ranks` (the baseline's positions, then the
/// observations') and returns the sum of their squares.
int64_t MergeCentredRanks(const stats::SortedKde& model,
                          const std::vector<double>& observed,
                          const std::vector<uint32_t>& observed_order,
                          std::vector<int32_t>* ranks) {
  const std::vector<double>& base = model.sorted_samples();
  const std::vector<uint32_t>& base_at = model.sample_order();
  const size_t g = base.size();
  const size_t b = observed.size();
  const int64_t n = static_cast<int64_t>(g + b);
  ranks->resize(g + b);
  int64_t sum_sq = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < g || j < b) {
    // The group starts at the smaller head and takes every element equal
    // to it from both sides. The head itself always goes in, so the merge
    // advances even on a value equal to nothing.
    const bool from_base =
        j == b || (i < g && !(observed[observed_order[j]] < base[i]));
    const double value = from_base ? base[i] : observed[observed_order[j]];
    size_t i_end = from_base ? i + 1 : i;
    size_t j_end = from_base ? j : j + 1;
    while (i_end < g && base[i_end] == value) ++i_end;
    while (j_end < b && observed[observed_order[j_end]] == value) ++j_end;
    // Sorted positions [p, q] = [i + j, i_end + j_end - 1] rank p + q + 1 - n.
    const int64_t rank = static_cast<int64_t>(i + j + i_end + j_end) - n;
    sum_sq += rank * rank * static_cast<int64_t>(i_end + j_end - i - j);
    for (; i < i_end; ++i) (*ranks)[base_at[i]] = static_cast<int32_t>(rank);
    for (; j < j_end; ++j) {
      (*ranks)[g + observed_order[j]] = static_cast<int32_t>(rank);
    }
  }
  return sum_sq;
}

}  // namespace

Result<DaResult> RunDependencyAnalysis(const DiagnosisContext& ctx,
                                       const WorkflowConfig& config,
                                       const CoResult& co) {
  const std::vector<const db::QueryRunRecord*> good = ctx.SatisfactoryRuns();
  const std::vector<const db::QueryRunRecord*> bad = ctx.UnsatisfactoryRuns();
  if (good.size() < 2 || bad.empty()) {
    return Status::FailedPrecondition(
        "Module DA needs labelled runs on both sides");
  }

  // Correlation inputs shared across every (component, metric) pair: each
  // COS operator's per-run spans over the labelled runs in
  // baseline-then-observation order, ranked once (Spearman is Pearson
  // over midranks, so ranking each side once replaces a re-rank per
  // (metric, operator) pair). Ascending operator index.
  std::vector<const db::QueryRunRecord*> all_runs = good;
  all_runs.insert(all_runs.end(), bad.begin(), bad.end());
  std::vector<int> cos = co.correlated_operator_set;
  std::sort(cos.begin(), cos.end());
  cos.erase(std::unique(cos.begin(), cos.end()), cos.end());
  std::vector<OpSpanRanks> op_ranks(cos.size());
  for (size_t slot = 0; slot < cos.size(); ++slot) {
    const std::vector<double> spans = OperatorSpans(all_runs, cos[slot]);
    OpSpanRanks& entry = op_ranks[slot];
    entry.count = spans.size();
    entry.ranks = stats::CentredRanks(spans);
    for (int32_t r : entry.ranks) entry.sum_sq += int64_t{r} * r;
  }

  // The candidate components: the union of the COS operators' dependency
  // paths (inner and outer), as one sorted (component, operator slot)
  // table, so each component's dependent operators are a run of rows in
  // ascending operator order.
  std::vector<std::pair<ComponentId, size_t>> component_ops;
  for (size_t slot = 0; slot < cos.size(); ++slot) {
    Result<std::vector<ComponentId>> inner = ctx.apg->InnerPath(cos[slot]);
    DIADS_RETURN_IF_ERROR(inner.status());
    for (ComponentId c : *inner) component_ops.emplace_back(c, slot);
    Result<std::vector<ComponentId>> outer = ctx.apg->OuterPath(cos[slot]);
    DIADS_RETURN_IF_ERROR(outer.status());
    for (ComponentId c : *outer) component_ops.emplace_back(c, slot);
  }
  std::sort(component_ops.begin(), component_ops.end());
  component_ops.erase(std::unique(component_ops.begin(), component_ops.end()),
                      component_ops.end());

  // The model cache keys metric-series baselines on the *authoritative*
  // store: when the engine diagnoses over a per-request collected
  // snapshot, ctx.store is ephemeral but the tenant's live store
  // identifies the series. The generation comes from ctx.store: a
  // snapshot shares the source's buffer and records its generation at
  // the fetch, so a baseline is stamped with the generation of the data
  // it was extracted from, and a diagnosis over a snapshot never reads
  // the live store.
  const monitor::TimeSeriesStore* authority = ctx.Authority();
  const TimeInterval window = ctx.AnalysisWindow();
  const uint64_t config_fp = AnomalyConfigFingerprint(config.metric_anomaly);
  const uint64_t provenance = RunSetFingerprint(good);

  DaResult out;
  size_t metric_count = 0;
  for (size_t row = 0; row < component_ops.size(); ++row) {
    if (row == 0 || component_ops[row].first != component_ops[row - 1].first) {
      metric_count += ctx.store->MetricsFor(component_ops[row].first).size();
    }
  }
  out.metrics.reserve(metric_count);
  MetricScratch scratch;
  scratch.observed.reserve(bad.size());
  scratch.score.order.reserve(bad.size());
  scratch.score.cdf.reserve(bad.size());
  scratch.ranks.reserve(all_runs.size());

  for (size_t first = 0; first < component_ops.size();) {
    const ComponentId component = component_ops[first].first;
    size_t last = first;
    while (last < component_ops.size() &&
           component_ops[last].first == component) {
      ++last;
    }
    // Score every metric the store has for this component.
    for (monitor::MetricId metric : ctx.store->MetricsFor(component)) {
      const std::vector<monitor::Sample>& series =
          ctx.store->Series(component, metric);
      BaselineModelKey key;
      key.source = authority;
      key.series = SeriesIdOfMetric(component, metric);
      key.window_begin = window.begin;
      key.window_end = window.end;
      key.config_fingerprint = config_fp;
      key.provenance_fingerprint = provenance;
      Result<CachedBaseline> base = GetOrFitBaseline(
          ctx.model_cache, key, ctx.store->Generation(component, metric),
          config.metric_anomaly.bandwidth_rule,
          [&series, &good] {
            ExtractedBaseline e;
            e.values.reserve(good.size());
            e.missing = MetricPerRun(series, good, &e.values);
            return e;
          },
          ctx.model_lookups);
      DIADS_RETURN_IF_ERROR(base.status());
      const int missing_good = base->missing;
      const int missing_bad = MetricPerRun(series, bad, &scratch.observed);
      if (base->model == nullptr || scratch.observed.empty()) continue;

      Result<stats::AnomalyScore> score = stats::ScoreWithModel(
          *base->model, scratch.observed, config.metric_anomaly,
          &scratch.score);
      DIADS_RETURN_IF_ERROR(score.status());

      // Correlation of the metric with the running time of the dependent
      // COS operators across *all* labelled runs (property (ii)). With no
      // per-run extraction gaps the metric's all-run series is exactly
      // baseline-then-observations (all_runs is good-then-bad and
      // MetricPerRun is per-run), so it is ranked by merging the two
      // sides' sorted orders, and each operator costs one integer dot
      // product. A constant side correlates 0 with anything.
      double best_corr = 0;
      if (missing_good == 0 && missing_bad == 0) {
        const size_t n = base->values->size() + scratch.observed.size();
        int64_t sum_sq = -1;  // Ranked on the first operator that needs it.
        for (size_t row = first; row < last; ++row) {
          const OpSpanRanks& spans = op_ranks[component_ops[row].second];
          if (spans.count != n || spans.sum_sq == 0) continue;
          if (sum_sq < 0) {
            sum_sq = MergeCentredRanks(*base->model, scratch.observed,
                                       scratch.score.order, &scratch.ranks);
            if (sum_sq == 0) break;
          }
          int64_t dot = 0;
          for (size_t k = 0; k < n; ++k) {
            dot += int64_t{scratch.ranks[k]} * spans.ranks[k];
          }
          const double corr =
              stats::CentredRankCorrelation(dot, sum_sq, spans.sum_sq);
          if (std::fabs(corr) > std::fabs(best_corr)) best_corr = corr;
        }
      }

      MetricAnomaly m;
      m.component = component;
      m.metric = metric;
      m.anomaly_score = score->score;
      m.correlation = best_corr;
      m.correlated = score->anomalous &&
                     std::fabs(best_corr) >= config.correlation_threshold;
      out.metrics.push_back(m);
    }
    first = last;
  }

  // CCS: components with at least one correlated metric. The metrics are
  // grouped by ascending component, so this is already sorted and unique.
  for (const MetricAnomaly& m : out.metrics) {
    if (m.correlated && (out.correlated_component_set.empty() ||
                         out.correlated_component_set.back() != m.component)) {
      out.correlated_component_set.push_back(m.component);
    }
  }
  return out;
}

std::string RenderDaResult(const DiagnosisContext& ctx, const DaResult& da) {
  const ComponentRegistry& registry = ctx.topology->registry();
  TablePrinter table(
      {"Component", "Metric", "Anomaly score", "Correlation", "In CCS"});
  std::vector<MetricAnomaly> sorted = da.metrics;
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricAnomaly& a, const MetricAnomaly& b) {
              return a.anomaly_score > b.anomaly_score;
            });
  size_t shown = 0;
  for (const MetricAnomaly& m : sorted) {
    if (shown++ >= 24) break;  // Panel stays readable; full data in DaResult.
    table.AddRow({registry.NameOf(m.component),
                  monitor::MetricShortName(m.metric),
                  FormatDouble(m.anomaly_score, 3),
                  FormatDouble(m.correlation, 2), m.correlated ? "yes" : ""});
  }
  std::vector<std::string> ccs_names;
  for (ComponentId c : da.correlated_component_set) {
    ccs_names.push_back(registry.NameOf(c));
  }
  return StrFormat("=== Module DA: dependency analysis (CCS = {%s}) ===\n",
                   Join(ccs_names, ", ").c_str()) +
         table.Render();
}

}  // namespace diads::diag
