#include "support/da_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "stats/descriptive.h"

namespace diads::testsupport {
namespace {

using monitor::Sample;

// --- Per-run means ----------------------------------------------------------

using SampleIt = std::vector<Sample>::const_iterator;

SampleIt FrozenLowerBoundTime(SampleIt first, SampleIt last, SimTimeMs t) {
  return std::lower_bound(
      first, last, t,
      [](const Sample& a, SimTimeMs tt) { return a.time < tt; });
}

Result<double> FrozenMeanIn(const std::vector<Sample>& series,
                            const TimeInterval& interval) {
  const SampleIt lo =
      FrozenLowerBoundTime(series.begin(), series.end(), interval.begin);
  const SampleIt tail = FrozenLowerBoundTime(
      interval.end < interval.begin ? series.begin() : lo, series.end(),
      interval.end);
  size_t count = 0;
  double sum = 0;
  for (SampleIt it = lo; it < tail; ++it) {
    sum += it->value;
    ++count;
  }
  if (tail != series.end()) {
    sum += tail->value;
    ++count;
  }
  if (count > 0) return sum / static_cast<double>(count);
  if (series.empty()) {
    return Status::NotFound("no sample at or before requested time");
  }
  return series.back().value;
}

std::vector<double> FrozenMetricPerRun(
    const monitor::TimeSeriesStore& store, ComponentId component,
    monitor::MetricId metric,
    const std::vector<const db::QueryRunRecord*>& runs, int* missing) {
  const std::vector<Sample>& series = store.Series(component, metric);
  std::vector<double> out;
  int missed = 0;
  for (const db::QueryRunRecord* run : runs) {
    Result<double> mean = FrozenMeanIn(series, run->interval);
    if (mean.ok()) {
      out.push_back(*mean);
    } else {
      ++missed;
    }
  }
  if (missing != nullptr) *missing = missed;
  return out;
}

// --- Anomaly score ----------------------------------------------------------

double FrozenCdf(const stats::SortedKde& model, double x) {
  const std::vector<double>& samples = model.sorted_samples();
  const double tail = stats::SortedKde::kTailSigmas * model.bandwidth();
  const auto lo = std::lower_bound(samples.begin(), samples.end(), x - tail);
  const auto hi = std::lower_bound(lo, samples.end(), x + tail);
  double sum = static_cast<double>(lo - samples.begin());
  for (auto it = lo; it != hi; ++it) {
    const double z = (x - *it) / model.bandwidth();
    sum += 0.5 * (1.0 + std::erf(z * 0.7071067811865476));
  }
  return sum / static_cast<double>(samples.size());
}

stats::AnomalyScore FrozenScoreWithModel(
    const stats::SortedKde& model, const std::vector<double>& observations,
    const stats::AnomalyConfig& config) {
  std::vector<double> per_obs;
  for (double x : observations) per_obs.push_back(FrozenCdf(model, x));
  stats::AnomalyScore out;
  out.observation_count = per_obs.size();
  switch (config.aggregation) {
    case stats::AnomalyAggregation::kMean:
      out.score = stats::Mean(per_obs);
      break;
    case stats::AnomalyAggregation::kMedian:
      out.score = stats::Median(per_obs);
      break;
    case stats::AnomalyAggregation::kMax:
      out.score = stats::Max(per_obs);
      break;
  }
  out.anomalous = out.score >= config.threshold;
  out.baseline_count = model.sample_count();
  return out;
}

// --- Rank correlation -------------------------------------------------------

std::vector<double> FrozenMidRanks(const std::vector<double>& xs) {
  const size_t n = xs.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double rank =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

double FrozenPearsonCorrelation(const std::vector<double>& xs,
                                const std::vector<double>& ys) {
  const size_t n = xs.size();
  if (n != ys.size() || n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

Result<diag::DaResult> OracleDependencyAnalysis(
    const diag::DiagnosisContext& ctx, const diag::WorkflowConfig& config,
    const diag::CoResult& co) {
  const std::vector<const db::QueryRunRecord*> good = ctx.SatisfactoryRuns();
  const std::vector<const db::QueryRunRecord*> bad = ctx.UnsatisfactoryRuns();
  if (good.size() < 2 || bad.empty()) {
    return Status::FailedPrecondition(
        "Module DA needs labelled runs on both sides");
  }

  std::map<ComponentId, std::set<int>> component_ops;
  for (int op_index : co.correlated_operator_set) {
    Result<std::vector<ComponentId>> inner = ctx.apg->InnerPath(op_index);
    DIADS_RETURN_IF_ERROR(inner.status());
    for (ComponentId c : *inner) component_ops[c].insert(op_index);
    Result<std::vector<ComponentId>> outer = ctx.apg->OuterPath(op_index);
    DIADS_RETURN_IF_ERROR(outer.status());
    for (ComponentId c : *outer) component_ops[c].insert(op_index);
  }

  std::vector<const db::QueryRunRecord*> all_runs = good;
  all_runs.insert(all_runs.end(), bad.begin(), bad.end());
  struct OpSpanRanks {
    size_t count = 0;
    std::vector<double> ranks;
  };
  std::map<int, OpSpanRanks> op_ranks;
  for (const auto& [component, ops] : component_ops) {
    (void)component;
    for (int op_index : ops) {
      if (op_ranks.count(op_index) != 0) continue;
      std::vector<double> spans;
      diag::OperatorSpans(all_runs, op_index, &spans);
      OpSpanRanks entry;
      entry.count = spans.size();
      entry.ranks = FrozenMidRanks(spans);
      op_ranks.emplace(op_index, std::move(entry));
    }
  }

  diag::DaResult out;
  for (const auto& [component_key, ops] : component_ops) {
    const ComponentId component = component_key;
    for (monitor::MetricId metric : ctx.store->MetricsFor(component)) {
      int missing_good = 0;
      const std::vector<double> baseline = FrozenMetricPerRun(
          *ctx.store, component, metric, good, &missing_good);
      int missing_bad = 0;
      const std::vector<double> observed =
          FrozenMetricPerRun(*ctx.store, component, metric, bad, &missing_bad);
      if (baseline.size() < 2 || observed.empty()) continue;
      Result<stats::SortedKde> model =
          stats::SortedKde::Fit(baseline, config.metric_anomaly.bandwidth_rule);
      DIADS_RETURN_IF_ERROR(model.status());

      const stats::AnomalyScore score =
          FrozenScoreWithModel(*model, observed, config.metric_anomaly);

      double best_corr = 0;
      if (missing_good == 0 && missing_bad == 0) {
        std::vector<double> metric_series = baseline;
        metric_series.insert(metric_series.end(), observed.begin(),
                             observed.end());
        const std::vector<double> metric_ranks = FrozenMidRanks(metric_series);
        for (int op_index : ops) {
          const OpSpanRanks& spans = op_ranks.at(op_index);
          if (spans.count != metric_series.size()) continue;
          const double corr =
              FrozenPearsonCorrelation(metric_ranks, spans.ranks);
          if (std::fabs(corr) > std::fabs(best_corr)) best_corr = corr;
        }
      }

      diag::MetricAnomaly m;
      m.component = component;
      m.metric = metric;
      m.anomaly_score = score.score;
      m.correlation = best_corr;
      m.correlated = score.anomalous &&
                     std::fabs(best_corr) >= config.correlation_threshold;
      out.metrics.push_back(m);
    }
  }

  std::set<ComponentId> ccs;
  for (const diag::MetricAnomaly& m : out.metrics) {
    if (m.correlated) ccs.insert(m.component);
  }
  out.correlated_component_set.assign(ccs.begin(), ccs.end());
  return out;
}

}  // namespace diads::testsupport
