#include "stats/anomaly.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace diads::stats {
namespace {

// Aggregates in place: kMean/kMax read the scores as they are and kMedian
// sorts them where they lie (Median's own sort-a-copy, without the copy).
double Aggregate(std::vector<double>& scores, AnomalyAggregation how) {
  switch (how) {
    case AnomalyAggregation::kMean:
      return Mean(scores);
    case AnomalyAggregation::kMedian:
      if (scores.empty()) return 0.0;
      std::sort(scores.begin(), scores.end());
      return PercentileOfSorted(scores, 50);
    case AnomalyAggregation::kMax:
      return Max(scores);
  }
  return 0.0;
}

Result<AnomalyScore> ScoreModelImpl(const SortedKde& model,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config,
                                    bool two_sided, ScoreScratch* scratch) {
  if (observations.empty()) {
    return Status::InvalidArgument("anomaly scoring requires observations");
  }
  std::vector<double>& per_obs = scratch->cdf;
  model.CdfBatch(observations, &scratch->order, &per_obs);
  if (two_sided) {
    for (double& p : per_obs) p = 2.0 * std::fabs(p - 0.5);
  }
  AnomalyScore out;
  out.observation_count = per_obs.size();
  out.score = Aggregate(per_obs, config.aggregation);
  out.anomalous = out.score >= config.threshold;
  out.baseline_count = model.sample_count();
  return out;
}

Result<AnomalyScore> ScoreModelImpl(const SortedKde& model,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config,
                                    bool two_sided) {
  ScoreScratch scratch;
  return ScoreModelImpl(model, observations, config, two_sided, &scratch);
}

Result<AnomalyScore> ScoreImpl(const std::vector<double>& baseline,
                               const std::vector<double>& observations,
                               const AnomalyConfig& config, bool two_sided) {
  if (baseline.empty()) {
    return Status::InvalidArgument("anomaly scoring requires baseline samples");
  }
  Result<SortedKde> model = SortedKde::Fit(baseline, config.bandwidth_rule);
  DIADS_RETURN_IF_ERROR(model.status());
  return ScoreModelImpl(*model, observations, config, two_sided);
}

}  // namespace

Result<AnomalyScore> ScoreAnomaly(const std::vector<double>& baseline,
                                  const std::vector<double>& observations,
                                  const AnomalyConfig& config) {
  return ScoreImpl(baseline, observations, config, /*two_sided=*/false);
}

Result<AnomalyScore> ScoreDeviation(const std::vector<double>& baseline,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config) {
  return ScoreImpl(baseline, observations, config, /*two_sided=*/true);
}

Result<AnomalyScore> ScoreWithModel(const SortedKde& model,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config) {
  return ScoreModelImpl(model, observations, config, /*two_sided=*/false);
}

Result<AnomalyScore> ScoreDeviationWithModel(
    const SortedKde& model, const std::vector<double>& observations,
    const AnomalyConfig& config) {
  return ScoreModelImpl(model, observations, config, /*two_sided=*/true);
}

Result<AnomalyScore> ScoreWithModel(const SortedKde& model,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config,
                                    ScoreScratch* scratch) {
  return ScoreModelImpl(model, observations, config, /*two_sided=*/false,
                        scratch);
}

}  // namespace diads::stats
