// Anomaly scoring — the statistical heart of Modules CO, DA, and CR.
//
// Given baseline samples (values observed during satisfactory runs) and
// observations (values from unsatisfactory runs), the anomaly score is the
// KDE-estimated prob(S <= u) aggregated across observations. The paper uses
// a threshold of 0.8 in its evaluation (Section 5).
#ifndef DIADS_STATS_ANOMALY_H_
#define DIADS_STATS_ANOMALY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "stats/kde.h"
#include "stats/sorted_kde.h"

namespace diads::stats {

/// How per-observation scores are combined into one anomaly score.
enum class AnomalyAggregation {
  /// Mean of per-observation prob(S <= u). Default; matches the robustness
  /// the paper reports under noisy observations.
  kMean,
  /// Median of per-observation scores; even more outlier-resistant.
  kMedian,
  /// Max of per-observation scores; most sensitive.
  kMax,
};

/// Anomaly-scorer configuration.
struct AnomalyConfig {
  BandwidthRule bandwidth_rule = BandwidthRule::kSilverman;
  AnomalyAggregation aggregation = AnomalyAggregation::kMean;
  /// Scores >= threshold are "anomalous". 0.8 per Section 5.
  double threshold = 0.8;
};

/// Result of scoring one series.
struct AnomalyScore {
  double score = 0.0;           ///< Aggregated prob(S <= u), in [0, 1].
  bool anomalous = false;       ///< score >= config.threshold.
  size_t baseline_count = 0;    ///< Samples the KDE was fit on.
  size_t observation_count = 0; ///< Unsatisfactory observations scored.
};

/// Scores `observations` against the KDE of `baseline`. Errors if either
/// input is empty.
Result<AnomalyScore> ScoreAnomaly(const std::vector<double>& baseline,
                                  const std::vector<double>& observations,
                                  const AnomalyConfig& config = {});

/// Two-sided variant: max(prob(S <= u), 1 - prob(S <= u)) scaled back to
/// [0,1] via 2*|p-0.5|. Used by Module CR where a record-count change in
/// either direction signals changed data properties.
Result<AnomalyScore> ScoreDeviation(const std::vector<double>& baseline,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config = {});

/// Scores against an already-fitted model — the fast path used with the
/// baseline-model cache: a fit amortized over many diagnoses produces the
/// same AnomalyScore, bit for bit, as refitting from the same baseline
/// (SortedKde::Fit is deterministic and evaluation is a pure function of
/// the fitted state). ScoreAnomaly/ScoreDeviation above are exactly
/// Fit + ScoreWithModel/ScoreDeviationWithModel.
Result<AnomalyScore> ScoreWithModel(const SortedKde& model,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config = {});

/// Two-sided model-based variant (Module CR).
Result<AnomalyScore> ScoreDeviationWithModel(
    const SortedKde& model, const std::vector<double>& observations,
    const AnomalyConfig& config = {});

/// Buffers for scoring many series in a loop without allocating: once
/// they have grown to the largest observation count, ScoreWithModel
/// through them allocates nothing.
struct ScoreScratch {
  /// After scoring: the observations' indices in ascending order of value
  /// (SortedKde::CdfBatch's order).
  std::vector<uint32_t> order;
  /// Per-observation prob(S <= u); aggregation may reorder it.
  std::vector<double> cdf;
};

/// ScoreWithModel through reused buffers; the same AnomalyScore, bit for
/// bit.
Result<AnomalyScore> ScoreWithModel(const SortedKde& model,
                                    const std::vector<double>& observations,
                                    const AnomalyConfig& config,
                                    ScoreScratch* scratch);

}  // namespace diads::stats

#endif  // DIADS_STATS_ANOMALY_H_
