// Batched, tail-truncated Gaussian KDE — the anomaly-scoring fast path.
//
// The naive Kde evaluates Cdf(u) as a full O(n) kernel sum per observation,
// so scoring m observations against an n-sample baseline costs O(n * m) erf
// evaluations. At fleet scale (many tenants, repeated diagnoses, baselines
// of thousands of monitoring samples) that sum is the dominant CPU cost of
// a diagnosis. SortedKde fits once into *sorted* samples and saves work
// three ways:
//
//   * a sample more than kTailSigmas bandwidths below u contributes a CDF
//     term indistinguishable from 1.0 at double precision, and one more
//     than kTailSigmas above contributes ~0 — so the kernel sum only has
//     to touch the samples inside a 2 * kTailSigmas * h window around u,
//     found with two binary searches (O(log n + window));
//
//   * for a batch of observations evaluated together, sorting the
//     observations makes those windows advance monotonically, so CdfBatch
//     sweeps two pointers across the sample array once instead of binary
//     searching per observation;
//
//   * monitoring baselines repeat themselves: an idle counter reads 0 run
//     after run, and consecutive runs often average the same samples. A
//     run of equal samples has one kernel term, computed once and still
//     added once per sample in ascending order; an observation equal to
//     the previous one in sorted order reuses its CDF. Both skip only
//     arithmetic whose result is already known, so no sum changes.
//
// Equivalence contract: |SortedKde::Cdf(x) - Kde::Cdf(x)| <= 1e-9 for any
// fit over the same samples and bandwidth (property-tested in
// stats_test.cc; the truncation error is <= a few ULPs, far below that
// bound), and CdfBatch(xs)[i] is bit-identical to Cdf(xs[i]). Within one
// binary every anomaly score produced through SortedKde is a pure
// deterministic function of (sorted samples, bandwidth), so a model
// refitted in place (Refit) scores exactly as a freshly fitted one.
#ifndef DIADS_STATS_SORTED_KDE_H_
#define DIADS_STATS_SORTED_KDE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stats/kde.h"

namespace diads::stats {

/// A one-dimensional Gaussian KDE over sorted samples with truncated-tail
/// batched evaluation. Scoring semantics match Kde (same kernel, same
/// bandwidth rules); only the evaluation strategy differs.
class SortedKde {
 public:
  /// Kernel terms are clamped to exactly 1.0 / 0.0 beyond this many
  /// bandwidths from the evaluation point. At 8 sigma the discarded mass
  /// per sample is ~6e-16 — at most a few ULPs of the final CDF.
  static constexpr double kTailSigmas = 8.0;

  /// A model with no samples, to be fitted by Refit before any other use.
  SortedKde() = default;

  /// Fits to `samples` (at least one required, none NaN); sorts them once
  /// and selects the bandwidth with `rule` (identical rule semantics to
  /// Kde::Fit, computed without the redundant per-percentile sort copies).
  static Result<SortedKde> Fit(const std::vector<double>& samples,
                               BandwidthRule rule = BandwidthRule::kSilverman);

  /// Fits with an explicit bandwidth (> 0).
  static Result<SortedKde> FitWithBandwidth(const std::vector<double>& samples,
                                            double bandwidth);

  /// Fit, into this model's own buffers: once they have grown to
  /// samples.size(), a refit allocates nothing. The model is then exactly
  /// the one Fit(samples, rule) returns. On an error (no samples) the
  /// model is left unusable until the next successful refit.
  Status Refit(const std::vector<double>& samples,
               BandwidthRule rule = BandwidthRule::kSilverman);

  /// Estimated P(S <= x): two binary searches plus the in-window kernel
  /// sum (ascending sample order).
  double Cdf(double x) const;

  /// Cdf for every element of `xs`, returned in input order. Sorts an
  /// index permutation of `xs` and advances the window with a two-pointer
  /// sweep; each result is bit-identical to the corresponding Cdf(x).
  std::vector<double> CdfBatch(const std::vector<double>& xs) const;

  /// CdfBatch into caller-owned buffers, which allocate nothing once they
  /// have grown to xs.size(): `cdf[i]` = Cdf(xs[i]), and `order` holds the
  /// indices of `xs` in ascending order of value (equal values in an
  /// unspecified order) — the sort the sweep needed anyway, left for a
  /// caller that ranks the observations too.
  void CdfBatch(const std::vector<double>& xs, std::vector<uint32_t>* order,
                std::vector<double>* cdf) const;

  /// Estimated density at x (tail-truncated like Cdf; terms beyond the
  /// window are < 1e-14 of the peak).
  double Pdf(double x) const;

  double bandwidth() const { return bandwidth_; }
  size_t sample_count() const { return samples_.size(); }
  /// The fitted samples in ascending order.
  const std::vector<double>& sorted_samples() const { return samples_; }
  /// Where each sorted sample came from: sorted_samples()[k] is element
  /// sample_order()[k] of the vector the model was fitted to (the fit's
  /// argsort, kept so a caller can rank the fitted values without
  /// sorting them again).
  const std::vector<uint32_t>& sample_order() const { return order_; }

 private:
  /// Sorts `samples` into order_ and samples_ (one sort of (value, index)
  /// pairs by value, through pairs_); the bandwidth is left to the caller.
  Status SortSamples(const std::vector<double>& samples);
  void SetBandwidth(double bandwidth);

  /// Kernel sum over [lo, hi) for evaluation point x, where lo/hi are the
  /// window bounds found for x; samples before lo each contribute an exact
  /// 1.0. Equal neighbours share one kernel term. Shared by Cdf and
  /// CdfBatch so both are bit-identical.
  double WindowSum(double x, size_t lo, size_t hi) const;

  std::vector<uint32_t> order_;  ///< Argsort of the fitted vector.
  std::vector<double> samples_;  ///< Ascending.
  /// The fit's sort buffer, kept so that a refit allocates nothing.
  std::vector<std::pair<double, uint32_t>> pairs_;
  double bandwidth_ = 0;
  double tail_ = 0;  ///< kTailSigmas * bandwidth_.
};

}  // namespace diads::stats

#endif  // DIADS_STATS_SORTED_KDE_H_
