#include "stats/sorted_kde.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "stats/descriptive.h"

namespace diads::stats {
namespace {

constexpr double kInvSqrt2Pi = 0.3989422804014327;
constexpr double kInvSqrt2 = 0.7071067811865476;

/// SelectBandwidth over sorted samples: same rules, but the IQR comes from
/// the sorted array directly instead of two sort-a-copy Percentile calls,
/// and the bandwidth floor's magnitude scan is just the two endpoints.
double SelectBandwidthSorted(const std::vector<double>& sorted,
                             BandwidthRule rule) {
  const double n = static_cast<double>(sorted.size());
  const double sigma = StdDev(sorted);
  double h = 0;
  switch (rule) {
    case BandwidthRule::kSilverman: {
      const double iqr =
          PercentileOfSorted(sorted, 75) - PercentileOfSorted(sorted, 25);
      double spread = sigma;
      if (iqr > 0) spread = std::min(spread > 0 ? spread : iqr, iqr / 1.34);
      h = 0.9 * spread * std::pow(n, -0.2);
      break;
    }
    case BandwidthRule::kScott:
      h = 1.06 * sigma * std::pow(n, -0.2);
      break;
  }
  const double scale = std::max(std::fabs(sorted.front()),
                                std::fabs(sorted.back()));
  return std::max(h, std::max(1e-9, scale * 1e-6));
}

}  // namespace

Status SortedKde::SortSamples(const std::vector<double>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("KDE requires at least one sample");
  }
  // The argsort and the samples in that order from one sort of (value,
  // index) pairs by value: the comparisons read the values in place
  // instead of through the permutation. Equal values end up in an
  // unspecified order.
  using Entry = std::pair<double, uint32_t>;
  pairs_.resize(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    pairs_[i] = {samples[i], static_cast<uint32_t>(i)};
  }
  std::sort(pairs_.begin(), pairs_.end(), [](const Entry& a, const Entry& b) {
    return a.first < b.first;
  });
  order_.resize(pairs_.size());
  samples_.resize(pairs_.size());
  for (size_t k = 0; k < pairs_.size(); ++k) {
    samples_[k] = pairs_[k].first;
    order_[k] = pairs_[k].second;
  }
  return Status::Ok();
}

void SortedKde::SetBandwidth(double bandwidth) {
  bandwidth_ = bandwidth;
  tail_ = kTailSigmas * bandwidth;
}

Status SortedKde::Refit(const std::vector<double>& samples,
                        BandwidthRule rule) {
  DIADS_RETURN_IF_ERROR(SortSamples(samples));
  SetBandwidth(SelectBandwidthSorted(samples_, rule));
  return Status::Ok();
}

Result<SortedKde> SortedKde::Fit(const std::vector<double>& samples,
                                 BandwidthRule rule) {
  SortedKde model;
  DIADS_RETURN_IF_ERROR(model.Refit(samples, rule));
  return model;
}

Result<SortedKde> SortedKde::FitWithBandwidth(
    const std::vector<double>& samples, double bandwidth) {
  SortedKde model;
  DIADS_RETURN_IF_ERROR(model.SortSamples(samples));
  if (bandwidth <= 0) {
    return Status::InvalidArgument("KDE bandwidth must be positive");
  }
  model.SetBandwidth(bandwidth);
  return model;
}

double SortedKde::WindowSum(double x, size_t lo, size_t hi) const {
  // Samples below the window sit more than kTailSigmas bandwidths under x;
  // each contributes exactly 1.0 (the erf term rounds to 1 at double
  // precision), so the prefix collapses to its count. Samples above the
  // window contribute ~0 and are skipped. A sample equal to its
  // predecessor has the predecessor's term (+0.0 and -0.0 included: x - 0
  // and x + 0 differ at most in the sign of a zero, which erf keeps and
  // 1.0 + z drops), so a run of equal samples evaluates erf once and
  // still adds the term once per sample.
  double sum = static_cast<double>(lo);
  double term = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (i == lo || samples_[i] != samples_[i - 1]) {
      const double z = (x - samples_[i]) / bandwidth_;
      term = 0.5 * (1.0 + std::erf(z * kInvSqrt2));
    }
    sum += term;
  }
  return sum;
}

double SortedKde::Cdf(double x) const {
  const auto lo = std::lower_bound(samples_.begin(), samples_.end(), x - tail_);
  const auto hi = std::lower_bound(lo, samples_.end(), x + tail_);
  const double sum = WindowSum(x, static_cast<size_t>(lo - samples_.begin()),
                               static_cast<size_t>(hi - samples_.begin()));
  return sum / static_cast<double>(samples_.size());
}

std::vector<double> SortedKde::CdfBatch(const std::vector<double>& xs) const {
  std::vector<uint32_t> order;
  std::vector<double> out;
  CdfBatch(xs, &order, &out);
  return out;
}

void SortedKde::CdfBatch(const std::vector<double>& xs,
                         std::vector<uint32_t>* order,
                         std::vector<double>* cdf) const {
  std::vector<uint32_t>& by_value = *order;
  std::vector<double>& out = *cdf;
  by_value.resize(xs.size());
  out.resize(xs.size());
  // Visit observations in ascending order so the truncation window only
  // ever moves forward: one two-pointer sweep across the samples instead
  // of a binary search per observation.
  std::iota(by_value.begin(), by_value.end(), 0u);
  std::sort(by_value.begin(), by_value.end(),
            [&xs](uint32_t a, uint32_t b) { return xs[a] < xs[b]; });
  const double n = static_cast<double>(samples_.size());
  size_t lo = 0;
  size_t hi = 0;
  for (size_t k = 0; k < by_value.size(); ++k) {
    const double x = xs[by_value[k]];
    if (k > 0 && x == xs[by_value[k - 1]]) {
      // Same point, same window, same sum: Cdf(+0.0) == Cdf(-0.0) too,
      // for the reason WindowSum gives.
      out[by_value[k]] = out[by_value[k - 1]];
      continue;
    }
    while (lo < samples_.size() && samples_[lo] < x - tail_) ++lo;
    if (hi < lo) hi = lo;
    while (hi < samples_.size() && samples_[hi] < x + tail_) ++hi;
    out[by_value[k]] = WindowSum(x, lo, hi) / n;
  }
}

double SortedKde::Pdf(double x) const {
  const auto lo = std::lower_bound(samples_.begin(), samples_.end(), x - tail_);
  const auto hi = std::lower_bound(lo, samples_.end(), x + tail_);
  double sum = 0;
  for (auto it = lo; it != hi; ++it) {
    const double z = (x - *it) / bandwidth_;
    sum += std::exp(-0.5 * z * z);
  }
  return sum * kInvSqrt2Pi /
         (bandwidth_ * static_cast<double>(samples_.size()));
}

}  // namespace diads::stats
