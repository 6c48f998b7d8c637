#include "stats/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace diads::stats {

double PearsonCorrelation(const std::vector<double>& xs,
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

std::vector<double> MidRanks(const std::vector<double>& xs) {
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
    // Average 1-based rank over the tie group [i, j].
    const double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

std::vector<int32_t> CentredRanks(const std::vector<double>& xs) {
  const std::vector<double> mid = MidRanks(xs);
  const double shift = static_cast<double>(xs.size()) + 1.0;
  std::vector<int32_t> ranks(mid.size(), 0);
  for (size_t i = 0; i < mid.size(); ++i) {
    ranks[i] = static_cast<int32_t>(2.0 * mid[i] - shift);  // Exact.
  }
  return ranks;
}

double CentredRankCorrelation(int64_t dot, int64_t sum_sq_a,
                              int64_t sum_sq_b) {
  const double sxy = static_cast<double>(dot) * 0.25;
  const double sxx = static_cast<double>(sum_sq_a) * 0.25;
  const double syy = static_cast<double>(sum_sq_b) * 0.25;
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double SpearmanCorrelation(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  return PearsonCorrelation(MidRanks(xs), MidRanks(ys));
}

}  // namespace diads::stats
