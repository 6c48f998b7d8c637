// Correlation measures.
//
// Module DA prunes an operator's dependency path by checking whether a
// component's performance metric is "significantly correlated with O's
// running time" (Section 4.1). Pearson captures linear co-movement; Spearman
// (rank) is robust to the latency nonlinearities a queueing system produces.
#ifndef DIADS_STATS_CORRELATION_H_
#define DIADS_STATS_CORRELATION_H_

#include <cstdint>
#include <vector>

namespace diads::stats {

/// Pearson linear correlation of two equal-length series. Returns 0 when
/// either series is constant or the lengths differ / are < 2.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

/// Spearman rank correlation (Pearson over midranks). Same degenerate-case
/// conventions as PearsonCorrelation.
double SpearmanCorrelation(const std::vector<double>& xs,
                           const std::vector<double>& ys);

/// Midranks of `xs` (ties averaged), 1-based as in classical statistics.
std::vector<double> MidRanks(const std::vector<double>& xs);

/// Doubled, centred midranks: 2 * MidRanks(xs)[i] - (n + 1). A tie group
/// over sorted positions [p, q] (0-based) gets p + q + 1 - n, so every
/// entry is an exact integer in [-(n - 1), n - 1] and they sum to 0.
std::vector<int32_t> CentredRanks(const std::vector<double>& xs);

/// Pearson correlation over midranks from the doubled, centred ranks a and
/// b of two series of the same length n: `dot` = sum a_i b_i, `sum_sq_a` =
/// sum a_i^2, `sum_sq_b` = sum b_i^2, all exact in int64. 0 when either
/// side is constant (all tied). For n <= 2^17 this equals
/// PearsonCorrelation(MidRanks(x), MidRanks(y)) bit for bit: over
/// midranks that two-pass double computation is exact at every step (the
/// mean is (n + 1) / 2, each deviation a multiple of 1/2, each product of
/// 1/4, every partial sum below 2^53 / 4), so its three sums are exactly
/// dot / 4, sum_sq_a / 4 and sum_sq_b / 4, and the final expression is
/// the same.
double CentredRankCorrelation(int64_t dot, int64_t sum_sq_a,
                              int64_t sum_sq_b);

}  // namespace diads::stats

#endif  // DIADS_STATS_CORRELATION_H_
