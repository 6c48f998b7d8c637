// Unit and property tests for the stats module: descriptive statistics,
// ECDF, KDE (against analytic ground truth), correlations, anomaly scoring,
// and the naive-Bayes foil.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "stats/anomaly.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "stats/kde.h"
#include "stats/naive_bayes.h"
#include "stats/sorted_kde.h"

namespace diads::stats {
namespace {

// --- Descriptive -------------------------------------------------------------

TEST(DescriptiveTest, BasicMoments) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(Min(xs), 2);
  EXPECT_DOUBLE_EQ(Max(xs), 9);
}

TEST(DescriptiveTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0);
  EXPECT_DOUBLE_EQ(Variance({}), 0);
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0);
  EXPECT_DOUBLE_EQ(Median({}), 0);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
}

TEST(DescriptiveTest, MedianAndPercentiles) {
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4, 5}), 3);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 20);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(Iqr(xs), 20);
}

TEST(DescriptiveTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 75), 7.5);
}

// --- ECDF ----------------------------------------------------------------------

TEST(EcdfTest, StepFunction) {
  Result<Ecdf> ecdf = Ecdf::Fit({1, 2, 3, 4});
  ASSERT_TRUE(ecdf.ok());
  EXPECT_DOUBLE_EQ(ecdf->Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf->Cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf->Cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf->Cdf(100), 1.0);
}

TEST(EcdfTest, QuantileInverse) {
  Result<Ecdf> ecdf = Ecdf::Fit({10, 20, 30, 40, 50});
  ASSERT_TRUE(ecdf.ok());
  EXPECT_DOUBLE_EQ(ecdf->Quantile(0), 10);
  EXPECT_DOUBLE_EQ(ecdf->Quantile(1), 50);
  EXPECT_DOUBLE_EQ(ecdf->Quantile(0.5), 30);
}

TEST(EcdfTest, RequiresSamples) {
  EXPECT_FALSE(Ecdf::Fit({}).ok());
}

// --- KDE -------------------------------------------------------------------------

TEST(KdeTest, RequiresSamples) {
  EXPECT_FALSE(Kde::Fit({}).ok());
  EXPECT_FALSE(Kde::FitWithBandwidth({1.0}, 0.0).ok());
  EXPECT_FALSE(Kde::FitWithBandwidth({1.0}, -1.0).ok());
}

TEST(KdeTest, PdfIntegratesToOne) {
  SeededRng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) samples.push_back(rng.Normal(10, 2));
  Result<Kde> kde = Kde::Fit(samples);
  ASSERT_TRUE(kde.ok());
  // Trapezoid integration over a wide window.
  double integral = 0;
  const double lo = 0, hi = 20, step = 0.01;
  for (double x = lo; x < hi; x += step) {
    integral += kde->Pdf(x) * step;
  }
  EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(KdeTest, CdfMonotoneAndBounded) {
  Result<Kde> kde = Kde::Fit({1, 5, 9, 12});
  ASSERT_TRUE(kde.ok());
  double prev = -1;
  for (double x = -10; x <= 25; x += 0.5) {
    const double c = kde->Cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_LT(kde->Cdf(-10), 0.01);
  EXPECT_GT(kde->Cdf(25), 0.99);
}

TEST(KdeTest, CdfMatchesNormalGroundTruth) {
  SeededRng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.Normal(0, 1));
  Result<Kde> kde = Kde::Fit(samples);
  ASSERT_TRUE(kde.ok());
  // At large n the KDE CDF approaches the true normal CDF.
  for (double x : {-1.5, -0.5, 0.0, 0.5, 1.5}) {
    const double truth = 0.5 * (1 + std::erf(x / std::sqrt(2.0)));
    EXPECT_NEAR(kde->Cdf(x), truth, 0.02) << "x=" << x;
  }
}

TEST(KdeTest, DegenerateSamplesStillWork) {
  Result<Kde> kde = Kde::Fit({5, 5, 5, 5});
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0);
  EXPECT_LT(kde->Cdf(4.9), 0.01);
  EXPECT_GT(kde->Cdf(5.1), 0.99);
  EXPECT_NEAR(kde->Cdf(5.0), 0.5, 0.01);
}

TEST(KdeTest, BandwidthRules) {
  SeededRng rng(9);
  std::vector<double> samples;
  for (int i = 0; i < 100; ++i) samples.push_back(rng.Normal(0, 3));
  const double silverman = SelectBandwidth(samples, BandwidthRule::kSilverman);
  const double scott = SelectBandwidth(samples, BandwidthRule::kScott);
  EXPECT_GT(silverman, 0);
  EXPECT_GT(scott, 0);
  // Scott's constant (1.06 sigma) exceeds Silverman's robust variant.
  EXPECT_LT(silverman, scott);
}

// Property sweep: the anomaly score prob(S <= u) must increase with u for
// any sample size.
class KdeMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(KdeMonotonicityTest, ScoreIncreasesWithObservation) {
  SeededRng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> samples;
  for (int i = 0; i < GetParam(); ++i) samples.push_back(rng.Normal(100, 10));
  Result<Kde> kde = Kde::Fit(samples);
  ASSERT_TRUE(kde.ok());
  double prev = -1;
  for (double u = 50; u <= 200; u += 10) {
    const double score = kde->Cdf(u);
    EXPECT_GE(score, prev);
    prev = score;
  }
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, KdeMonotonicityTest,
                         ::testing::Values(2, 5, 10, 20, 50, 200));

// --- SortedKde (batched fast path) -------------------------------------------

TEST(DescriptiveTest, WelfordVarianceMatchesTwoPassReference) {
  SeededRng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xs;
    const int n = static_cast<int>(rng.UniformInt(2, 400));
    const double mean = rng.Uniform(-1e6, 1e6);
    for (int i = 0; i < n; ++i) xs.push_back(rng.Normal(mean, 3.0));
    // Two-pass reference in long double.
    long double mu = 0;
    for (double x : xs) mu += x;
    mu /= n;
    long double ss = 0;
    for (double x : xs) ss += (x - mu) * (x - mu);
    const double reference = static_cast<double>(ss / (n - 1));
    EXPECT_NEAR(Variance(xs), reference,
                std::max(1e-9, std::fabs(reference)) * 1e-9);
  }
}

// Randomized equivalence property from the issue contract: the batched,
// tail-truncated evaluator must match the naive kernel sum within 1e-9
// for any fit over the same samples.
TEST(SortedKdeTest, CdfMatchesNaiveKdeWithin1e9) {
  SeededRng rng(43);
  for (int size : {2, 3, 10, 50, 500, 4000}) {
    std::vector<double> samples;
    for (int i = 0; i < size; ++i) samples.push_back(rng.Normal(100, 5));
    Result<Kde> naive = Kde::Fit(samples);
    Result<SortedKde> sorted = SortedKde::Fit(samples);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(sorted.ok());
    // Same rule, same samples; summation order may differ by ULPs.
    EXPECT_NEAR(naive->bandwidth(), sorted->bandwidth(),
                naive->bandwidth() * 1e-12)
        << size;
    // Sweep through the bulk, both tails, and exact sample points.
    std::vector<double> xs;
    for (double x = 60; x <= 140; x += 2.5) xs.push_back(x);
    xs.push_back(samples.front());
    xs.push_back(-1e9);
    xs.push_back(1e9);
    for (int i = 0; i < 50; ++i) xs.push_back(rng.Normal(100, 25));
    for (double x : xs) {
      EXPECT_NEAR(sorted->Cdf(x), naive->Cdf(x), 1e-9)
          << "n=" << size << " x=" << x;
      EXPECT_NEAR(sorted->Pdf(x), naive->Pdf(x), 1e-9)
          << "n=" << size << " x=" << x;
    }
  }
}

TEST(SortedKdeTest, CdfBatchBitIdenticalToCdfInInputOrder) {
  SeededRng rng(47);
  std::vector<double> samples;
  for (int i = 0; i < 300; ++i) samples.push_back(rng.Normal(50, 8));
  Result<SortedKde> kde = SortedKde::Fit(samples);
  ASSERT_TRUE(kde.ok());
  // Unsorted observations with duplicates and tail values.
  std::vector<double> xs{80, 20, 50, 50, 49.7, 1e6, -1e6, 63.2, 12.5};
  for (int i = 0; i < 40; ++i) xs.push_back(rng.Normal(50, 30));
  const std::vector<double> batch = kde->CdfBatch(xs);
  ASSERT_EQ(batch.size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    // Bit-identical, not just close: both paths run the same arithmetic.
    EXPECT_EQ(batch[i], kde->Cdf(xs[i])) << "i=" << i;
  }
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// The kernel sum with no reuse at all: every observation's window by
/// binary search, every in-window sample's erf term evaluated.
double ReferenceCdf(const SortedKde& kde, double x) {
  const std::vector<double>& s = kde.sorted_samples();
  const double tail = SortedKde::kTailSigmas * kde.bandwidth();
  const auto lo = std::lower_bound(s.begin(), s.end(), x - tail);
  const auto hi = std::lower_bound(lo, s.end(), x + tail);
  double sum = static_cast<double>(lo - s.begin());
  for (auto it = lo; it != hi; ++it) {
    const double z = (x - *it) / kde.bandwidth();
    sum += 0.5 * (1.0 + std::erf(z * 0.7071067811865476));
  }
  return sum / static_cast<double>(s.size());
}

// CdfBatch computes one erf term per run of equal samples and one CDF per
// run of equal observations. On inputs made of such runs it must still
// equal the reference that reuses nothing, and per-element Cdf, bit for
// bit, and the naive Kde within 1e-9.
TEST(SortedKdeTest, RepeatedValuesMatchReferenceBitForBit) {
  struct Case {
    const char* name;
    std::vector<double> samples;
    std::vector<double> xs;
    double bandwidth;  ///< 0: the Silverman rule.
  };
  std::vector<Case> cases = {
      {"constant", std::vector<double>(40, 7.5), {7.5, 7.5, 7.4, 7.6, 7.5, 0},
       0},
      {"zeros", {0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 5}, {0, 0, 0, 1, 0, -1, 0},
       0},
      {"signed zeros", {0.0, -0.0, 0.0, -0.0, -0.0, 2, 2, -2},
       {-0.0, 0.0, -0.0, 0.0, 2, -0.0, -2}, 0},
      // Bandwidth 1: the window is x +- 8, so these samples sit exactly on
      // the window edges of these observations.
      {"window edges", {0, 0, 0, 8, 8, 16, 16, 16, 16, 24},
       {0, 8, 16, -8, 24, 8, 8, 32, 16}, 1.0},
      {"all observations equal", {1, 2, 2, 3, 3, 3, 4},
       std::vector<double>(9, 3.0), 0},
  };
  SeededRng rng(59);
  // Hundreds of observations on a few dozen levels: long runs of equal
  // observations, more than std::sort orders by insertion alone.
  Case many{"many tied observations", {}, {}, 0};
  for (int i = 0; i < 25; ++i) many.samples.push_back(i % 4);
  for (int i = 0; i < 400; ++i) {
    many.xs.push_back(static_cast<double>(rng.UniformInt(0, 40)) * 0.1);
  }
  cases.push_back(many);
  for (int c = 0; c < 20; ++c) {
    // Monitoring-like data: few distinct levels, many repeats.
    Case random{"rounded random", {}, {}, 0};
    const int levels = 1 + c % 5;
    for (int i = 0; i < 30; ++i) {
      random.samples.push_back(
          std::round(rng.Normal(50, 2.0 * levels)) * 0.5);
    }
    for (int i = 0; i < 12; ++i) {
      random.xs.push_back(std::round(rng.Normal(52, 3.0 * levels)) * 0.5);
    }
    cases.push_back(random);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Result<SortedKde> kde =
        c.bandwidth > 0 ? SortedKde::FitWithBandwidth(c.samples, c.bandwidth)
                        : SortedKde::Fit(c.samples);
    ASSERT_TRUE(kde.ok());
    Result<Kde> naive = Kde::FitWithBandwidth(c.samples, kde->bandwidth());
    ASSERT_TRUE(naive.ok());
    const std::vector<double> batch = kde->CdfBatch(c.xs);
    ASSERT_EQ(batch.size(), c.xs.size());
    for (size_t i = 0; i < c.xs.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "x=" << c.xs[i] << " i=" << i);
      EXPECT_EQ(Bits(batch[i]), Bits(ReferenceCdf(*kde, c.xs[i])));
      EXPECT_EQ(Bits(batch[i]), Bits(kde->Cdf(c.xs[i])));
      EXPECT_NEAR(batch[i], naive->Cdf(c.xs[i]), 1e-9);
    }
  }
}

TEST(SortedKdeTest, SampleOrderIsTheFitsArgsort) {
  SeededRng rng(61);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(std::round(rng.Normal(0, 3)));
  Result<SortedKde> kde = SortedKde::Fit(samples);
  ASSERT_TRUE(kde.ok());
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(kde->sorted_samples(), sorted);
  const std::vector<uint32_t>& order = kde->sample_order();
  ASSERT_EQ(order.size(), samples.size());
  std::vector<bool> seen(samples.size(), false);
  for (size_t k = 0; k < order.size(); ++k) {
    ASSERT_LT(order[k], samples.size());
    EXPECT_FALSE(seen[order[k]]);
    seen[order[k]] = true;
    EXPECT_EQ(kde->sorted_samples()[k], samples[order[k]]);
  }
}

TEST(SortedKdeTest, TailsAreExact) {
  Result<SortedKde> kde = SortedKde::Fit({10, 20, 30});
  ASSERT_TRUE(kde.ok());
  // Far beyond the truncation window the CDF is exactly 0 or 1 — the
  // prefix-count collapse, not an approximation.
  EXPECT_EQ(kde->Cdf(-1e12), 0.0);
  EXPECT_EQ(kde->Cdf(1e12), 1.0);
}

TEST(SortedKdeTest, DegenerateSamplesStillWork) {
  Result<SortedKde> kde = SortedKde::Fit({5, 5, 5, 5});
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0);
  EXPECT_LT(kde->Cdf(4.9), 0.01);
  EXPECT_GT(kde->Cdf(5.1), 0.99);
  EXPECT_NEAR(kde->Cdf(5.0), 0.5, 0.01);
}

TEST(SortedKdeTest, RequiresSamplesAndPositiveBandwidth) {
  EXPECT_FALSE(SortedKde::Fit({}).ok());
  EXPECT_FALSE(SortedKde::FitWithBandwidth({1.0}, 0.0).ok());
  EXPECT_FALSE(SortedKde::FitWithBandwidth({1.0}, -1.0).ok());
}

TEST(AnomalyTest, ModelBasedScoringMatchesDirectScoring) {
  SeededRng rng(53);
  std::vector<double> baseline;
  for (int i = 0; i < 40; ++i) baseline.push_back(rng.Normal(100, 5));
  const std::vector<double> observed{108, 95, 131, 100.5};
  for (AnomalyAggregation aggregation :
       {AnomalyAggregation::kMean, AnomalyAggregation::kMedian,
        AnomalyAggregation::kMax}) {
    AnomalyConfig config;
    config.aggregation = aggregation;
    Result<SortedKde> model = SortedKde::Fit(baseline, config.bandwidth_rule);
    ASSERT_TRUE(model.ok());
    Result<AnomalyScore> direct = ScoreAnomaly(baseline, observed, config);
    Result<AnomalyScore> via_model = ScoreWithModel(*model, observed, config);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(via_model.ok());
    EXPECT_EQ(direct->score, via_model->score);  // Bit-identical.
    EXPECT_EQ(direct->anomalous, via_model->anomalous);
    Result<AnomalyScore> direct_dev =
        ScoreDeviation(baseline, observed, config);
    Result<AnomalyScore> model_dev =
        ScoreDeviationWithModel(*model, observed, config);
    ASSERT_TRUE(direct_dev.ok());
    ASSERT_TRUE(model_dev.ok());
    EXPECT_EQ(direct_dev->score, model_dev->score);
  }
  EXPECT_FALSE(
      ScoreWithModel(*SortedKde::Fit(baseline), {}, AnomalyConfig{}).ok());
}

// --- Correlation ---------------------------------------------------------------

TEST(CorrelationTest, PerfectLinear) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2}, {1}), 0);       // Length mismatch.
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1}, {1}), 0);          // Too short.
  EXPECT_DOUBLE_EQ(PearsonCorrelation({3, 3, 3}, {1, 2, 3}), 0);  // Constant.
  EXPECT_DOUBLE_EQ(SpearmanCorrelation({3, 3, 3}, {1, 2, 3}), 0);
}

TEST(CorrelationTest, SpearmanRobustToMonotoneTransform) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(std::exp(x));  // Nonlinear but monotone.
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(xs, ys), 1.0);
}

TEST(CorrelationTest, MidRanksHandleTies) {
  const std::vector<double> ranks = MidRanks({10, 20, 20, 30});
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(CorrelationTest, CentredRanksAreDoubledCentredMidRanks) {
  // Midranks 2, 4, 4, 6, 4, 1; doubled and less n + 1 = 7.
  EXPECT_EQ(CentredRanks({10, 20, 20, 30, 20, -1}),
            (std::vector<int32_t>{-3, 1, 1, 5, 1, -5}));
  EXPECT_EQ(CentredRanks({7, 7, 7}), (std::vector<int32_t>{0, 0, 0}));
}

/// Spearman from CentredRanks in exact integer arithmetic.
double IntegerRankCorrelation(const std::vector<double>& xs,
                              const std::vector<double>& ys) {
  const std::vector<int32_t> a = CentredRanks(xs);
  const std::vector<int32_t> b = CentredRanks(ys);
  int64_t dot = 0, sum_sq_a = 0, sum_sq_b = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += int64_t{a[i]} * b[i];
    sum_sq_a += int64_t{a[i]} * a[i];
    sum_sq_b += int64_t{b[i]} * b[i];
  }
  return CentredRankCorrelation(dot, sum_sq_a, sum_sq_b);
}

// Spearman by exact integer arithmetic must be the double Pearson over
// midranks, bit for bit, on short series with many ties; all tied gives 0.
TEST(CorrelationTest, IntegerRankCorrelationMatchesPearsonOverMidRanks) {
  SeededRng rng(67);
  for (int n = 2; n <= 64; ++n) {
    for (int trial = 0; trial < 25; ++trial) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      // 1-6 distinct levels: ties in most draws.
      const int64_t levels = rng.UniformInt(1, 6);
      std::vector<double> xs, ys;
      for (int i = 0; i < n; ++i) {
        xs.push_back(static_cast<double>(rng.UniformInt(0, levels)));
        ys.push_back(trial % 3 == 0 ? rng.Normal(0, 1)
                                    : static_cast<double>(
                                          rng.UniformInt(0, levels + 2)));
      }
      const double reference =
          PearsonCorrelation(MidRanks(xs), MidRanks(ys));
      EXPECT_EQ(Bits(IntegerRankCorrelation(xs, ys)), Bits(reference));
    }
    const std::vector<double> tied(static_cast<size_t>(n), 4.0);
    std::vector<double> other;
    for (int i = 0; i < n; ++i) other.push_back(rng.Normal(0, 1));
    EXPECT_EQ(Bits(IntegerRankCorrelation(tied, other)), Bits(0.0)) << n;
    EXPECT_EQ(Bits(IntegerRankCorrelation(other, tied)), Bits(0.0)) << n;
  }
}

TEST(CorrelationTest, IndependentSeriesNearZero) {
  SeededRng rng(21);
  std::vector<double> xs, ys;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(rng.Normal(0, 1));
    ys.push_back(rng.Normal(0, 1));
  }
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 0.0, 0.05);
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 0.0, 0.05);
}

// --- Anomaly scoring --------------------------------------------------------------

TEST(AnomalyTest, RequiresData) {
  EXPECT_FALSE(ScoreAnomaly({}, {1.0}).ok());
  EXPECT_FALSE(ScoreAnomaly({1.0}, {}).ok());
}

TEST(AnomalyTest, ClearShiftScoresHigh) {
  SeededRng rng(23);
  std::vector<double> baseline;
  for (int i = 0; i < 20; ++i) baseline.push_back(rng.Normal(100, 5));
  Result<AnomalyScore> score = ScoreAnomaly(baseline, {150, 160, 155});
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score->score, 0.95);
  EXPECT_TRUE(score->anomalous);
}

TEST(AnomalyTest, NoShiftScoresNearHalf) {
  SeededRng rng(23);
  std::vector<double> baseline;
  std::vector<double> observed;
  for (int i = 0; i < 30; ++i) baseline.push_back(rng.Normal(100, 5));
  for (int i = 0; i < 10; ++i) observed.push_back(rng.Normal(100, 5));
  Result<AnomalyScore> score = ScoreAnomaly(baseline, observed);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(score->score, 0.5, 0.2);
  EXPECT_FALSE(score->anomalous);
}

TEST(AnomalyTest, DecreaseScoresLow) {
  SeededRng rng(29);
  std::vector<double> baseline;
  for (int i = 0; i < 20; ++i) baseline.push_back(rng.Normal(100, 5));
  Result<AnomalyScore> score = ScoreAnomaly(baseline, {50, 55});
  ASSERT_TRUE(score.ok());
  EXPECT_LT(score->score, 0.05);
}

TEST(AnomalyTest, TwoSidedDeviationCatchesBothDirections) {
  SeededRng rng(31);
  std::vector<double> baseline;
  for (int i = 0; i < 20; ++i) baseline.push_back(rng.Normal(100, 5));
  Result<AnomalyScore> up = ScoreDeviation(baseline, {150});
  Result<AnomalyScore> down = ScoreDeviation(baseline, {50});
  Result<AnomalyScore> same = ScoreDeviation(baseline, {100});
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(down.ok());
  ASSERT_TRUE(same.ok());
  EXPECT_GT(up->score, 0.9);
  EXPECT_GT(down->score, 0.9);
  EXPECT_LT(same->score, 0.4);
}

TEST(AnomalyTest, AggregationModes) {
  SeededRng rng(37);
  std::vector<double> baseline;
  for (int i = 0; i < 20; ++i) baseline.push_back(rng.Normal(100, 5));
  // One wild observation among normals.
  const std::vector<double> observed{100, 100, 100, 200};
  AnomalyConfig mean_config;
  mean_config.aggregation = AnomalyAggregation::kMean;
  AnomalyConfig median_config;
  median_config.aggregation = AnomalyAggregation::kMedian;
  AnomalyConfig max_config;
  max_config.aggregation = AnomalyAggregation::kMax;
  const double mean_score = ScoreAnomaly(baseline, observed, mean_config)->score;
  const double median_score =
      ScoreAnomaly(baseline, observed, median_config)->score;
  const double max_score = ScoreAnomaly(baseline, observed, max_config)->score;
  EXPECT_LT(median_score, mean_score);  // Median shrugs off the outlier.
  EXPECT_GT(max_score, 0.99);           // Max latches onto it.
}

// Property sweep: with few samples (the paper's "few tens") the score for a
// genuinely shifted observation stays above threshold across seeds.
class SmallSampleAnomalyTest : public ::testing::TestWithParam<int> {};

TEST_P(SmallSampleAnomalyTest, DetectsTwoSigmaShiftWithFewSamples) {
  SeededRng rng(static_cast<uint64_t>(1000 + GetParam()));
  std::vector<double> baseline;
  for (int i = 0; i < 15; ++i) baseline.push_back(rng.Normal(100, 5));
  std::vector<double> observed;
  for (int i = 0; i < 5; ++i) observed.push_back(rng.Normal(125, 5));
  Result<AnomalyScore> score = ScoreAnomaly(baseline, observed);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score->score, 0.8) << "seed offset " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallSampleAnomalyTest,
                         ::testing::Range(0, 12));

// --- Naive Bayes ------------------------------------------------------------------

TEST(NaiveBayesTest, RequiresTwoSamplesPerClass) {
  EXPECT_FALSE(GaussianNaiveBayes::Fit({1.0}, {2.0, 3.0}).ok());
  EXPECT_FALSE(GaussianNaiveBayes::Fit({1.0, 2.0}, {3.0}).ok());
}

TEST(NaiveBayesTest, SeparatesWellSeparatedClasses) {
  Result<GaussianNaiveBayes> nb =
      GaussianNaiveBayes::Fit({1, 2, 3, 2, 1}, {10, 11, 12, 11, 10});
  ASSERT_TRUE(nb.ok());
  EXPECT_FALSE(nb->Classify(2.0));
  EXPECT_TRUE(nb->Classify(11.0));
  EXPECT_LT(nb->PosteriorClass1(1.5), 0.05);
  EXPECT_GT(nb->PosteriorClass1(11.0), 0.95);
}

TEST(NaiveBayesTest, PosteriorCrossesAtMidpointForSymmetricClasses) {
  Result<GaussianNaiveBayes> nb =
      GaussianNaiveBayes::Fit({0, 1, 2, 1, 0.5}, {10, 11, 12, 11, 10.5});
  ASSERT_TRUE(nb.ok());
  const double mid = (nb->mean0() + nb->mean1()) / 2;
  EXPECT_NEAR(nb->PosteriorClass1(mid), 0.5, 0.1);
}

TEST(NaiveBayesTest, ConstantClassDoesNotBlowUp) {
  Result<GaussianNaiveBayes> nb =
      GaussianNaiveBayes::Fit({5, 5, 5}, {10, 11, 12});
  ASSERT_TRUE(nb.ok());
  EXPECT_FALSE(nb->Classify(5.0));
  EXPECT_TRUE(nb->Classify(11.0));
}

}  // namespace
}  // namespace diads::stats
