// Anomaly-scoring hot-path microbench: the CPU cost of one diagnosis's
// statistical core, measured layer by layer.
//
// Three experiments, each emitting one "[bench-json] {...}" line per row:
//
//   1. kde_eval — naive Kde::Cdf (full O(n) kernel sum per observation)
//      vs SortedKde::CdfBatch (sorted observations, two-pointer sweep,
//      kernel-tail truncation) over the same fitted baseline. Two
//      observation regimes: "shifted" is the diagnosis workload (the
//      unsatisfactory runs sit in the baseline's upper tail — Module CO's
//      reason to exist), "mixed" interleaves in-distribution observations
//      (the adversarial case for truncation: the window covers most of
//      the baseline). Every batched result is checked against the naive
//      result; max |delta| above 1e-9 exits non-zero.
//
//   2. model_fit — a fresh fit per score (ScoreAnomaly: sort + bandwidth
//      selection + evaluate, allocating its buffers) vs a refit into
//      reused buffers (SortedKde::Refit + ScoreWithModel through a
//      ScoreScratch), the way Modules CO, DA and CR fit every baseline,
//      from the 20 values of a periodic query's satisfactory runs up to
//      10^4. The scores must match bit for bit — a mismatch exits
//      non-zero.
//
//   3. store_slice — TimeSeriesStore window queries: a copy of the slice
//      vs the SampleSpan view (SliceView) plus MeanIn, over random
//      run-sized windows of a long monitoring series.
//
// The CI release job gates on the kde_eval summary: batched must be
// >= 3x naive at 10k baseline samples in the shifted regime.
//
//   $ ./bench_anomaly_hotpath [--obs=N] [--iters=N] [--seed=N]
//                             [--series=N] [--windows=N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "monitor/timeseries.h"
#include "stats/anomaly.h"
#include "stats/kde.h"
#include "stats/sorted_kde.h"
#include "support/bench_json.h"

using namespace diads;

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

int64_t FlagValue(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

struct BenchOptions {
  int observations = 64;
  int iters = 30;       ///< Timed repetitions per row.
  uint64_t seed = 42;
  int series_samples = 500000;  ///< store_slice series length.
  int windows = 20000;          ///< store_slice queries per mode.
};

std::vector<double> NormalDraws(SeededRng* rng, int n, double mean,
                                double sd) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(rng->Normal(mean, sd));
  return out;
}

// --- Experiment 1: naive vs batched KDE evaluation -------------------------

struct KdeEvalRow {
  int baseline = 0;
  const char* regime = "";
  double naive_us = 0;    ///< Per scoring pass (all observations).
  double batched_us = 0;
  double speedup = 0;
  double max_abs_diff = 0;
};

KdeEvalRow RunKdeEval(const BenchOptions& bench, int baseline_n,
                      const char* regime, const std::vector<double>& baseline,
                      const std::vector<double>& observations) {
  Result<stats::Kde> naive = stats::Kde::Fit(baseline);
  Result<stats::SortedKde> batched = stats::SortedKde::Fit(baseline);
  if (!naive.ok() || !batched.ok()) {
    std::fprintf(stderr, "KDE fit failed\n");
    std::exit(1);
  }

  std::vector<double> naive_scores(observations.size(), 0.0);
  const Clock::time_point naive_start = Clock::now();
  for (int it = 0; it < bench.iters; ++it) {
    for (size_t i = 0; i < observations.size(); ++i) {
      naive_scores[i] = naive->Cdf(observations[i]);
    }
  }
  const double naive_us = ElapsedUs(naive_start) / bench.iters;

  std::vector<double> batched_scores;
  const Clock::time_point batched_start = Clock::now();
  for (int it = 0; it < bench.iters; ++it) {
    batched_scores = batched->CdfBatch(observations);
  }
  const double batched_us = ElapsedUs(batched_start) / bench.iters;

  KdeEvalRow row;
  row.baseline = baseline_n;
  row.regime = regime;
  row.naive_us = naive_us;
  row.batched_us = batched_us;
  row.speedup = batched_us > 0 ? naive_us / batched_us : 0;
  for (size_t i = 0; i < observations.size(); ++i) {
    row.max_abs_diff = std::max(
        row.max_abs_diff, std::fabs(naive_scores[i] - batched_scores[i]));
  }
  if (row.max_abs_diff > 1e-9) {
    std::fprintf(stderr,
                 "EQUIVALENCE VIOLATION: batched KDE differs from naive by "
                 "%.3e (baseline=%d, regime=%s)\n",
                 row.max_abs_diff, baseline_n, regime);
    std::exit(1);
  }
  return row;
}

// --- Experiment 2: fresh fit vs refit in reused buffers --------------------

struct ModelFitRow {
  int baseline = 0;
  double fit_us = 0;    ///< ScoreAnomaly (fresh fit + evaluate) per call.
  double refit_us = 0;  ///< Refit + ScoreWithModel in reused buffers.
  double speedup = 0;
};

ModelFitRow RunModelFit(const BenchOptions& bench, int baseline_n,
                        const std::vector<double>& baseline,
                        const std::vector<double>& observations) {
  const stats::AnomalyConfig config;
  stats::SortedKde model;
  stats::ScoreScratch scratch;
  const auto refit_score = [&]() -> double {
    if (!model.Refit(baseline, config.bandwidth_rule).ok()) {
      std::fprintf(stderr, "model refit failed\n");
      std::exit(1);
    }
    return stats::ScoreWithModel(model, observations, config, &scratch)
        ->score;
  };
  refit_score();  // Grows the buffers; every timed refit reuses them.

  // Short baselines fit in about a microsecond: time enough calls to
  // resolve that.
  const int calls = std::max(std::max(1, bench.iters), 100000 / baseline_n);
  const Clock::time_point fit_start = Clock::now();
  double fit_sink = 0;
  for (int it = 0; it < calls; ++it) {
    fit_sink += stats::ScoreAnomaly(baseline, observations, config)->score;
  }
  const double fit_us = ElapsedUs(fit_start) / calls;

  const Clock::time_point refit_start = Clock::now();
  double refit_sink = 0;
  for (int it = 0; it < calls; ++it) refit_sink += refit_score();
  const double refit_us = ElapsedUs(refit_start) / calls;

  if (fit_sink != refit_sink) {
    std::fprintf(stderr,
                 "EXACTNESS VIOLATION: refitted-model score differs from "
                 "fresh-fit score (baseline=%d)\n",
                 baseline_n);
    std::exit(1);
  }

  ModelFitRow row;
  row.baseline = baseline_n;
  row.fit_us = fit_us;
  row.refit_us = refit_us;
  row.speedup = refit_us > 0 ? fit_us / refit_us : 0;
  return row;
}

// --- Experiment 3: copied slice vs SampleSpan view -------------------------

struct StoreSliceRow {
  int series = 0;
  int windows = 0;
  double copy_us = 0;  ///< Copied slice + sum of its samples, per query.
  double view_us = 0;  ///< SliceView + sum through the view, per query.
  double mean_us = 0;  ///< MeanIn (view-based), per query.
  double speedup = 0;  ///< copy / view.
};

StoreSliceRow RunStoreSlice(const BenchOptions& bench) {
  monitor::TimeSeriesStore store;
  const ComponentId component{7};
  const monitor::MetricId metric = monitor::MetricId::kVolTotalIos;
  SeededRng rng(bench.seed + 17);
  const SimTimeMs step = Minutes(5);
  for (int i = 0; i < bench.series_samples; ++i) {
    (void)store.Append(component, metric, static_cast<SimTimeMs>(i) * step,
                       rng.Normal(500, 60));
  }
  // Run-sized windows (~30 minutes, a handful of samples) at random
  // offsets — the MetricPerRun access pattern.
  std::vector<TimeInterval> queries;
  queries.reserve(static_cast<size_t>(bench.windows));
  const SimTimeMs span = static_cast<SimTimeMs>(bench.series_samples) * step;
  for (int i = 0; i < bench.windows; ++i) {
    const SimTimeMs begin = static_cast<SimTimeMs>(
        rng.Uniform(0, static_cast<double>(span - Minutes(30))));
    queries.push_back(TimeInterval{begin, begin + Minutes(30)});
  }

  double copy_sink = 0;
  const Clock::time_point copy_start = Clock::now();
  for (const TimeInterval& q : queries) {
    const monitor::SampleSpan view = store.SliceView(component, metric, q);
    const std::vector<monitor::Sample> slice(view.begin(), view.end());
    for (const monitor::Sample& s : slice) copy_sink += s.value;
  }
  const double copy_us = ElapsedUs(copy_start) / bench.windows;

  double view_sink = 0;
  const Clock::time_point view_start = Clock::now();
  for (const TimeInterval& q : queries) {
    const monitor::SampleSpan view = store.SliceView(component, metric, q);
    for (const monitor::Sample& s : view) view_sink += s.value;
  }
  const double view_us = ElapsedUs(view_start) / bench.windows;

  if (copy_sink != view_sink) {
    std::fprintf(stderr,
                 "EXACTNESS VIOLATION: SliceView sum differs from its copy\n");
    std::exit(1);
  }

  double mean_sink = 0;
  const Clock::time_point mean_start = Clock::now();
  for (const TimeInterval& q : queries) {
    Result<double> mean = store.MeanIn(component, metric, q);
    if (mean.ok()) mean_sink += *mean;
  }
  const double mean_us = ElapsedUs(mean_start) / bench.windows;
  (void)mean_sink;

  StoreSliceRow row;
  row.series = bench.series_samples;
  row.windows = bench.windows;
  row.copy_us = copy_us;
  row.view_us = view_us;
  row.mean_us = mean_us;
  row.speedup = view_us > 0 ? copy_us / view_us : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions bench;
  bench.observations = static_cast<int>(
      FlagValue(argc, argv, "obs", bench.observations));
  bench.iters =
      static_cast<int>(FlagValue(argc, argv, "iters", bench.iters));
  bench.seed = static_cast<uint64_t>(
      FlagValue(argc, argv, "seed", static_cast<int64_t>(bench.seed)));
  bench.series_samples = static_cast<int>(
      FlagValue(argc, argv, "series", bench.series_samples));
  bench.windows =
      static_cast<int>(FlagValue(argc, argv, "windows", bench.windows));

  std::printf(
      "Anomaly-scoring hot path: %d observations per pass, %d timed "
      "iterations per row.\n\n",
      bench.observations, bench.iters);

  // --- 1. naive vs batched KDE evaluation ---------------------------------
  TablePrinter kde_table({"Baseline", "Regime", "Naive (us)", "Batched (us)",
                          "Speedup", "Max |diff|"});
  double speedup_10k_shifted = 0;
  double speedup_10k_mixed = 0;
  for (int n : {100, 1000, 10000}) {
    SeededRng rng(bench.seed + static_cast<uint64_t>(n));
    const std::vector<double> baseline = NormalDraws(&rng, n, 100, 5);
    // "shifted": every observation in the baseline's far upper tail — the
    // unsatisfactory-run workload the modules score. "mixed": half the
    // observations inside the baseline distribution.
    std::vector<double> shifted =
        NormalDraws(&rng, bench.observations, 140, 5);
    std::vector<double> mixed =
        NormalDraws(&rng, bench.observations / 2, 100, 5);
    {
      std::vector<double> tail = NormalDraws(
          &rng, bench.observations - bench.observations / 2, 140, 5);
      mixed.insert(mixed.end(), tail.begin(), tail.end());
    }
    for (const auto& [regime, obs] :
         {std::pair<const char*, const std::vector<double>*>{"shifted",
                                                             &shifted},
          std::pair<const char*, const std::vector<double>*>{"mixed",
                                                             &mixed}}) {
      KdeEvalRow row = RunKdeEval(bench, n, regime, baseline, *obs);
      if (n == 10000 && std::strcmp(regime, "shifted") == 0) {
        speedup_10k_shifted = row.speedup;
      }
      if (n == 10000 && std::strcmp(regime, "mixed") == 0) {
        speedup_10k_mixed = row.speedup;
      }
      kde_table.AddRow({StrFormat("%d", row.baseline), row.regime,
                        StrFormat("%.1f", row.naive_us),
                        StrFormat("%.1f", row.batched_us),
                        StrFormat("%.1fx", row.speedup),
                        StrFormat("%.1e", row.max_abs_diff)});
      diads::bench::BenchJson("anomaly_hotpath")
          .Str("experiment", "kde_eval")
          .Int("baseline", row.baseline)
          .Int("observations", bench.observations)
          .Str("regime", row.regime)
          .Num("naive_us", row.naive_us, 2)
          .Num("batched_us", row.batched_us, 2)
          .Num("speedup", row.speedup, 2)
          .Sci("max_abs_diff", row.max_abs_diff, 3)
          .Emit();
    }
  }
  std::printf("\n%s\n", kde_table.Render().c_str());

  // --- 2. fresh fit vs refit in reused buffers ----------------------------
  TablePrinter fit_table(
      {"Baseline", "Fit+score (us)", "Refit+score (us)", "Speedup"});
  for (int n : {20, 100, 1000, 10000}) {
    SeededRng rng(bench.seed + 1000 + static_cast<uint64_t>(n));
    const std::vector<double> baseline = NormalDraws(&rng, n, 100, 5);
    const std::vector<double> observations =
        NormalDraws(&rng, bench.observations, 140, 5);
    ModelFitRow row = RunModelFit(bench, n, baseline, observations);
    fit_table.AddRow({StrFormat("%d", row.baseline),
                      StrFormat("%.2f", row.fit_us),
                      StrFormat("%.2f", row.refit_us),
                      StrFormat("%.1fx", row.speedup)});
    diads::bench::BenchJson("anomaly_hotpath")
        .Str("experiment", "model_fit")
        .Int("baseline", row.baseline)
        .Int("observations", bench.observations)
        .Num("fit_us", row.fit_us, 2)
        .Num("refit_us", row.refit_us, 2)
        .Num("speedup", row.speedup, 2)
        .Emit();
  }
  std::printf("\n%s\n", fit_table.Render().c_str());

  // --- 3. copied slice vs SampleSpan view ---------------------------------
  StoreSliceRow slice_row = RunStoreSlice(bench);
  std::printf(
      "Store slicing over a %d-sample series (%d random run-sized "
      "windows): copied slice %.3fus, SliceView %.3fus (%.1fx), "
      "view-based MeanIn %.3fus per query.\n",
      slice_row.series, slice_row.windows, slice_row.copy_us,
      slice_row.view_us, slice_row.speedup, slice_row.mean_us);
  diads::bench::BenchJson("anomaly_hotpath")
      .Str("experiment", "store_slice")
      .Int("series", slice_row.series)
      .Int("windows", slice_row.windows)
      .Num("copy_us", slice_row.copy_us, 3)
      .Num("view_us", slice_row.view_us, 3)
      .Num("mean_us", slice_row.mean_us, 3)
      .Num("speedup", slice_row.speedup, 2)
      .Emit();

  // --- Headline ------------------------------------------------------------
  std::printf(
      "\nBatched KDE evaluation at 10k baseline samples: %.1fx (shifted "
      "observations), %.1fx (mixed).\n",
      speedup_10k_shifted, speedup_10k_mixed);
  diads::bench::BenchJson("anomaly_hotpath")
      .Str("experiment", "summary")
      .Int("baseline", 10000)
      .Num("speedup_shifted", speedup_10k_shifted, 2)
      .Num("speedup_mixed", speedup_10k_mixed, 2)
      .Emit();
  return 0;
}
