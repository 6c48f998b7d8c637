// The DIADS benchmark binary. perfbench/run.py builds and runs it; see
// perfbench/README.md for the workloads and metrics.
//
//   diads_perfbench --workload fresh_diagnosis|dashboard_poll|stream_detect
//                   --seed N --seconds S --trace 0|1
//                   --source-dir DIR --work-dir DIR
//                   [--golden FILE] [--trace-dir DIR]
//
// Prints a human-readable block, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// answer fails its check.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "layers.h"
#include "matrix.h"
#include "measure.h"
#include "serving.h"
#include "workloads.h"

using namespace perfbench;
using diads::Result;
using diads::Status;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string source_dir = ".";
  std::string work_dir;
  std::string golden;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--source-dir") {
      args->source_dir = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--golden") {
      args->golden = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  if (args->golden.empty()) {
    args->golden = args->source_dir + "/tests/golden_report_digests.txt";
  }
  return args->workload == "fresh_diagnosis" ||
         args->workload == "dashboard_poll" ||
         args->workload == "stream_detect";
}

/// Every failure of the run, counted once each.
struct Failures {
  uint64_t count = 0;
  std::vector<std::string> first;
  void Add(uint64_t n, const std::vector<std::string>& why) {
    count += n;
    for (const std::string& w : why) {
      if (first.size() < 20) first.push_back(w);
    }
  }
};

/// The per-layer metrics of a traced run (see README.md for each one's
/// source and the end-to-end metric it should move).
void AddLayerMetrics(const Matrix& matrix, const SpanTable& setup,
                     const LayerPass& pass, const WorkloadResult& loop,
                     MetricList* m) {
  auto mean_ms = [](const SpanTable& t, const std::string& name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.mean_ms();
  };
  auto total_ms = [](const SpanTable& t, const std::string& name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_ms;
  };
  const double q = std::max<double>(1, pass.questions);
  const std::vector<std::string> backends = {"postgres", "mysql", "columnar"};
  auto with_backends = [&](const std::string& metric,
                           const std::string& span) {
    m->Add(metric, mean_ms(pass.spans, span), "ms");
    for (const std::string& b : backends) {
      m->Add(metric + "." + b, mean_ms(pass.spans, span + "." + b), "ms");
    }
  };
  const auto& e = loop.engine;
  const double computed = std::max<double>(1, loop.computed);

  m->Add("workload.run_scenario_ms", mean_ms(setup, "workload.run_scenario"),
         "ms");
  m->Add("workload.q2_runs", matrix.q2_runs, "count");
  m->Add("workload.samples_appended", matrix.samples_appended, "count");
  m->Add("db.optimize_q2_ms", mean_ms(pass.spans, "db.optimize_q2"), "ms");
  m->Add("apg.build_ms", mean_ms(pass.spans, "apg.build"), "ms");
  with_backends("monitor.gather_ms", "monitor.gather");
  m->Add("monitor.gather_fetches", pass.gather_fetches / q, "count");
  m->Add("monitor.gather_samples", pass.gather_samples / q, "count");
  m->Add("monitor.gather_bytes", pass.gather_bytes / q, "B");
  m->Add("monitor.gather_timeouts", e.collection_timeouts, "count");
  m->Add("monitor.gather_retries", e.collection_retries, "count");
  const double appends = std::max<double>(1, pass.stream_appends);
  const double bare_ns = total_ms(pass.spans, "monitor.append") * 1e6;
  const double watched_ns =
      total_ms(pass.spans, "detect.watched_append") * 1e6;
  m->Add("monitor.append_ns", bare_ns / appends, "ns");
  for (const char* module : {"pd", "co", "da", "cr", "sd", "ia"}) {
    with_backends(std::string("diads.") + module + "_ms",
                  std::string("diads.") + module);
  }
  m->Add("diads.da_metrics_scored", pass.da_metrics_scored / q, "count");
  m->Add("diads.model_lookups", pass.model_lookups / q, "count");
  m->Add("diads.model_cache_hit_ratio", e.ModelCacheHitRate(), "fraction");
  m->Add("diads.model_cache_lookups",
         e.model_cache_hits + e.model_cache_misses, "count");
  m->Add("diads.model_cache_evictions", e.model_cache_evictions / computed,
         "count");
  m->Add("engine.submit_us", mean_ms(loop.spans, "engine.submit") * 1e3,
         "us");
  m->Add("engine.overhead_ms",
         loop.computed_latency.Quantile(0.5) - Median(pass.diagnose_ms), "ms");
  m->Add("engine.result_cache_hit_ratio", e.CacheHitRate(), "fraction");
  m->Add("engine.result_cache_lookups", e.cache_hits + e.cache_misses,
         "count");
  m->Add("engine.coalesced", e.coalesced, "count");
  m->Add("engine.rejected", e.rejected, "count");
  m->Add("engine.failed", e.failed, "count");
  with_backends("fleet.extract_ms", "fleet.extract");
  m->Add("fleet.publish_ms", mean_ms(pass.spans, "fleet.publish"), "ms");
  m->Add("fleet.log_append_ms", mean_ms(pass.spans, "fleet.log_append"),
         "ms");
  m->Add("fleet.log_bytes_per_verdict",
         static_cast<double>(pass.log_bytes) /
             std::max<double>(1, pass.log_records),
         "B");
  for (const char* kind : {"sharing", "implicating", "top_k", "cooccurrence"}) {
    m->Add(std::string("fleet.query_ms.") + kind,
           mean_ms(pass.spans, std::string("fleet.query.") + kind), "ms");
  }
  m->Add("fleet.rows", pass.fleet_rows, "count");
  m->Add("fleet.recover_ms", mean_ms(pass.spans, "fleet.recover"), "ms");
  m->Add("fleet.recover_records", pass.recover_records, "count");
  m->Add("fleet.recover_dropped", pass.recover_dropped, "count");
  m->Add("detect.probe_ns", (watched_ns - bare_ns) / appends, "ns");
  const diads::detect::DetectorStats& d =
      loop.has_detector ? loop.detector : pass.detector;
  m->Add("detect.appends_scored", d.appends_scored, "count");
  m->Add("detect.band_crossings", d.band_crossings, "count");
  m->Add("detect.confirmations", d.confirmations, "count");
  m->Add("detect.incidents_opened", d.incidents_opened, "count");
  m->Add("detect.suppressed_active", d.suppressed_active, "count");
  m->Add("detect.diagnoses_submitted", d.diagnoses_submitted, "count");
  const double traced_rate = Median(loop.traced_rates);
  m->Add("obs.trace_overhead_pct",
         traced_rate > 0 ? (Median(loop.rates) / traced_rate - 1) * 100 : 0,
         "%");
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

/// The seed the repository's golden digests pin
/// (tests/golden_report_digests.txt).
constexpr uint64_t kCanonicalSeed = 42;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Runs the workload loop on a fresh serving stack, which stays in
/// `serving` for the caller.
Result<WorkloadResult> RunLoop(const std::string& workload,
                               const WorkloadEnv& env,
                               const diads::diag::SymptomsDb& symptoms,
                               std::unique_ptr<Serving>* serving) {
  Result<std::unique_ptr<Serving>> created =
      Serving::Create(symptoms, env.work_dir + "/log");
  DIADS_RETURN_IF_ERROR(created.status());
  *serving = std::move(created).value();
  if (workload == "fresh_diagnosis") {
    return RunFreshDiagnosis(env, serving->get());
  }
  if (workload == "dashboard_poll") return RunDashboardPoll(env, serving->get());
  return RunStreamDetect(env, serving->get());
}

int Run(const Args& args) {
  const diads::diag::SymptomsDb symptoms =
      diads::diag::SymptomsDb::MakeDefault();
  Failures failures;
  std::filesystem::create_directories(args.work_dir);

  // Set-up: the 50 scenarios (and, for stream_detect, their sorted
  // monitoring streams), built kSetupReps times; the last build is kept.
  diads::obs::Tracer layer_tracer;
  const diads::obs::TraceContext setup_trace =
      args.trace ? layer_tracer.Root() : diads::obs::TraceContext();
  const bool with_streams = args.workload == "stream_detect";
  std::optional<Matrix> matrix;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    matrix.reset();
    const Clock::time_point start = Clock::now();
    Result<Matrix> built = BuildMatrix(args.seed, with_streams, setup_trace);
    setup_s.push_back(MsSince(start) / 1e3);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    matrix = std::move(built).value();
  }
  SpanTable setup_spans;
  FoldSpans(layer_tracer.Spans(), "", &setup_spans);

  // The correctness oracle, outside every timed section.
  Result<std::vector<Reference>> references =
      SerialReferences(*matrix, symptoms);
  if (!references.ok()) {
    std::fprintf(stderr, "serial diagnosis failed: %s\n",
                 references.status().ToString().c_str());
    return 2;
  }
  uint64_t golden_matches = 0;
  if (args.seed == kCanonicalSeed) {
    Result<GoldenTable> golden = LoadGolden(args.golden);
    if (!golden.ok()) {
      std::fprintf(stderr, "%s\n", golden.status().ToString().c_str());
      return 2;
    }
    for (size_t c = 0; c < matrix->configs.size(); ++c) {
      const MatrixConfig& config = matrix->configs[c];
      const std::string scenario = diads::workload::ScenarioName(config.id);
      auto it = golden->find({scenario, config.backend_name});
      if (it != golden->end() && it->second == (*references)[c].hash_hex) {
        ++golden_matches;
      } else {
        failures.Add(1, {config.tenant.name +
                         ": serial digest differs from the golden table"});
      }
    }
  }

  WorkloadEnv env;
  env.matrix = &*matrix;
  env.references = &*references;
  env.seed = args.seed;
  env.seconds = args.seconds;
  env.traced = args.trace;
  env.work_dir = args.work_dir;
  // One workload loop on one serving stack; a traced run then makes the
  // decomposition pass, gathering through the same (idle) collector.
  std::unique_ptr<Serving> serving;
  Result<WorkloadResult> result =
      RunLoop(args.workload, env, symptoms, &serving);
  if (!result.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const WorkloadResult& loop = *result;
  failures.Add(loop.failed, loop.failures);
  uint64_t attempted = loop.attempted;
  std::vector<std::string> notes = {
      "segments " + std::to_string(loop.rates.size()) + " untraced, " +
      std::to_string(loop.traced_rates.size()) + " traced"};
  MetricList metrics;
  if (args.trace) {
    LayerPass pass;
    const Status status = RunLayerPass(
        *matrix, *references, symptoms, serving->collector(),
        args.work_dir + "/pass-log", &layer_tracer, &pass);
    if (!status.ok()) {
      std::fprintf(stderr, "layer pass failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    attempted += pass.questions;
    failures.Add(pass.failed, pass.failures);
    AddLayerMetrics(*matrix, setup_spans, pass, loop, &metrics);
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir);
      const std::string stem = args.trace_dir + "/" + args.workload;
      WriteFile(stem + "-layers.json", layer_tracer.ExportChromeTrace());
      WriteFile(stem + "-loop.json", loop.loop_trace_json);
      notes.push_back("trace " + stem + "-layers.json " + stem +
                      "-loop.json");
    }
  } else {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("peak_rss_mb", loop.peak_rss_mb, "MB");
    metrics.Add("cpu_ms_per_op", Median(loop.cpu_ms_per_op), "ms");
    metrics.Add("accuracy", loop.accuracy, "fraction");
  }
  serving.reset();
  std::filesystem::remove_all(args.work_dir);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("setup_s reps:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  if (args.seed == kCanonicalSeed) {
    std::printf("golden_matches %llu/%zu\n",
                static_cast<unsigned long long>(golden_matches),
                matrix->configs.size());
  }
  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : loop.named) {
    std::printf("named  %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : metrics.metrics()) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& why : failures.first) {
    std::printf("FAILED %s\n", why.c_str());
  }
  const bool correct = failures.count == 0;
  std::printf("%s\n",
              metrics.ResultJson(correct, std::max<uint64_t>(attempted, 1),
                                 failures.count)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || args.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: diads_perfbench --workload "
                 "fresh_diagnosis|dashboard_poll|stream_detect --seed N "
                 "--seconds S --trace 0|1 --source-dir DIR --work-dir DIR "
                 "[--golden FILE] [--trace-dir DIR]\n");
    return 2;
  }
  return Run(args);
}
