// Serving-layer experiment: diagnoses/sec of the DiagnosisEngine as a
// function of worker count (1/2/4/8) and result caching (on/off).
//
// Workload: a fleet of tenants (Table-1 scenarios), each producing a
// stream of diagnosis requests — a mix of *fresh incidents* (distinct
// cache identities, so the module chain must run) and *repeat questions*
// (dashboard refreshes and retries of an already-diagnosed incident, the
// cache/coalescing fast path). The engine is warmed with each tenant's
// first incident before measurement, so "cache on" rows measure a warm
// cache serving the mixed stream.
//
// Workers pay off because a deployed diagnosis blocks on SAN-collector
// round-trips while pulling monitoring intervals; the in-memory testbed
// has no wire, so these rows gather through a SimulatedSanCollector that
// answers each component fetch after --fetch-ms (default 25ms), with a
// connection for every fetch the workers can have in flight. Repeats
// served from the warm cache skip collection entirely.
//
// Output: a human-readable table plus one JSON line per configuration
// ("[bench-json] {...}") for the bench trajectory to scrape.
//
// A second experiment compares collection modes on a skewed backend
// (every SAN component answers in --async-base-ms, except each tenant's
// V1 at 10x): "blocking" serializes the per-component round-trips of a
// diagnosis (max_in_flight=1, one fetch at a time), "async" overlaps
// them through the scatter/gather layer. Both modes run
// the same fresh-only stream with the cache off and verify every report
// digest against the serial ground truth; the headline is the p99
// diagnosis latency ratio.
//
// A third experiment measures the span tracer's overhead: the same
// fresh-only compute-bound stream (zero-latency collection, result cache
// off)
// with the tracer attached vs detached, alternated passes, min-of-N wall
// time per mode. The summary row prints overhead_pct; nothing gates it,
// because a pass of a few milliseconds (CI's flags give about 7 ms) is
// too short to resolve a few percent. The run fails only if tracing
// changes a report's digest.
//
//   $ ./bench_engine_throughput [--fetch-ms=N] [--fresh=N]
//                               [--repeats=N] [--tenants=N] [--seed=N]
//                               [--async-base-ms=N] [--async-slow-factor=N]
//                               [--async-timeout-ms=N] [--async-fresh=N]
//                               [--trace-fresh=N] [--trace-passes=N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/table_printer.h"
#include "diads/report.h"
#include "diads/symptoms_db.h"
#include "engine/engine.h"
#include "monitor/async_collector.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "support/bench_json.h"
#include "workload/fleet.h"

using namespace diads;

namespace {

struct BenchOptions {
  double fetch_ms = 25;  ///< Simulated round-trip per component fetch.
  int tenants = 4;
  int fresh_per_tenant = 2;    ///< Distinct incidents per tenant (misses).
  int repeats_per_tenant = 10; ///< Repeat questions per tenant (hits).
  uint64_t seed = 42;
  // Async-collection experiment.
  double async_base_ms = 5;      ///< Per-component round-trip.
  double async_slow_factor = 10; ///< V1's multiplier (the wedged agent).
  double async_timeout_ms = 15;  ///< Per-component fetch timeout.
  int async_fresh = 4;           ///< Fresh incidents per tenant, per mode.
  // Tracing-overhead experiment.
  int trace_fresh = 6;           ///< Fresh incidents per tenant, per pass.
  int trace_passes = 3;          ///< Passes per mode (min wall time wins).
};

struct ConfigResult {
  int workers = 0;
  bool cache = false;
  int requests = 0;
  double seconds = 0;
  double per_sec = 0;
  double hit_rate = 0;
  uint64_t coalesced = 0;
  double p95_ms = 0;
};

/// Exact latency percentile `p` (0-100) over `responses`.
double LatencyPercentile(
    const std::vector<engine::DiagnosisResponse>& responses, double p) {
  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const engine::DiagnosisResponse& response : responses) {
    latencies.push_back(response.latency_ms);
  }
  return stats::Percentile(std::move(latencies), p);
}

/// The measured request stream: per tenant, `fresh` distinct incidents
/// plus `repeats` copies of incident 0, interleaved across tenants.
std::vector<engine::DiagnosisRequest> MakeStream(
    const workload::FleetWorkload& fleet, int fresh, int repeats) {
  std::vector<engine::DiagnosisRequest> stream;
  const int per_tenant = fresh + repeats;
  for (int r = 0; r < per_tenant; ++r) {
    for (const workload::FleetTenant& tenant : fleet.tenants) {
      engine::DiagnosisRequest request;
      request.ctx = tenant.output->MakeContext();
      // Distinct tags are distinct diagnosis identities. Incident 0 is the
      // pre-warmed one (repeats hit its cache entry); fresh incidents get
      // tags 1..fresh, which the engine has never seen.
      request.tag = tenant.name + "/incident-" +
                    std::to_string(r < fresh ? r + 1 : 0);
      stream.push_back(std::move(request));
    }
  }
  return stream;
}

ConfigResult RunConfig(const workload::FleetWorkload& fleet,
                       const diag::SymptomsDb& symptoms,
                       const BenchOptions& bench, int workers,
                       bool cache_on) {
  engine::EngineOptions options;
  options.workers = workers;
  options.enable_cache = cache_on;
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = bench.fetch_ms;
  latency.connections = workers * options.gather.max_in_flight;
  engine::DiagnosisEngine engine(
      options, &symptoms,
      std::make_shared<monitor::SimulatedSanCollector>(latency));

  // Warm: diagnose each tenant's incident 0 once (not measured).
  std::vector<engine::DiagnosisRequest> warm =
      MakeStream(fleet, /*fresh=*/0, /*repeats=*/1);
  for (engine::DiagnosisResponse& response :
       engine.BatchDiagnose(std::move(warm))) {
    if (!response.ok()) {
      std::fprintf(stderr, "warmup diagnosis failed: %s\n",
                   response.status.ToString().c_str());
      std::exit(1);
    }
  }
  // Counters are netted against `before`, and latency percentiles come
  // from the measured stream's own responses, so the warm-up is excluded.
  const engine::EngineStatsSnapshot before = engine.Stats();

  std::vector<engine::DiagnosisRequest> stream = MakeStream(
      fleet, bench.fresh_per_tenant, bench.repeats_per_tenant);
  // Fresh incidents reuse identity 0's window but not its tag, except
  // incident-0 repeats, which are exact repeats of the warmed question.
  const auto start = std::chrono::steady_clock::now();
  std::vector<engine::DiagnosisResponse> responses =
      engine.BatchDiagnose(std::move(stream));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const engine::DiagnosisResponse& response : responses) {
    if (!response.ok()) {
      std::fprintf(stderr, "diagnosis failed: %s\n",
                   response.status.ToString().c_str());
      std::exit(1);
    }
  }

  const engine::EngineStatsSnapshot after = engine.Stats();
  ConfigResult result;
  result.workers = workers;
  result.cache = cache_on;
  result.requests = static_cast<int>(responses.size());
  result.seconds = seconds;
  result.per_sec = seconds > 0 ? result.requests / seconds : 0;
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t misses = after.cache_misses - before.cache_misses;
  result.hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  result.coalesced = after.coalesced - before.coalesced;
  result.p95_ms = LatencyPercentile(responses, 95);
  return result;
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

struct AsyncModeResult {
  const char* mode = "";
  int requests = 0;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t fetches = 0;
  uint64_t timeouts = 0;
  uint64_t stale = 0;
};

/// One collection mode of the skewed-backend experiment. `overlapped`
/// false serializes the per-component round-trips (one fetch in flight);
/// true overlaps them (max_in_flight = 8). Every response's
/// digest is checked against the tenant's serial ground truth.
AsyncModeResult RunAsyncMode(const workload::FleetWorkload& fleet,
                             const std::vector<std::string>& serial_digests,
                             const diag::SymptomsDb& symptoms,
                             const BenchOptions& bench, bool overlapped) {
  monitor::SimulatedLatencyOptions profile =
      workload::MakeSkewedLatencyProfile(fleet, bench.async_base_ms,
                                         bench.async_slow_factor);
  // Enough backend connections that the engine's full fan-out (workers x
  // in-flight window) never queues behind the backend itself — timeouts
  // then isolate the genuinely slow component.
  profile.connections = 32;
  auto collector =
      std::make_shared<monitor::SimulatedSanCollector>(profile);
  engine::EngineOptions options;
  options.workers = 4;
  options.enable_cache = false;       // Every diagnosis collects + computes.
  options.coalesce_identical = false;
  options.gather.max_in_flight = overlapped ? 8 : 1;
  options.gather.timeout_ms = bench.async_timeout_ms;
  options.gather.max_attempts = 1;
  engine::DiagnosisEngine engine(options, &symptoms, collector);

  std::vector<engine::DiagnosisRequest> stream =
      MakeStream(fleet, bench.async_fresh, /*repeats=*/0);
  std::vector<size_t> tenant_of_request;
  for (int r = 0; r < bench.async_fresh; ++r) {
    for (size_t t = 0; t < fleet.tenants.size(); ++t) {
      tenant_of_request.push_back(t);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<engine::DiagnosisResponse> responses =
      engine.BatchDiagnose(std::move(stream));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (size_t i = 0; i < responses.size(); ++i) {
    const engine::DiagnosisResponse& response = responses[i];
    if (!response.ok()) {
      std::fprintf(stderr, "async-mode diagnosis failed: %s\n",
                   response.status.ToString().c_str());
      std::exit(1);
    }
    if (diag::ReportDigest(*response.report) !=
        serial_digests[tenant_of_request[i]]) {
      std::fprintf(stderr,
                   "DIGEST MISMATCH: request %zu differs from serial "
                   "diagnosis (mode=%s)\n",
                   i, overlapped ? "async" : "blocking");
      std::exit(1);
    }
  }
  const engine::EngineStatsSnapshot stats = engine.Stats();
  AsyncModeResult result;
  result.mode = overlapped ? "async" : "blocking";
  result.requests = static_cast<int>(responses.size());
  result.seconds = seconds;
  result.p50_ms = LatencyPercentile(responses, 50);
  result.p99_ms = LatencyPercentile(responses, 99);
  result.fetches = stats.collection_fetches;
  result.timeouts = stats.collection_timeouts;
  result.stale = stats.collection_stale;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions bench;
  bench.fetch_ms = static_cast<double>(FlagValue(
      argc, argv, "fetch-ms", static_cast<int64_t>(bench.fetch_ms)));
  bench.tenants =
      static_cast<int>(FlagValue(argc, argv, "tenants", bench.tenants));
  bench.fresh_per_tenant = static_cast<int>(
      FlagValue(argc, argv, "fresh", bench.fresh_per_tenant));
  bench.repeats_per_tenant = static_cast<int>(
      FlagValue(argc, argv, "repeats", bench.repeats_per_tenant));
  bench.seed = static_cast<uint64_t>(FlagValue(
      argc, argv, "seed", static_cast<int64_t>(bench.seed)));
  bench.async_base_ms = static_cast<double>(
      FlagValue(argc, argv, "async-base-ms",
                static_cast<int64_t>(bench.async_base_ms)));
  bench.async_slow_factor = static_cast<double>(
      FlagValue(argc, argv, "async-slow-factor",
                static_cast<int64_t>(bench.async_slow_factor)));
  bench.async_timeout_ms = static_cast<double>(
      FlagValue(argc, argv, "async-timeout-ms",
                static_cast<int64_t>(bench.async_timeout_ms)));
  bench.async_fresh = static_cast<int>(
      FlagValue(argc, argv, "async-fresh", bench.async_fresh));
  bench.trace_fresh = static_cast<int>(
      FlagValue(argc, argv, "trace-fresh", bench.trace_fresh));
  bench.trace_passes = static_cast<int>(
      FlagValue(argc, argv, "trace-passes", bench.trace_passes));

  workload::FleetOptions fleet_options;
  fleet_options.tenants = bench.tenants;
  fleet_options.requests_per_tenant = 1;  // Streams are built separately.
  fleet_options.seed = bench.seed;
  fleet_options.scenario_options.satisfactory_runs = 12;
  fleet_options.scenario_options.unsatisfactory_runs = 6;
  std::printf("Building a %d-tenant fleet (Table-1 scenarios)...\n",
              bench.tenants);
  Result<workload::FleetWorkload> fleet = workload::BuildFleet(fleet_options);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet build failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }
  const diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  const int stream_size =
      bench.tenants * (bench.fresh_per_tenant + bench.repeats_per_tenant);
  std::printf(
      "Stream: %d requests (%d fresh incidents + %d repeats per tenant), "
      "simulated round-trip %.0fms per component fetch.\n\n",
      stream_size, bench.fresh_per_tenant, bench.repeats_per_tenant,
      bench.fetch_ms);

  TablePrinter table({"Workers", "Cache", "Requests", "Wall (s)",
                      "Diagnoses/s", "Hit rate", "Coalesced", "p95 (ms)"});
  std::vector<ConfigResult> results;
  for (bool cache_on : {true, false}) {
    for (int workers : {1, 2, 4, 8}) {
      ConfigResult r = RunConfig(*fleet, symptoms, bench, workers, cache_on);
      results.push_back(r);
      table.AddRow({StrFormat("%d", r.workers), r.cache ? "on" : "off",
                    StrFormat("%d", r.requests),
                    StrFormat("%.2f", r.seconds),
                    StrFormat("%.1f", r.per_sec),
                    StrFormat("%.0f%%", r.hit_rate * 100),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(r.coalesced)),
                    StrFormat("%.1f", r.p95_ms)});
      diads::bench::BenchJson("engine_throughput")
          .Int("workers", r.workers)
          .Bool("cache", r.cache)
          .Int("requests", r.requests)
          .Num("wall_sec", r.seconds, 3)
          .Num("diagnoses_per_sec", r.per_sec, 2)
          .Num("cache_hit_rate", r.hit_rate, 3)
          .Uint("coalesced", r.coalesced)
          .Num("p95_ms", r.p95_ms, 2)
          .Num("fetch_ms", bench.fetch_ms, 0)
          .Emit();
    }
  }
  std::printf("\n%s", table.Render().c_str());

  // Headline ratios for the acceptance trajectory.
  auto find = [&results](int workers, bool cache) -> const ConfigResult* {
    for (const ConfigResult& r : results) {
      if (r.workers == workers && r.cache == cache) return &r;
    }
    return nullptr;
  };
  const ConfigResult* w1 = find(1, true);
  const ConfigResult* w4 = find(4, true);
  const ConfigResult* w4_off = find(4, false);
  if (w1 != nullptr && w4 != nullptr && w4_off != nullptr &&
      w1->per_sec > 0 && w4_off->per_sec > 0) {
    std::printf(
        "\nScaling (warm cache): 1 -> 4 workers = %.2fx diagnoses/sec; "
        "cache on vs off at 4 workers = %.2fx.\n",
        w4->per_sec / w1->per_sec, w4->per_sec / w4_off->per_sec);
  }

  // --- Async-collection experiment: skewed backend, blocking vs async ----
  std::printf(
      "\nAsync collection on a skewed backend: every component answers in "
      "%.0fms, V1 in %.0fms (%.0fx); fetch timeout %.0fms.\n",
      bench.async_base_ms, bench.async_base_ms * bench.async_slow_factor,
      bench.async_slow_factor, bench.async_timeout_ms);
  std::vector<std::string> serial_digests;
  for (const workload::FleetTenant& tenant : fleet->tenants) {
    Result<diag::DiagnosisReport> serial =
        workload::SerialDiagnosis(tenant, diag::WorkflowConfig{}, &symptoms);
    if (!serial.ok()) {
      std::fprintf(stderr, "serial ground truth failed: %s\n",
                   serial.status().ToString().c_str());
      return 1;
    }
    serial_digests.push_back(diag::ReportDigest(*serial));
  }
  TablePrinter async_table({"Mode", "Requests", "Wall (s)", "p50 (ms)",
                            "p99 (ms)", "Fetches", "Timeouts", "Stale"});
  std::vector<AsyncModeResult> modes;
  for (bool overlapped : {false, true}) {
    AsyncModeResult r =
        RunAsyncMode(*fleet, serial_digests, symptoms, bench, overlapped);
    modes.push_back(r);
    async_table.AddRow(
        {r.mode, StrFormat("%d", r.requests), StrFormat("%.2f", r.seconds),
         StrFormat("%.1f", r.p50_ms), StrFormat("%.1f", r.p99_ms),
         StrFormat("%llu", static_cast<unsigned long long>(r.fetches)),
         StrFormat("%llu", static_cast<unsigned long long>(r.timeouts)),
         StrFormat("%llu", static_cast<unsigned long long>(r.stale))});
    diads::bench::BenchJson("engine_async_collection")
        .Str("mode", r.mode)
        .Int("requests", r.requests)
        .Num("wall_sec", r.seconds, 3)
        .Num("p50_ms", r.p50_ms, 2)
        .Num("p99_ms", r.p99_ms, 2)
        .Uint("fetches", r.fetches)
        .Uint("timeouts", r.timeouts)
        .Uint("stale", r.stale)
        .Num("base_ms", bench.async_base_ms, 0)
        .Num("slow_factor", bench.async_slow_factor, 0)
        .Num("timeout_ms", bench.async_timeout_ms, 0)
        .Emit();
  }
  std::printf("%s", async_table.Render().c_str());
  if (modes.size() == 2 && modes[1].p99_ms > 0) {
    const double speedup = modes[0].p99_ms / modes[1].p99_ms;
    std::printf(
        "\nOverlapped collection: p99 diagnosis latency %.1fms -> %.1fms "
        "(%.2fx) vs serialized round-trips; all %d reports "
        "digest-identical to serial diagnosis.\n",
        modes[0].p99_ms, modes[1].p99_ms, speedup,
        modes[0].requests + modes[1].requests);
    diads::bench::BenchJson("engine_async_collection")
        .Str("mode", "summary")
        .Num("p99_speedup", speedup, 2)
        .Emit();
  }

  // --- Tracing-overhead experiment: tracer attached vs detached -----------
  std::printf(
      "\nSpan tracer overhead on a compute-bound stream (%d fresh "
      "incidents per tenant, zero-latency collection, result cache off, "
      "min of %d alternated passes per mode):\n",
      bench.trace_fresh, bench.trace_passes);
  engine::EngineOptions trace_options;
  trace_options.workers = 4;
  trace_options.enable_cache = false;
  trace_options.coalesce_identical = false;
  double best[2] = {1e300, 1e300};  // [0]=off, [1]=on.
  size_t traced_spans = 0;
  bool trace_digests_ok = true;
  for (int pass = 0; pass < 2 * bench.trace_passes; ++pass) {
    const bool traced = (pass % 2) == 1;  // Alternate off/on.
    obs::Tracer tracer;
    engine::EngineOptions options = trace_options;
    options.tracer = traced ? &tracer : nullptr;
    engine::DiagnosisEngine engine(options, &symptoms);
    std::vector<engine::DiagnosisRequest> stream =
        MakeStream(*fleet, bench.trace_fresh, /*repeats=*/0);
    const size_t requests = stream.size();
    const auto start = std::chrono::steady_clock::now();
    std::vector<engine::DiagnosisResponse> responses =
        engine.BatchDiagnose(std::move(stream));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    for (size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].ok()) {
        std::fprintf(stderr, "tracing-pass diagnosis failed: %s\n",
                     responses[i].status.ToString().c_str());
        return 1;
      }
      if (diag::ReportDigest(*responses[i].report) !=
          serial_digests[i % fleet->tenants.size()]) {
        trace_digests_ok = false;
      }
    }
    best[traced] = std::min(best[traced], seconds);
    if (traced) traced_spans = tracer.span_count();
    std::printf("  pass %d (%s): %zu requests in %.3fs\n", pass,
                traced ? "traced" : "untraced", requests, seconds);
  }
  const double overhead_pct =
      best[0] > 0 ? (best[1] - best[0]) / best[0] * 100.0 : 0.0;
  std::printf(
      "\nTracer overhead: %.3fs untraced vs %.3fs traced (min wall) = "
      "%.2f%%; %zu spans per traced pass; digests %s.\n",
      best[0], best[1], overhead_pct, traced_spans,
      trace_digests_ok ? "identical to serial diagnosis"
                       : "MISMATCHED (tracing is not digest-neutral!)");
  diads::bench::BenchJson("engine_tracing")
      .Str("mode", "summary")
      .Num("wall_sec_untraced", best[0], 3)
      .Num("wall_sec_traced", best[1], 3)
      .Num("overhead_pct", overhead_pct, 2)
      .Uint("spans", traced_spans)
      .Bool("verified", trace_digests_ok)
      .Emit();
  return trace_digests_ok ? 0 : 1;
}
