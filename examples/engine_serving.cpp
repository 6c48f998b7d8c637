// Serving DIADS at fleet scale: the concurrent diagnosis engine.
//
// Builds a small fleet of tenants (each a Figure-1 testbed running one of
// the Table-1 scenarios), starts a DiagnosisEngine with a worker pool,
// result cache, and an async SAN collector (simulated backend: 2ms per
// component round-trip, each tenant's V1 at 10x — the one wedged agent an
// overlapped gather hides), fans the fleet's request stream across it,
// and prints the per-tenant diagnoses plus the engine's serving metrics —
// the multi-tenant counterpart of examples/quickstart.cpp.
//
// With --trace-out the run records every diagnosis as a span tree
// (submit -> queue wait -> gather -> per-component fetches -> workflow
// modules -> fleet publish) and writes a Chrome trace-event JSON you can
// open at chrome://tracing or https://ui.perfetto.dev. With --metrics-out
// it scrapes the engine's metrics registry (the engine's own counters and
// latency histograms, plus the fleet-store sources) into a JSON snapshot,
// plus Prometheus text exposition alongside at <path>.prom. The engine's
// own health series (throughput, queue depth, latency quantiles) are
// appended into a dedicated TimeSeriesStore — the self-monitoring loop
// that lets DIADS be pointed at itself.
//
// With --detect the run additionally replays every tenant's monitoring
// stream through the always-on SlowdownDetector (append -> sketch ->
// incident -> auto-diagnosis against the same live engine): incidents
// land as "detect_incident" spans in the trace export and the detector's
// diads_detect_* families join the metrics scrape.
//
// With --flood the fleet is replaced by the adversarial mix: one tenant
// bursts deadline-carrying requests at the engine while four victims ask
// their own questions, the result cache and coalescing are disabled so
// the flood actually floods, and the per-tenant admission table shows
// who was admitted, refused (tenant share), or shed (deadline).
//
// With --log-dir=DIR the fleet store is crash-durable: existing segments
// are replayed into the store before serving (replay stats printed), and
// every publish is appended to the log.
//
// Exit codes: 0 = every request served; 3 = some requests were refused
// by tenant-share admission (kResourceExhausted); 4 = some queued
// requests were shed past their deadline (kDeadlineExceeded); 5 = some
// requests failed outright; 1 = setup/run error; 2 = bad arguments.
// (3/4 report load-management outcomes, not malfunctions: under --flood
// they are the expected result.)
//
//   $ ./engine_serving [workers] [seed] [--trace-out=trace.json]
//                      [--metrics-out=metrics.json] [--detect] [--flood]
//                      [--log-dir=DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/table_printer.h"
#include "detect/detector.h"
#include "detect/metrics.h"
#include "diads/workflow.h"
#include "engine/engine.h"
#include "engine/self_monitor.h"
#include "fleet/log.h"
#include "fleet/metrics.h"
#include "fleet/store.h"
#include "monitor/async_collector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/detect_replay.h"
#include "workload/fleet.h"

using namespace diads;

namespace {

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

void Accumulate(detect::DetectorStats& into,
                const detect::DetectorStats& stats) {
  into.appends_observed += stats.appends_observed;
  into.appends_scored += stats.appends_scored;
  into.series_tracked += stats.series_tracked;
  into.series_calibrated += stats.series_calibrated;
  into.band_crossings += stats.band_crossings;
  into.confirmations += stats.confirmations;
  into.incidents_opened += stats.incidents_opened;
  into.incidents_closed += stats.incidents_closed;
  into.suppressed_active += stats.suppressed_active;
  into.suppressed_cooldown += stats.suppressed_cooldown;
  into.diagnoses_submitted += stats.diagnoses_submitted;
  into.active_incidents += stats.active_incidents;
  into.watched_tenants += stats.watched_tenants;
}

}  // namespace

int main(int argc, char** argv) {
  engine::EngineOptions engine_options;
  workload::FleetOptions fleet_options;
  fleet_options.tenants = 5;
  fleet_options.requests_per_tenant = 4;

  std::string trace_out;
  std::string metrics_out;
  std::string log_dir;
  bool detect_mode = false;
  bool flood_mode = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_out = arg + 14;
    } else if (std::strncmp(arg, "--log-dir=", 10) == 0) {
      log_dir = arg + 10;
    } else if (std::strcmp(arg, "--detect") == 0) {
      detect_mode = true;
    } else if (std::strcmp(arg, "--flood") == 0) {
      flood_mode = true;
    } else if (positional == 0) {
      engine_options.workers = std::atoi(arg);
      ++positional;
    } else if (positional == 1) {
      fleet_options.seed = static_cast<uint64_t>(std::atoll(arg));
      ++positional;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }

  Result<workload::FleetWorkload> fleet = [&] {
    if (!flood_mode) {
      std::printf("Building a %d-tenant fleet (Table-1 scenarios)...\n",
                  fleet_options.tenants);
      return workload::BuildFleet(fleet_options);
    }
    // Adversarial mix: a flooding tenant bursts deadline-carrying
    // requests ahead of four victims. Cache and coalescing off so the
    // identical flood requests all genuinely occupy the queue.
    workload::FloodingFleetOptions flood_options;
    flood_options.seed = fleet_options.seed;
    flood_options.flood_requests = 24;
    flood_options.requests_per_victim = 2;
    flood_options.flood_deadline_ms = 2000;
    engine_options.enable_cache = false;
    engine_options.coalesce_identical = false;
    engine_options.queue_capacity = 16;
    engine_options.fairness.tenant_share_fraction = 0.5;
    std::printf(
        "Building the flooding fleet (1 flooder x %d requests, "
        "%d victims x %d)...\n",
        flood_options.flood_requests, flood_options.victim_tenants,
        flood_options.requests_per_victim);
    return workload::BuildFloodingFleet(flood_options);
  }();
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet build failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }

  const diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  auto collector = std::make_shared<monitor::SimulatedSanCollector>(
      workload::MakeSkewedLatencyProfile(*fleet, /*base_ms=*/2,
                                         /*slow_factor=*/10));
  fleet::FleetStore fleet_store;
  obs::Tracer tracer;
  engine_options.fleet_store = &fleet_store;
  if (!trace_out.empty()) engine_options.tracer = &tracer;

  // Crash-durable fleet store: replay whatever a previous run (or crash)
  // left in the log, then attach so this run's publishes are appended.
  std::unique_ptr<fleet::SegmentLog> fleet_log;
  if (!log_dir.empty()) {
    const fleet::ReplayStats replay =
        fleet::RecoverFromLog(log_dir, &fleet_store);
    std::printf("%s", replay.Render().c_str());
    fleet::LogOptions log_options;
    log_options.dir = log_dir;
    Result<std::unique_ptr<fleet::SegmentLog>> opened =
        fleet::SegmentLog::Open(std::move(log_options));
    if (!opened.ok()) {
      std::fprintf(stderr, "fleet log open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    fleet_log = std::move(opened).value();
    fleet_store.AttachLog(fleet_log.get());
  }

  engine::DiagnosisEngine engine(engine_options, &symptoms, collector);

  // The engine's registry carries its own counters and latency
  // histograms; the fleet store (and log) join it, one scrape for all.
  obs::MetricsRegistry& registry = engine.metrics();
  fleet::RegisterFleetStoreMetrics(&registry, &fleet_store);
  if (fleet_log != nullptr) {
    fleet::RegisterFleetLogMetrics(&registry, fleet_log.get());
  }

  // Self-monitoring: the engine's own health as ordinary time series in a
  // dedicated store, at the paper's 5-minute monitoring interval.
  monitor::TimeSeriesStore engine_health;
  const ComponentId self{0};
  SimTimeMs sim_now = 0;
  engine::SampleEngineHealth(engine, self, sim_now, &engine_health);

  std::printf("Submitting %zu diagnosis requests to %d workers...\n\n",
              fleet->requests.size(), engine_options.workers);
  std::vector<engine::DiagnosisResponse> responses =
      engine.BatchDiagnose(std::move(fleet->requests));
  sim_now += 5 * 60 * 1000;
  engine::SampleEngineHealth(engine, self, sim_now, &engine_health);

  // One line per tenant: the first response carrying its report. Load-
  // management refusals (admission, deadline shed) are reported as such,
  // not as failures — their counts decide the exit code below.
  size_t admission_rejected = 0, deadline_shed = 0, hard_failures = 0;
  std::vector<bool> seen(fleet->tenants.size(), false);
  for (size_t i = 0; i < responses.size(); ++i) {
    const engine::DiagnosisResponse& response = responses[i];
    const size_t t = fleet->tenant_of_request[i];
    if (!response.ok()) {
      const char* outcome = "FAILED";
      switch (response.status.code()) {
        case StatusCode::kResourceExhausted:
          ++admission_rejected;
          outcome = "REFUSED (admission)";
          break;
        case StatusCode::kDeadlineExceeded:
          ++deadline_shed;
          outcome = "SHED (deadline)";
          break;
        default:
          ++hard_failures;
          break;
      }
      std::printf("%-28s %s: %s\n", fleet->tenants[t].name.c_str(), outcome,
                  response.status.ToString().c_str());
      continue;
    }
    if (seen[t]) continue;
    seen[t] = true;
    const diag::RootCause* top = response.report->TopCause();
    std::printf("%-28s %s%s%s\n", fleet->tenants[t].name.c_str(),
                top != nullptr ? diag::RootCauseTypeName(top->type)
                               : "(no cause above the reporting floor)",
                response.cache_hit ? "  [cache hit]" : "",
                response.stale_data() ? "  [stale data]" : "");
  }

  // Per-tenant admission accounting: who flooded, who was protected.
  {
    const std::vector<engine::TenantAdmissionRow> rows =
        engine.TenantAdmission();
    bool any_activity = false;
    for (const engine::TenantAdmissionRow& row : rows) {
      if (row.rejected_share + row.shed_deadline > 0) any_activity = true;
    }
    if (flood_mode || any_activity) {
      TablePrinter table({"tenant", "weight", "submitted", "admitted",
                          "rejected", "shed", "dispatched"});
      for (const engine::TenantAdmissionRow& row : rows) {
        table.AddRow({row.tenant.empty() ? "(untagged)" : row.tenant,
                      StrFormat("%.1f", row.weight),
                      StrFormat("%llu", (unsigned long long)row.submitted),
                      StrFormat("%llu", (unsigned long long)row.admitted),
                      StrFormat("%llu",
                                (unsigned long long)row.rejected_share),
                      StrFormat("%llu",
                                (unsigned long long)row.shed_deadline),
                      StrFormat("%llu",
                                (unsigned long long)row.dispatched)});
      }
      std::printf("\nPer-tenant admission summary:\n%s",
                  table.Render().c_str());
    }
  }

  // Where did the first computed diagnosis spend its time?
  for (const engine::DiagnosisResponse& response : responses) {
    if (response.ok() && response.cost != nullptr && !response.cache_hit &&
        !response.coalesced) {
      std::printf("\nCost profile of one cold diagnosis:\n%s",
                  response.cost->Render().c_str());
      break;
    }
  }

  if (detect_mode) {
    // Always-on detection: replay each tenant's monitoring stream through
    // the SlowdownDetector against the same live engine. Auto-submitted
    // questions share the engine's cache/single-flight with the
    // administrator requests above.
    std::printf("\nAlways-on detection (per-tenant replay):\n");
    detect::DetectorStats detect_totals;
    for (const workload::FleetTenant& tenant : fleet->tenants) {
      workload::DetectionReplayOptions replay_options;
      if (!trace_out.empty()) replay_options.tracer = &tracer;
      Result<workload::DetectionReplayResult> replay =
          workload::ReplayScenarioDetection(*tenant.output, tenant.name,
                                            &engine, replay_options);
      if (!replay.ok()) {
        std::fprintf(stderr, "detection replay failed for %s: %s\n",
                     tenant.name.c_str(),
                     replay.status().ToString().c_str());
        return 1;
      }
      Accumulate(detect_totals, replay->stats);
      size_t diagnosed = 0;
      for (const engine::DiagnosisResponse& response : replay->responses) {
        if (response.ok()) ++diagnosed;
      }
      std::printf(
          "%-28s %zu incident(s), %zu auto-diagnosis(es), "
          "detection latency %.1f min\n",
          tenant.name.c_str(), replay->incidents.size(), diagnosed,
          replay->detection_latency >= 0
              ? static_cast<double>(replay->detection_latency) / 60000.0
              : -1.0);
    }
    // The per-replay detectors are gone; scrape their summed final
    // snapshot as the diads_detect_* families.
    registry.AddSource([detect_totals](obs::MetricsEmitter& emitter) {
      detect::EmitDetectorSnapshot(detect_totals, {}, emitter);
    });
  }

  std::printf("\n%s", engine.Stats().Render().c_str());
  std::printf("engine health store: %zu series, %zu samples "
              "(self-monitoring tenant)\n",
              engine_health.series_count(), engine_health.total_samples());

  if (!trace_out.empty()) {
    if (!WriteFile(trace_out, tracer.ExportChromeTrace())) return 1;
    std::printf("wrote %zu spans to %s\n", tracer.span_count(),
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (!WriteFile(metrics_out, registry.ToJson())) return 1;
    if (!WriteFile(metrics_out + ".prom", registry.RenderPrometheus())) {
      return 1;
    }
    std::printf("wrote metrics snapshot to %s (+ .prom)\n",
                metrics_out.c_str());
  }

  if (fleet_log != nullptr) {
    fleet_store.DetachLog();
    std::printf("\n%s", fleet_log->Counters().Render().c_str());
  }

  // Distinct exit codes so callers (and CI) can tell load-management
  // refusals from genuine failures. Precedence: hard failure > shed >
  // admission-refused. The default invocation serves everything → 0.
  if (hard_failures > 0) return 5;
  if (deadline_shed > 0) return 4;
  if (admission_rejected > 0) return 3;
  return 0;
}
