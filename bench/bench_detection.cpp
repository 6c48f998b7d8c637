// Always-on detection experiment: detection latency per fault scenario,
// false-positive rate on a quiet fleet, and the sketch's overhead on the
// monitoring collection path.
//
// Three sections, each a CI gate:
//
//   * Latency: every scenario of the catalogue (workload::ScenarioSpec) is
//     replayed, on its only backend or else the default one, through a
//     SlowdownDetector wired to a live DiagnosisEngine. Every fault onset
//     must raise an incident *after* the satisfactory era and auto-submit
//     a diagnosis whose ReportDigest equals a serial Workflow::Diagnose
//     over the scenario's canonical context. The headline per scenario is
//     the detection latency in simulated minutes (fault onset ->
//     confirming sample): SAN-side faults elevate every monitoring
//     interval and confirm in ~45 simulated minutes; plan-change faults
//     only elevate the ~1-in-6 intervals that overlap a report run, so the
//     5-of-32-window confirmation needs ~4 run periods (~2¼ sim hours).
//   * Quiet fleet: every tenant of a BuildFleet fleet replayed up to its
//     satisfactory end — the era the golden table certifies healthy. Any
//     incident is a false positive; the gate is exactly zero.
//   * Overhead: Testbed::CollectMonitors (the SAN + DB collection
//     pipeline, i.e. the path that appends every production sample)
//     timed with and without a detector watching the store, alternating
//     reps to cancel store-growth bias. The per-append sketch cost must
//     stay under --max-overhead-pct (default 5) of the pipeline.
//
// A violated gate hard-fails the binary (exit 1) — same contract as the
// digest checks in the other benches. Machine-readable "[bench-json]"
// rows carry the per-scenario and summary numbers for CI.
//
//   $ ./bench_detection [--seed=N] [--tenants=N] [--overhead-reps=N]
//                       [--max-overhead-pct=N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/strings.h"
#include "db/backend.h"
#include "detect/detector.h"
#include "diads/report.h"
#include "diads/symptoms_db.h"
#include "diads/workflow.h"
#include "engine/engine.h"
#include "monitor/timeseries.h"
#include "support/bench_json.h"
#include "workload/detect_replay.h"
#include "workload/fleet.h"
#include "workload/scenario.h"

using namespace diads;

namespace {

struct BenchOptions {
  uint64_t seed = 42;
  int tenants = 5;         ///< Quiet-fleet size.
  int overhead_reps = 5;   ///< Collection reps per arm (min taken).
  double max_overhead_pct = 5.0;
};

int64_t FlagValue(int argc, char** argv, const char* name,
                  int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

double Ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Every scenario of the catalogue, each on the backend its spec pins or
/// else the default one.
std::vector<workload::ScenarioSpec> AllScenarios() {
  std::vector<workload::ScenarioSpec> specs;
  for (int i = 0; i < static_cast<int>(workload::ScenarioId::kCount); ++i) {
    specs.push_back(
        workload::GetScenarioSpec(static_cast<workload::ScenarioId>(i)));
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions bench;
  bench.seed = static_cast<uint64_t>(
      FlagValue(argc, argv, "seed", static_cast<int64_t>(bench.seed)));
  bench.tenants =
      static_cast<int>(FlagValue(argc, argv, "tenants", bench.tenants));
  bench.overhead_reps = static_cast<int>(
      FlagValue(argc, argv, "overhead-reps", bench.overhead_reps));
  bench.max_overhead_pct = static_cast<double>(FlagValue(
      argc, argv, "max-overhead-pct",
      static_cast<int64_t>(bench.max_overhead_pct)));

  const diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  bool all_detected = true;
  bool all_diagnosed = true;
  uint64_t onset_false_positives = 0;
  double max_latency_min = 0;

  // --- Detection latency per fault scenario ------------------------------
  const std::vector<workload::ScenarioSpec> scenarios = AllScenarios();
  std::printf("detection latency (%zu scenarios, seed %llu)\n",
              scenarios.size(), static_cast<unsigned long long>(bench.seed));
  for (const workload::ScenarioSpec& spec : scenarios) {
    const workload::ScenarioId id = spec.id;
    workload::ScenarioOptions scenario_options;
    scenario_options.seed = bench.seed;
    scenario_options.testbed.backend =
        spec.only_backend.value_or(scenario_options.testbed.backend);
    const char* backend = db::BackendKindName(scenario_options.testbed.backend);
    Result<workload::ScenarioOutput> scenario =
        workload::RunScenario(id, scenario_options);
    if (!scenario.ok()) {
      std::fprintf(stderr, "scenario %s failed: %s\n",
                   workload::ScenarioName(id),
                   scenario.status().ToString().c_str());
      return 1;
    }

    engine::EngineOptions engine_options;
    engine_options.workers = 2;
    engine::DiagnosisEngine engine(engine_options, &symptoms);
    Result<workload::DetectionReplayResult> replay =
        workload::ReplayScenarioDetection(*scenario, "bench", &engine);
    if (!replay.ok()) {
      std::fprintf(stderr, "replay %s failed: %s\n",
                   workload::ScenarioName(id),
                   replay.status().ToString().c_str());
      return 1;
    }

    // The auto-diagnosis must answer exactly what an administrator's
    // serial diagnosis of the same canonical context answers.
    diag::Workflow workflow(scenario->MakeContext(), diag::WorkflowConfig{},
                            &symptoms);
    Result<diag::DiagnosisReport> serial = workflow.Diagnose();
    if (!serial.ok()) {
      std::fprintf(stderr, "serial diagnosis of %s failed: %s\n",
                   workload::ScenarioName(id),
                   serial.status().ToString().c_str());
      return 1;
    }
    const bool detected = !replay->incidents.empty();
    const bool diagnosed = !replay->responses.empty() &&
                           replay->responses.front().ok();
    const bool digest_equal =
        diagnosed && diag::ReportDigest(*replay->responses.front().report) ==
                         diag::ReportDigest(*serial);
    bool onset_fp = false;
    for (const detect::Incident& incident : replay->incidents) {
      if (incident.confirmed_time <= scenario->satisfactory_window.end) {
        onset_fp = true;
      }
    }
    const double latency_min =
        detected ? static_cast<double>(replay->detection_latency) / 60000.0
                 : -1;
    all_detected = all_detected && detected && !onset_fp;
    all_diagnosed = all_diagnosed && digest_equal;
    if (onset_fp) ++onset_false_positives;
    max_latency_min = std::max(max_latency_min, latency_min);

    std::printf("  %-28s %-8s incidents=%zu diagnosed=%d digest=%s "
                "latency=%6.1f min (%llu crossings, %llu series)\n",
                workload::ScenarioName(id), backend, replay->incidents.size(),
                diagnosed ? 1 : 0, digest_equal ? "equal" : "DIFFERS",
                latency_min,
                static_cast<unsigned long long>(replay->stats.band_crossings),
                static_cast<unsigned long long>(replay->stats.series_tracked));
    bench::BenchJson("detection")
        .Str("mode", "scenario")
        .Str("scenario", workload::ScenarioName(id))
        .Str("backend", backend)
        .Int("incidents", static_cast<int64_t>(replay->incidents.size()))
        .Bool("diagnosed", diagnosed)
        .Bool("digest_equal", digest_equal)
        .Num("latency_min", latency_min, 1)
        .Uint("crossings", replay->stats.band_crossings)
        .Uint("suppressed_active", replay->stats.suppressed_active)
        .Emit();
  }

  // --- Quiet fleet false positives ---------------------------------------
  std::printf("quiet fleet (%d tenants, satisfactory era only)\n",
              bench.tenants);
  workload::FleetOptions fleet_options;
  fleet_options.tenants = bench.tenants;
  fleet_options.seed = bench.seed;
  Result<workload::FleetWorkload> fleet =
      workload::BuildFleet(fleet_options);
  if (!fleet.ok()) {
    std::fprintf(stderr, "BuildFleet failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }
  uint64_t quiet_incidents = 0;
  uint64_t quiet_samples = 0;
  uint64_t quiet_series = 0;
  for (const workload::FleetTenant& tenant : fleet->tenants) {
    workload::DetectionReplayOptions replay_options;
    replay_options.cutoff = tenant.output->satisfactory_window.end;
    Result<workload::DetectionReplayResult> replay =
        workload::ReplayScenarioDetection(*tenant.output, tenant.name,
                                          /*engine=*/nullptr,
                                          replay_options);
    if (!replay.ok()) {
      std::fprintf(stderr, "quiet replay %s failed: %s\n",
                   tenant.name.c_str(), replay.status().ToString().c_str());
      return 1;
    }
    quiet_incidents += replay->incidents.size();
    quiet_samples += replay->samples_replayed;
    quiet_series += replay->stats.series_tracked;
  }
  std::printf("  %llu false positives over %llu samples / %llu series\n",
              static_cast<unsigned long long>(quiet_incidents),
              static_cast<unsigned long long>(quiet_samples),
              static_cast<unsigned long long>(quiet_series));

  // --- Sketch overhead on the collection path ----------------------------
  // Two identical testbeds (same scenario, same seed — the simulation is
  // deterministic, so both produce byte-identical append streams): one is
  // never watched, one has the detector attached for the whole section.
  // Each rep collects the same fresh 24-sim-hour window past the
  // scenario's end on both (appends must be time-ordered per series, so
  // re-collecting an already-collected range is not allowed) and times
  // the arms back to back. Keeping the detector attached means sketch
  // state persists across reps — the first watched rep pays the one-off
  // KDE calibration fits, every later rep is pure steady state, and the
  // min-over-reps naturally reports the steady-state cost.
  workload::ScenarioOptions overhead_scenario_options;
  overhead_scenario_options.seed = bench.seed;
  Result<workload::ScenarioOutput> bare_scenario = workload::RunScenario(
      workload::ScenarioId::kS1SanMisconfiguration,
      overhead_scenario_options);
  Result<workload::ScenarioOutput> watched_scenario = workload::RunScenario(
      workload::ScenarioId::kS1SanMisconfiguration,
      overhead_scenario_options);
  if (!bare_scenario.ok() || !watched_scenario.ok()) {
    std::fprintf(stderr, "overhead scenario failed: %s\n",
                 (bare_scenario.ok() ? watched_scenario.status()
                                     : bare_scenario.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  workload::Testbed* bare_testbed = bare_scenario->testbed.get();
  workload::Testbed* watched_testbed = watched_scenario->testbed.get();
  const SimTimeMs rep_span = Hours(24);
  SimTimeMs rep_cursor =
      bare_scenario->unsatisfactory_window.end + Hours(1);
  detect::SlowdownDetector detector{detect::DetectorOptions{}};
  {
    Status status =
        detector.Watch("overhead", &watched_testbed->store, nullptr);
    if (!status.ok()) {
      std::fprintf(stderr, "Watch failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  double bare_ms = -1;
  double watched_ms = -1;
  uint64_t appends_per_rep = 0;
  for (int rep = 0; rep < bench.overhead_reps; ++rep) {
    const SimTimeMs from = rep_cursor;
    const SimTimeMs to = rep_cursor + rep_span;
    rep_cursor = to;
    for (int arm = 0; arm < 2; ++arm) {
      const bool watched = arm == 1;
      workload::Testbed* testbed = watched ? watched_testbed : bare_testbed;
      const uint64_t generation_before = testbed->store.StoreGeneration();
      const auto start = std::chrono::steady_clock::now();
      Status status = testbed->CollectMonitors(from, to);
      const double elapsed = Ms(start);
      if (!status.ok()) {
        std::fprintf(stderr, "CollectMonitors failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      appends_per_rep = testbed->store.StoreGeneration() - generation_before;
      if (watched) {
        if (watched_ms < 0 || elapsed < watched_ms) watched_ms = elapsed;
      } else {
        if (bare_ms < 0 || elapsed < bare_ms) bare_ms = elapsed;
      }
    }
  }
  detector.Unwatch(&watched_testbed->store);
  const double overhead_pct =
      bare_ms > 0 ? 100.0 * (watched_ms - bare_ms) / bare_ms : 0;
  const double bare_ns_per_append =
      appends_per_rep > 0 ? bare_ms * 1e6 / appends_per_rep : 0;
  const double watched_ns_per_append =
      appends_per_rep > 0 ? watched_ms * 1e6 / appends_per_rep : 0;
  std::printf(
      "collection overhead: bare %.1f ms, watched %.1f ms (%.2f%%; "
      "%.0f -> %.0f ns/append over %llu appends)\n",
      bare_ms, watched_ms, overhead_pct, bare_ns_per_append,
      watched_ns_per_append,
      static_cast<unsigned long long>(appends_per_rep));

  // --- Gates + summary ----------------------------------------------------
  const bool overhead_ok = overhead_pct < bench.max_overhead_pct;
  const bool pass = all_detected && all_diagnosed &&
                    quiet_incidents == 0 && overhead_ok;
  bench::BenchJson("detection")
      .Str("mode", "summary")
      .Int("catalogue", static_cast<int64_t>(scenarios.size()))
      .Bool("all_detected", all_detected)
      .Bool("all_diagnosed", all_diagnosed)
      .Uint("false_positives", quiet_incidents)
      .Uint("onset_false_positives", onset_false_positives)
      .Num("max_latency_min", max_latency_min, 1)
      .Num("append_overhead_pct", overhead_pct, 2)
      .Num("watched_ns_per_append", watched_ns_per_append, 0)
      .Bool("pass", pass)
      .Emit();

  if (!pass) {
    std::fprintf(stderr,
                 "GATE FAILED: detected=%d diagnosed=%d quiet_fp=%llu "
                 "overhead=%.2f%% (max %.1f%%)\n",
                 all_detected ? 1 : 0, all_diagnosed ? 1 : 0,
                 static_cast<unsigned long long>(quiet_incidents),
                 overhead_pct, bench.max_overhead_pct);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
