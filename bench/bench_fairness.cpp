// Serving-hardening experiment: what tenant-fair queueing buys a victim
// tenant when another tenant floods the engine, and what the segment log
// buys the fleet store across a crash.
//
// Experiment 1 (fairness): an adversarial flooding fleet — tenant 0
// bursts --flood-requests identical diagnosis requests, then 4 victim
// tenants each submit a few questions of their own (result cache and
// coalescing OFF, so the flood genuinely occupies the queue; admission
// shares opened to 1.0, so only the dispatch discipline differs). Each
// diagnosis waits on its collection: a SimulatedSanCollector answers
// every component fetch after --fetch-ms, with a connection for every
// fetch the workers can have in flight. The same stream runs twice:
//
//   fifo — every request of the pass carries one tag, so the fair queue
//          has one sub-queue and dispatches in arrival order: every
//          victim request waits behind the whole remaining flood. With
//          the cache, coalescing and the fleet store off, the tag
//          reaches nothing but the queue.
//   wfq  — deficit-round-robin over per-tenant sub-queues: victims'
//          requests overtake the flood's tail at their weighted rate.
//
// The headline is the victim p99 latency ratio (wfq / fifo), CI-gated at
// <= 0.5: fair queueing must at least halve the victim tail under a
// flood. Every response (flood and victim, both modes) is digest-checked
// against the serial ground truth — scheduling must never change report
// bytes.
//
// Experiment 2 (shedding): the same stream under wfq, with a short
// deadline stamped on every flood request. Expired flood requests must
// be shed at dispatch (kDeadlineExceeded, no worker time spent) while
// every deadline-less victim request still completes with a verified
// digest.
//
// Experiment 3 (crash recovery): the wfq run publishes every computed
// verdict into a FleetStore with a SegmentLog attached. The store is
// then "crashed" (dropped) and a fresh store recovered via
// RecoverFromLog; the recovered store must answer the full FleetQuery
// surface byte-identically to the pre-crash store. CI gates on
// queries_byte_equal and zero dropped records (clean shutdown — fault
// injection lives in fleet_log_test).
//
//   $ ./bench_fairness [--workers=N] [--flood-requests=N] [--victims=N]
//                      [--requests-per-victim=N] [--fetch-ms=N]
//                      [--shed-deadline-ms=N] [--seed=N]
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/table_printer.h"
#include "diads/report.h"
#include "diads/symptoms_db.h"
#include "engine/engine.h"
#include "fleet/log.h"
#include "fleet/query.h"
#include "fleet/store.h"
#include "monitor/async_collector.h"
#include "support/bench_json.h"
#include "workload/fleet.h"

using namespace diads;

namespace {

struct BenchOptions {
  int workers = 2;
  int flood_requests = 48;
  int victims = 4;
  int requests_per_victim = 3;
  double fetch_ms = 1;          ///< Simulated round-trip per fetch.
  double shed_deadline_ms = 8;  ///< Flood deadline in the shed pass.
  uint64_t seed = 42;
};

int64_t FlagValue(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(q * (samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

struct ModeResult {
  const char* mode = "";
  double victim_p99_ms = 0;
  double victim_mean_ms = 0;
  double flood_p99_ms = 0;
  uint64_t starvation_avoided = 0;
  uint64_t shed_deadline = 0;
  int completed = 0;
  int shed = 0;
  int digest_mismatches = 0;
  int failures = 0;
};

/// One pass of the flooding stream through an engine. `serial_digests`
/// holds the per-tenant ground truth; `one_tenant` tags every request
/// alike (the FIFO baseline); `flood_deadline_ms` > 0 stamps a deadline
/// on every flood (tenant 0) request. `store` (may be null) attaches the
/// fleet store for the recovery experiment.
ModeResult RunMode(const workload::FleetWorkload& fleet,
                   const diag::SymptomsDb& symptoms,
                   const std::vector<std::string>& serial_digests,
                   const BenchOptions& bench, bool one_tenant,
                   double flood_deadline_ms, fleet::FleetStore* store,
                   const char* mode_name) {
  engine::EngineOptions options;
  options.workers = bench.workers;
  options.queue_capacity =
      static_cast<size_t>(fleet.requests.size()) + 16;
  // The flood requests are identical on purpose; caching or coalescing
  // would collapse them and nothing would flood.
  options.enable_cache = false;
  options.coalesce_identical = false;
  // Shares wide open: this experiment isolates the dispatch discipline
  // (DRR vs FIFO); admission refusals are engine_serving --flood's demo.
  options.fairness.tenant_share_fraction = 1.0;
  options.fleet_store = store;
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = bench.fetch_ms;
  latency.connections = bench.workers * options.gather.max_in_flight;
  engine::DiagnosisEngine engine(
      options, &symptoms,
      std::make_shared<monitor::SimulatedSanCollector>(latency));

  std::vector<engine::DiagnosisRequest> stream = fleet.requests;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (one_tenant) stream[i].tag = "fifo";
    if (flood_deadline_ms > 0 && fleet.tenant_of_request[i] == 0) {
      stream[i].deadline_ms = flood_deadline_ms;
    }
  }

  std::vector<engine::DiagnosisResponse> responses =
      engine.BatchDiagnose(std::move(stream));

  ModeResult result;
  result.mode = mode_name;
  std::vector<double> victim_ms;
  std::vector<double> flood_ms;
  for (size_t i = 0; i < responses.size(); ++i) {
    const engine::DiagnosisResponse& response = responses[i];
    const size_t tenant = fleet.tenant_of_request[i];
    if (response.ok()) {
      ++result.completed;
      (tenant == 0 ? flood_ms : victim_ms).push_back(response.latency_ms);
      if (diag::ReportDigest(*response.report) != serial_digests[tenant]) {
        ++result.digest_mismatches;
      }
    } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++result.shed;
    } else {
      ++result.failures;
      std::fprintf(stderr, "[%s] request %zu failed: %s\n", mode_name, i,
                   response.status.ToString().c_str());
    }
  }
  result.victim_p99_ms = Percentile(victim_ms, 0.99);
  result.victim_mean_ms =
      victim_ms.empty()
          ? 0
          : std::accumulate(victim_ms.begin(), victim_ms.end(), 0.0) /
                victim_ms.size();
  result.flood_p99_ms = Percentile(flood_ms, 0.99);
  const engine::EngineStatsSnapshot stats = engine.Stats();
  result.starvation_avoided = stats.starvation_avoided;
  result.shed_deadline = stats.shed_deadline;
  return result;
}

/// Serializes every FleetQuery answer into one string: two stores answer
/// byte-identically iff their fingerprints are equal. Confidences print
/// with %.17g so no two distinct doubles collide.
std::string QueryFingerprint(const fleet::FleetStore& store) {
  fleet::FleetQuery query(&store);
  std::string out;
  for (const char* component : {"V1", "V2", "P1", "S1", "D1"}) {
    out += StrFormat("sharing(%s):", component);
    for (const std::string& tenant :
         query.TenantsSharingComponent(component)) {
      out += tenant + ",";
    }
    out += StrFormat(";implicating(%s):", component);
    for (const std::string& tenant : query.TenantsImplicating(component)) {
      out += tenant + ",";
    }
    out += ";";
  }
  out += "top:";
  for (const fleet::FleetQuery::ImplicatedComponent& row :
       query.TopImplicatedComponents(16)) {
    out += StrFormat("%s=%d@%.17g(", row.component.c_str(), row.tenants,
                     row.max_confidence);
    for (const std::string& tenant : row.tenant_names) out += tenant + ",";
    out += ");";
  }
  out += "cooccur:";
  for (const fleet::FleetQuery::CauseCooccurrence& row :
       query.RootCauseCooccurrence()) {
    out += StrFormat("%d+%d=%d;", static_cast<int>(row.a),
                     static_cast<int>(row.b), row.tenants);
  }
  return out;
}

void RemoveLogDir(const std::string& dir) {
  for (const std::string& name : fleet::SegmentLog::ListSegments(dir)) {
    std::remove((dir + "/" + name).c_str());
  }
  rmdir(dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions bench;
  bench.workers =
      static_cast<int>(FlagValue(argc, argv, "workers", bench.workers));
  bench.flood_requests = static_cast<int>(
      FlagValue(argc, argv, "flood-requests", bench.flood_requests));
  bench.victims =
      static_cast<int>(FlagValue(argc, argv, "victims", bench.victims));
  bench.requests_per_victim = static_cast<int>(FlagValue(
      argc, argv, "requests-per-victim", bench.requests_per_victim));
  bench.fetch_ms = static_cast<double>(FlagValue(
      argc, argv, "fetch-ms", static_cast<int64_t>(bench.fetch_ms)));
  bench.shed_deadline_ms = static_cast<double>(
      FlagValue(argc, argv, "shed-deadline-ms",
                static_cast<int64_t>(bench.shed_deadline_ms)));
  bench.seed = static_cast<uint64_t>(
      FlagValue(argc, argv, "seed", static_cast<int64_t>(bench.seed)));

  workload::FloodingFleetOptions flood_options;
  flood_options.victim_tenants = bench.victims;
  flood_options.flood_requests = bench.flood_requests;
  flood_options.requests_per_victim = bench.requests_per_victim;
  flood_options.seed = bench.seed;
  std::printf(
      "Building the flooding fleet (1 flooder x %d requests, %d victims "
      "x %d requests)...\n",
      bench.flood_requests, bench.victims, bench.requests_per_victim);
  Result<workload::FleetWorkload> fleet =
      workload::BuildFloodingFleet(flood_options);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet build failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }
  const diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();

  // Ground truth once per tenant: every engine response must match its
  // tenant's serial digest whatever the scheduling did.
  std::vector<std::string> serial_digests;
  for (const workload::FleetTenant& tenant : fleet->tenants) {
    Result<diag::DiagnosisReport> serial = workload::SerialDiagnosis(
        tenant, fleet->requests.front().config, &symptoms);
    if (!serial.ok()) {
      std::fprintf(stderr, "serial diagnosis (%s) failed: %s\n",
                   tenant.name.c_str(), serial.status().ToString().c_str());
      return 1;
    }
    serial_digests.push_back(diag::ReportDigest(*serial));
  }

  std::printf(
      "Stream: %zu requests, %d workers, %.0fms simulated round-trip per "
      "component fetch, cache/coalescing off.\n\n",
      fleet->requests.size(), bench.workers, bench.fetch_ms);

  // --- Experiment 1+3: fifo vs wfq; the wfq pass feeds the durability
  // round trip (publish through an attached segment log).
  char log_dir_template[] = "/tmp/bench_fairness_log_XXXXXX";
  const char* log_dir = mkdtemp(log_dir_template);
  if (log_dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  fleet::LogOptions log_options;
  log_options.dir = log_dir;
  Result<std::unique_ptr<fleet::SegmentLog>> log =
      fleet::SegmentLog::Open(std::move(log_options));
  if (!log.ok()) {
    std::fprintf(stderr, "segment log open failed: %s\n",
                 log.status().ToString().c_str());
    return 1;
  }
  fleet::FleetStore oracle_store;
  oracle_store.AttachLog(log->get());

  ModeResult fifo = RunMode(*fleet, symptoms, serial_digests, bench,
                            /*one_tenant=*/true, /*flood_deadline_ms=*/0,
                            /*store=*/nullptr, "fifo");
  ModeResult wfq = RunMode(*fleet, symptoms, serial_digests, bench,
                           /*one_tenant=*/false, /*flood_deadline_ms=*/0,
                           &oracle_store, "wfq");
  oracle_store.DetachLog();
  (*log)->Flush();
  const fleet::LogCounters log_counters = (*log)->Counters();
  log->reset();  // Close the tail segment before replaying it.

  // --- Experiment 2: deadline shedding under wfq (no store: shed floods
  // publish nothing, and the recovery oracle is already written).
  ModeResult shed = RunMode(*fleet, symptoms, serial_digests, bench,
                            /*one_tenant=*/false, bench.shed_deadline_ms,
                            /*store=*/nullptr, "wfq_shed");

  // --- Experiment 3: crash the store, recover from the log, compare the
  // full query surface byte-for-byte.
  fleet::FleetStore recovered_store;
  const fleet::ReplayStats replay =
      fleet::RecoverFromLog(log_dir, &recovered_store);
  const std::string oracle_fp = QueryFingerprint(oracle_store);
  const std::string recovered_fp = QueryFingerprint(recovered_store);
  const bool byte_equal = oracle_fp == recovered_fp;
  RemoveLogDir(log_dir);

  // --- Report.
  TablePrinter table({"Mode", "Victim p99 (ms)", "Victim mean (ms)",
                      "Flood p99 (ms)", "Overtakes", "Shed", "Digest errs"});
  for (const ModeResult& r : {fifo, wfq, shed}) {
    table.AddRow(
        {r.mode, StrFormat("%.1f", r.victim_p99_ms),
         StrFormat("%.1f", r.victim_mean_ms),
         StrFormat("%.1f", r.flood_p99_ms),
         StrFormat("%llu", static_cast<unsigned long long>(
                               r.starvation_avoided)),
         StrFormat("%d", r.shed), StrFormat("%d", r.digest_mismatches)});
  }
  std::printf("%s\n", table.Render().c_str());

  for (const ModeResult& r : {fifo, wfq, shed}) {
    diads::bench::BenchJson("engine_fairness")
        .Str("mode", r.mode)
        .Num("victim_p99_ms", r.victim_p99_ms, 2)
        .Num("victim_mean_ms", r.victim_mean_ms, 2)
        .Num("flood_p99_ms", r.flood_p99_ms, 2)
        .Uint("starvation_avoided", r.starvation_avoided)
        .Int("shed", r.shed)
        .Int("completed", r.completed)
        .Int("failures", r.failures)
        .Int("digest_mismatches", r.digest_mismatches)
        .Emit();
  }

  const double ratio =
      fifo.victim_p99_ms > 0 ? wfq.victim_p99_ms / fifo.victim_p99_ms : 0;
  const int victim_requests = bench.victims * bench.requests_per_victim;
  const bool victims_ok_under_shed =
      shed.failures == 0 && shed.digest_mismatches == 0 &&
      shed.completed + shed.shed ==
          static_cast<int>(fleet->requests.size()) &&
      shed.completed >= victim_requests;
  diads::bench::BenchJson("engine_fairness")
      .Str("mode", "summary")
      .Num("victim_p99_fifo_ms", fifo.victim_p99_ms, 2)
      .Num("victim_p99_wfq_ms", wfq.victim_p99_ms, 2)
      .Num("victim_p99_ratio", ratio, 3)
      .Int("shed_flood_requests", shed.shed)
      .Bool("victims_ok_under_shed", victims_ok_under_shed)
      .Int("digest_mismatches",
           fifo.digest_mismatches + wfq.digest_mismatches +
               shed.digest_mismatches)
      .Int("failures", fifo.failures + wfq.failures + shed.failures)
      .Emit();

  std::printf(
      "\nVictim p99: %.1fms (fifo) -> %.1fms (wfq), ratio %.3f "
      "(gate: <= 0.5)\n",
      fifo.victim_p99_ms, wfq.victim_p99_ms, ratio);
  std::printf(
      "Shed pass: %d flood requests shed at dispatch, %d completed, "
      "victims ok: %s\n",
      shed.shed, shed.completed, victims_ok_under_shed ? "yes" : "no");
  std::printf(
      "Recovery: %llu records appended, %llu replayed, %llu dropped, "
      "query surface byte-equal: %s\n",
      static_cast<unsigned long long>(log_counters.appends),
      static_cast<unsigned long long>(replay.records_replayed),
      static_cast<unsigned long long>(replay.records_dropped),
      byte_equal ? "yes" : "no");

  diads::bench::BenchJson("engine_fairness")
      .Str("mode", "recovery")
      .Uint("records_appended", log_counters.appends)
      .Uint("records_replayed", replay.records_replayed)
      .Uint("records_dropped", replay.records_dropped)
      .Uint("decode_failures", replay.decode_failures)
      .Uint("segments_scanned", replay.segments_scanned)
      .Uint("store_entries", recovered_store.TotalCounters().entries)
      .Bool("queries_byte_equal", byte_equal)
      .Emit();

  return 0;
}
