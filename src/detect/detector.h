// Always-on slowdown detection: from request-driven to streaming diagnosis.
//
// The paper's workflow runs when an administrator asks "why did my query
// slow down?". At fleet scale nobody is watching every tenant, so the
// system must notice the slowdown itself. SlowdownDetector hooks a
// tenant's TimeSeriesStore appends (monitor::AppendListener), scores each
// sample against a per-series SeriesSketch, and walks a small state
// machine per series:
//
//   append ──> sketch (EWMA band + KDE-calibrated ceiling)
//     crossing? ──> windowed confirmation (K of the last W scored samples)
//       confirmed? ──> tenant incident (dedup + cooldown)
//         opened? ──> auto-submit a DiagnosisRequest to the engine
//
// Incident discipline — one incident, one diagnosis, not a storm:
//   * A tenant has at most one *active* incident. While it is active,
//     further series confirmations are suppressed (counted, not acted on)
//     — a fault that degrades twelve metrics asks the engine once.
//   * The incident closes when every confirmed series has re-entered its
//     band for `recovery_samples` consecutive samples. A later
//     re-crossing opens a *new* incident with a fresh (monotone)
//     sequence stamp.
//   * A sim-time cooldown between openings bounds the worst-case
//     diagnosis rate per tenant even for a flapping fault.
//   * The submitted request is a plain engine request (same cache key
//     rules), so it coalesces with — and its result is shared by — any
//     administrator asking the same question (single-flight), and its
//     report digest is byte-identical to the request-driven one.
//
// Threading: TimeSeriesStore is single-threaded per store, so OnAppend
// arrives on each tenant's (one) appending thread; distinct tenants may
// append concurrently. The per-append hot path is lock-free: series
// state is confined to the appending thread, and the hot counters are
// per-tenant single-writer atomics (relaxed load+store, no RMW) that
// Stats() aggregates. Cross-tenant state (sequence, incident log,
// incident counters, the watch table) uses shared atomics and two small
// mutexes touched only on rare events. Engine::Submit is thread-safe and
// called without any detector-wide lock held.
//
// Digest-neutrality: the detector observes appends and submits requests;
// it never mutates a store, a context, or a report. With no detector
// attached (or detection disabled) every byte of every report is
// unchanged — enforced by the conformance suite against the golden table.
#ifndef DIADS_DETECT_DETECTOR_H_
#define DIADS_DETECT_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "detect/sketch.h"
#include "engine/engine.h"
#include "monitor/timeseries.h"
#include "obs/trace.h"

namespace diads::detect {

struct DetectorOptions {
  SketchOptions sketch;
  /// A series is confirmed anomalous when `confirmation_samples` of its
  /// last `window_samples` scored samples were crossings. Windowed rather
  /// than strictly consecutive: the report workload runs every ~30
  /// minutes against a 5-minute monitoring interval, so even a hard
  /// DB-side fault elevates only ~1 sample in 6 — the window must span
  /// several run periods for those crossings to accumulate. 5-of-32
  /// confirms a plan-change fault within ~4-5 run periods (~2 simulated
  /// hours) and a SAN-side fault (every sample elevated) within ~25
  /// minutes. Independent noise spikes (a few percent per sample) rarely
  /// put five crossings in one window, but the rule does not rule false
  /// alarms out: every scenario's quiet era confirms nothing at seed 42,
  /// yet over seeds 1-10, 68 of the 500 replays of the 50 configurations
  /// confirm an incident before the fault onset, mostly on bursty series
  /// whose threshold was calibrated on too few samples. See the ROADMAP's
  /// open item on the detector's false alarms before fault onset.
  int confirmation_samples = 5;
  int window_samples = 32;
  /// Consecutive in-band samples before a confirmed series recovers.
  /// Defaults to the window length: recovery means the whole
  /// confirmation window went clean, so the once-per-run-period gaps of
  /// a sustained DB-side fault never flap the incident closed.
  int recovery_samples = 32;
  /// Minimum sim-time between incident openings per tenant.
  SimTimeMs cooldown = Minutes(30);
};

/// One raised incident (scoped to a tenant; the triggering series is the
/// first one whose confirmation opened it).
struct Incident {
  uint64_t sequence = 0;  ///< Detector-wide monotone; the generation stamp.
  std::string tenant;
  ComponentId component;  ///< Triggering series.
  monitor::MetricId metric = monitor::MetricId::kVolTotalIos;
  SimTimeMs onset_time = 0;      ///< First crossing of the confirming cluster.
  SimTimeMs confirmed_time = 0;  ///< Sample that confirmed.
  double value = 0;      ///< The confirming sample's value.
  double threshold = 0;  ///< The sketch threshold it exceeded.
};

/// Counter snapshot (all counters detector-lifetime monotone except the
/// two gauges at the bottom).
struct DetectorStats {
  uint64_t appends_observed = 0;  ///< Every OnAppend.
  uint64_t appends_scored = 0;    ///< Post-calibration scores.
  uint64_t series_tracked = 0;
  uint64_t series_calibrated = 0;
  uint64_t band_crossings = 0;
  uint64_t confirmations = 0;        ///< Series entering confirmed state.
  uint64_t incidents_opened = 0;
  uint64_t incidents_closed = 0;
  uint64_t suppressed_active = 0;    ///< Confirmations under an active incident.
  uint64_t suppressed_cooldown = 0;  ///< Openings deferred by cooldown.
  uint64_t diagnoses_submitted = 0;
  uint64_t active_incidents = 0;  ///< Gauge.
  uint64_t watched_tenants = 0;   ///< Gauge.
};

class SlowdownDetector {
 public:
  /// Builds the DiagnosisRequest an incident submits for its tenant (the
  /// question "why did this tenant's query slow down", asked by the
  /// machine). Called once per opened incident, on the appending thread.
  using RequestFactory = std::function<engine::DiagnosisRequest()>;

  /// `engine` may be null (incidents are still raised and counted — the
  /// false-positive bench runs detection without a diagnosis engine);
  /// when set it must outlive the detector. `tracer` (may be null) files
  /// a "detect_incident" span per opened incident.
  explicit SlowdownDetector(DetectorOptions options,
                            engine::DiagnosisEngine* engine = nullptr,
                            obs::Tracer* tracer = nullptr);
  ~SlowdownDetector();

  SlowdownDetector(const SlowdownDetector&) = delete;
  SlowdownDetector& operator=(const SlowdownDetector&) = delete;

  /// Starts watching `store`'s appends as tenant `tenant` (installs the
  /// detector's probe as the store's append listener). `factory` may be
  /// null (incidents only). The store must stay alive — and must not be
  /// appended to — after Unwatch/destruction; one store, one tenant.
  Status Watch(const std::string& tenant, monitor::TimeSeriesStore* store,
               RequestFactory factory);

  /// Detaches the probe from `store`. Idempotent; also run for every
  /// still-watched store at destruction.
  void Unwatch(monitor::TimeSeriesStore* store);

  DetectorStats Stats() const;

  /// Every incident opened so far, in sequence order.
  std::vector<Incident> Incidents() const;

  /// Blocks until every auto-submitted diagnosis has resolved and moves
  /// the responses into the internal log (see TakeResponses). Returns
  /// the number that resolved ok.
  size_t WaitForDiagnoses();

  /// Moves out the accumulated auto-diagnosis responses (in submit
  /// order). Implies WaitForDiagnoses for anything still in flight.
  std::vector<engine::DiagnosisResponse> TakeResponses();

  const DetectorOptions& options() const { return options_; }

 private:
  struct SeriesState;
  struct TenantState;
  class Probe;

  void OnAppend(TenantState* tenant, ComponentId component,
                monitor::MetricId metric, const monitor::Sample& sample,
                uint32_t series_ordinal);
  /// Incident-opening attempt for a confirmed series' crossing sample.
  /// Called with the tenant's mutex held.
  void MaybeOpenIncident(TenantState* tenant, ComponentId component,
                         monitor::MetricId metric,
                         const monitor::Sample& sample,
                         const SeriesState& series);

  /// Folds a departing tenant's hot counters into retired_ (caller holds
  /// tenants_mu_; the tenant's appender must already have stopped).
  void Retire(TenantState* tenant);

  DetectorOptions options_;
  engine::DiagnosisEngine* engine_;  ///< May be null.
  obs::Tracer* tracer_;              ///< May be null.
  uint32_t window_mask_ = 0;         ///< (1 << window_samples) - 1.

  std::atomic<uint64_t> sequence_{0};
  // Rare-event counters (see DetectorStats); the per-append hot counters
  // live on each TenantState and are aggregated by Stats().
  std::atomic<uint64_t> incidents_opened_{0}, incidents_closed_{0};
  std::atomic<uint64_t> diagnoses_submitted_{0};
  std::atomic<uint64_t> active_incidents_{0};
  std::atomic<uint64_t> watched_tenants_{0};

  /// Hot-counter sums of unwatched tenants (guarded by tenants_mu_).
  struct RetiredCounters {
    uint64_t appends_observed = 0, appends_scored = 0;
    uint64_t series_tracked = 0, series_calibrated = 0;
    uint64_t band_crossings = 0, confirmations = 0;
    uint64_t suppressed_active = 0, suppressed_cooldown = 0;
  };
  RetiredCounters retired_;

  mutable std::mutex tenants_mu_;  ///< Guards the watch table + retired_.
  std::unordered_map<monitor::TimeSeriesStore*, std::unique_ptr<TenantState>>
      tenants_;
  std::unordered_map<monitor::TimeSeriesStore*, std::unique_ptr<Probe>>
      probes_;

  mutable std::mutex log_mu_;  ///< Guards the incident + response logs.
  std::vector<Incident> incidents_;
  std::vector<std::future<engine::DiagnosisResponse>> futures_;
  std::vector<engine::DiagnosisResponse> responses_;
};

}  // namespace diads::detect

#endif  // DIADS_DETECT_DETECTOR_H_
