#include "detect/detector.h"

#include <utility>

#include "fleet/verdict.h"
#include "monitor/metrics.h"
#include "san/topology.h"

namespace diads::detect {

namespace {

int PopCount(uint32_t bits) {
  int n = 0;
  while (bits != 0) {
    bits &= bits - 1;
    ++n;
  }
  return n;
}

/// Single-writer counter increment: only the tenant's appending thread
/// writes, so a relaxed load+store (no locked RMW) is race-free and keeps
/// the per-append cost to two plain memory ops.
void Bump(std::atomic<uint64_t>& counter, uint64_t delta = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

}  // namespace

struct SlowdownDetector::SeriesState {
  explicit SeriesState(const SketchOptions& options) : sketch(options) {}

  SeriesSketch sketch;
  /// Crossing history of the last `window_samples` scored samples, newest
  /// sample in bit 0.
  uint32_t recent = 0;
  int in_band_streak = 0;
  bool confirmed = false;
  /// First append seen (slots exist for every ordinal up to the highest
  /// appended one, so a resize can create slots never appended to).
  bool seen = false;
  /// Start of the current crossing cluster (valid while `recent` != 0).
  SimTimeMs cluster_start = 0;
};

struct SlowdownDetector::TenantState {
  std::string name;
  monitor::TimeSeriesStore* store = nullptr;
  RequestFactory factory;

  // Hot counters: written only by the tenant's (one) appending thread
  // via Bump, read by Stats() from any thread — single-writer atomics,
  // never RMW. Unwatch folds them into the detector's retired_ sums.
  std::atomic<uint64_t> appends_observed{0}, appends_scored{0};
  std::atomic<uint64_t> series_tracked{0}, series_calibrated{0};
  std::atomic<uint64_t> band_crossings{0}, confirmations{0};
  std::atomic<uint64_t> suppressed_active{0}, suppressed_cooldown{0};

  // Appending-thread-confined state: the store contract is one appender
  // per store, so the per-append path takes no lock at all. Indexed by
  // the store's dense series ordinal — a direct contiguous-array load
  // per append instead of re-hashing the series key.
  std::vector<SeriesState> series;
  int confirmed_series = 0;
  bool incident_active = false;
  /// Sim time of the last incident opening (cooldown anchor).
  SimTimeMs last_open_time = 0;
  bool ever_opened = false;
};

/// The AppendListener installed on one tenant's store: tags each append
/// with its tenant and forwards to the detector.
class SlowdownDetector::Probe : public monitor::AppendListener {
 public:
  Probe(SlowdownDetector* detector, TenantState* tenant)
      : detector_(detector), tenant_(tenant) {}

  void OnAppend(ComponentId component, monitor::MetricId metric,
                const monitor::Sample& sample,
                uint32_t series_ordinal) override {
    detector_->OnAppend(tenant_, component, metric, sample, series_ordinal);
  }

 private:
  SlowdownDetector* detector_;
  TenantState* tenant_;
};

SlowdownDetector::SlowdownDetector(DetectorOptions options,
                                   engine::DiagnosisEngine* engine,
                                   obs::Tracer* tracer)
    : options_(options), engine_(engine), tracer_(tracer) {
  if (options_.window_samples < 1) options_.window_samples = 1;
  if (options_.window_samples > 32) options_.window_samples = 32;
  if (options_.confirmation_samples < 1) options_.confirmation_samples = 1;
  if (options_.confirmation_samples > options_.window_samples) {
    options_.confirmation_samples = options_.window_samples;
  }
  if (options_.recovery_samples < 1) options_.recovery_samples = 1;
  window_mask_ = options_.window_samples >= 32
                     ? 0xFFFFFFFFu
                     : ((1u << options_.window_samples) - 1);
}

void SlowdownDetector::Retire(TenantState* tenant) {
  retired_.appends_observed +=
      tenant->appends_observed.load(std::memory_order_relaxed);
  retired_.appends_scored +=
      tenant->appends_scored.load(std::memory_order_relaxed);
  retired_.series_tracked +=
      tenant->series_tracked.load(std::memory_order_relaxed);
  retired_.series_calibrated +=
      tenant->series_calibrated.load(std::memory_order_relaxed);
  retired_.band_crossings +=
      tenant->band_crossings.load(std::memory_order_relaxed);
  retired_.confirmations +=
      tenant->confirmations.load(std::memory_order_relaxed);
  retired_.suppressed_active +=
      tenant->suppressed_active.load(std::memory_order_relaxed);
  retired_.suppressed_cooldown +=
      tenant->suppressed_cooldown.load(std::memory_order_relaxed);
}

SlowdownDetector::~SlowdownDetector() {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  for (auto& [store, tenant] : tenants_) {
    store->SetAppendListener(nullptr);
    Retire(tenant.get());
  }
  tenants_.clear();
  probes_.clear();
}

Status SlowdownDetector::Watch(const std::string& tenant,
                               monitor::TimeSeriesStore* store,
                               RequestFactory factory) {
  if (store == nullptr) {
    return Status::InvalidArgument("Watch requires a store");
  }
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (tenants_.count(store) > 0) {
    return Status::InvalidArgument("store is already watched");
  }
  if (store->append_listener() != nullptr) {
    return Status::InvalidArgument("store already has an append listener");
  }
  auto state = std::make_unique<TenantState>();
  state->name = tenant;
  state->store = store;
  state->factory = std::move(factory);
  // The probe shares the TenantState's lifetime; park it in the map via
  // the state so Unwatch tears both down together.
  auto probe = std::make_unique<Probe>(this, state.get());
  store->SetAppendListener(probe.get());
  probes_[store] = std::move(probe);
  tenants_[store] = std::move(state);
  watched_tenants_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void SlowdownDetector::Unwatch(monitor::TimeSeriesStore* store) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(store);
  if (it == tenants_.end()) return;
  store->SetAppendListener(nullptr);
  Retire(it->second.get());
  tenants_.erase(it);
  probes_.erase(store);
  watched_tenants_.fetch_sub(1, std::memory_order_relaxed);
}

void SlowdownDetector::OnAppend(TenantState* tenant, ComponentId component,
                                monitor::MetricId metric,
                                const monitor::Sample& sample,
                                uint32_t series_ordinal) {
  Bump(tenant->appends_observed);
  if (series_ordinal >= tenant->series.size()) {
    // Ordinals are dense creation-order, but the detector may attach to
    // a store that already has series — resize covers any gap with
    // fresh (uncalibrated, unseen) slots.
    tenant->series.resize(series_ordinal + 1, SeriesState(options_.sketch));
  }
  SeriesState& series = tenant->series[series_ordinal];
  if (!series.seen) {
    series.seen = true;
    Bump(tenant->series_tracked);
  }

  const bool was_calibrated = series.sketch.calibrated();
  const SampleVerdict verdict = series.sketch.Observe(sample.value);
  if (!was_calibrated && series.sketch.calibrated()) {
    Bump(tenant->series_calibrated);
  }
  if (verdict == SampleVerdict::kCalibrating) return;
  Bump(tenant->appends_scored);

  const bool crossing = verdict == SampleVerdict::kCrossing;
  if (series.recent == 0 && crossing) series.cluster_start = sample.time;
  series.recent = ((series.recent << 1) | (crossing ? 1u : 0u)) & window_mask_;

  if (crossing) {
    Bump(tenant->band_crossings);
    series.in_band_streak = 0;
    if (!series.confirmed &&
        PopCount(series.recent) >= options_.confirmation_samples) {
      series.confirmed = true;
      ++tenant->confirmed_series;
      Bump(tenant->confirmations);
    }
    if (series.confirmed) {
      MaybeOpenIncident(tenant, component, metric, sample, series);
    }
    return;
  }

  ++series.in_band_streak;
  if (series.confirmed &&
      series.in_band_streak >= options_.recovery_samples) {
    series.confirmed = false;
    series.recent = 0;
    --tenant->confirmed_series;
    if (tenant->confirmed_series == 0 && tenant->incident_active) {
      tenant->incident_active = false;
      incidents_closed_.fetch_add(1, std::memory_order_relaxed);
      active_incidents_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void SlowdownDetector::MaybeOpenIncident(TenantState* tenant,
                                         ComponentId component,
                                         monitor::MetricId metric,
                                         const monitor::Sample& sample,
                                         const SeriesState& series) {
  if (tenant->incident_active) {
    Bump(tenant->suppressed_active);
    return;
  }
  if (tenant->ever_opened &&
      sample.time < tenant->last_open_time + options_.cooldown) {
    Bump(tenant->suppressed_cooldown);
    return;
  }

  Incident incident;
  incident.sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  incident.tenant = tenant->name;
  incident.component = component;
  incident.metric = metric;
  incident.onset_time = series.cluster_start;
  incident.confirmed_time = sample.time;
  incident.value = sample.value;
  incident.threshold = series.sketch.threshold();

  tenant->incident_active = true;
  tenant->ever_opened = true;
  tenant->last_open_time = sample.time;
  incidents_opened_.fetch_add(1, std::memory_order_relaxed);
  active_incidents_.fetch_add(1, std::memory_order_relaxed);

  obs::SpanHandle span;
  if (tracer_ != nullptr) {
    span = tracer_->Root().StartSpan("detect_incident", "detect");
    span.Note("tenant", tenant->name);
    span.Note("sequence", incident.sequence);
    span.Note("metric", monitor::MetricShortName(metric));
    span.Note("onset_sim", FormatSimTime(incident.onset_time));
    span.Note("confirmed_sim", FormatSimTime(incident.confirmed_time));
  }

  std::future<engine::DiagnosisResponse> future;
  bool submitted = false;
  if (engine_ != nullptr && tenant->factory != nullptr) {
    engine::DiagnosisRequest request = tenant->factory();
    auto stamp = std::make_shared<fleet::IncidentStamp>();
    stamp->sequence = incident.sequence;
    if (request.ctx.topology != nullptr &&
        request.ctx.topology->registry().Contains(component)) {
      stamp->subject = request.ctx.topology->registry().NameOf(component);
    }
    stamp->metric = metric;
    stamp->onset_time = incident.onset_time;
    stamp->confirmed_time = incident.confirmed_time;
    request.incident = std::move(stamp);
    future = engine_->Submit(std::move(request));
    diagnoses_submitted_.fetch_add(1, std::memory_order_relaxed);
    submitted = true;
    span.Note("diagnosis", "submitted");
  }
  span.End();

  std::lock_guard<std::mutex> lock(log_mu_);
  incidents_.push_back(std::move(incident));
  if (submitted) futures_.push_back(std::move(future));
}

DetectorStats SlowdownDetector::Stats() const {
  DetectorStats out;
  std::lock_guard<std::mutex> lock(tenants_mu_);
  out.appends_observed = retired_.appends_observed;
  out.appends_scored = retired_.appends_scored;
  out.series_tracked = retired_.series_tracked;
  out.series_calibrated = retired_.series_calibrated;
  out.band_crossings = retired_.band_crossings;
  out.confirmations = retired_.confirmations;
  out.suppressed_active = retired_.suppressed_active;
  out.suppressed_cooldown = retired_.suppressed_cooldown;
  for (const auto& [store, tenant] : tenants_) {
    (void)store;
    out.appends_observed +=
        tenant->appends_observed.load(std::memory_order_relaxed);
    out.appends_scored +=
        tenant->appends_scored.load(std::memory_order_relaxed);
    out.series_tracked +=
        tenant->series_tracked.load(std::memory_order_relaxed);
    out.series_calibrated +=
        tenant->series_calibrated.load(std::memory_order_relaxed);
    out.band_crossings +=
        tenant->band_crossings.load(std::memory_order_relaxed);
    out.confirmations +=
        tenant->confirmations.load(std::memory_order_relaxed);
    out.suppressed_active +=
        tenant->suppressed_active.load(std::memory_order_relaxed);
    out.suppressed_cooldown +=
        tenant->suppressed_cooldown.load(std::memory_order_relaxed);
  }
  out.incidents_opened = incidents_opened_.load(std::memory_order_relaxed);
  out.incidents_closed = incidents_closed_.load(std::memory_order_relaxed);
  out.diagnoses_submitted =
      diagnoses_submitted_.load(std::memory_order_relaxed);
  out.active_incidents = active_incidents_.load(std::memory_order_relaxed);
  out.watched_tenants = watched_tenants_.load(std::memory_order_relaxed);
  return out;
}

std::vector<Incident> SlowdownDetector::Incidents() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return incidents_;
}

size_t SlowdownDetector::WaitForDiagnoses() {
  std::vector<std::future<engine::DiagnosisResponse>> pending;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    pending = std::move(futures_);
    futures_.clear();
  }
  size_t ok = 0;
  std::vector<engine::DiagnosisResponse> resolved;
  resolved.reserve(pending.size());
  for (std::future<engine::DiagnosisResponse>& future : pending) {
    resolved.push_back(future.get());
    if (resolved.back().ok()) ++ok;
  }
  std::lock_guard<std::mutex> lock(log_mu_);
  for (engine::DiagnosisResponse& response : resolved) {
    responses_.push_back(std::move(response));
  }
  return ok;
}

std::vector<engine::DiagnosisResponse> SlowdownDetector::TakeResponses() {
  WaitForDiagnoses();
  std::lock_guard<std::mutex> lock(log_mu_);
  std::vector<engine::DiagnosisResponse> out = std::move(responses_);
  responses_.clear();
  return out;
}

}  // namespace diads::detect
