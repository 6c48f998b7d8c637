#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "fleet/store.h"
#include "fleet/verdict.h"

namespace diads::engine {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ElapsedMs(Clock::time_point since) {
  return MsBetween(since, Clock::now());
}

uint64_t MixBits(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t MixAnomalyConfig(uint64_t h, const stats::AnomalyConfig& config) {
  h = MixBits(h, static_cast<uint64_t>(config.bandwidth_rule));
  h = MixBits(h, static_cast<uint64_t>(config.aggregation));
  h = MixBits(h, DoubleBits(config.threshold));
  return h;
}

/// The tenant store whose append counters stamp this request's cached
/// results and fleet verdicts — DiagnosisContext::Authority(), one rule
/// for both, so the stamp a Submit-time Get validates against is the
/// stamp the worker's Put recorded.
const monitor::TimeSeriesStore* AuthorityOf(const DiagnosisRequest& request) {
  return request.ctx.Authority();
}

/// Components a report touched: every Module DA scored component plus
/// every cause subject. Sorted + deduped (InvalidateTagComponent binary-
/// searches it).
std::vector<ComponentId> ComponentsOf(const diag::DiagnosisReport& report) {
  std::vector<ComponentId> out;
  out.reserve(report.da.metrics.size() + report.causes.size());
  for (const diag::MetricAnomaly& metric : report.da.metrics) {
    out.push_back(metric.component);
  }
  for (const diag::RootCause& cause : report.causes) {
    if (cause.subject.valid()) out.push_back(cause.subject);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Trace-span outcome label for a terminal status.
const char* OutcomeNote(const Status& status) {
  if (status.ok()) return "ok";
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      return "shed";
    case StatusCode::kShutdown:
      return "shutdown";
    case StatusCode::kResourceExhausted:
      return "rejected";
    default:
      return "error";
  }
}

/// The collector of an engine constructed without one: the testbed
/// backend with no wire latency, serving each request's own store, one
/// connection per worker.
std::shared_ptr<monitor::AsyncCollector> InProcessCollector(int workers) {
  monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0;
  latency.connections = std::max(1, workers);
  return std::make_shared<monitor::SimulatedSanCollector>(latency);
}

/// The counter a terminal status books into.
uint64_t EngineStatsSnapshot::*TerminalCounter(const Status& status) {
  if (status.ok()) return &EngineStatsSnapshot::completed;
  switch (status.code()) {
    // Refusals of the serving layer, not workflow failures: shutdown,
    // admission. (Deadline sheds count as failed — the caller asked and
    // was never answered — and are separately visible as shed_deadline.)
    case StatusCode::kFailedPrecondition:
    case StatusCode::kShutdown:
    case StatusCode::kResourceExhausted:
      return &EngineStatsSnapshot::rejected;
    default:
      return &EngineStatsSnapshot::failed;
  }
}

Status ValidateContext(const diag::DiagnosisContext& ctx) {
  if (ctx.runs == nullptr || ctx.store == nullptr || ctx.events == nullptr ||
      ctx.apg == nullptr || ctx.topology == nullptr ||
      ctx.catalog == nullptr) {
    return Status::InvalidArgument(
        "DiagnosisRequest context is missing a required source (runs, "
        "store, events, apg, topology, catalog)");
  }
  return Status::Ok();
}

}  // namespace

uint64_t ConfigFingerprint(const diag::WorkflowConfig& config) {
  uint64_t h = 0xd1a6d005c0ffee00ull;
  h = MixAnomalyConfig(h, config.operator_anomaly);
  h = MixAnomalyConfig(h, config.metric_anomaly);
  h = MixAnomalyConfig(h, config.record_deviation);
  h = MixBits(h, DoubleBits(config.correlation_threshold));
  h = MixBits(h, DoubleBits(config.high_confidence));
  h = MixBits(h, DoubleBits(config.medium_confidence));
  h = MixBits(h, DoubleBits(config.report_floor));
  return h;
}

struct DiagnosisEngine::Waiter {
  std::promise<DiagnosisResponse> promise;
  Clock::time_point submitted;
  bool coalesced = false;
  /// The waiter's "diagnosis" root span; closed when the waiter resolves
  /// (inert when tracing is off).
  obs::SpanHandle span;
};

/// One computation and every Submit waiting on it: the one that opened
/// it, plus (coalescing on) the identical ones that joined while it was
/// in inflight_.
struct DiagnosisEngine::Inflight {
  CacheKey key;
  std::vector<Waiter> waiters;  ///< Guarded by inflight_mu_.
};

DiagnosisEngine::DiagnosisEngine(
    EngineOptions options, const diag::SymptomsDb* symptoms_db,
    std::shared_ptr<monitor::AsyncCollector> collector)
    : options_(options),
      symptoms_db_(symptoms_db),
      collector_(collector != nullptr ? std::move(collector)
                                      : InProcessCollector(options.workers)),
      gatherer_(collector_.get(), options.gather),
      stats_(&metrics_, &pool_, &cache_),
      cache_(ResultCache::Options{options.cache_capacity,
                                  options.cache_shards}),
      pool_(ThreadPool::Options{options.workers, options.queue_capacity,
                                options.fairness}) {}

DiagnosisEngine::~DiagnosisEngine() { Shutdown(); }

CacheKey DiagnosisEngine::KeyFor(const DiagnosisRequest& request) {
  CacheKey key;
  key.query = request.ctx.query;
  const TimeInterval window = request.ctx.AnalysisWindow();
  key.window_begin = window.begin;
  key.window_end = window.end;
  key.tag = request.tag;
  key.config_fingerprint = MixBits(
      ConfigFingerprint(request.config),
      static_cast<uint64_t>(request.impact_method));
  return key;
}

std::future<DiagnosisResponse> DiagnosisEngine::Submit(
    DiagnosisRequest request) {
  stats_.Add(&EngineStatsSnapshot::submitted);
  if (request.incident != nullptr) {
    stats_.Add(&EngineStatsSnapshot::auto_submitted);
  }
  const Clock::time_point submitted = Clock::now();
  Waiter waiter;
  waiter.submitted = submitted;
  std::future<DiagnosisResponse> future = waiter.promise.get_future();
  // One root span per Submit. The request's TraceContext parents every
  // serving-path child (cache lookup, queue wait, gather, modules,
  // publish); the handle itself travels with the waiter to whichever
  // path answers this request and is closed there.
  if (options_.tracer != nullptr) {
    waiter.span = options_.tracer->Root().StartSpan("diagnosis", "engine");
    waiter.span.Note("tag", request.tag);
    waiter.span.Note("query", request.ctx.query);
    request.ctx.trace = obs::TraceContext(options_.tracer, waiter.span.id());
  }

  Status valid = ValidateContext(request.ctx);
  if (valid.ok() && request.cost <= 0) {
    valid = Status::InvalidArgument("DiagnosisRequest cost must be > 0");
  }
  if (!valid.ok()) {
    DiagnosisResponse response;
    response.status = std::move(valid);
    Answer(waiter, std::move(response), "invalid");
    return future;
  }

  const CacheKey key = KeyFor(request);

  if (options_.enable_cache) {
    obs::SpanHandle cache_span =
        request.ctx.trace.StartSpan("result_cache", "cache");
    const monitor::TimeSeriesStore* authority = AuthorityOf(request);
    const uint64_t generation = authority->StoreGeneration();
    fleet::FleetStore* fleet = options_.fleet_store;
    // Read before the fleet-store probe below (see there).
    const uint64_t fleet_epoch =
        fleet != nullptr ? fleet->invalidation_epoch() : 0;
    ResultCache::Hit hit = cache_.Get(key, authority, generation, fleet_epoch);
    if (hit.report != nullptr) {
      cache_span.Note("outcome", "hit");
      cache_span.End();
      // The computation that filled this entry published its verdict,
      // and Publish never removes a row. Only a removal call
      // (InvalidateTenant, InvalidateComponent, DropStale or Clear) does,
      // and each one takes the tenant-level row with whatever it targets,
      // then bumps the store's invalidation epoch *after* its erase. So
      // the tenant row is still there while the epoch equals the one this
      // entry recorded, and the hit looks at the store only when it
      // moved: it republishes when the tenant row is missing or older,
      // and the entry records the epoch read *before* that probe. A
      // removal racing the probe then bumps past the recorded epoch, and
      // the next hit looks again. Republishing is safe because hits are
      // generation-validated: this report reflects the store's current
      // data, so the fresh stamps are truthful.
      if (fleet != nullptr && hit.fleet_epoch_moved) {
        const fleet::FleetStore::Row row = fleet->Get(fleet::FleetKey{
            request.tag, "", key.window_begin, key.window_end});
        if (row.record == nullptr || row.generation < generation) {
          fleet::TenantVerdict verdict =
              fleet::ExtractVerdict(request.ctx, *hit.report, request.tag);
          verdict.incident = request.incident;
          fleet->Publish(verdict);
          stats_.Add(&EngineStatsSnapshot::fleet_publishes);
        }
      }
      DiagnosisResponse response;
      response.report = std::move(hit.report);
      response.collection = std::move(hit.collection);
      response.cache_hit = true;
      auto profile = std::make_shared<obs::CostProfile>();
      profile->result_cache_hit = true;
      // One clock read serves the profile's total and the latency.
      const Clock::time_point answered = Clock::now();
      profile->total_ms = MsBetween(submitted, answered);
      response.cost = std::move(profile);
      Answer(waiter, std::move(response), "cache_hit", answered);
      return future;
    }
    cache_span.Note("outcome", "miss");
    cache_span.End();
  }

  auto entry = std::make_shared<Inflight>();
  entry->key = key;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (options_.coalesce_identical) {
      std::shared_ptr<Inflight>& slot = inflight_[key];
      if (slot != nullptr) {
        waiter.coalesced = true;
        waiter.span.Note("outcome", "coalesced");
        slot->waiters.push_back(std::move(waiter));
        stats_.Add(&EngineStatsSnapshot::coalesced);
        return future;
      }
      slot = entry;
    }
    entry->waiters.push_back(std::move(waiter));
  }

  // The queue-wait span lives in a shared_ptr because the pool's task
  // type (std::function) requires copyable callables. It closes at
  // worker pickup; the measured wait feeds the cost profile.
  auto queue_span = std::make_shared<obs::SpanHandle>(
      request.ctx.trace.StartSpan("queue_wait", "engine"));
  const Clock::time_point enqueued = Clock::now();
  QueueTask task = TaskSpecFor(request, submitted);
  // Deadline shedding / shutdown cancellation reaches every waiter that
  // piled onto this computation.
  task.cancel = [this, entry, queue_span](const Status& status) {
    queue_span->Note("outcome", OutcomeNote(status));
    queue_span->End();
    Resolve(*entry, status, nullptr, nullptr, nullptr);
  };
  task.run = [this, entry, queue_span, enqueued,
              request = std::move(request)]() mutable {
    queue_span->End();
    Execute(*entry, std::move(request), ElapsedMs(enqueued));
  };
  const Status accepted = pool_.Submit(std::move(task));
  stats_.RaiseTo(&EngineStatsSnapshot::max_queue_depth, pool_.QueueDepth());
  if (!accepted.ok()) {
    // The pool refused the enqueue (admission share, or it shut down
    // after the inflight insert): fail every waiter of this computation.
    Resolve(*entry, accepted, nullptr, nullptr, nullptr);
  }
  return future;
}

QueueTask DiagnosisEngine::TaskSpecFor(const DiagnosisRequest& request,
                                       Clock::time_point submitted) {
  QueueTask task;
  task.tenant = request.tag;
  task.cost = request.cost;
  task.priority = request.priority;
  if (request.deadline_ms > 0) {
    task.has_deadline = true;
    task.deadline =
        submitted + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            request.deadline_ms));
  }
  return task;
}

void DiagnosisEngine::Compute(
    DiagnosisRequest* request, Status* status,
    std::shared_ptr<const diag::DiagnosisReport>* report,
    std::shared_ptr<const CollectionSummary>* collection,
    obs::CostProfile* profile) {
  diag::Workflow workflow(request->ctx, request->config, symptoms_db_);
  // One overlapped scatter/gather for this diagnosis's whole metric plan.
  // Collection only reads the tenant's store, so it runs before the
  // catalog lock below — a slow component must not serialize same-tenant
  // diagnoses behind wire latency.
  diag::CollectionOutcome outcome = workflow.Collect(gatherer_);
  stats_.RecordCollection(outcome.gather);
  const monitor::GatherCounters& gathered = outcome.gather.counters;
  auto summary = std::make_shared<CollectionSummary>();
  summary->stale_components = std::move(outcome.gather.stale_components);
  summary->fetches = gathered.fetches;
  summary->timeouts = gathered.timeouts;
  summary->retries = gathered.retries;
  summary->gather_ms = gathered.gather_ms;
  profile->gather_ms = gathered.gather_ms;
  profile->fetches_issued = gathered.fetches;
  profile->fetch_timeouts = gathered.timeouts;
  profile->fetch_retries = gathered.retries;
  profile->samples_collected = gathered.samples_collected;
  profile->bytes_collected = gathered.bytes_collected;
  const ComponentRegistry& registry = request->ctx.topology->registry();
  for (ComponentId component : summary->stale_components) {
    profile->stale_components.push_back(
        registry.Contains(component) ? registry.NameOf(component) : "?");
  }
  *collection = std::move(summary);
  // The deployment what-if probe temporarily mutates the deployment's
  // catalog (it re-optimizes with an event reverted), which would race
  // every other worker reading that catalog mid-diagnosis. Hold the
  // catalog's lock for the whole workflow run: exclusively when this
  // request carries a probe, shared otherwise — distinct tenants have
  // distinct catalogs and are unaffected.
  std::shared_ptr<std::shared_mutex> catalog_lock;
  {
    std::lock_guard<std::mutex> lock(catalog_locks_mu_);
    std::shared_ptr<std::shared_mutex>& slot =
        catalog_locks_[request->ctx.catalog];
    if (slot == nullptr) slot = std::make_shared<std::shared_mutex>();
    catalog_lock = slot;
  }
  std::shared_lock<std::shared_mutex> read_lock;
  std::unique_lock<std::shared_mutex> write_lock;
  if (request->ctx.plan_whatif_probe != nullptr) {
    write_lock = std::unique_lock<std::shared_mutex>(*catalog_lock);
  } else {
    read_lock = std::shared_lock<std::shared_mutex>(*catalog_lock);
  }
  diag::ModuleTimings timings;
  Result<diag::DiagnosisReport> result = workflow.DiagnoseOverCollection(
      outcome, request->impact_method, &timings);
  stats_.RecordModuleLatencies(timings);
  profile->module_ms = {{"PD", timings.pd_ms}, {"CO", timings.co_ms},
                        {"DA", timings.da_ms}, {"CR", timings.cr_ms},
                        {"SD", timings.sd_ms}, {"IA", timings.ia_ms}};
  if (!result.ok()) {
    *status = result.status();
    return;
  }
  *status = Status::Ok();
  *report = std::make_shared<const diag::DiagnosisReport>(
      std::move(result).value());
}

void DiagnosisEngine::Execute(Inflight& entry, DiagnosisRequest request,
                              double queue_wait_ms) {
  const Clock::time_point started = Clock::now();
  const monitor::TimeSeriesStore* authority = AuthorityOf(request);
  const uint64_t generation = authority->StoreGeneration();
  Status status;
  std::shared_ptr<const diag::DiagnosisReport> report;
  std::shared_ptr<const CollectionSummary> collection;
  auto profile = std::make_shared<obs::CostProfile>();
  profile->queue_wait_ms = queue_wait_ms;
  Compute(&request, &status, &report, &collection, profile.get());
  // Accepted -> response ready, from the computing request's viewpoint
  // (coalesced waiters report their own latency_ms but share this
  // profile).
  profile->total_ms = queue_wait_ms + ElapsedMs(started);
  std::shared_ptr<const obs::CostProfile> cost = std::move(profile);
  if (status.ok()) {
    AfterCompute(entry.key, request, report, collection, authority,
                 generation, cost);
  }
  Resolve(entry, status, std::move(report), std::move(collection),
          std::move(cost));
}

void DiagnosisEngine::AfterCompute(
    const CacheKey& key, const DiagnosisRequest& request,
    const std::shared_ptr<const diag::DiagnosisReport>& report,
    const std::shared_ptr<const CollectionSummary>& collection,
    const monitor::TimeSeriesStore* authority, uint64_t generation,
    const std::shared_ptr<const obs::CostProfile>& cost) {
  fleet::FleetStore* fleet = options_.fleet_store;
  // Read before the publish below, so a removal that drops the published
  // rows bumps past the epoch the entry records (see Submit's hit path).
  const uint64_t fleet_epoch =
      fleet != nullptr ? fleet->invalidation_epoch() : 0;
  if (options_.enable_cache) {
    // The generation stamp was read *before* the workflow ran: if samples
    // arrived mid-computation the entry is conservatively already stale
    // and the next generation-validated Get recomputes. (So an entry
    // whose publish below is skipped never hits.)
    cache_.Put(key, authority, generation, report, collection,
               ComponentsOf(*report), fleet_epoch);
  }
  if (fleet != nullptr) {
    // ExtractVerdict stamps rows with the authority's *current*
    // generations, so publish only while the store still sits at the
    // pre-compute generation — otherwise a verdict derived from old data
    // would carry a fresh stamp, could supersede a genuinely fresh one,
    // and would survive DropStale. When the store moved on, skip: the
    // next diagnosis of this tenant is a guaranteed cache miss at the
    // new generation and republishes.
    if (authority->StoreGeneration() == generation) {
      obs::SpanHandle span =
          request.ctx.trace.StartSpan("fleet_publish", "engine");
      fleet::TenantVerdict verdict =
          fleet::ExtractVerdict(request.ctx, *report, request.tag);
      verdict.cost = cost;
      verdict.incident = request.incident;
      fleet->Publish(verdict);
      stats_.Add(&EngineStatsSnapshot::fleet_publishes);
    }
  }
}

size_t DiagnosisEngine::InvalidateTenantResults(const std::string& tag) {
  return cache_.InvalidateTag(tag);
}

size_t DiagnosisEngine::InvalidateComponentResults(const std::string& tag,
                                                   ComponentId component) {
  return cache_.InvalidateTagComponent(tag, component);
}

void DiagnosisEngine::Resolve(
    Inflight& entry, const Status& status,
    std::shared_ptr<const diag::DiagnosisReport> report,
    std::shared_ptr<const CollectionSummary> collection,
    std::shared_ptr<const obs::CostProfile> cost) {
  std::vector<Waiter> waiters;
  {
    // Once erased, the next identical Submit opens a fresh computation.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (options_.coalesce_identical) inflight_.erase(entry.key);
    waiters = std::move(entry.waiters);
  }
  for (Waiter& waiter : waiters) {
    DiagnosisResponse response;
    response.status = status;
    response.report = report;
    response.collection = collection;
    response.cost = cost;
    response.coalesced = waiter.coalesced;
    Answer(waiter, std::move(response), OutcomeNote(status));
  }
}

void DiagnosisEngine::Answer(Waiter& waiter, DiagnosisResponse response,
                             const char* outcome,
                             Clock::time_point answered) {
  response.latency_ms = MsBetween(waiter.submitted, answered);
  stats_.Add(TerminalCounter(response.status));
  stats_.Observe(&EngineStatsSnapshot::request_latency, response.latency_ms);
  waiter.span.Note("outcome", outcome);
  waiter.span.End();
  waiter.promise.set_value(std::move(response));
}

std::vector<DiagnosisResponse> DiagnosisEngine::BatchDiagnose(
    std::vector<DiagnosisRequest> requests) {
  std::vector<std::future<DiagnosisResponse>> futures;
  futures.reserve(requests.size());
  for (DiagnosisRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  std::vector<DiagnosisResponse> responses;
  responses.reserve(futures.size());
  for (std::future<DiagnosisResponse>& future : futures) {
    responses.push_back(future.get());
  }
  return responses;
}

void DiagnosisEngine::Drain() { pool_.Drain(); }

void DiagnosisEngine::Shutdown() {
  // Order matters: finish accepted diagnoses first (their gathers are
  // bounded by per-component timeout * attempts), then cancel and join the
  // collector's connection threads so nothing leaks and no fetch future
  // is left unresolved.
  pool_.Shutdown();
  collector_->Shutdown();
}

std::vector<TenantAdmissionRow> DiagnosisEngine::TenantAdmission() const {
  return pool_.TenantRows();
}

}  // namespace diads::engine
