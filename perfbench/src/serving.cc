#include "serving.h"

#include <cstdio>
#include <set>

#include "fleet/query.h"

namespace perfbench {

using diads::Result;
using diads::Status;

Result<std::unique_ptr<Serving>> Serving::Create(
    const diads::diag::SymptomsDb& symptoms, const std::string& log_dir) {
  std::unique_ptr<Serving> serving(new Serving());
  DIADS_RETURN_IF_ERROR(serving->ReopenLog(log_dir));
  diads::monitor::SimulatedLatencyOptions latency;
  latency.base_latency_ms = 0;
  latency.connections = kCollectorConnections;
  serving->collector_ =
      std::make_shared<diads::monitor::SimulatedSanCollector>(latency);
  diads::engine::EngineOptions options;
  options.workers = kEngineWorkers;
  options.fleet_store = &serving->fleet_;
  serving->engine_ = std::make_unique<diads::engine::DiagnosisEngine>(
      options, &symptoms, serving->collector_);
  return serving;
}

Serving::~Serving() {
  if (engine_ != nullptr) engine_->Shutdown();
  CloseLog();
}

Status Serving::ReopenLog(const std::string& log_dir) {
  CloseLog();
  diads::fleet::LogOptions options;
  options.dir = log_dir;
  Result<std::unique_ptr<diads::fleet::SegmentLog>> log =
      diads::fleet::SegmentLog::Open(options);
  DIADS_RETURN_IF_ERROR(log.status());
  log_ = std::move(log).value();
  fleet_.AttachLog(log_.get());
  return Status::Ok();
}

void Serving::CloseLog() {
  if (log_ == nullptr) return;
  fleet_.DetachLog();
  log_.reset();
}

std::vector<std::string> FleetComponents(
    const diads::fleet::FleetStore& store) {
  std::set<std::string> names;
  store.ForEachRow([&](const diads::fleet::FleetKey& key, uint64_t,
                       const diads::fleet::ComponentVerdict*,
                       const diads::fleet::TenantRecord*) {
    if (!key.component.empty()) names.insert(key.component);
  });
  return {names.begin(), names.end()};
}

namespace {

/// Times one query into `latency` and a span named `span_name`.
template <typename Fn>
auto Timed(const char* span_name, const diads::obs::TraceContext& trace,
           LatencySampler* latency, Fn&& fn) {
  diads::obs::SpanHandle span = trace.StartSpan(span_name, "fleet");
  const Clock::time_point start = Clock::now();
  auto answer = fn();
  latency->Add(MsSince(start));
  return answer;
}

void AppendNames(const std::vector<std::string>& names, std::string* out) {
  for (const std::string& name : names) *out += name + ",";
  *out += ";";
}

}  // namespace

std::string RunQueryMix(const diads::fleet::FleetStore& store,
                        const std::vector<std::string>& components,
                        const diads::obs::TraceContext& trace,
                        LatencySampler* latency) {
  const diads::fleet::FleetQuery query(&store);
  std::string fingerprint;
  for (const std::string& component : components) {
    AppendNames(Timed("fleet.query.sharing", trace, latency,
                      [&] { return query.TenantsSharingComponent(component); }),
                &fingerprint);
    AppendNames(Timed("fleet.query.implicating", trace, latency,
                      [&] { return query.TenantsImplicating(component); }),
                &fingerprint);
  }
  for (const auto& row : Timed("fleet.query.top_k", trace, latency, [&] {
         return query.TopImplicatedComponents(10);
       })) {
    char confidence[32];
    std::snprintf(confidence, sizeof(confidence), "%.17g",
                  row.max_confidence);
    fingerprint += row.component + ":" + std::to_string(row.tenants) + ":" +
                   confidence + ":";
    AppendNames(row.tenant_names, &fingerprint);
  }
  for (const auto& row : Timed("fleet.query.cooccurrence", trace, latency,
                               [&] { return query.RootCauseCooccurrence(); })) {
    fingerprint += std::to_string(static_cast<int>(row.a)) + "/" +
                   std::to_string(static_cast<int>(row.b)) + ":" +
                   std::to_string(row.tenants) + ";";
  }
  return fingerprint;
}

}  // namespace perfbench
