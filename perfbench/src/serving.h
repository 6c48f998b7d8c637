// The serving stack every workload drives, and the fleet query mix.
#ifndef DIADS_PERFBENCH_SERVING_H_
#define DIADS_PERFBENCH_SERVING_H_

#include <memory>
#include <string>
#include <vector>

#include "diads/symptoms_db.h"
#include "engine/engine.h"
#include "fleet/log.h"
#include "fleet/store.h"
#include "measure.h"
#include "monitor/async_collector.h"
#include "obs/trace.h"

namespace perfbench {

/// Engine workers and collector connections: together they stay within
/// the 4 cores the benchmark is sized for, and the main thread is the
/// only client.
constexpr int kEngineWorkers = 2;
constexpr int kCollectorConnections = 2;

/// One long-lived DiagnosisEngine (kEngineWorkers workers) gathering
/// through a SimulatedSanCollector with a 0 ms round-trip, publishing
/// into a FleetStore whose SegmentLog lives under `log_dir`.
class Serving {
 public:
  static diads::Result<std::unique_ptr<Serving>> Create(
      const diads::diag::SymptomsDb& symptoms, const std::string& log_dir);
  ~Serving();

  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  diads::engine::DiagnosisEngine& engine() { return *engine_; }
  diads::fleet::FleetStore& fleet() { return fleet_; }
  /// The engine's collector, for gathers made outside the engine while
  /// it is idle.
  diads::monitor::AsyncCollector* collector() { return collector_.get(); }

  /// Detaches and closes the current log, opens a fresh one in `log_dir`
  /// and attaches it. Call only while no diagnosis is in flight.
  diads::Status ReopenLog(const std::string& log_dir);
  /// Detaches and closes the log (flushing it), so it can be recovered.
  void CloseLog();

 private:
  Serving() = default;

  diads::fleet::FleetStore fleet_;
  std::unique_ptr<diads::fleet::SegmentLog> log_;
  std::shared_ptr<diads::monitor::SimulatedSanCollector> collector_;
  std::unique_ptr<diads::engine::DiagnosisEngine> engine_;
};

/// Distinct component names of the store's rows, sorted: the subjects
/// the query mix asks about.
std::vector<std::string> FleetComponents(const diads::fleet::FleetStore& store);

/// One pass of the fixed fleet query mix: for every component, who shares
/// it and who implicates it; then the top-10 implicated components and
/// the root-cause co-occurrence table. Each query is timed into `latency`
/// (ms) and, when `trace` is enabled, wrapped in a "fleet.query.<kind>"
/// span. Returns a fingerprint of every answer, in order.
std::string RunQueryMix(const diads::fleet::FleetStore& store,
                        const std::vector<std::string>& components,
                        const diads::obs::TraceContext& trace,
                        LatencySampler* latency);

/// Queries in one pass of the mix over `components`.
inline size_t QueryMixSize(const std::vector<std::string>& components) {
  return 2 * components.size() + 2;
}

}  // namespace perfbench

#endif  // DIADS_PERFBENCH_SERVING_H_
