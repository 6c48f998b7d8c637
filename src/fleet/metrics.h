// FleetStore -> metrics registry bridge. A scrape-time source over
// FleetStore::TotalCounters: nothing new is counted, the store's exact
// per-row accounting just becomes scrapeable. Register it into the
// registry the serving engine owns (DiagnosisEngine::metrics()) to scrape
// the store with the engine.
#ifndef DIADS_FLEET_METRICS_H_
#define DIADS_FLEET_METRICS_H_

#include "fleet/log.h"
#include "fleet/store.h"
#include "obs/metrics.h"

namespace diads::fleet {

/// Registers a scrape-time source for `store`'s counters. The store must
/// outlive the registry's last Collect/Render call.
void RegisterFleetStoreMetrics(obs::MetricsRegistry* registry,
                               const FleetStore* store,
                               obs::Labels labels = {});

/// The lowering itself (shared with tests).
void EmitFleetStoreCounters(const FleetStore::Counters& counters,
                            const obs::Labels& labels,
                            obs::MetricsEmitter& emitter);

/// Same bridge for the durability log's write-side counters (and, when a
/// recovery ran, the replay outcome as one-shot constants).
void RegisterFleetLogMetrics(obs::MetricsRegistry* registry,
                             const SegmentLog* log, obs::Labels labels = {});

void EmitFleetLogCounters(const LogCounters& counters,
                          const obs::Labels& labels,
                          obs::MetricsEmitter& emitter);

void EmitReplayStats(const ReplayStats& stats, const obs::Labels& labels,
                     obs::MetricsEmitter& emitter);

}  // namespace diads::fleet

#endif  // DIADS_FLEET_METRICS_H_
