// SAN performance model.
//
// A utilisation-based queueing model of the storage stack. Load sources
// (query executions, external application workloads, RAID rebuilds) register
// piecewise-constant I/O demand on volumes; the model derives
//
//   * per-disk utilisation: a pool stripes its volumes' I/O uniformly over
//     its active disks, so volumes carved from the same pool contend — the
//     physical channel behind the paper's scenario 1 ("a volume V' that gets
//     mapped to the same physical disks as V1");
//   * per-volume read/write latency: service time inflated by 1/(1-rho)
//     queueing delay (capped), with a write-back cache model for writes;
//   * per-component interval statistics for the monitoring collectors,
//     including both the volume's own ("logical") traffic and the backend
//     ("physical storage") traffic on its disks including all sharers —
//     the PhysicalStorageRead/Write Operations/Time metrics of Figure 4.
//
// Everything is piecewise-constant in time, so interval averages integrate
// exactly over load-event boundaries; spikes shorter than the monitoring
// interval get averaged away, reproducing the paper's noisy-data challenge.
//
// Time index. Queries read an index of the registrations, built by the
// first query (again after ReleaseIndex) and kept current by every later
// registration:
//
//   * the sorted distinct begin/end times of every registration; times
//     registered since the last read are merged in by the next one. An
//     interval's segments are the registered times strictly inside it,
//     found by binary search;
//   * per key (loads per volume, per pool and per port; pool overheads per
//     pool; CPU loads per server), the key's registrations in insertion
//     order and its timeline: the key's own sorted times and, for each
//     segment between two of them, the registrations active there in
//     insertion order. A registration makes its keys' timelines stale and
//     a query rebuilds only the stale timelines it reads, so queries that
//     alternate with registrations (the executor's, between Q2 runs)
//     rebuild only the components they touch. An instantaneous query
//     visits only what is active at t, and PortStats only the loads
//     overlapping its interval.
//
// The index holds nothing the registrations do not; ReleaseIndex frees it
// once a caller has finished querying (the testbed does after collecting).
//
// Float order. The collected samples feed every ReportDigest, so evaluation
// order is part of the contract. An interval statistic accumulates
// value x segment length over its segments in time order, each statistic
// in its own accumulator, however many share one pass over the segments.
// A sum over registrations accumulates them in insertion order, and a
// pool's loads before its overheads. The index only skips inactive
// registrations; it never reorders the ones it visits.
#ifndef DIADS_SAN_PERF_MODEL_H_
#define DIADS_SAN_PERF_MODEL_H_

#include <array>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "san/topology.h"

namespace diads::san {

/// A constant-rate I/O demand description.
struct IoProfile {
  double read_iops = 0.0;
  double write_iops = 0.0;
  /// Fraction of the I/O that is sequential, in [0, 1].
  double seq_fraction = 0.0;
  double avg_block_kb = 8.0;

  IoProfile& Add(const IoProfile& other);
  double total_iops() const { return read_iops + write_iops; }
};

/// One registered demand: `profile` applies to `volume` during `interval`.
/// `source` identifies the generating query/workload (used to attribute
/// fabric traffic to ports along `path_ports`/`path_switches`). A
/// pure-fabric stream (RAID rebuild crossing an inter-switch link) leaves
/// `volume` invalid: it contributes port traffic but no disk demand.
struct LoadEvent {
  ComponentId volume;
  TimeInterval interval;
  IoProfile profile;
  ComponentId source;
  std::vector<ComponentId> path_ports;
  std::vector<ComponentId> path_switches;
};

/// Tunable physical constants of the model.
struct PerfParams {
  double disk_random_read_ms = 6.0;  ///< 15k-rpm seek + rotation.
  double disk_seq_read_ms = 0.4;
  double disk_random_write_ms = 6.5;
  double disk_seq_write_ms = 0.5;
  double controller_overhead_ms = 0.3;
  double fabric_latency_ms = 0.05;
  double cache_hit_ms = 0.15;          ///< Subsystem read-cache hit service.
  double read_cache_hit_fraction = 0.15;
  double write_cache_ms = 0.4;         ///< Write-back cache acknowledge.
  /// Backend utilisation above which write destaging backs up into the
  /// foreground write latency.
  double destage_threshold = 0.60;
  double destage_pressure_scale = 18.0;
  double max_queue_inflation = 14.0;   ///< Cap on 1/(1-rho).
  /// Port utilisation above which fabric congestion adds latency. Below
  /// the threshold the congestion term is exactly 0.0, so lightly loaded
  /// fabrics (every Figure-1 scenario) see `fabric_latency_ms` unchanged.
  double fabric_congestion_threshold = 0.55;
  /// Congestion latency at 100% port utilisation (grows quadratically from
  /// the threshold).
  double fabric_congestion_ms = 60.0;
};

/// Interval-averaged statistics for one volume.
struct VolumeIntervalStats {
  // Logical (the volume's own traffic).
  double read_iops = 0;
  double write_iops = 0;
  double seq_read_iops = 0;
  double seq_write_iops = 0;
  double bytes_read_per_sec = 0;
  double bytes_written_per_sec = 0;
  double read_latency_ms = 0;
  double write_latency_ms = 0;
  // Physical / backend (the volume's disks, including sharer volumes).
  double physical_read_ops = 0;   ///< Backend read ops/s on backing disks.
  double physical_write_ops = 0;  ///< Backend write ops/s on backing disks.
  double physical_read_time_ms = 0;
  double physical_write_time_ms = 0;
  double total_ios = 0;  ///< Logical read+write ops/s.
};

/// Interval-averaged statistics for one disk.
struct DiskIntervalStats {
  double utilization = 0;  ///< Mean rho, in [0, ~1].
  double iops = 0;
};

/// Interval-averaged statistics for one FC port.
struct PortIntervalStats {
  double mb_tx_per_sec = 0;
  double mb_rx_per_sec = 0;
  double frames_tx_per_sec = 0;
  double frames_rx_per_sec = 0;
};

/// Interval-averaged server statistics.
struct ServerIntervalStats {
  double cpu_utilization = 0;  ///< In [0, 1].
};

/// The performance model. Not thread-safe, queries included: the const
/// queries build the time index on demand. The simulation is
/// single-threaded.
class SanPerfModel {
 public:
  /// `topology` must outlive the model.
  explicit SanPerfModel(const SanTopology* topology, PerfParams params = {});
  ~SanPerfModel();

  /// Registers an I/O demand. Events may be added in any time order. An
  /// event with an invalid `volume` is a pure fabric stream: it loads the
  /// ports along `path_ports` without adding disk demand anywhere.
  Status AddLoad(LoadEvent event);

  /// Registers a pure fabric byte stream (e.g. rebuild traffic crossing an
  /// inter-switch link): `mb_per_sec` sequential traffic over the given
  /// ports for the interval.
  Status AddFabricLoad(const TimeInterval& interval, double mb_per_sec,
                       std::vector<ComponentId> path_ports,
                       ComponentId source = {});

  /// Registers direct backend overhead on every disk of `pool` (RAID
  /// rebuild, scrubbing): `utilization` is added to each disk's rho.
  Status AddPoolOverhead(ComponentId pool, const TimeInterval& interval,
                         double utilization);

  /// Registers CPU demand on a server (query execution, competing jobs).
  Status AddCpuLoad(ComponentId server, const TimeInterval& interval,
                    double utilization);

  // --- Instantaneous queries ---------------------------------------------
  /// Aggregate volume demand at time t (all registered events).
  IoProfile VolumeLoadAt(ComponentId volume, SimTimeMs t) const;

  /// Backend utilisation rho of one disk at time t.
  double DiskUtilizationAt(ComponentId disk, SimTimeMs t) const;

  /// Read latency seen by a request to `volume` at time t if `extra_self`
  /// demand is added on top of the registered load (the executor passes its
  /// own demand here to close the self-contention loop).
  double VolumeReadLatencyMs(ComponentId volume, SimTimeMs t,
                             const IoProfile& extra_self = {}) const;
  double VolumeWriteLatencyMs(ComponentId volume, SimTimeMs t,
                              const IoProfile& extra_self = {}) const;

  /// Fraction of a port's effective bandwidth (gbps x capacity_factor)
  /// consumed by all load events crossing it at time t.
  double PortUtilizationAt(ComponentId port, SimTimeMs t) const;

  /// Fabric latency seen by `volume` at time t: the base fabric hop cost
  /// plus a congestion term that is exactly 0.0 until the most-utilised
  /// port on any of the volume's active paths crosses
  /// `fabric_congestion_threshold` — the hinge the multipath/failover
  /// scenarios ride and the Figure-1 scenarios never touch.
  double FabricLatencyMs(ComponentId volume, SimTimeMs t) const;

  // --- Interval-averaged queries (for monitoring collectors) -------------
  VolumeIntervalStats VolumeStats(ComponentId volume,
                                  const TimeInterval& interval) const;
  DiskIntervalStats DiskStats(ComponentId disk,
                              const TimeInterval& interval) const;
  PortIntervalStats PortStats(ComponentId port,
                              const TimeInterval& interval) const;
  ServerIntervalStats ServerStats(ComponentId server,
                                  const TimeInterval& interval) const;

  const PerfParams& params() const { return params_; }
  size_t load_event_count() const { return events_.size(); }

  /// Frees the time index; the next query rebuilds it. Results are
  /// unaffected: this only trades the index's memory for a rebuild.
  void ReleaseIndex();

 private:
  struct CpuLoad {
    ComponentId server;
    TimeInterval interval;
    double utilization;
  };
  struct PoolOverhead {
    ComponentId pool;
    TimeInterval interval;
    double utilization;
  };

  /// Demand on each active disk of a pool at time t, split by op type, in
  /// disk-seconds/sec.
  struct DiskDemand {
    double read_busy = 0;   ///< rho contribution from reads.
    double write_busy = 0;  ///< rho contribution from writes (incl. RAID).
    double read_ops = 0;    ///< Backend read ops/s.
    double write_ops = 0;   ///< Backend write ops/s.
  };
  /// The demand every active disk of `pool` sees: the pool's loads, then
  /// `extra_self` (the caller's own unregistered demand), then the pool's
  /// overheads. Zero when no disk of the pool survives.
  DiskDemand PoolDemandAt(ComponentId pool, SimTimeMs t,
                          const IoProfile& extra_self) const;
  DiskDemand DiskDemandAt(ComponentId disk, SimTimeMs t) const;

  /// What a volume's latency depends on at time t, shared by its read and
  /// write latency and its backend statistics.
  struct VolumeState {
    IoProfile own;         ///< Registered demand on the volume.
    DiskDemand per_disk;   ///< Demand on each of its surviving disks.
    size_t disks = 0;      ///< Its surviving disks.
    double rho = 0;        ///< Mean capped utilisation over them.
    double fabric_ms = 0;  ///< FabricLatencyMs.
  };
  VolumeState VolumeStateAt(ComponentId volume, SimTimeMs t,
                            const IoProfile& extra_self) const;
  double ReadLatencyMs(const VolumeState& s,
                       const IoProfile& extra_self) const;
  double WriteLatencyMs(const VolumeState& s) const;

  double ReadServiceMs(const IoProfile& p) const;
  double WriteDiskServiceMs(const IoProfile& p) const;
  double QueueInflation(double rho) const;

  /// Averages the N instantaneous statistics `fn(t)` returns over the
  /// interval, integrating across the piecewise-constant segments induced
  /// by registration boundaries (all zero for an empty interval).
  template <size_t N, typename Fn>
  std::array<double, N> AverageOver(const TimeInterval& interval,
                                    Fn&& fn) const;

  struct Index;
  /// The time index, built on first use.
  Index& index() const;

  const SanTopology* topology_;
  PerfParams params_;
  std::vector<LoadEvent> events_;
  std::vector<CpuLoad> cpu_loads_;
  std::vector<PoolOverhead> pool_overheads_;
  mutable std::unique_ptr<Index> index_;
};

}  // namespace diads::san

#endif  // DIADS_SAN_PERF_MODEL_H_
