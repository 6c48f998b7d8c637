// Unit and property tests for the SAN performance model: utilisation
// accounting, latency inflation, cross-volume interference through shared
// disks (the paper's central physical mechanism), interval averaging and
// burst dilution, RAID/rebuild/CPU/port statistics — and bit-for-bit
// agreement of the time-indexed model with a naive reference that scans
// every registration for every query.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "san/perf_model.h"
#include "san/topology.h"

namespace diads::san {
namespace {

/// Pool of 4 disks with volumes V1 and V2 carved from it, plus a second
/// pool with volume W (isolated).
struct PerfFixture {
  ComponentRegistry registry;
  SanTopology topology{&registry};
  ComponentId v1, v2, w;
  ComponentId pool1, pool2;
  ComponentId disk1;
  SanPerfModel model{&topology};

  PerfFixture() {
    ComponentId ss = topology.AddSubsystem("ss", "X").value();
    pool1 = topology.AddPool("p1", ss, RaidLevel::kRaid5).value();
    pool2 = topology.AddPool("p2", ss, RaidLevel::kRaid5).value();
    disk1 = topology.AddDisk("d1", pool1).value();
    for (int i = 2; i <= 4; ++i) {
      EXPECT_TRUE(
          topology.AddDisk("d" + std::to_string(i), pool1).ok());
    }
    for (int i = 5; i <= 8; ++i) {
      EXPECT_TRUE(
          topology.AddDisk("d" + std::to_string(i), pool2).ok());
    }
    v1 = topology.AddVolume("V1", pool1, 100).value();
    v2 = topology.AddVolume("V2", pool1, 100).value();
    w = topology.AddVolume("W", pool2, 100).value();
  }

  LoadEvent Load(ComponentId volume, SimTimeMs begin, SimTimeMs end,
                 double read_iops, double write_iops,
                 double seq_fraction = 0.0) {
    LoadEvent event;
    event.volume = volume;
    event.interval = TimeInterval{begin, end};
    event.profile.read_iops = read_iops;
    event.profile.write_iops = write_iops;
    event.profile.seq_fraction = seq_fraction;
    return event;
  }
};

TEST(IoProfileTest, AddBlendsWeighted) {
  IoProfile a;
  a.read_iops = 100;
  a.seq_fraction = 1.0;
  a.avg_block_kb = 8;
  IoProfile b;
  b.read_iops = 100;
  b.seq_fraction = 0.0;
  b.avg_block_kb = 16;
  a.Add(b);
  EXPECT_DOUBLE_EQ(a.read_iops, 200);
  EXPECT_DOUBLE_EQ(a.seq_fraction, 0.5);
  EXPECT_DOUBLE_EQ(a.avg_block_kb, 12);
}

TEST(SanPerfModelTest, RejectsBadLoad) {
  PerfFixture f;
  LoadEvent empty = f.Load(f.v1, 100, 100, 10, 0);
  EXPECT_FALSE(f.model.AddLoad(empty).ok());
  LoadEvent negative = f.Load(f.v1, 0, 100, -5, 0);
  EXPECT_FALSE(f.model.AddLoad(negative).ok());
}

TEST(SanPerfModelTest, IdleVolumeHasBaseLatency) {
  PerfFixture f;
  const double latency = f.model.VolumeReadLatencyMs(f.v1, 0);
  // Controller + fabric + (mostly random-read) service, no queueing.
  EXPECT_GT(latency, 3.0);
  EXPECT_LT(latency, 8.0);
}

TEST(SanPerfModelTest, LoadWindowsApplyOnlyInTime) {
  PerfFixture f;
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v1, 1000, 2000, 200, 0)).ok());
  EXPECT_DOUBLE_EQ(f.model.VolumeLoadAt(f.v1, 500).total_iops(), 0);
  EXPECT_DOUBLE_EQ(f.model.VolumeLoadAt(f.v1, 1500).total_iops(), 200);
  EXPECT_DOUBLE_EQ(f.model.VolumeLoadAt(f.v1, 2000).total_iops(), 0);
}

TEST(SanPerfModelTest, LatencyIncreasesWithLoad) {
  PerfFixture f;
  const double idle = f.model.VolumeReadLatencyMs(f.v1, 1500);
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v1, 1000, 2000, 150, 50)).ok());
  const double loaded = f.model.VolumeReadLatencyMs(f.v1, 1500);
  EXPECT_GT(loaded, idle * 1.2);
}

TEST(SanPerfModelTest, SharedDiskInterference) {
  // The scenario-1 channel: load on V2 raises V1's latency (same pool),
  // but load on W (other pool) does not.
  PerfFixture f;
  const double before = f.model.VolumeReadLatencyMs(f.v1, 1500);
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.w, 1000, 2000, 0, 150)).ok());
  const double after_w = f.model.VolumeReadLatencyMs(f.v1, 1500);
  EXPECT_NEAR(after_w, before, 1e-9);
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v2, 1000, 2000, 0, 150)).ok());
  const double after_v2 = f.model.VolumeReadLatencyMs(f.v1, 1500);
  EXPECT_GT(after_v2, before * 1.5);
}

TEST(SanPerfModelTest, WriteLatencyCachedUntilDestagePressure) {
  PerfFixture f;
  const double idle = f.model.VolumeWriteLatencyMs(f.v1, 1500);
  EXPECT_LT(idle, 1.0);  // Write-back cache acknowledges fast.
  // Saturate the backend.
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v1, 1000, 2000, 0, 250)).ok());
  const double pressured = f.model.VolumeWriteLatencyMs(f.v1, 1500);
  EXPECT_GT(pressured, idle * 3);
}

TEST(SanPerfModelTest, SequentialCheaperThanRandom) {
  PerfFixture f;
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v1, 0, 1000, 150, 0, 0.0)).ok());
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v2, 2000, 3000, 150, 0, 1.0)).ok());
  // Same iops: the sequential window stresses disks far less.
  EXPECT_GT(f.model.DiskUtilizationAt(f.disk1, 500),
            3 * f.model.DiskUtilizationAt(f.disk1, 2500));
}

TEST(SanPerfModelTest, FailedDiskConcentratesLoad) {
  PerfFixture f;
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v1, 0, 1000, 200, 0)).ok());
  ComponentId d2 = f.topology.registry().FindByName("d2").value();
  const double before = f.model.DiskUtilizationAt(d2, 500);
  ASSERT_TRUE(f.topology.SetDiskFailed(f.disk1, true).ok());
  const double after = f.model.DiskUtilizationAt(d2, 500);
  EXPECT_NEAR(after / before, 4.0 / 3.0, 0.05);
}

TEST(SanPerfModelTest, PoolOverheadRaisesUtilization) {
  PerfFixture f;
  const double before = f.model.DiskUtilizationAt(f.disk1, 500);
  ASSERT_TRUE(
      f.model.AddPoolOverhead(f.pool1, TimeInterval{0, 1000}, 0.4).ok());
  EXPECT_NEAR(f.model.DiskUtilizationAt(f.disk1, 500), before + 0.4, 1e-9);
  EXPECT_FALSE(
      f.model.AddPoolOverhead(f.pool1, TimeInterval{0, 1000}, 1.5).ok());
}

TEST(SanPerfModelTest, VolumeStatsAverageExactly) {
  PerfFixture f;
  // 100 iops for exactly half of the interval.
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v1, 0, 500, 100, 0)).ok());
  VolumeIntervalStats stats = f.model.VolumeStats(f.v1, TimeInterval{0, 1000});
  EXPECT_NEAR(stats.read_iops, 50.0, 1e-6);
  EXPECT_NEAR(stats.total_ios, 50.0, 1e-6);
}

TEST(SanPerfModelTest, BurstDilution) {
  // Section 1.1's noisy-data mechanism: a 30-second burst inside a 5-minute
  // interval contributes only 10% of its intensity to the average.
  PerfFixture f;
  ASSERT_TRUE(
      f.model.AddLoad(f.Load(f.v1, 0, Seconds(30), 600, 0)).ok());
  VolumeIntervalStats stats =
      f.model.VolumeStats(f.v1, TimeInterval{0, Minutes(5)});
  EXPECT_NEAR(stats.read_iops, 60.0, 1e-6);
}

TEST(SanPerfModelTest, PhysicalStatsIncludeSharers) {
  // Table 2's "writeIO" behaviour: V1's physical write ops include V2's
  // writes because they land on the same disks.
  PerfFixture f;
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v2, 0, 1000, 0, 100)).ok());
  VolumeIntervalStats v1_stats =
      f.model.VolumeStats(f.v1, TimeInterval{0, 1000});
  EXPECT_DOUBLE_EQ(v1_stats.write_iops, 0);         // V1's own writes: none.
  EXPECT_GT(v1_stats.physical_write_ops, 100);      // Backend: V2 + RAID5 x4.
  VolumeIntervalStats w_stats = f.model.VolumeStats(f.w, TimeInterval{0, 1000});
  EXPECT_DOUBLE_EQ(w_stats.physical_write_ops, 0);  // Other pool: untouched.
}

TEST(SanPerfModelTest, PortStatsFollowPath) {
  PerfFixture f;
  ComponentId port = f.topology
                         .AddPort("ss-p0", PortOwner::kSubsystem,
                                  f.topology.AllSubsystems()[0])
                         .value();
  LoadEvent event = f.Load(f.v1, 0, 1000, 128, 0);
  event.profile.avg_block_kb = 8;
  event.path_ports = {port};
  ASSERT_TRUE(f.model.AddLoad(event).ok());
  PortIntervalStats stats = f.model.PortStats(port, TimeInterval{0, 1000});
  EXPECT_NEAR(stats.mb_rx_per_sec, 1.0, 1e-6);  // 128 iops x 8 KB = 1 MB/s.
  ComponentId other =
      f.topology
          .AddPort("ss-p1", PortOwner::kSubsystem, f.topology.AllSubsystems()[0])
          .value();
  PortIntervalStats other_stats =
      f.model.PortStats(other, TimeInterval{0, 1000});
  EXPECT_DOUBLE_EQ(other_stats.mb_rx_per_sec, 0);
}

TEST(SanPerfModelTest, CpuLoadAveragesAndSaturates) {
  PerfFixture f;
  ComponentId server = f.topology.AddServer("srv", "Linux").value();
  ASSERT_TRUE(
      f.model.AddCpuLoad(server, TimeInterval{0, 500}, 0.6).ok());
  ASSERT_TRUE(
      f.model.AddCpuLoad(server, TimeInterval{0, 500}, 0.7).ok());
  ServerIntervalStats stats = f.model.ServerStats(server, TimeInterval{0, 1000});
  // 0.6 + 0.7 saturates to 1.0 for half the interval -> 0.5 average.
  EXPECT_NEAR(stats.cpu_utilization, 0.5, 1e-6);
}

// --- Naive reference ---------------------------------------------------------
//
// The model evaluated the slow, obvious way: every instantaneous query scans
// every registration; every interval statistic is its own integral over
// segment cuts gathered by a scan of all registrations and a sort. The
// indexed SanPerfModel must agree with it bit for bit on every query.
class NaiveModel {
 public:
  explicit NaiveModel(const SanTopology* topology, PerfParams params = {})
      : topology_(topology), params_(params) {}

  // Mirror registrations SanPerfModel accepted (no validation here).
  void AddLoad(const LoadEvent& event) { events_.push_back(event); }
  void AddFabricLoad(const TimeInterval& interval, double mb_per_sec,
                     const std::vector<ComponentId>& path_ports) {
    LoadEvent event;
    event.interval = interval;
    event.path_ports = path_ports;
    event.profile.read_iops = mb_per_sec * 16.0;
    event.profile.seq_fraction = 1.0;
    event.profile.avg_block_kb = 64.0;
    events_.push_back(event);
  }
  void AddPoolOverhead(ComponentId pool, const TimeInterval& interval,
                       double utilization) {
    overheads_.push_back(Overhead{pool, interval, utilization});
  }
  void AddCpuLoad(ComponentId server, const TimeInterval& interval,
                  double utilization) {
    cpu_.push_back(Cpu{server, interval, utilization});
  }

  IoProfile VolumeLoadAt(ComponentId volume, SimTimeMs t) const {
    IoProfile total;
    for (const LoadEvent& e : events_) {
      if (e.volume == volume && e.interval.Contains(t)) total.Add(e.profile);
    }
    return total;
  }

  double DiskUtilizationAt(ComponentId disk, SimTimeMs t) const {
    const Demand d = DiskDemandAt(disk, t, IoProfile{}, ComponentId{});
    return std::min(d.read_busy + d.write_busy, 1.5);
  }

  double PortUtilizationAt(ComponentId port, SimTimeMs t) const {
    double mb_s = 0;
    for (const LoadEvent& e : events_) {
      for (ComponentId p : e.path_ports) {
        if (p != port || !e.interval.Contains(t)) continue;
        mb_s += (e.profile.read_iops + e.profile.write_iops) *
                e.profile.avg_block_kb / 1024.0;
      }
    }
    if (mb_s <= 0) return 0.0;
    const double capacity = topology_->port(port).EffectiveMbPerSec();
    if (capacity <= 0) return 1.0;
    return mb_s / capacity;
  }

  double FabricLatencyMs(ComponentId volume, SimTimeMs t) const {
    double max_util = 0;
    for (const LoadEvent& e : events_) {
      if (e.volume != volume || !e.interval.Contains(t)) continue;
      for (ComponentId p : e.path_ports) {
        max_util = std::max(max_util, PortUtilizationAt(p, t));
      }
    }
    if (max_util <= params_.fabric_congestion_threshold) {
      return params_.fabric_latency_ms;
    }
    const double over = (std::min(max_util, 1.0) -
                         params_.fabric_congestion_threshold) /
                        (1.0 - params_.fabric_congestion_threshold);
    return params_.fabric_latency_ms +
           params_.fabric_congestion_ms * over * over;
  }

  double VolumeReadLatencyMs(ComponentId volume, SimTimeMs t,
                             const IoProfile& extra_self = {}) const {
    const std::vector<ComponentId> disks = topology_->DisksOfVolume(volume);
    if (disks.empty()) {
      return params_.max_queue_inflation * params_.disk_random_read_ms;
    }
    double rho_sum = 0;
    for (ComponentId d : disks) {
      const Demand demand = DiskDemandAt(d, t, extra_self, volume);
      rho_sum += std::min(demand.read_busy + demand.write_busy, 1.2);
    }
    const double rho = rho_sum / static_cast<double>(disks.size());
    IoProfile own = VolumeLoadAt(volume, t);
    own.Add(extra_self);
    if (own.total_iops() <= 0) own.read_iops = 1.0;
    const double miss = 1.0 - params_.read_cache_hit_fraction;
    const double disk_ms =
        own.seq_fraction * params_.disk_seq_read_ms +
        (1.0 - own.seq_fraction) * params_.disk_random_read_ms;
    const double service =
        params_.read_cache_hit_fraction * params_.cache_hit_ms +
        miss * disk_ms;
    return params_.controller_overhead_ms + FabricLatencyMs(volume, t) +
           service * QueueInflation(rho);
  }

  double VolumeWriteLatencyMs(ComponentId volume, SimTimeMs t,
                              const IoProfile& extra_self = {}) const {
    const std::vector<ComponentId> disks = topology_->DisksOfVolume(volume);
    if (disks.empty()) {
      return params_.max_queue_inflation * params_.disk_random_write_ms;
    }
    double rho_sum = 0;
    for (ComponentId d : disks) {
      const Demand demand = DiskDemandAt(d, t, extra_self, volume);
      rho_sum += std::min(demand.read_busy + demand.write_busy, 1.2);
    }
    const double rho = rho_sum / static_cast<double>(disks.size());
    double latency = params_.write_cache_ms + FabricLatencyMs(volume, t);
    if (rho > params_.destage_threshold) {
      const double over = (rho - params_.destage_threshold) /
                          (1.0 - params_.destage_threshold);
      latency += params_.write_cache_ms * params_.destage_pressure_scale *
                 over * over;
    }
    return latency;
  }

  VolumeIntervalStats VolumeStats(ComponentId volume,
                                  const TimeInterval& interval) const {
    VolumeIntervalStats out;
    if (interval.empty()) return out;
    auto load = [&](SimTimeMs t) { return VolumeLoadAt(volume, t); };
    out.read_iops = AverageOver(
        interval, [&](SimTimeMs t) { return load(t).read_iops; });
    out.write_iops = AverageOver(
        interval, [&](SimTimeMs t) { return load(t).write_iops; });
    out.seq_read_iops = AverageOver(interval, [&](SimTimeMs t) {
      const IoProfile p = load(t);
      return p.read_iops * p.seq_fraction;
    });
    out.seq_write_iops = AverageOver(interval, [&](SimTimeMs t) {
      const IoProfile p = load(t);
      return p.write_iops * p.seq_fraction;
    });
    out.bytes_read_per_sec = AverageOver(interval, [&](SimTimeMs t) {
      const IoProfile p = load(t);
      return p.read_iops * p.avg_block_kb * 1024.0;
    });
    out.bytes_written_per_sec = AverageOver(interval, [&](SimTimeMs t) {
      const IoProfile p = load(t);
      return p.write_iops * p.avg_block_kb * 1024.0;
    });
    out.read_latency_ms = AverageOver(
        interval, [&](SimTimeMs t) { return VolumeReadLatencyMs(volume, t); });
    out.write_latency_ms = AverageOver(
        interval, [&](SimTimeMs t) { return VolumeWriteLatencyMs(volume, t); });
    const std::vector<ComponentId> disks = topology_->DisksOfVolume(volume);
    out.physical_read_ops = AverageOver(interval, [&](SimTimeMs t) {
      double ops = 0;
      for (ComponentId d : disks) {
        ops += DiskDemandAt(d, t, IoProfile{}, ComponentId{}).read_ops;
      }
      return ops;
    });
    out.physical_write_ops = AverageOver(interval, [&](SimTimeMs t) {
      double ops = 0;
      for (ComponentId d : disks) {
        ops += DiskDemandAt(d, t, IoProfile{}, ComponentId{}).write_ops;
      }
      return ops;
    });
    auto rho = [&](SimTimeMs t) {
      double rho_sum = 0;
      for (ComponentId d : disks) {
        const Demand demand = DiskDemandAt(d, t, IoProfile{}, ComponentId{});
        rho_sum += std::min(demand.read_busy + demand.write_busy, 1.2);
      }
      return disks.empty() ? 0.0
                           : rho_sum / static_cast<double>(disks.size());
    };
    out.physical_read_time_ms = AverageOver(interval, [&](SimTimeMs t) {
      return params_.disk_random_read_ms * QueueInflation(rho(t));
    });
    out.physical_write_time_ms = AverageOver(interval, [&](SimTimeMs t) {
      return params_.disk_random_write_ms * QueueInflation(rho(t));
    });
    out.total_ios = out.read_iops + out.write_iops;
    return out;
  }

  DiskIntervalStats DiskStats(ComponentId disk,
                              const TimeInterval& interval) const {
    DiskIntervalStats out;
    out.utilization = AverageOver(
        interval, [&](SimTimeMs t) { return DiskUtilizationAt(disk, t); });
    out.iops = AverageOver(interval, [&](SimTimeMs t) {
      const Demand d = DiskDemandAt(disk, t, IoProfile{}, ComponentId{});
      return d.read_ops + d.write_ops;
    });
    return out;
  }

  PortIntervalStats PortStats(ComponentId port,
                              const TimeInterval& interval) const {
    PortIntervalStats out;
    if (interval.empty()) return out;
    for (const LoadEvent& e : events_) {
      for (ComponentId p : e.path_ports) {
        if (p != port) continue;
        const TimeInterval inter = e.interval.Intersect(interval);
        const double overlap = static_cast<double>(inter.duration()) /
                               static_cast<double>(interval.duration());
        if (overlap <= 0) continue;
        const double read_mb_s =
            e.profile.read_iops * e.profile.avg_block_kb / 1024.0;
        const double write_mb_s =
            e.profile.write_iops * e.profile.avg_block_kb / 1024.0;
        out.mb_rx_per_sec += overlap * read_mb_s;
        out.mb_tx_per_sec += overlap * write_mb_s;
        out.frames_rx_per_sec += overlap * read_mb_s * 512.0;
        out.frames_tx_per_sec += overlap * write_mb_s * 512.0;
      }
    }
    return out;
  }

  ServerIntervalStats ServerStats(ComponentId server,
                                  const TimeInterval& interval) const {
    ServerIntervalStats out;
    out.cpu_utilization = AverageOver(interval, [&](SimTimeMs t) {
      double u = 0;
      for (const Cpu& c : cpu_) {
        if (c.server == server && c.interval.Contains(t)) u += c.utilization;
      }
      return std::min(u, 1.0);
    });
    return out;
  }

 private:
  struct Overhead {
    ComponentId pool;
    TimeInterval interval;
    double utilization;
  };
  struct Cpu {
    ComponentId server;
    TimeInterval interval;
    double utilization;
  };
  struct Demand {
    double read_busy = 0;
    double write_busy = 0;
    double read_ops = 0;
    double write_ops = 0;
  };

  Demand DiskDemandAt(ComponentId disk, SimTimeMs t,
                      const IoProfile& extra_self,
                      ComponentId extra_self_volume) const {
    Demand demand;
    const DiskInfo& disk_info = topology_->disk(disk);
    if (disk_info.failed) return demand;
    const PoolInfo& pool = topology_->pool(disk_info.pool);
    const int n_disks = topology_->ActiveDiskCount(pool.id);
    if (n_disks == 0) return demand;
    const double raid_penalty = RaidWritePenalty(pool.raid);
    auto accumulate = [&](const IoProfile& p) {
      if (p.total_iops() <= 0) return;
      const double read_miss_ops =
          p.read_iops * (1.0 - params_.read_cache_hit_fraction) /
          static_cast<double>(n_disks);
      const double write_ops =
          p.write_iops * raid_penalty / static_cast<double>(n_disks);
      const double read_ms =
          p.seq_fraction * params_.disk_seq_read_ms +
          (1.0 - p.seq_fraction) * params_.disk_random_read_ms;
      const double write_ms =
          p.seq_fraction * params_.disk_seq_write_ms +
          (1.0 - p.seq_fraction) * params_.disk_random_write_ms;
      demand.read_ops += read_miss_ops;
      demand.write_ops += write_ops;
      demand.read_busy += read_miss_ops * read_ms / 1000.0;
      demand.write_busy += write_ops * write_ms / 1000.0;
    };
    for (const LoadEvent& e : events_) {
      if (e.volume.valid() && topology_->volume(e.volume).pool == pool.id &&
          e.interval.Contains(t)) {
        accumulate(e.profile);
      }
    }
    if (extra_self_volume.valid() &&
        topology_->volume(extra_self_volume).pool == pool.id) {
      accumulate(extra_self);
    }
    for (const Overhead& o : overheads_) {
      if (o.pool == pool.id && o.interval.Contains(t)) {
        demand.write_busy += o.utilization;
      }
    }
    return demand;
  }

  double QueueInflation(double rho) const {
    if (rho >= 1.0) return params_.max_queue_inflation;
    return std::min(1.0 / (1.0 - rho), params_.max_queue_inflation);
  }

  std::vector<SimTimeMs> SegmentBoundaries(const TimeInterval& interval) const {
    std::vector<SimTimeMs> cuts{interval.begin, interval.end};
    auto add_cut = [&](SimTimeMs t) {
      if (t > interval.begin && t < interval.end) cuts.push_back(t);
    };
    for (const LoadEvent& e : events_) {
      add_cut(e.interval.begin);
      add_cut(e.interval.end);
    }
    for (const Overhead& o : overheads_) {
      add_cut(o.interval.begin);
      add_cut(o.interval.end);
    }
    for (const Cpu& c : cpu_) {
      add_cut(c.interval.begin);
      add_cut(c.interval.end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return cuts;
  }

  template <typename Fn>
  double AverageOver(const TimeInterval& interval, Fn&& fn) const {
    if (interval.empty()) return 0.0;
    const std::vector<SimTimeMs> cuts = SegmentBoundaries(interval);
    double integral = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const SimTimeMs mid = cuts[i] + (cuts[i + 1] - cuts[i]) / 2;
      integral += fn(mid) * static_cast<double>(cuts[i + 1] - cuts[i]);
    }
    return integral / static_cast<double>(interval.duration());
  }

  const SanTopology* topology_;
  PerfParams params_;
  std::vector<LoadEvent> events_;
  std::vector<Overhead> overheads_;
  std::vector<Cpu> cpu_;
};

/// Bitwise double equality (EXPECT_EQ would let -0.0 match 0.0).
::testing::AssertionResult SameBits(const char* what, double indexed,
                                    double naive) {
  uint64_t a = 0;
  uint64_t b = 0;
  std::memcpy(&a, &indexed, sizeof(a));
  std::memcpy(&b, &naive, sizeof(b));
  if (a == b) return ::testing::AssertionSuccess();
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.17g (indexed) vs %.17g (naive)",
                indexed, naive);
  return ::testing::AssertionFailure() << what << ": " << buf;
}

/// A random SAN: 2-3 pools (mixed RAID levels, some failed disks, possibly
/// a pool with none left), volumes per pool, two servers, and ports of
/// mixed speed (some degraded). Registrations go to both models.
class RandomModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  RandomModelTest() : rng_(GetParam()) {
    const ComponentId ss = topology_.AddSubsystem("ss", "X").value();
    const RaidLevel raids[] = {RaidLevel::kRaid0, RaidLevel::kRaid1,
                               RaidLevel::kRaid5, RaidLevel::kRaid10};
    const int n_pools = static_cast<int>(rng_.UniformInt(2, 3));
    for (int p = 0; p < n_pools; ++p) {
      const ComponentId pool =
          topology_
              .AddPool("p" + std::to_string(p), ss,
                       raids[rng_.UniformInt(0, 3)])
              .value();
      pools_.push_back(pool);
      // Up to 8 disks: a sum of six or more equal per-disk terms can round
      // differently from the product.
      const int n_disks = static_cast<int>(rng_.UniformInt(1, 8));
      for (int d = 0; d < n_disks; ++d) {
        disks_.push_back(
            topology_
                .AddDisk("p" + std::to_string(p) + "d" + std::to_string(d),
                         pool)
                .value());
      }
      const int n_vols = static_cast<int>(rng_.UniformInt(1, 3));
      for (int v = 0; v < n_vols; ++v) {
        volumes_.push_back(
            topology_
                .AddVolume("p" + std::to_string(p) + "v" + std::to_string(v),
                           pool, 100)
                .value());
      }
    }
    for (int s = 0; s < 2; ++s) {
      const ComponentId server =
          topology_.AddServer("srv" + std::to_string(s), "Linux").value();
      servers_.push_back(server);
      const ComponentId hba =
          topology_.AddHba("hba" + std::to_string(s), server).value();
      ports_.push_back(topology_
                           .AddPort("hba" + std::to_string(s) + "p",
                                    PortOwner::kHba, hba, 1.0)
                           .value());
    }
    const int n_ports = static_cast<int>(rng_.UniformInt(2, 5));
    for (int i = 0; i < n_ports; ++i) {
      ports_.push_back(topology_
                           .AddPort("ssp" + std::to_string(i),
                                    PortOwner::kSubsystem, ss,
                                    rng_.Bernoulli(0.5) ? 1.0 : 4.0)
                           .value());
    }
    for (ComponentId port : ports_) {
      if (rng_.Bernoulli(0.3)) {
        EXPECT_TRUE(
            topology_.SetPortDegraded(port, rng_.Uniform(0.1, 1.0)).ok());
      }
    }
  }

  /// A window on a coarse grid (so abutting, nested and identical windows
  /// are common), sometimes nudged off it.
  TimeInterval Window() {
    const SimTimeMs grid = Seconds(30);
    SimTimeMs begin = rng_.UniformInt(0, 200) * grid;
    SimTimeMs end = begin + rng_.UniformInt(1, 20) * grid;
    if (!windows_.empty() && rng_.Bernoulli(0.3)) {
      // Abut, nest inside, or copy an earlier window.
      const TimeInterval& w =
          windows_[static_cast<size_t>(rng_.UniformInt(
              0, static_cast<int64_t>(windows_.size()) - 1))];
      switch (rng_.UniformInt(0, 2)) {
        case 0:
          begin = w.end;
          end = begin + rng_.UniformInt(1, 10) * grid;
          break;
        case 1:
          begin = w.begin + (w.end - w.begin) / 4;
          end = std::max(begin + 1, w.end - (w.end - w.begin) / 4);
          break;
        default:
          begin = w.begin;
          end = w.end;
      }
    }
    if (rng_.Bernoulli(0.2)) begin += rng_.UniformInt(1, 999);
    if (rng_.Bernoulli(0.2)) end += rng_.UniformInt(1, 999);
    if (end <= begin) end = begin + 1;
    windows_.push_back(TimeInterval{begin, end});
    return windows_.back();
  }

  std::vector<ComponentId> Path() {
    std::vector<ComponentId> path;
    for (ComponentId port : ports_) {
      if (rng_.Bernoulli(0.4)) path.push_back(port);
    }
    // Occasionally a port twice on one path: it counts twice.
    if (!path.empty() && rng_.Bernoulli(0.05)) path.push_back(path.front());
    return path;
  }

  /// Registers one registration of `kind` (0: volume load, 1: pure fabric
  /// stream, 2: pool overhead, 3: CPU load) in both models; returns its
  /// window.
  TimeInterval RegisterOne(int kind) {
    TimeInterval window = Window();
    switch (kind) {
      case 0: {
        LoadEvent event;
        event.volume = Pick(volumes_);
        event.interval = window;
        event.profile.read_iops =
            rng_.Bernoulli(0.2) ? 0 : rng_.Uniform(0, 300);
        event.profile.write_iops =
            rng_.Bernoulli(0.3) ? 0 : rng_.Uniform(0, 200);
        event.profile.seq_fraction = rng_.Uniform();
        event.profile.avg_block_kb = rng_.Bernoulli(0.5) ? 8.0 : 64.0;
        event.path_ports = Path();
        EXPECT_TRUE(model_.AddLoad(event).ok());
        naive_.AddLoad(event);
        break;
      }
      case 1: {
        const double mb_s = rng_.Uniform(0, 150);
        const std::vector<ComponentId> path = Path();
        EXPECT_TRUE(model_.AddFabricLoad(window, mb_s, path).ok());
        naive_.AddFabricLoad(window, mb_s, path);
        break;
      }
      case 2: {
        const ComponentId pool = Pick(pools_);
        const double u = rng_.Uniform(0, 0.5);
        EXPECT_TRUE(model_.AddPoolOverhead(pool, window, u).ok());
        naive_.AddPoolOverhead(pool, window, u);
        break;
      }
      default: {
        // CPU loads accept empty windows: they cut segments, never apply.
        if (rng_.Bernoulli(0.1)) window.end = window.begin;
        const ComponentId server = Pick(servers_);
        const double u = rng_.Uniform(0, 0.7);
        EXPECT_TRUE(model_.AddCpuLoad(server, window, u).ok());
        naive_.AddCpuLoad(server, window, u);
      }
    }
    return window;
  }

  /// Registers `n` registrations of random kinds, mostly volume loads.
  void RegisterRandom(int n) {
    for (int i = 0; i < n; ++i) {
      const int64_t draw = rng_.UniformInt(0, 9);
      RegisterOne(draw <= 5 ? 0 : static_cast<int>(draw) - 5);
    }
  }

  ComponentId Pick(const std::vector<ComponentId>& from) {
    return from[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
  }

  /// Query times: random, at and next to every registered boundary, and
  /// outside everything.
  std::vector<SimTimeMs> QueryTimes() {
    std::vector<SimTimeMs> times = {-1, 0};
    for (const TimeInterval& w : windows_) {
      for (SimTimeMs t : {w.begin - 1, w.begin, w.end - 1, w.end}) {
        if (rng_.Bernoulli(0.25)) times.push_back(t);
      }
    }
    for (int i = 0; i < 20; ++i) {
      times.push_back(rng_.UniformInt(0, Minutes(120)));
    }
    times.push_back(Minutes(1000));
    return times;
  }

  /// Query intervals: a five-minute monitoring grid over the whole span,
  /// random and registered windows, empty and out-of-range intervals.
  std::vector<TimeInterval> QueryIntervals() {
    std::vector<TimeInterval> intervals;
    for (SimTimeMs t = -Minutes(5); t < Minutes(115); t += Minutes(5)) {
      intervals.push_back(TimeInterval{t, t + Minutes(5)});
    }
    for (int i = 0; i < 10; ++i) {
      const SimTimeMs begin = rng_.UniformInt(-1000, Minutes(110));
      intervals.push_back(
          TimeInterval{begin, begin + rng_.UniformInt(1, Minutes(40))});
    }
    for (size_t i = 0; i < windows_.size(); i += 3) {
      intervals.push_back(windows_[i]);
    }
    intervals.push_back(TimeInterval{Minutes(7), Minutes(7)});
    intervals.push_back(TimeInterval{Minutes(9), Minutes(8)});
    intervals.push_back(TimeInterval{Minutes(500), Minutes(505)});
    return intervals;
  }

  IoProfile RandomSelf() {
    IoProfile self;
    if (rng_.Bernoulli(0.3)) return self;
    self.read_iops = rng_.Uniform(0, 400);
    self.seq_fraction = rng_.Uniform();
    return self;
  }

  void ExpectInstantaneousAgree(const std::vector<SimTimeMs>& times) {
    for (SimTimeMs t : times) {
      SCOPED_TRACE("t=" + std::to_string(t));
      for (ComponentId v : volumes_) {
        const IoProfile a = model_.VolumeLoadAt(v, t);
        const IoProfile b = naive_.VolumeLoadAt(v, t);
        EXPECT_TRUE(SameBits("load.read_iops", a.read_iops, b.read_iops));
        EXPECT_TRUE(SameBits("load.write_iops", a.write_iops, b.write_iops));
        EXPECT_TRUE(
            SameBits("load.seq_fraction", a.seq_fraction, b.seq_fraction));
        EXPECT_TRUE(
            SameBits("load.avg_block_kb", a.avg_block_kb, b.avg_block_kb));
        const IoProfile self = RandomSelf();
        EXPECT_TRUE(SameBits("read_latency",
                             model_.VolumeReadLatencyMs(v, t, self),
                             naive_.VolumeReadLatencyMs(v, t, self)));
        EXPECT_TRUE(SameBits("write_latency",
                             model_.VolumeWriteLatencyMs(v, t, self),
                             naive_.VolumeWriteLatencyMs(v, t, self)));
        EXPECT_TRUE(SameBits("fabric_latency", model_.FabricLatencyMs(v, t),
                             naive_.FabricLatencyMs(v, t)));
      }
      for (ComponentId d : disks_) {
        EXPECT_TRUE(SameBits("disk_utilization",
                             model_.DiskUtilizationAt(d, t),
                             naive_.DiskUtilizationAt(d, t)));
      }
      for (ComponentId p : ports_) {
        EXPECT_TRUE(SameBits("port_utilization",
                             model_.PortUtilizationAt(p, t),
                             naive_.PortUtilizationAt(p, t)));
      }
    }
  }

  void ExpectIntervalStatsAgree(const std::vector<TimeInterval>& intervals) {
    for (const TimeInterval& interval : intervals) {
      SCOPED_TRACE("interval=" + interval.ToString());
      for (ComponentId v : volumes_) {
        const VolumeIntervalStats a = model_.VolumeStats(v, interval);
        const VolumeIntervalStats b = naive_.VolumeStats(v, interval);
        EXPECT_TRUE(SameBits("read_iops", a.read_iops, b.read_iops));
        EXPECT_TRUE(SameBits("write_iops", a.write_iops, b.write_iops));
        EXPECT_TRUE(
            SameBits("seq_read_iops", a.seq_read_iops, b.seq_read_iops));
        EXPECT_TRUE(
            SameBits("seq_write_iops", a.seq_write_iops, b.seq_write_iops));
        EXPECT_TRUE(SameBits("bytes_read_per_sec", a.bytes_read_per_sec,
                             b.bytes_read_per_sec));
        EXPECT_TRUE(SameBits("bytes_written_per_sec", a.bytes_written_per_sec,
                             b.bytes_written_per_sec));
        EXPECT_TRUE(
            SameBits("read_latency_ms", a.read_latency_ms, b.read_latency_ms));
        EXPECT_TRUE(SameBits("write_latency_ms", a.write_latency_ms,
                             b.write_latency_ms));
        EXPECT_TRUE(SameBits("physical_read_ops", a.physical_read_ops,
                             b.physical_read_ops));
        EXPECT_TRUE(SameBits("physical_write_ops", a.physical_write_ops,
                             b.physical_write_ops));
        EXPECT_TRUE(SameBits("physical_read_time_ms", a.physical_read_time_ms,
                             b.physical_read_time_ms));
        EXPECT_TRUE(SameBits("physical_write_time_ms",
                             a.physical_write_time_ms,
                             b.physical_write_time_ms));
        EXPECT_TRUE(SameBits("total_ios", a.total_ios, b.total_ios));
      }
      for (ComponentId d : disks_) {
        const DiskIntervalStats a = model_.DiskStats(d, interval);
        const DiskIntervalStats b = naive_.DiskStats(d, interval);
        EXPECT_TRUE(SameBits("utilization", a.utilization, b.utilization));
        EXPECT_TRUE(SameBits("iops", a.iops, b.iops));
      }
      for (ComponentId p : ports_) {
        const PortIntervalStats a = model_.PortStats(p, interval);
        const PortIntervalStats b = naive_.PortStats(p, interval);
        EXPECT_TRUE(SameBits("mb_tx", a.mb_tx_per_sec, b.mb_tx_per_sec));
        EXPECT_TRUE(SameBits("mb_rx", a.mb_rx_per_sec, b.mb_rx_per_sec));
        EXPECT_TRUE(SameBits("frames_tx", a.frames_tx_per_sec,
                             b.frames_tx_per_sec));
        EXPECT_TRUE(SameBits("frames_rx", a.frames_rx_per_sec,
                             b.frames_rx_per_sec));
      }
      for (ComponentId s : servers_) {
        EXPECT_TRUE(SameBits("cpu_utilization",
                             model_.ServerStats(s, interval).cpu_utilization,
                             naive_.ServerStats(s, interval).cpu_utilization));
      }
    }
  }

  SeededRng rng_;
  ComponentRegistry registry_;
  SanTopology topology_{&registry_};
  SanPerfModel model_{&topology_};
  NaiveModel naive_{&topology_};
  std::vector<ComponentId> pools_, disks_, volumes_, servers_, ports_;
  std::vector<TimeInterval> windows_;
};

// Registrations keep arriving between queries, as the executor registers
// each Q2 run's load after querying latencies for it: every query must see
// every registration so far, of every kind.
TEST_P(RandomModelTest, IndexedModelMatchesNaiveReferenceBitForBit) {
  RegisterRandom(40);
  ExpectInstantaneousAgree(QueryTimes());
  ExpectIntervalStatsAgree(QueryIntervals());
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // One registration of each kind at a time, each queried around its
    // window before the next arrives.
    for (int i = 0; i < 8; ++i) {
      const TimeInterval w = RegisterOne(i % 4);
      SCOPED_TRACE("after registering kind " + std::to_string(i % 4) +
                   " over " + w.ToString());
      const SimTimeMs cell = Minutes(5) * (w.begin / Minutes(5));
      ExpectInstantaneousAgree({w.begin, w.begin + (w.end - w.begin) / 2,
                                w.end - 1});
      ExpectIntervalStatsAgree({w, TimeInterval{cell, cell + Minutes(5)},
                                TimeInterval{w.begin - Minutes(1),
                                             w.end + Minutes(1)}});
    }
    if (round == 0) {
      // A failed disk changes every pool demand without a registration.
      ASSERT_TRUE(topology_.SetDiskFailed(Pick(disks_), true).ok());
    }
    if (round == 1) model_.ReleaseIndex();
    ExpectInstantaneousAgree(QueryTimes());
    ExpectIntervalStatsAgree(QueryIntervals());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelTest,
                         ::testing::Range<uint64_t>(1, 31));

// Property sweep: latency is monotone non-decreasing in offered write load.
class LatencyMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(LatencyMonotonicityTest, MoreLoadNeverFaster) {
  PerfFixture f;
  const double iops = GetParam();
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v2, 0, 1000, 0, iops)).ok());
  const double read_latency = f.model.VolumeReadLatencyMs(f.v1, 500);
  const double write_latency = f.model.VolumeWriteLatencyMs(f.v1, 500);

  PerfFixture g;
  ASSERT_TRUE(g.model.AddLoad(g.Load(g.v2, 0, 1000, 0, iops + 25)).ok());
  EXPECT_GE(g.model.VolumeReadLatencyMs(g.v1, 500) + 1e-9, read_latency);
  EXPECT_GE(g.model.VolumeWriteLatencyMs(g.v1, 500) + 1e-9, write_latency);
}

INSTANTIATE_TEST_SUITE_P(WriteLoads, LatencyMonotonicityTest,
                         ::testing::Values(0.0, 25.0, 50.0, 75.0, 100.0,
                                           150.0, 200.0, 300.0));

// Property sweep: the latency cap keeps the model finite under overload.
class OverloadTest : public ::testing::TestWithParam<double> {};

TEST_P(OverloadTest, LatencyStaysBounded) {
  PerfFixture f;
  ASSERT_TRUE(f.model.AddLoad(f.Load(f.v1, 0, 1000, GetParam(), GetParam())).ok());
  const double latency = f.model.VolumeReadLatencyMs(f.v1, 500);
  EXPECT_LT(latency, 150.0);
  EXPECT_GT(latency, 0.0);
}

INSTANTIATE_TEST_SUITE_P(ExtremeLoads, OverloadTest,
                         ::testing::Values(500.0, 2000.0, 10000.0));

}  // namespace
}  // namespace diads::san
