#include "san/perf_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace diads::san {

IoProfile& IoProfile::Add(const IoProfile& other) {
  const double total = total_iops() + other.total_iops();
  if (total > 0) {
    // Blend seq_fraction and block size weighted by iops.
    seq_fraction = (seq_fraction * total_iops() +
                    other.seq_fraction * other.total_iops()) /
                   total;
    avg_block_kb = (avg_block_kb * total_iops() +
                    other.avg_block_kb * other.total_iops()) /
                   total;
  }
  read_iops += other.read_iops;
  write_iops += other.write_iops;
  return *this;
}

namespace {

/// One key's registrations over time: the key's sorted distinct begin/end
/// times cut it into segments, and each segment lists the registrations
/// active there (indices into their registration vector), ascending — so in
/// insertion order. A registration listed k times for one key (a port twice
/// on one path) appears k times in each of its segments.
struct Timeline {
  std::vector<SimTimeMs> cuts;
  /// Segment i = [cuts[i], cuts[i+1]) lists entries[offsets[i],
  /// offsets[i+1]); offsets has one element per cut.
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> entries;

  struct Span {
    const uint32_t* first = nullptr;
    const uint32_t* last = nullptr;
    const uint32_t* begin() const { return first; }
    const uint32_t* end() const { return last; }
  };

  /// Builds from the key's registration indices in insertion order;
  /// `interval_of` gives a registration's interval. Empty intervals are
  /// never active and are left out.
  template <typename IntervalOf>
  Timeline(const std::vector<uint32_t>& ids, IntervalOf&& interval_of) {
    for (uint32_t idx : ids) {
      const TimeInterval& interval = interval_of(idx);
      if (interval.empty()) continue;
      cuts.push_back(interval.begin);
      cuts.push_back(interval.end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    // Each registration's segments [first, last): from its begin's cut to
    // its end's. Count per segment (shifted by one), prefix-sum into
    // offsets, then fill in insertion order.
    std::vector<std::pair<uint32_t, uint32_t>> segments(ids.size());
    offsets.assign(cuts.size(), 0);
    for (size_t k = 0; k < ids.size(); ++k) {
      const TimeInterval& interval = interval_of(ids[k]);
      if (interval.empty()) continue;
      const auto first =
          std::lower_bound(cuts.begin(), cuts.end(), interval.begin);
      const auto last = std::lower_bound(first, cuts.end(), interval.end);
      segments[k] = {static_cast<uint32_t>(first - cuts.begin()),
                     static_cast<uint32_t>(last - cuts.begin())};
      for (uint32_t i = segments[k].first; i < segments[k].second; ++i) {
        ++offsets[i + 1];
      }
    }
    for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
    entries.resize(offsets.empty() ? 0 : offsets.back());
    std::vector<uint32_t> next(offsets);
    for (size_t k = 0; k < ids.size(); ++k) {
      for (uint32_t i = segments[k].first; i < segments[k].second; ++i) {
        entries[next[i]++] = ids[k];
      }
    }
  }

  /// Registrations active at t.
  Span At(SimTimeMs t) const {
    if (cuts.empty() || t < cuts.front() || t >= cuts.back()) return {};
    const size_t i = static_cast<size_t>(
        std::upper_bound(cuts.begin(), cuts.end(), t) - cuts.begin() - 1);
    return Span{entries.data() + offsets[i], entries.data() + offsets[i + 1]};
  }

  /// The registrations active anywhere in `interval`, ascending, each as
  /// often as it is listed. `begin_of` maps an index to its registration's
  /// begin time: past the window's first segment, a registration is new
  /// exactly where it begins.
  template <typename BeginOf>
  std::vector<uint32_t> Overlapping(const TimeInterval& interval,
                                    BeginOf&& begin_of) const {
    std::vector<uint32_t> out;
    if (cuts.empty() || interval.empty()) return out;
    size_t i = static_cast<size_t>(
        std::upper_bound(cuts.begin(), cuts.end(), interval.begin) -
        cuts.begin());
    i = i == 0 ? 0 : i - 1;
    for (size_t first = i; i + 1 < cuts.size() && cuts[i] < interval.end;
         ++i) {
      for (uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        if (i == first || begin_of(entries[k]) == cuts[i]) {
          out.push_back(entries[k]);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// One kind of registration per key: each key's registration indices in
/// insertion order, and its timeline, built on the first read after the key
/// last gained a registration.
template <typename Registration>
class KeyedTimelines {
 public:
  explicit KeyedTimelines(const std::vector<Registration>* registrations)
      : registrations_(registrations) {}

  void Add(ComponentId key, uint32_t idx) {
    Entry& entry = keys_[key];
    entry.ids.push_back(idx);
    entry.timeline.reset();
  }

  /// The key's registrations active at t, in insertion order.
  Timeline::Span At(ComponentId key, SimTimeMs t) {
    const Timeline* timeline = Get(key);
    return timeline == nullptr ? Timeline::Span{} : timeline->At(t);
  }

  /// The key's registrations overlapping `interval`, in insertion order.
  std::vector<uint32_t> Overlapping(ComponentId key,
                                    const TimeInterval& interval) {
    const Timeline* timeline = Get(key);
    if (timeline == nullptr) return {};
    return timeline->Overlapping(interval, [this](uint32_t i) {
      return (*registrations_)[i].interval.begin;
    });
  }

 private:
  struct Entry {
    std::vector<uint32_t> ids;
    std::optional<Timeline> timeline;
  };

  /// The key's timeline, built if stale; nullptr when the key has no
  /// registrations.
  const Timeline* Get(ComponentId key) {
    auto it = keys_.find(key);
    if (it == keys_.end()) return nullptr;
    Entry& entry = it->second;
    if (!entry.timeline) {
      entry.timeline.emplace(entry.ids, [this](uint32_t i) -> const auto& {
        return (*registrations_)[i].interval;
      });
    }
    return &*entry.timeline;
  }

  const std::vector<Registration>* registrations_;
  std::unordered_map<ComponentId, Entry> keys_;
};

}  // namespace

struct SanPerfModel::Index {
  /// Indexes every registration `model` holds.
  explicit Index(const SanPerfModel& model)
      : loads_by_volume(&model.events_),
        loads_by_pool(&model.events_),
        loads_by_port(&model.events_),
        overheads_by_pool(&model.pool_overheads_),
        cpu_by_server(&model.cpu_loads_) {
    for (size_t i = 0; i < model.events_.size(); ++i) AddLoad(model, i);
    for (size_t i = 0; i < model.pool_overheads_.size(); ++i) {
      AddOverhead(model, i);
    }
    for (size_t i = 0; i < model.cpu_loads_.size(); ++i) AddCpuLoad(model, i);
  }

  /// Indexes registration i of its kind.
  void AddLoad(const SanPerfModel& model, size_t i) {
    const LoadEvent& e = model.events_[i];
    const auto idx = static_cast<uint32_t>(i);
    AddTimes(e.interval);
    if (e.volume.valid()) {
      loads_by_volume.Add(e.volume, idx);
      loads_by_pool.Add(model.topology_->volume(e.volume).pool, idx);
    }
    for (ComponentId p : e.path_ports) loads_by_port.Add(p, idx);
  }
  void AddOverhead(const SanPerfModel& model, size_t i) {
    const PoolOverhead& o = model.pool_overheads_[i];
    AddTimes(o.interval);
    overheads_by_pool.Add(o.pool, static_cast<uint32_t>(i));
  }
  void AddCpuLoad(const SanPerfModel& model, size_t i) {
    const CpuLoad& c = model.cpu_loads_[i];
    AddTimes(c.interval);
    cpu_by_server.Add(c.server, static_cast<uint32_t>(i));
  }

  /// Every registration's begin and end, sorted and distinct.
  const std::vector<SimTimeMs>& Boundaries() {
    if (!unmerged_.empty()) {
      std::sort(unmerged_.begin(), unmerged_.end());
      const auto old_size = static_cast<std::ptrdiff_t>(boundaries_.size());
      boundaries_.insert(boundaries_.end(), unmerged_.begin(),
                         unmerged_.end());
      std::inplace_merge(boundaries_.begin(), boundaries_.begin() + old_size,
                         boundaries_.end());
      boundaries_.erase(std::unique(boundaries_.begin(), boundaries_.end()),
                        boundaries_.end());
      unmerged_.clear();
    }
    return boundaries_;
  }

  KeyedTimelines<LoadEvent> loads_by_volume;
  KeyedTimelines<LoadEvent> loads_by_pool;
  KeyedTimelines<LoadEvent> loads_by_port;
  KeyedTimelines<PoolOverhead> overheads_by_pool;
  KeyedTimelines<CpuLoad> cpu_by_server;

 private:
  void AddTimes(const TimeInterval& interval) {
    unmerged_.push_back(interval.begin);
    unmerged_.push_back(interval.end);
  }

  std::vector<SimTimeMs> boundaries_;
  /// Times registered since the last Boundaries() read.
  std::vector<SimTimeMs> unmerged_;
};

SanPerfModel::SanPerfModel(const SanTopology* topology, PerfParams params)
    : topology_(topology), params_(params) {
  assert(topology != nullptr);
}

SanPerfModel::~SanPerfModel() = default;

void SanPerfModel::ReleaseIndex() { index_.reset(); }

SanPerfModel::Index& SanPerfModel::index() const {
  if (index_ == nullptr) index_ = std::make_unique<Index>(*this);
  return *index_;
}

Status SanPerfModel::AddLoad(LoadEvent event) {
  if (event.interval.empty()) {
    return Status::InvalidArgument("load event interval is empty");
  }
  if (event.profile.read_iops < 0 || event.profile.write_iops < 0) {
    return Status::InvalidArgument("load event iops must be non-negative");
  }
  events_.push_back(std::move(event));
  if (index_ != nullptr) index_->AddLoad(*this, events_.size() - 1);
  return Status::Ok();
}

Status SanPerfModel::AddFabricLoad(const TimeInterval& interval,
                                   double mb_per_sec,
                                   std::vector<ComponentId> path_ports,
                                   ComponentId source) {
  if (mb_per_sec < 0) {
    return Status::InvalidArgument("fabric load must be non-negative");
  }
  LoadEvent event;
  event.interval = interval;
  event.source = source;
  event.path_ports = std::move(path_ports);
  // Large sequential reads: 64 KB blocks, so iops = MB/s * 16.
  event.profile.read_iops = mb_per_sec * 16.0;
  event.profile.seq_fraction = 1.0;
  event.profile.avg_block_kb = 64.0;
  return AddLoad(std::move(event));
}

Status SanPerfModel::AddPoolOverhead(ComponentId pool,
                                     const TimeInterval& interval,
                                     double utilization) {
  if (utilization < 0 || utilization > 1) {
    return Status::InvalidArgument("pool overhead utilization must be in [0,1]");
  }
  pool_overheads_.push_back(PoolOverhead{pool, interval, utilization});
  if (index_ != nullptr) {
    index_->AddOverhead(*this, pool_overheads_.size() - 1);
  }
  return Status::Ok();
}

Status SanPerfModel::AddCpuLoad(ComponentId server,
                                const TimeInterval& interval,
                                double utilization) {
  if (utilization < 0) {
    return Status::InvalidArgument("cpu utilization must be non-negative");
  }
  cpu_loads_.push_back(CpuLoad{server, interval, utilization});
  if (index_ != nullptr) index_->AddCpuLoad(*this, cpu_loads_.size() - 1);
  return Status::Ok();
}

IoProfile SanPerfModel::VolumeLoadAt(ComponentId volume, SimTimeMs t) const {
  IoProfile total;
  for (uint32_t idx : index().loads_by_volume.At(volume, t)) {
    total.Add(events_[idx].profile);
  }
  return total;
}

double SanPerfModel::ReadServiceMs(const IoProfile& p) const {
  const double miss = 1.0 - params_.read_cache_hit_fraction;
  const double disk_ms = p.seq_fraction * params_.disk_seq_read_ms +
                         (1.0 - p.seq_fraction) * params_.disk_random_read_ms;
  return params_.read_cache_hit_fraction * params_.cache_hit_ms +
         miss * disk_ms;
}

double SanPerfModel::WriteDiskServiceMs(const IoProfile& p) const {
  return p.seq_fraction * params_.disk_seq_write_ms +
         (1.0 - p.seq_fraction) * params_.disk_random_write_ms;
}

double SanPerfModel::QueueInflation(double rho) const {
  if (rho >= 1.0) return params_.max_queue_inflation;
  return std::min(1.0 / (1.0 - rho), params_.max_queue_inflation);
}

SanPerfModel::DiskDemand SanPerfModel::PoolDemandAt(
    ComponentId pool, SimTimeMs t, const IoProfile& extra_self) const {
  DiskDemand demand;
  const int n_disks = topology_->ActiveDiskCount(pool);
  if (n_disks == 0) return demand;
  const double raid_penalty = RaidWritePenalty(topology_->pool(pool).raid);

  auto accumulate = [&](const IoProfile& p) {
    if (p.total_iops() <= 0) return;
    const double read_miss_ops =
        p.read_iops * (1.0 - params_.read_cache_hit_fraction) /
        static_cast<double>(n_disks);
    const double write_ops =
        p.write_iops * raid_penalty / static_cast<double>(n_disks);
    const double read_ms = p.seq_fraction * params_.disk_seq_read_ms +
                           (1.0 - p.seq_fraction) * params_.disk_random_read_ms;
    const double write_ms = WriteDiskServiceMs(p);
    demand.read_ops += read_miss_ops;
    demand.write_ops += write_ops;
    demand.read_busy += read_miss_ops * read_ms / 1000.0;
    demand.write_busy += write_ops * write_ms / 1000.0;
  };

  Index& ix = index();
  for (uint32_t idx : ix.loads_by_pool.At(pool, t)) {
    accumulate(events_[idx].profile);
  }
  accumulate(extra_self);
  for (uint32_t idx : ix.overheads_by_pool.At(pool, t)) {
    demand.write_busy += pool_overheads_[idx].utilization;
  }
  return demand;
}

SanPerfModel::DiskDemand SanPerfModel::DiskDemandAt(ComponentId disk,
                                                    SimTimeMs t) const {
  const DiskInfo& info = topology_->disk(disk);
  if (info.failed) return DiskDemand{};
  return PoolDemandAt(info.pool, t, IoProfile{});
}

double SanPerfModel::DiskUtilizationAt(ComponentId disk, SimTimeMs t) const {
  const DiskDemand d = DiskDemandAt(disk, t);
  return std::min(d.read_busy + d.write_busy, 1.5);
}

double SanPerfModel::PortUtilizationAt(ComponentId port, SimTimeMs t) const {
  double mb_s = 0;
  for (uint32_t idx : index().loads_by_port.At(port, t)) {
    const IoProfile& p = events_[idx].profile;
    mb_s += (p.read_iops + p.write_iops) * p.avg_block_kb / 1024.0;
  }
  if (mb_s <= 0) return 0.0;
  const double capacity = topology_->port(port).EffectiveMbPerSec();
  if (capacity <= 0) return 1.0;
  return mb_s / capacity;
}

double SanPerfModel::FabricLatencyMs(ComponentId volume, SimTimeMs t) const {
  double max_util = 0;
  for (uint32_t idx : index().loads_by_volume.At(volume, t)) {
    for (ComponentId p : events_[idx].path_ports) {
      max_util = std::max(max_util, PortUtilizationAt(p, t));
    }
  }
  // Exactly 0.0 congestion at or below the threshold: lightly loaded
  // fabrics reduce to the constant params_.fabric_latency_ms.
  if (max_util <= params_.fabric_congestion_threshold) {
    return params_.fabric_latency_ms;
  }
  const double over = (std::min(max_util, 1.0) -
                       params_.fabric_congestion_threshold) /
                      (1.0 - params_.fabric_congestion_threshold);
  return params_.fabric_latency_ms + params_.fabric_congestion_ms * over * over;
}

SanPerfModel::VolumeState SanPerfModel::VolumeStateAt(
    ComponentId volume, SimTimeMs t, const IoProfile& extra_self) const {
  VolumeState s;
  const ComponentId pool = topology_->volume(volume).pool;
  s.disks = static_cast<size_t>(topology_->ActiveDiskCount(pool));
  s.own = VolumeLoadAt(volume, t);
  if (s.disks == 0) return s;
  // Every surviving disk of the pool carries the same demand; the sum
  // still runs disk by disk, since a product can round differently.
  s.per_disk = PoolDemandAt(pool, t, extra_self);
  double rho_sum = 0;
  for (size_t d = 0; d < s.disks; ++d) {
    rho_sum += std::min(s.per_disk.read_busy + s.per_disk.write_busy, 1.2);
  }
  s.rho = rho_sum / static_cast<double>(s.disks);
  s.fabric_ms = FabricLatencyMs(volume, t);
  return s;
}

double SanPerfModel::ReadLatencyMs(const VolumeState& s,
                                   const IoProfile& extra_self) const {
  if (s.disks == 0) {
    return params_.max_queue_inflation * params_.disk_random_read_ms;
  }
  IoProfile own = s.own;
  own.Add(extra_self);
  // Fall back to a random-read profile when the volume is otherwise idle.
  if (own.total_iops() <= 0) own.read_iops = 1.0;
  const double service = ReadServiceMs(own);
  return params_.controller_overhead_ms + s.fabric_ms +
         service * QueueInflation(s.rho);
}

double SanPerfModel::WriteLatencyMs(const VolumeState& s) const {
  if (s.disks == 0) {
    return params_.max_queue_inflation * params_.disk_random_write_ms;
  }
  // Write-back cache: fast acknowledge until destaging falls behind, then
  // back-pressure grows quadratically with backend over-utilisation.
  double latency = params_.write_cache_ms + s.fabric_ms;
  if (s.rho > params_.destage_threshold) {
    const double over = (s.rho - params_.destage_threshold) /
                        (1.0 - params_.destage_threshold);
    latency += params_.write_cache_ms * params_.destage_pressure_scale *
               over * over;
  }
  return latency;
}

double SanPerfModel::VolumeReadLatencyMs(ComponentId volume, SimTimeMs t,
                                         const IoProfile& extra_self) const {
  return ReadLatencyMs(VolumeStateAt(volume, t, extra_self), extra_self);
}

double SanPerfModel::VolumeWriteLatencyMs(ComponentId volume, SimTimeMs t,
                                          const IoProfile& extra_self) const {
  return WriteLatencyMs(VolumeStateAt(volume, t, extra_self));
}

template <size_t N, typename Fn>
std::array<double, N> SanPerfModel::AverageOver(const TimeInterval& interval,
                                                Fn&& fn) const {
  std::array<double, N> integral{};
  if (interval.empty()) return integral;
  // Segment cuts: the interval's ends and every registered time strictly
  // inside it.
  const std::vector<SimTimeMs>& b = index().Boundaries();
  auto inner = std::upper_bound(b.begin(), b.end(), interval.begin);
  const auto inner_end = std::lower_bound(inner, b.end(), interval.end);
  SimTimeMs lo = interval.begin;
  while (lo < interval.end) {
    const SimTimeMs hi = inner != inner_end ? *inner++ : interval.end;
    const std::array<double, N> value = fn(lo + (hi - lo) / 2);
    const auto length = static_cast<double>(hi - lo);
    for (size_t k = 0; k < N; ++k) integral[k] += value[k] * length;
    lo = hi;
  }
  for (double& v : integral) v /= static_cast<double>(interval.duration());
  return integral;
}

VolumeIntervalStats SanPerfModel::VolumeStats(
    ComponentId volume, const TimeInterval& interval) const {
  VolumeIntervalStats out;
  if (interval.empty()) return out;
  // Logical statistics from the volume's own demand; latencies and the
  // backend ("physical storage") view from its disks, which carry every
  // sharer volume in the same pool.
  const std::array<double, 12> avg =
      AverageOver<12>(interval, [&](SimTimeMs t) {
        const VolumeState s = VolumeStateAt(volume, t, IoProfile{});
        const IoProfile& p = s.own;
        // Summed disk by disk: a product can round differently.
        double read_ops = 0;
        double write_ops = 0;
        for (size_t d = 0; d < s.disks; ++d) {
          read_ops += s.per_disk.read_ops;
          write_ops += s.per_disk.write_ops;
        }
        return std::array<double, 12>{
            p.read_iops,
            p.write_iops,
            p.read_iops * p.seq_fraction,
            p.write_iops * p.seq_fraction,
            p.read_iops * p.avg_block_kb * 1024.0,
            p.write_iops * p.avg_block_kb * 1024.0,
            ReadLatencyMs(s, IoProfile{}),
            WriteLatencyMs(s),
            read_ops,
            write_ops,
            params_.disk_random_read_ms * QueueInflation(s.rho),
            params_.disk_random_write_ms * QueueInflation(s.rho)};
      });
  out.read_iops = avg[0];
  out.write_iops = avg[1];
  out.seq_read_iops = avg[2];
  out.seq_write_iops = avg[3];
  out.bytes_read_per_sec = avg[4];
  out.bytes_written_per_sec = avg[5];
  out.read_latency_ms = avg[6];
  out.write_latency_ms = avg[7];
  out.physical_read_ops = avg[8];
  out.physical_write_ops = avg[9];
  out.physical_read_time_ms = avg[10];
  out.physical_write_time_ms = avg[11];
  out.total_ios = out.read_iops + out.write_iops;
  return out;
}

DiskIntervalStats SanPerfModel::DiskStats(ComponentId disk,
                                          const TimeInterval& interval) const {
  const std::array<double, 2> avg = AverageOver<2>(interval, [&](SimTimeMs t) {
    const DiskDemand d = DiskDemandAt(disk, t);
    return std::array<double, 2>{std::min(d.read_busy + d.write_busy, 1.5),
                                 d.read_ops + d.write_ops};
  });
  DiskIntervalStats out;
  out.utilization = avg[0];
  out.iops = avg[1];
  return out;
}

PortIntervalStats SanPerfModel::PortStats(ComponentId port,
                                          const TimeInterval& interval) const {
  PortIntervalStats out;
  if (interval.empty()) return out;
  // Attribute each load event's byte stream to the ports along its path.
  // Reads flow subsystem -> server (rx at HBA port), writes the reverse; at
  // the port level we report both directions symmetrically.
  for (uint32_t idx : index().loads_by_port.Overlapping(port, interval)) {
    const LoadEvent& e = events_[idx];
    const TimeInterval inter = e.interval.Intersect(interval);
    const double overlap = static_cast<double>(inter.duration()) /
                           static_cast<double>(interval.duration());
    const double read_mb_s =
        e.profile.read_iops * e.profile.avg_block_kb / 1024.0;
    const double write_mb_s =
        e.profile.write_iops * e.profile.avg_block_kb / 1024.0;
    out.mb_rx_per_sec += overlap * read_mb_s;
    out.mb_tx_per_sec += overlap * write_mb_s;
    // ~1 FC frame per 2 KB payload.
    out.frames_rx_per_sec += overlap * read_mb_s * 512.0;
    out.frames_tx_per_sec += overlap * write_mb_s * 512.0;
  }
  return out;
}

ServerIntervalStats SanPerfModel::ServerStats(
    ComponentId server, const TimeInterval& interval) const {
  ServerIntervalStats out;
  Index& ix = index();
  out.cpu_utilization = AverageOver<1>(interval, [&](SimTimeMs t) {
    double u = 0;
    for (uint32_t idx : ix.cpu_by_server.At(server, t)) {
      u += cpu_loads_[idx].utilization;
    }
    return std::array<double, 1>{std::min(u, 1.0)};
  })[0];
  return out;
}

}  // namespace diads::san
