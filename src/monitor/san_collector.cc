#include "monitor/san_collector.h"

#include <cassert>
#include <unordered_map>

#include "common/strings.h"

namespace diads::monitor {

SanCollector::SanCollector(const san::SanTopology* topology,
                           const san::SanPerfModel* perf_model,
                           TimeSeriesStore* store, NoiseModel* noise,
                           EventLog* event_log, SanCollectorConfig config)
    : topology_(topology),
      perf_model_(perf_model),
      store_(store),
      noise_(noise),
      event_log_(event_log),
      config_(config) {
  assert(topology_ && perf_model_ && store_ && noise_ && event_log_);
}

Status SanCollector::EmitSample(ComponentId component, MetricId metric,
                                SimTimeMs t, double clean_value) {
  if (reserve_per_series_ > 0) {
    store_->Reserve(component, metric, reserve_per_series_);
  }
  std::optional<double> noisy = noise_->Apply(component, metric, t, clean_value);
  if (!noisy.has_value()) return Status::Ok();  // Dropped sample.
  return store_->Append(component, metric, t, *noisy);
}

Status SanCollector::CollectInterval(const TimeInterval& interval) {
  // Samples are timestamped at the interval end — the moment the monitoring
  // tool reports the aggregate, as real SMI-S collectors do.
  const SimTimeMs t = interval.end;

  for (ComponentId vol : topology_->AllVolumes()) {
    const san::VolumeIntervalStats s = perf_model_->VolumeStats(vol, interval);
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolBytesRead, t, s.bytes_read_per_sec));
    DIADS_RETURN_IF_ERROR(EmitSample(vol, MetricId::kVolBytesWritten, t,
                                     s.bytes_written_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolContaminatingWrites, t, 0.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolPhysReadOps, t, s.physical_read_ops));
    DIADS_RETURN_IF_ERROR(EmitSample(vol, MetricId::kVolPhysReadTimeMs, t,
                                     s.physical_read_time_ms));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolPhysWriteOps, t, s.physical_write_ops));
    DIADS_RETURN_IF_ERROR(EmitSample(vol, MetricId::kVolPhysWriteTimeMs, t,
                                     s.physical_write_time_ms));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolSeqReadRequests, t, s.seq_read_iops));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolSeqWriteRequests, t, s.seq_write_iops));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolTotalIos, t, s.total_ios));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolReadLatencyMs, t, s.read_latency_ms));
    DIADS_RETURN_IF_ERROR(
        EmitSample(vol, MetricId::kVolWriteLatencyMs, t, s.write_latency_ms));

    if (config_.volume_latency_trigger_ms > 0 &&
        s.read_latency_ms > config_.volume_latency_trigger_ms) {
      SystemEvent event;
      event.time = t;
      event.type = EventType::kVolumePerfDegraded;
      event.subject = vol;
      event.description = StrFormat(
          "volume '%s' read latency %.1fms exceeded trigger %.1fms",
          topology_->registry().NameOf(vol).c_str(), s.read_latency_ms,
          config_.volume_latency_trigger_ms);
      DIADS_RETURN_IF_ERROR(event_log_->Append(std::move(event)));
    }
  }

  std::unordered_map<ComponentId, double> disk_utilization;
  for (ComponentId disk : topology_->AllDisks()) {
    const san::DiskIntervalStats s = perf_model_->DiskStats(disk, interval);
    disk_utilization[disk] = s.utilization;
    DIADS_RETURN_IF_ERROR(
        EmitSample(disk, MetricId::kDiskUtilization, t, s.utilization));
    DIADS_RETURN_IF_ERROR(EmitSample(disk, MetricId::kDiskIops, t, s.iops));
  }

  // Subsystem-high-load trigger: any pool whose mean disk utilisation
  // crosses the threshold.
  for (ComponentId pool : topology_->AllPools()) {
    double mean_util = 0;
    int n = 0;
    for (ComponentId disk : topology_->pool(pool).disks) {
      if (topology_->disk(disk).failed) continue;
      mean_util += disk_utilization.at(disk);
      ++n;
    }
    if (n > 0) mean_util /= n;
    if (config_.subsystem_load_trigger > 0 &&
        mean_util > config_.subsystem_load_trigger) {
      SystemEvent event;
      event.time = t;
      event.type = EventType::kSubsystemHighLoad;
      event.subject = pool;
      event.description =
          StrFormat("pool '%s' mean disk utilization %.2f exceeded %.2f",
                    topology_->registry().NameOf(pool).c_str(), mean_util,
                    config_.subsystem_load_trigger);
      DIADS_RETURN_IF_ERROR(event_log_->Append(std::move(event)));
    }
  }

  for (ComponentId server : topology_->AllServers()) {
    const san::ServerIntervalStats s =
        perf_model_->ServerStats(server, interval);
    const san::ServerInfo& info = topology_->server(server);
    DIADS_RETURN_IF_ERROR(EmitSample(server, MetricId::kServerCpuPct, t,
                                     s.cpu_utilization * 100.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(server, MetricId::kServerCpuMhz, t,
                   s.cpu_utilization * info.cpu_ghz * 1000.0 *
                       static_cast<double>(info.cpu_cores)));
    // Slow-moving host metrics: emitted as near-constant housekeeping series
    // so the store carries the full Figure-4 server column.
    DIADS_RETURN_IF_ERROR(
        EmitSample(server, MetricId::kServerHandles, t, 4200.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(server, MetricId::kServerThreads, t,
                   180.0 + 90.0 * s.cpu_utilization));
    DIADS_RETURN_IF_ERROR(
        EmitSample(server, MetricId::kServerProcesses, t, 120.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(server, MetricId::kServerHeapKb, t, 512000.0));
    DIADS_RETURN_IF_ERROR(EmitSample(server, MetricId::kServerPhysMemPct, t,
                                     55.0 + 20.0 * s.cpu_utilization));
    DIADS_RETURN_IF_ERROR(
        EmitSample(server, MetricId::kServerKernelMemKb, t, 98000.0));
    DIADS_RETURN_IF_ERROR(EmitSample(server, MetricId::kServerSwapKb, t, 0.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(server, MetricId::kServerReservedMemKb, t, 2048000.0));
  }

  for (ComponentId port :
       topology_->registry().AllOfKind(ComponentKind::kFcPort)) {
    const san::PortIntervalStats s = perf_model_->PortStats(port, interval);
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortBytesTx, t, s.mb_tx_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortBytesRx, t, s.mb_rx_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortPacketsTx, t, s.frames_tx_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortPacketsRx, t, s.frames_rx_per_sec));
    // Error counters: healthy fabric reports zeros; noise can perturb them.
    DIADS_RETURN_IF_ERROR(EmitSample(port, MetricId::kPortLipCount, t, 0.0));
    DIADS_RETURN_IF_ERROR(EmitSample(port, MetricId::kPortNosCount, t, 0.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortErrorFrames, t, 0.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortDumpedFrames, t, 0.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortLinkFailures, t, 0.0));
    DIADS_RETURN_IF_ERROR(EmitSample(port, MetricId::kPortCrcErrors, t, 0.0));
    DIADS_RETURN_IF_ERROR(
        EmitSample(port, MetricId::kPortAddressErrors, t, 0.0));
  }

  return Status::Ok();
}

Status SanCollector::CollectRange(SimTimeMs from, SimTimeMs to) {
  if (to <= from) {
    return Status::InvalidArgument("collection range must be non-empty");
  }
  if (config_.sampling_interval <= 0) {
    return Status::InvalidArgument("sampling interval must be positive");
  }
  const SimTimeMs step = config_.sampling_interval;
  reserve_per_series_ = static_cast<size_t>((to - from + step - 1) / step);
  for (SimTimeMs t = from; t < to; t += step) {
    TimeInterval interval{t, std::min(t + step, to)};
    DIADS_RETURN_IF_ERROR(CollectInterval(interval));
    reserve_per_series_ = 0;
  }
  return Status::Ok();
}

}  // namespace diads::monitor
