#include "db/db_activity.h"

#include <algorithm>
#include <cassert>

namespace diads::db {

DbActivityCounters& DbActivityCounters::Add(const DbActivityCounters& other) {
  blocks_read_per_sec += other.blocks_read_per_sec;
  buffer_hits_per_sec += other.buffer_hits_per_sec;
  index_scans_per_sec += other.index_scans_per_sec;
  index_reads_per_sec += other.index_reads_per_sec;
  index_fetches_per_sec += other.index_fetches_per_sec;
  seq_scans_per_sec += other.seq_scans_per_sec;
  lock_wait_ms_per_sec += other.lock_wait_ms_per_sec;
  locks_held += other.locks_held;
  return *this;
}

Status DbActivityModel::AddActivity(const TimeInterval& window,
                                    DbActivityCounters counters) {
  if (window.empty()) {
    return Status::InvalidArgument("activity window is empty");
  }
  entries_.push_back(Entry{window, counters});
  return Status::Ok();
}

DbActivityCounters DbActivityModel::AverageOver(
    const TimeInterval& interval) const {
  DbActivityCounters out;
  if (interval.empty()) return out;
  for (const Entry& e : entries_) {
    const double frac = [&] {
      const TimeInterval inter = e.window.Intersect(interval);
      return static_cast<double>(inter.duration()) /
             static_cast<double>(interval.duration());
    }();
    if (frac <= 0) continue;
    DbActivityCounters scaled = e.counters;
    scaled.blocks_read_per_sec *= frac;
    scaled.buffer_hits_per_sec *= frac;
    scaled.index_scans_per_sec *= frac;
    scaled.index_reads_per_sec *= frac;
    scaled.index_fetches_per_sec *= frac;
    scaled.seq_scans_per_sec *= frac;
    scaled.lock_wait_ms_per_sec *= frac;
    scaled.locks_held *= frac;
    out.Add(scaled);
  }
  return out;
}

DbCollector::DbCollector(const DbActivityModel* activity,
                         const LockManager* locks, const Catalog* catalog,
                         ComponentId database,
                         monitor::TimeSeriesStore* store,
                         monitor::NoiseModel* noise,
                         SimTimeMs sampling_interval)
    : activity_(activity),
      locks_(locks),
      catalog_(catalog),
      database_(database),
      store_(store),
      noise_(noise),
      sampling_interval_(sampling_interval) {
  assert(activity_ && locks_ && catalog_ && store_ && noise_);
}

Status DbCollector::EmitSample(monitor::MetricId metric, SimTimeMs t,
                               double value) {
  if (reserve_per_series_ > 0) {
    store_->Reserve(database_, metric, reserve_per_series_);
  }
  std::optional<double> noisy = noise_->Apply(database_, metric, t, value);
  if (!noisy.has_value()) return Status::Ok();
  return store_->Append(database_, metric, t, *noisy);
}

Status DbCollector::CollectRange(SimTimeMs from, SimTimeMs to) {
  if (to <= from) {
    return Status::InvalidArgument("collection range must be non-empty");
  }
  if (sampling_interval_ <= 0) {
    return Status::InvalidArgument("sampling interval must be positive");
  }
  using monitor::MetricId;
  reserve_per_series_ = static_cast<size_t>(
      (to - from + sampling_interval_ - 1) / sampling_interval_);
  for (SimTimeMs t0 = from; t0 < to; t0 += sampling_interval_) {
    const TimeInterval interval{t0, std::min(t0 + sampling_interval_, to)};
    const SimTimeMs t = interval.end;
    const DbActivityCounters c = activity_->AverageOver(interval);

    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbBlocksRead, t, c.blocks_read_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbBufferHits, t, c.buffer_hits_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbIndexScans, t, c.index_scans_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbIndexReads, t, c.index_reads_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbIndexFetches, t, c.index_fetches_per_sec));
    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbSequentialScans, t, c.seq_scans_per_sec));

    // Lock metrics: executor-recorded waits plus injector-held locks
    // sampled at the interval midpoint.
    const SimTimeMs mid = interval.begin + interval.duration() / 2;
    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbLockWaitMs, t, c.lock_wait_ms_per_sec));
    DIADS_RETURN_IF_ERROR(EmitSample(
        MetricId::kDbLocksHeld, t,
        4.0 + c.locks_held + locks_->ExtraLocksHeldAt(mid)));
    DIADS_RETURN_IF_ERROR(
        EmitSample(MetricId::kDbSpaceUsageMb, t, catalog_->TotalSizeMb()));
    reserve_per_series_ = 0;
  }
  return Status::Ok();
}

}  // namespace diads::db
