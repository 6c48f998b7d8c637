#include "fleet/store.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "fleet/log.h"

namespace diads::fleet {

size_t FleetKeyHash::operator()(const FleetKey& key) const noexcept {
  uint64_t h = kFnv1a64OffsetBasis;
  h = Fnv1a64Fold(h, key.tenant);
  h = Fnv1a64Fold(h, key.component);
  h = Fnv1a64FoldWord(h, static_cast<uint64_t>(key.window_begin));
  h = Fnv1a64FoldWord(h, static_cast<uint64_t>(key.window_end));
  return static_cast<size_t>(SplitMix64Finish(h));
}

FleetStore::FleetStore() : FleetStore(Options{}) {}

FleetStore::FleetStore(Options options) {
  const int shards = std::max(1, options.shards);
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

FleetStore::Shard& FleetStore::ShardFor(const FleetKey& key) {
  return *shards_[FleetKeyHash()(key) % shards_.size()];
}

const FleetStore::Shard& FleetStore::ShardFor(const FleetKey& key) const {
  return *shards_[FleetKeyHash()(key) % shards_.size()];
}

void FleetStore::Upsert(FleetKey key, uint64_t generation,
                        std::shared_ptr<const ComponentVerdict> component,
                        std::shared_ptr<const TenantRecord> record) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.publishes;
  auto it = shard.rows.find(key);
  if (it == shard.rows.end()) {
    shard.rows.emplace(
        std::move(key),
        Entry{generation, std::move(component), std::move(record)});
    ++shard.inserted;
    return;
  }
  if (it->second.generation > generation) {
    // The store already holds a verdict derived from newer data; dropping
    // this publish is what keeps reader-visible generations monotone.
    ++shard.stale_dropped;
    return;
  }
  it->second = Entry{generation, std::move(component), std::move(record)};
  ++shard.superseded;
}

void FleetStore::Publish(const TenantVerdict& verdict) {
  publishes_.fetch_add(1, std::memory_order_relaxed);
  Upsert(FleetKey{verdict.tenant, "", verdict.window_begin,
                  verdict.window_end},
         verdict.store_generation, nullptr,
         std::make_shared<const TenantRecord>(TenantRecord{
             verdict.query, verdict.plan_diff, verdict.causes,
             verdict.cost, verdict.incident}));
  for (const ComponentVerdict& component : verdict.components) {
    Upsert(FleetKey{verdict.tenant, component.component,
                    verdict.window_begin, verdict.window_end},
           component.generation,
           std::make_shared<const ComponentVerdict>(component), nullptr);
  }
  // Durability last: the in-memory rows are live either way, and the log
  // counts its own append failures.
  if (SegmentLog* log = log_.load(std::memory_order_acquire)) {
    (void)log->Append(verdict);
  }
}

void FleetStore::AttachLog(SegmentLog* log) {
  log_.store(log, std::memory_order_release);
}

void FleetStore::DetachLog() {
  log_.store(nullptr, std::memory_order_release);
}

std::vector<FleetStore::Row> FleetStore::Snapshot() const {
  std::vector<Row> out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.reserve(out.size() + shard->rows.size());
    for (const auto& [key, entry] : shard->rows) {
      out.push_back(Row{key, entry.generation, entry.component,
                        entry.record});
    }
  }
  return out;
}

void FleetStore::ForEachRow(
    const std::function<void(const FleetKey&, uint64_t,
                             const ComponentVerdict*, const TenantRecord*)>&
        visit) const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->rows) {
      visit(key, entry.generation, entry.component.get(),
            entry.record.get());
    }
  }
}

FleetStore::Row FleetStore::Get(const FleetKey& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.rows.find(key);
  if (it == shard.rows.end()) return Row{};
  return Row{key, it->second.generation, it->second.component,
             it->second.record};
}

template <typename Pred>
size_t FleetStore::EraseIf(Pred pred) {
  size_t erased = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->rows.begin(); it != shard->rows.end();) {
      if (pred(it->first, it->second)) {
        it = shard->rows.erase(it);
        ++shard->invalidations;
        ++erased;
      } else {
        ++it;
      }
    }
  }
  return erased;
}

size_t FleetStore::BumpEpoch(size_t erased) {
  // A reader that sees the new epoch also sees the erase, which the shard
  // locks ordered before this bump.
  if (erased > 0) epoch_.fetch_add(1);
  return erased;
}

size_t FleetStore::InvalidateTenant(const std::string& tenant) {
  return BumpEpoch(EraseIf([&](const FleetKey& key, const Entry&) {
    return key.tenant == tenant;
  }));
}

size_t FleetStore::InvalidateComponent(const std::string& tenant,
                                       const std::string& component) {
  // Also drop the tenant-level rows: a diagnosis whose component verdict
  // is being invalidated is equally suspect, and the missing tenant row
  // is what tells the engine's cache-hit repopulation check that this
  // tenant needs republishing (a component row alone would go unnoticed
  // while the result cache keeps hitting).
  return BumpEpoch(EraseIf([&](const FleetKey& key, const Entry&) {
    return key.tenant == tenant &&
           (key.component == component || key.component.empty());
  }));
}

size_t FleetStore::DropStale(const std::string& tenant,
                             const std::string& component,
                             uint64_t current_generation) {
  const size_t dropped = EraseIf([&](const FleetKey& key,
                                     const Entry& entry) {
    return key.tenant == tenant && key.component == component &&
           entry.generation < current_generation;
  });
  if (dropped == 0) return 0;
  // Same reasoning as InvalidateComponent: stale component rows mean the
  // tenant's diagnosis records predate the data too — dropping them lets
  // the next engine response (cache hit or compute) republish everything.
  return BumpEpoch(dropped + EraseIf([&](const FleetKey& key, const Entry&) {
    return key.tenant == tenant && key.component.empty();
  }));
}

FleetStore::Counters FleetStore::TotalCounters() const {
  Counters out;
  out.publishes = publishes_.load(std::memory_order_relaxed);
  out.queries = queries_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.rows_inserted += shard->inserted;
    out.rows_superseded += shard->superseded;
    out.rows_stale_dropped += shard->stale_dropped;
    out.invalidations += shard->invalidations;
    out.entries += shard->rows.size();
  }
  return out;
}

std::vector<uint64_t> FleetStore::ShardPublishCounts() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.push_back(shard->publishes);
  }
  return out;
}

void FleetStore::Clear() {
  size_t erased = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Cleared rows count as invalidations so the exact-accounting
    // invariant (entries == rows_inserted - invalidations) survives.
    shard->invalidations += shard->rows.size();
    erased += shard->rows.size();
    shard->rows.clear();
  }
  BumpEpoch(erased);
}

std::string FleetStore::Counters::Render() const {
  return StrFormat(
      "fleet:  %llu publishes (%llu rows inserted, %llu superseded, "
      "%llu stale-dropped), %llu invalidations, %llu queries, %zu live "
      "rows\n",
      static_cast<unsigned long long>(publishes),
      static_cast<unsigned long long>(rows_inserted),
      static_cast<unsigned long long>(rows_superseded),
      static_cast<unsigned long long>(rows_stale_dropped),
      static_cast<unsigned long long>(invalidations),
      static_cast<unsigned long long>(queries), entries);
}

std::string FleetStore::Counters::ToJson() const {
  return StrFormat(
      "{\"publishes\":%llu,\"rows_inserted\":%llu,\"rows_superseded\":%llu,"
      "\"rows_stale_dropped\":%llu,\"invalidations\":%llu,\"queries\":%llu,"
      "\"entries\":%zu}",
      static_cast<unsigned long long>(publishes),
      static_cast<unsigned long long>(rows_inserted),
      static_cast<unsigned long long>(rows_superseded),
      static_cast<unsigned long long>(rows_stale_dropped),
      static_cast<unsigned long long>(invalidations),
      static_cast<unsigned long long>(queries), entries);
}

}  // namespace diads::fleet
