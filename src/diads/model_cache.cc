#include "diads/model_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace diads::diag {
namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t MixBits64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

uint64_t HashDoubles(const std::vector<double>& xs) {
  uint64_t h = 0xba5e11e5ee0d1234ull ^ xs.size();
  for (double x : xs) h = MixBits64(h, DoubleBits(x));
  return h;
}

uint64_t RunSetFingerprint(
    const std::vector<const db::QueryRunRecord*>& runs) {
  uint64_t h = 0x5e7f1d6e57a9b3c1ull ^ runs.size();
  for (const db::QueryRunRecord* run : runs) {
    h = MixBits64(h, static_cast<uint64_t>(run->run_id));
    h = MixBits64(h, static_cast<uint64_t>(run->interval.begin));
    h = MixBits64(h, static_cast<uint64_t>(run->interval.end));
  }
  return h;
}

uint64_t AnomalyConfigFingerprint(const stats::AnomalyConfig& config) {
  uint64_t h = 0xa40ca11c0f1d6e55ull;
  h = MixBits64(h, static_cast<uint64_t>(config.bandwidth_rule));
  h = MixBits64(h, static_cast<uint64_t>(config.aggregation));
  h = MixBits64(h, DoubleBits(config.threshold));
  return h;
}

uint64_t SeriesIdOfMetric(ComponentId component, monitor::MetricId metric) {
  return (1ull << 62) | (static_cast<uint64_t>(component.value) << 16) |
         (static_cast<uint64_t>(metric) & 0xFFFFu);
}

uint64_t SeriesIdOfOperator(uint64_t kind, uint64_t plan_fingerprint,
                            int op_index) {
  uint64_t h = MixBits64(kind, plan_fingerprint);
  return MixBits64(h, static_cast<uint64_t>(op_index));
}

size_t BaselineModelKeyHash::operator()(
    const BaselineModelKey& key) const noexcept {
  uint64_t h = MixBits64(0xcafef00dd15ea5e5ull,
                         reinterpret_cast<uintptr_t>(key.source));
  h = MixBits64(h, key.series);
  h = MixBits64(h, static_cast<uint64_t>(key.window_begin));
  h = MixBits64(h, static_cast<uint64_t>(key.window_end));
  h = MixBits64(h, key.config_fingerprint);
  h = MixBits64(h, key.provenance_fingerprint);
  return static_cast<size_t>(h);
}

BaselineModelCache::BaselineModelCache() : BaselineModelCache(Options{}) {}

BaselineModelCache::BaselineModelCache(Options options) {
  // One shard per entry at most, so no shard is empty and the shard
  // capacities add up to exactly options.capacity.
  const size_t requested = static_cast<size_t>(std::max(1, options.shards));
  const size_t shards =
      std::max<size_t>(1, std::min(requested, options.capacity));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = options.capacity / shards +
                               (i < options.capacity % shards ? 1 : 0);
  }
}

BaselineModelCache::Shard& BaselineModelCache::ShardFor(
    const BaselineModelKey& key) {
  const size_t h = BaselineModelKeyHash{}(key);
  return *shards_[h % shards_.size()];
}

std::optional<size_t> BaselineModelCache::Shard::ClaimSlot() {
  if (!free_slots.empty()) {
    const size_t at = free_slots.back();
    free_slots.pop_back();
    return at;
  }
  if (slots.size() < capacity) {
    slots.emplace_back();
    return slots.size() - 1;
  }
  const size_t sweep = std::min(kClockSweep, slots.size());
  for (size_t step = 0; step < sweep; ++step) {
    const size_t at = hand;
    hand = (hand + 1) % slots.size();
    if (slots[at].referenced) {
      slots[at].referenced = false;
      continue;
    }
    index.erase(slots[at].key);
    ++evictions;
    return at;
  }
  return std::nullopt;
}

std::optional<CachedBaseline> BaselineModelCache::Get(
    const BaselineModelKey& key, uint64_t generation) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  Slot& slot = shard.slots[it->second];
  if (slot.generation != generation) {
    // The source advanced past the fit: free the slot so the recompute
    // takes it back instead of displacing a resident.
    slot.baseline = CachedBaseline{};
    shard.free_slots.push_back(it->second);
    shard.index.erase(it);
    ++shard.invalidations;
    ++shard.misses;
    return std::nullopt;
  }
  slot.referenced = true;
  ++shard.hits;
  return slot.baseline;
}

void BaselineModelCache::Put(const BaselineModelKey& key, uint64_t generation,
                             CachedBaseline baseline) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t at = 0;
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    at = it->second;  // A concurrent fit of the same key landed first.
  } else if (std::optional<size_t> claimed = shard.ClaimSlot()) {
    at = *claimed;
    shard.index.emplace(key, at);
  } else {
    ++shard.declined;
    return;
  }
  Slot& slot = shard.slots[at];
  slot.key = key;
  slot.generation = generation;
  slot.baseline = std::move(baseline);
  slot.referenced = true;
}

BaselineModelCache::Counters BaselineModelCache::TotalCounters() const {
  Counters out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.evictions += shard->evictions;
    out.invalidations += shard->invalidations;
    out.declined += shard->declined;
    out.entries += shard->index.size();
  }
  return out;
}

void BaselineModelCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->slots.clear();
    shard->free_slots.clear();
    shard->index.clear();
    shard->hand = 0;
  }
}

Result<CachedBaseline> GetOrFitBaseline(
    BaselineModelCache* cache, const BaselineModelKey& key,
    uint64_t generation, stats::BandwidthRule rule,
    FunctionRef<ExtractedBaseline()> extract,
    obs::ModelLookupCounters* lookups) {
  if (cache != nullptr) {
    if (std::optional<CachedBaseline> cached = cache->Get(key, generation)) {
      if (lookups != nullptr) ++lookups->hits;
      return std::move(*cached);
    }
  }
  if (lookups != nullptr) ++lookups->misses;
  ExtractedBaseline extracted = extract();
  CachedBaseline out;
  out.missing = extracted.missing;
  out.values = std::make_shared<const std::vector<double>>(
      std::move(extracted.values));
  if (out.values->size() < 2) {
    // Below the modules' fit threshold: nothing to model, nothing worth
    // caching (re-extraction is what the cache saves, and a sub-2-sample
    // series is a skip, not a score).
    return out;
  }
  Result<stats::SortedKde> fit = stats::SortedKde::Fit(*out.values, rule);
  DIADS_RETURN_IF_ERROR(fit.status());
  out.model =
      std::make_shared<const stats::SortedKde>(std::move(fit).value());
  if (cache != nullptr) cache->Put(key, generation, out);
  return out;
}

}  // namespace diads::diag
