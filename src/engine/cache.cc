#include "engine/cache.h"

#include <algorithm>

#include "common/strings.h"

namespace diads::engine {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  // splitmix64-style avalanche of the running hash with the next word.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  return h;
}

}  // namespace

std::string CacheKey::ToString() const {
  return StrFormat("%s%s%s@[%lld,%lld)/cfg%016llx", query.c_str(),
                   tag.empty() ? "" : "#", tag.c_str(),
                   static_cast<long long>(window_begin),
                   static_cast<long long>(window_end),
                   static_cast<unsigned long long>(config_fingerprint));
}

size_t CacheKeyHash::operator()(const CacheKey& key) const {
  uint64_t h = 0x51ed270b7a2fd1c5ull;
  h = Mix(h, std::hash<std::string>()(key.query));
  h = Mix(h, static_cast<uint64_t>(key.window_begin));
  h = Mix(h, static_cast<uint64_t>(key.window_end));
  h = Mix(h, std::hash<std::string>()(key.tag));
  h = Mix(h, key.config_fingerprint);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(Options options) {
  const int shards = std::max(1, options.shards);
  const size_t capacity = std::max<size_t>(1, options.capacity);
  shard_capacity_ =
      (capacity + static_cast<size_t>(shards) - 1) / static_cast<size_t>(shards);
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const CacheKey& key) {
  return *shards_[CacheKeyHash()(key) % shards_.size()];
}

ResultCache::Hit ResultCache::Get(const CacheKey& key, const void* authority,
                                  uint64_t store_generation,
                                  uint64_t fleet_epoch) {
  Hit hit;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return hit;
  }
  Entry& entry = *it->second;
  if (entry.authority != authority ||
      entry.store_generation != store_generation) {
    // The report predates the store's current data (or was computed from a
    // different store entirely): drop it so it can never be served stale.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.invalidations;
    ++shard.misses;
    return hit;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (entry.fleet_epoch != fleet_epoch) {
    entry.fleet_epoch = fleet_epoch;
    hit.fleet_epoch_moved = true;
  }
  hit.report = entry.report;
  hit.collection = entry.collection;
  return hit;
}

void ResultCache::Put(const CacheKey& key, const void* authority,
                      uint64_t store_generation,
                      std::shared_ptr<const diag::DiagnosisReport> report,
                      std::shared_ptr<const CollectionSummary> collection,
                      std::vector<ComponentId> components,
                      uint64_t fleet_epoch) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->report = std::move(report);
    it->second->collection = std::move(collection);
    it->second->authority = authority;
    it->second->store_generation = store_generation;
    it->second->components = std::move(components);
    it->second->fleet_epoch = fleet_epoch;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, std::move(report), std::move(collection),
                             authority, store_generation,
                             std::move(components), fleet_epoch});
  shard.index[key] = shard.lru.begin();
}

template <typename Pred>
size_t ResultCache::EraseIf(Pred pred) {
  size_t erased = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (pred(*it)) {
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
        ++shard->invalidations;
        ++erased;
      } else {
        ++it;
      }
    }
  }
  return erased;
}

size_t ResultCache::InvalidateTag(const std::string& tag) {
  return EraseIf([&](const Entry& entry) { return entry.key.tag == tag; });
}

size_t ResultCache::InvalidateTagComponent(const std::string& tag,
                                           ComponentId component) {
  return EraseIf([&](const Entry& entry) {
    return entry.key.tag == tag &&
           std::binary_search(entry.components.begin(),
                              entry.components.end(), component);
  });
}

ResultCache::Counters ResultCache::TotalCounters() const {
  Counters out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.evictions += shard->evictions;
    out.invalidations += shard->invalidations;
    out.entries += shard->lru.size();
  }
  return out;
}

}  // namespace diads::engine
