// Sharded LRU cache of finished diagnosis reports.
//
// A fleet-scale diagnosis service sees the same question many times: every
// dashboard refresh, every administrator of the same tenant, every retry
// re-asks "why did query Q slow down over window W?". The answer is a pure
// function of (query, time window, workflow configuration), so the engine
// memoizes it: repeated diagnoses are served without re-running the module
// chain (PD -> CO -> DA -> CR -> SD -> IA).
//
// Reports are immutable once published (shared_ptr<const DiagnosisReport>),
// so a cached report can be handed to any number of concurrent readers.
// The cache is sharded by key hash: each shard has its own mutex and LRU
// list, so worker threads completing different diagnoses rarely contend.
#ifndef DIADS_ENGINE_CACHE_H_
#define DIADS_ENGINE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "diads/diagnosis.h"

namespace diads::engine {

/// What one diagnosis's metric collection did — the stale-data
/// annotation a dashboard must show next to a root cause diagnosed on
/// degraded data. Defined here (not engine.h) so cached entries can carry
/// the summary recorded when they were computed: a cache hit for a
/// degraded diagnosis must still say so.
struct CollectionSummary {
  /// Components whose fetches timed out (or were cancelled) and were
  /// served from locally cached series instead. Sorted.
  std::vector<ComponentId> stale_components;
  uint64_t fetches = 0;
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  double gather_ms = 0;  ///< Wall clock of the scatter/gather.

  bool degraded() const { return !stale_components.empty(); }
};

/// Identity of a diagnosis: the query, the diagnosis window, a tenant tag
/// (two tenants' "Q2" are different queries), and a fingerprint of the
/// workflow configuration (different thresholds give different reports).
struct CacheKey {
  std::string query;
  SimTimeMs window_begin = 0;
  SimTimeMs window_end = 0;
  std::string tag;
  uint64_t config_fingerprint = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.window_begin == b.window_begin && a.window_end == b.window_end &&
           a.config_fingerprint == b.config_fingerprint &&
           a.query == b.query && a.tag == b.tag;
  }
  std::string ToString() const;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

class ResultCache {
 public:
  struct Options {
    size_t capacity = 1024;  ///< Total entries across shards.
    int shards = 8;
  };

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Entries dropped because they went stale (generation mismatch on
    /// Get) or were explicitly invalidated (InvalidateTag /
    /// InvalidateTagComponent). Generation drops also count as misses.
    uint64_t invalidations = 0;
    size_t entries = 0;
  };

  explicit ResultCache(Options options);

  /// What Get found.
  struct Hit {
    std::shared_ptr<const diag::DiagnosisReport> report;  ///< Null: miss.
    std::shared_ptr<const CollectionSummary> collection;
    /// The entry had recorded another fleet epoch than the caller's: a
    /// fleet-store removal ran since the entry last knew its tenant row
    /// present, so the caller must look at the store. The entry now
    /// records the caller's epoch.
    bool fleet_epoch_moved = false;
  };

  /// Returns the cached report (refreshing its recency), or a null report.
  /// A hit requires the entry's (authority, store_generation) stamp to
  /// equal the caller's — the entry was computed from exactly the data
  /// the caller sees now. A mismatch erases the entry (Append-driven
  /// invalidation) and misses: a query after new monitoring data arrives
  /// is never served the stale report. `fleet_epoch` is the caller's read
  /// of the fleet store's invalidation epoch (0 without a store), taken
  /// before it looks at the store; see Hit::fleet_epoch_moved.
  Hit Get(const CacheKey& key, const void* authority,
          uint64_t store_generation, uint64_t fleet_epoch = 0);

  /// Inserts or replaces; evicts the shard's least-recently-used entry when
  /// the shard is at capacity. `authority` / `store_generation` stamp the
  /// monitoring data the report was computed from (see Get); `components`
  /// lists the components the report touched (scored metrics + cause
  /// subjects), the index InvalidateTagComponent matches against.
  /// `fleet_epoch` is the fleet store's invalidation epoch read before
  /// the report's verdict was published there.
  void Put(const CacheKey& key, const void* authority,
           uint64_t store_generation,
           std::shared_ptr<const diag::DiagnosisReport> report,
           std::shared_ptr<const CollectionSummary> collection = nullptr,
           std::vector<ComponentId> components = {},
           uint64_t fleet_epoch = 0);

  /// Explicit invalidation: drops every entry of a tenant tag, or only
  /// the tag's entries whose report touched `component`. Returns the
  /// number of entries erased.
  size_t InvalidateTag(const std::string& tag);
  size_t InvalidateTagComponent(const std::string& tag,
                                ComponentId component);

  /// Aggregated counters across shards.
  Counters TotalCounters() const;

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const diag::DiagnosisReport> report;
    std::shared_ptr<const CollectionSummary> collection;
    /// The monitoring-data identity the report was computed from: the
    /// authoritative TimeSeriesStore (pointer as pure identity, never
    /// dereferenced) and its store-wide append generation at compute
    /// time.
    const void* authority = nullptr;
    uint64_t store_generation = 0;
    std::vector<ComponentId> components;  ///< Sorted, deduped.
    /// The fleet store's invalidation epoch at which the report's tenant
    /// row was last known present (fleet::FleetStore::invalidation_epoch).
    uint64_t fleet_epoch = 0;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< Front = most recently used.
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
  };

  Shard& ShardFor(const CacheKey& key);
  template <typename Pred>
  size_t EraseIf(Pred pred);

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace diads::engine

#endif  // DIADS_ENGINE_CACHE_H_
