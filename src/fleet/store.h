// Fleet-wide sharded store of per-tenant diagnosis verdicts.
//
// The diagnosis engine answers one tenant's question and throws the
// module-level conclusions away; only the report survives, inside a cache
// keyed by the exact question. Fleet operations ask *cross-tenant*
// questions — "which tenants share this contended pool?", "which component
// implicates the most tenants right now?" — and without a shared store
// each answer costs one full re-diagnosis per tenant (the RCRank-style
// fleet regime). The FleetStore keeps every completed diagnosis's verdict
// queryable instead:
//
//   * entries are keyed (tenant, component, window) — one row per
//     component the diagnosis scored or implicated, plus one tenant-level
//     row (component "") holding the ranked causes and plan-diff summary;
//   * the key space is sharded by a splitmix64-finalized hash (the
//     SeriesKeyHash recipe), each shard owning its own mutex and map, so
//     engine workers publishing different tenants rarely contend;
//   * staleness is generation-based, not TTL-based: every entry carries
//     the TimeSeriesStore append generation it was derived from
//     (per-component for component rows, store-wide for the tenant row).
//     A publish carrying an older generation than the stored entry is
//     refused (monotone visibility: readers never see a verdict go
//     backwards in time), an equal-or-newer one supersedes, and explicit
//     invalidation drops a tenant's (or one component's) rows the moment
//     new monitoring data makes them stale;
//   * every call that removes rows (InvalidateTenant, InvalidateComponent,
//     DropStale, Clear) bumps an invalidation epoch once its rows are
//     erased, so a reader that knew a row present at epoch E knows it is
//     still present while the epoch reads E (publishes never remove a
//     row) — the engine's result-cache hits probe the store only when it
//     moved;
//   * everything is counted (publishes, upserts, supersedes, stale drops,
//     invalidations, queries, per-shard publish distribution) — the
//     EngineStats-style block a fleet dashboard watches.
//
// Thread-safety: all methods are safe to call concurrently. Stored
// verdicts are immutable once published (shared_ptr<const ...>), so
// snapshots hand them to any number of readers without copying.
#ifndef DIADS_FLEET_STORE_H_
#define DIADS_FLEET_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/verdict.h"

namespace diads::fleet {

class SegmentLog;  // fleet/log.h

/// Identity of one stored row. component == "" is the tenant-level
/// diagnosis row (ranked causes + plan diff) for that window.
struct FleetKey {
  std::string tenant;
  std::string component;
  SimTimeMs window_begin = 0;
  SimTimeMs window_end = 0;

  friend bool operator==(const FleetKey& a, const FleetKey& b) {
    return a.window_begin == b.window_begin && a.window_end == b.window_end &&
           a.tenant == b.tenant && a.component == b.component;
  }
};

/// FNV-1a over the strings folded with the window words, finished with the
/// splitmix64 avalanche — the SeriesKeyHash recipe, so shard assignment
/// stays uniform even though tenant names share long common prefixes
/// ("t00-S1-...", "t01-S1-...").
struct FleetKeyHash {
  size_t operator()(const FleetKey& key) const noexcept;
};

/// The tenant-level row stored under component "".
struct TenantRecord {
  std::string query;
  PlanDiffSummary plan_diff;
  std::vector<CauseVerdict> causes;  ///< Ranked as reported.
  /// The publishing diagnosis's cost profile (null when the verdict was
  /// extracted outside the serving path) — lets fleet queries answer
  /// "which tenants' diagnoses are slow, and why" from stored rows.
  std::shared_ptr<const obs::CostProfile> cost;
  /// The detected incident the diagnosis answered (null for
  /// administrator-driven publishes) — lets fleet queries tell
  /// auto-triggered verdicts apart and read their detection provenance.
  std::shared_ptr<const IncidentStamp> incident;
};

class FleetStore {
 public:
  struct Options {
    int shards = 16;
  };

  /// The fleet store's counters block. Per-row accounting is exact:
  /// every row touched by a Publish ends up in exactly one of
  /// rows_inserted / rows_superseded / rows_stale_dropped, and the live
  /// row count is rows_inserted - invalidations at all times.
  struct Counters {
    uint64_t publishes = 0;          ///< Publish() calls.
    uint64_t rows_inserted = 0;      ///< New (tenant, component, window) rows.
    uint64_t rows_superseded = 0;    ///< Existing rows replaced (gen >=).
    uint64_t rows_stale_dropped = 0; ///< Publishes refused (older gen).
    uint64_t invalidations = 0;      ///< Rows erased by Invalidate*/DropStale.
    uint64_t queries = 0;            ///< FleetQuery evaluations.
    size_t entries = 0;              ///< Live rows across shards.

    std::string Render() const;  ///< Human-readable one-liner block.
    std::string ToJson() const;  ///< One-line JSON object.
  };

  FleetStore();  ///< Default Options.
  explicit FleetStore(Options options);

  FleetStore(const FleetStore&) = delete;
  FleetStore& operator=(const FleetStore&) = delete;

  /// Publishes one completed diagnosis: one row per component verdict
  /// (stamped with that component's generation) plus the tenant-level row
  /// (stamped with the store-wide generation). Per row, a stored entry
  /// with a newer generation wins — the publish of a stale verdict is
  /// dropped, never served.
  void Publish(const TenantVerdict& verdict);

  /// Durability hook: while attached, every Publish is also appended to
  /// the segment log (after the in-memory upserts; append failures are
  /// counted by the log, the store stays usable). Not owned — detach (or
  /// destroy the store) before dropping the log. Attach AFTER
  /// RecoverFromLog has replayed: an attached log re-appends every
  /// publish, including replayed ones.
  void AttachLog(SegmentLog* log);
  void DetachLog();

  /// One live row. Exactly one of `component` / `record` is set.
  struct Row {
    FleetKey key;
    uint64_t generation = 0;
    std::shared_ptr<const ComponentVerdict> component;
    std::shared_ptr<const TenantRecord> record;
  };

  /// Copies of all live rows (cheap: shared_ptr handles). Shards are
  /// snapshotted one at a time; a concurrent publish may appear in some
  /// shards and not others, but each row is internally consistent.
  std::vector<Row> Snapshot() const;

  /// Zero-copy row traversal: visits every live row under its shard's
  /// lock (same per-shard consistency as Snapshot, no key/handle
  /// copies) — the query layer's scan primitive. The visitor must not
  /// call back into the store and must not retain the references past
  /// the call.
  void ForEachRow(
      const std::function<void(const FleetKey&, uint64_t generation,
                               const ComponentVerdict* component,
                               const TenantRecord* record)>& visit) const;

  /// The live row for `key`, or an empty Row (generation 0, both
  /// pointers null) when absent.
  Row Get(const FleetKey& key) const;

  /// Drops every row of a tenant / of one tenant component (all windows).
  /// Returns the number of rows erased. Component-level invalidation also
  /// drops the tenant-level rows: the diagnosis record that produced the
  /// invalidated verdict is equally suspect, and its absence is what the
  /// engine's cache-hit repopulation check keys on — so the tenant
  /// reappears in fleet queries on the very next response. Bumps the
  /// invalidation epoch when it erased anything.
  size_t InvalidateTenant(const std::string& tenant);
  size_t InvalidateComponent(const std::string& tenant,
                             const std::string& component);

  /// Drops a tenant component's rows whose generation is older than
  /// `current_generation` (TimeSeriesStore::ComponentGeneration of the
  /// tenant's live store) — generation-driven staleness without a TTL.
  /// When anything is dropped, the tenant-level rows go with it (see
  /// InvalidateComponent) and the invalidation epoch is bumped.
  size_t DropStale(const std::string& tenant, const std::string& component,
                   uint64_t current_generation);

  /// Counts one cross-tenant query (called by FleetQuery).
  void RecordQuery() const {
    queries_.fetch_add(1, std::memory_order_relaxed);
  }

  Counters TotalCounters() const;

  /// Publishes routed to each shard, in shard order — the shard hit
  /// distribution a rebalance decision looks at.
  std::vector<uint64_t> ShardPublishCounts() const;

  /// Drops every row; the drops count as invalidations (the exact-
  /// accounting invariant on Counters keeps holding). Bumps the
  /// invalidation epoch when it erased anything.
  void Clear();

  /// The invalidation epoch: how many removal calls (InvalidateTenant,
  /// InvalidateComponent, DropStale, Clear) have erased rows. Each bumps
  /// it *after* its erase, and Publish never removes a row. So a caller
  /// that reads epoch E, then finds a row present (or publishes it), knows
  /// the row is still there while the epoch reads E: a removal that could
  /// have dropped it has either finished before the read, and the probe
  /// saw its effect, or bumps past E when it finishes. Bumping before the
  /// erase would break this — a probe could read the new epoch, still see
  /// the row, and the erase then remove it unnoticed.
  uint64_t invalidation_epoch() const { return epoch_.load(); }

  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  struct Entry {
    uint64_t generation = 0;
    std::shared_ptr<const ComponentVerdict> component;
    std::shared_ptr<const TenantRecord> record;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<FleetKey, Entry, FleetKeyHash> rows;
    uint64_t publishes = 0;
    uint64_t inserted = 0, superseded = 0, stale_dropped = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(const FleetKey& key);
  const Shard& ShardFor(const FleetKey& key) const;
  void Upsert(FleetKey key, uint64_t generation,
              std::shared_ptr<const ComponentVerdict> component,
              std::shared_ptr<const TenantRecord> record);
  template <typename Pred>
  size_t EraseIf(Pred pred);
  /// Ends a removal call that erased `erased` rows: bumps the epoch when
  /// anything went (see invalidation_epoch). Returns `erased`.
  size_t BumpEpoch(size_t erased);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> epoch_{0};  ///< See invalidation_epoch.
  std::atomic<uint64_t> publishes_{0};
  mutable std::atomic<uint64_t> queries_{0};
  /// Attached durability log (null = in-memory only). Atomic so Publish
  /// reads it without a lock; the log serializes its own appends.
  std::atomic<SegmentLog*> log_{nullptr};
};

}  // namespace diads::fleet

#endif  // DIADS_FLEET_STORE_H_
