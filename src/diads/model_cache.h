// Sharded cache of extracted baselines and their fitted models, shared
// across diagnoses.
//
// Every Workflow::Diagnose re-derives, per scored series, (a) the baseline
// sample vector (Module DA: one TimeSeriesStore::MeanIn per satisfactory
// run; Modules CO/CR: per-run operator stats) and (b) a KDE fitted to it
// (sort + bandwidth selection). At fleet scale the same tenant is
// diagnosed over and over — dashboard refreshes, new incidents over
// overlapping windows, retries — and each diagnosis repeats both steps
// for baselines that have not changed. This cache memoizes the pair
// across diagnoses.
//
// Keying and invalidation. An entry is identified by
//   (source identity, series id, diagnosis window, anomaly-config
//    fingerprint, provenance fingerprint)
// and validated against the source's append generation:
//
//   * source identity is the tenant's authoritative store (Module DA) or
//     run catalog (CO/CR) — a pointer used purely as identity, so
//     diagnoses over per-request collected snapshots still share models;
//   * the provenance fingerprint hashes the labelled-run set the baseline
//     was extracted over (run ids + intervals), so relabelling or
//     re-filtering runs can never reuse a stale baseline;
//   * the generation check (TimeSeriesStore::Generation per series, the
//     run-catalog size for CO/CR) drops the entry as soon as new samples
//     are appended — Append-driven invalidation.
//
// Correctness (the ReportDigest contract): extraction and
// SortedKde::Fit are deterministic functions of the source data pinned by
// (identity, generation) and of the run set pinned by the provenance
// fingerprint, so a hit returns byte-for-byte the values and model a
// recompute would produce. Golden tests assert digest equality with the
// cache on vs off, including across Append-driven invalidation.
//
// Replacement policy: a CLOCK ring that keeps its residents. The traffic
// is periodic: the same questions are diagnosed again each cycle (report
// generation, dashboards, a fleet's incident stream), so each baseline
// recurs once per cycle. When a cycle needs more models than the cache
// holds, LRU always evicts the entry the cycle needs next and hits
// nothing. Each shard is therefore a fixed ring of slots:
//
//   * every slot has a referenced bit, set on insert and on every hit (a
//     hit moves nothing);
//   * a new key takes a slot freed by a generation mismatch, or a
//     never-used slot, when one exists;
//   * in a full shard the hand passes at most kClockSweep slots, clearing
//     their bits, and the newcomer evicts the first unreferenced resident;
//   * if every slot the hand passed was referenced, the newcomer is
//     declined: it is not cached, and the caller still gets its freshly
//     fitted baseline.
//
// A cyclic working set of W models over a shard of C slots then hits
// about C / W of its lookups with no evictions, and a working set that
// shifts stops being referenced and turns over within about one cycle.
// The limit: each declined newcomer moves the hand kClockSweep slots, so
// residents last only while W <= (1 + 1 / kClockSweep) x C. Past that the
// hand laps faster than the cycle and the hit rate falls toward LRU's
// zero. The declined counter shows an undersized cache: it rises while
// evictions stay near zero.
//
// Thread-safety: sharded like the engine's ResultCache — each shard owns
// a mutex guarding its ring, index and counters (a hit writes the
// referenced bit, so Get locks too). Cached values and models are
// immutable once published and safe to read concurrently.
#ifndef DIADS_DIADS_MODEL_CACHE_H_
#define DIADS_DIADS_MODEL_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/function_ref.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "db/run_record.h"
#include "monitor/metrics.h"
#include "obs/cost_profile.h"
#include "stats/anomaly.h"
#include "stats/sorted_kde.h"

namespace diads::diag {

/// One mixing step of the 64-bit fingerprint hash (splitmix-style).
uint64_t MixBits64(uint64_t h, uint64_t v);

/// Order-sensitive 64-bit fingerprint of a double vector's bit patterns.
uint64_t HashDoubles(const std::vector<double>& xs);

/// Fingerprint of a labelled-run set: run ids and intervals, in order.
/// The provenance half of a baseline's identity (the other half is the
/// source's generation).
uint64_t RunSetFingerprint(const std::vector<const db::QueryRunRecord*>& runs);

/// Fingerprint of every field of an AnomalyConfig (bandwidth rule,
/// aggregation, threshold). Part of the model key: different thresholds
/// do not change the fitted model, but keeping the whole config in the
/// key keeps the invariant trivial ("one config, one entry").
uint64_t AnomalyConfigFingerprint(const stats::AnomalyConfig& config);

/// Identity of one cached baseline.
struct BaselineModelKey {
  /// The owning data source (a TimeSeriesStore or RunCatalog). Never
  /// dereferenced — pure identity. Lifetime requirement: a source must
  /// outlive every cache it is keyed into (or the cache must be
  /// Clear()ed when a source is torn down) — if a destroyed store's
  /// address were reused by a new tenant whose generations and run ids
  /// happened to coincide, its stale entries could match. The engine
  /// satisfies this the same way its result cache does: tenant state
  /// (FleetWorkload, scenario testbeds) outlives the engine run.
  const void* source = nullptr;
  /// Packed series identity: Module DA packs (component, metric); Modules
  /// CO/CR pack (kind, plan fingerprint, operator index).
  uint64_t series = 0;
  /// The diagnosis window the baseline was extracted over.
  SimTimeMs window_begin = 0;
  SimTimeMs window_end = 0;
  uint64_t config_fingerprint = 0;
  /// RunSetFingerprint of the runs the baseline was extracted over.
  uint64_t provenance_fingerprint = 0;

  friend bool operator==(const BaselineModelKey& a,
                         const BaselineModelKey& b) {
    return a.source == b.source && a.series == b.series &&
           a.window_begin == b.window_begin && a.window_end == b.window_end &&
           a.config_fingerprint == b.config_fingerprint &&
           a.provenance_fingerprint == b.provenance_fingerprint;
  }
};

struct BaselineModelKeyHash {
  size_t operator()(const BaselineModelKey& key) const noexcept;
};

/// Packs Module DA's (component, metric) series identity.
uint64_t SeriesIdOfMetric(ComponentId component, monitor::MetricId metric);
/// Packs Module CO/CR's per-run operator series identity. `kind`
/// distinguishes operator-span baselines from record-count baselines.
uint64_t SeriesIdOfOperator(uint64_t kind, uint64_t plan_fingerprint,
                            int op_index);

/// What the modules extract per series on a miss (and get back on a hit).
struct ExtractedBaseline {
  std::vector<double> values;  ///< Per-run baseline, extraction order.
  int missing = 0;             ///< Runs that contributed no sample.
};

/// A cached (or freshly computed) baseline with its fitted model.
struct CachedBaseline {
  std::shared_ptr<const std::vector<double>> values;  ///< Extraction order.
  /// Null iff values.size() < 2 (too small to fit — the modules' skip
  /// threshold; such baselines are recomputed per diagnosis, not cached).
  std::shared_ptr<const stats::SortedKde> model;
  int missing = 0;
};

class BaselineModelCache {
 public:
  struct Options {
    /// Total entries across shards, exactly: the cache uses at most
    /// `capacity` shards and spreads the remainder one slot per shard.
    size_t capacity = 4096;
    int shards = 16;
  };

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Residents replaced by a newcomer after a full hand pass.
    uint64_t evictions = 0;
    /// Entries dropped because the source's generation advanced (a strict
    /// subset of misses).
    uint64_t invalidations = 0;
    /// Newcomers not cached because every slot the hand passed was
    /// referenced (the shard is holding a working set larger than
    /// itself).
    uint64_t declined = 0;
    size_t entries = 0;
  };

  BaselineModelCache();  ///< Default Options.
  explicit BaselineModelCache(Options options);

  /// Returns the cached baseline when the key matches and its fit-time
  /// generation equals `generation`; nullopt otherwise. A generation
  /// mismatch erases the stale entry (Append-driven invalidation).
  std::optional<CachedBaseline> Get(const BaselineModelKey& key,
                                    uint64_t generation);

  /// Inserts or replaces. In a full shard the newcomer evicts the first
  /// unreferenced resident within kClockSweep slots of the hand, or is
  /// declined when there is none.
  void Put(const BaselineModelKey& key, uint64_t generation,
           CachedBaseline baseline);

  Counters TotalCounters() const;

  void Clear();

  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  /// Slots the hand may pass for one newcomer before declining it.
  static constexpr size_t kClockSweep = 4;

  struct Slot {
    BaselineModelKey key;
    uint64_t generation = 0;
    CachedBaseline baseline;
    bool referenced = false;
  };
  struct Shard {
    std::mutex mu;
    size_t capacity = 0;
    /// The ring; grows to `capacity` and then stays that size.
    std::vector<Slot> slots;
    /// Slots emptied by a generation mismatch, reused before the hand.
    std::vector<size_t> free_slots;
    std::unordered_map<BaselineModelKey, size_t, BaselineModelKeyHash> index;
    size_t hand = 0;
    uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0,
             declined = 0;

    /// The slot a new key goes into: a freed slot, a never-used one, or
    /// the first unreferenced resident within kClockSweep slots of the
    /// hand (evicted). nullopt when every slot passed was referenced.
    /// Caller holds `mu`.
    std::optional<size_t> ClaimSlot();
  };

  Shard& ShardFor(const BaselineModelKey& key);

  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The modules' one-stop entry point: returns the cached baseline for
/// `key` (validated against `generation`) or runs `extract`, fits, caches
/// (when >= 2 samples), and returns the fresh result. `cache` may be null
/// — then this is exactly extract + SortedKde::Fit. The result is
/// byte-identical either way. `extract` is only referenced, never copied,
/// so passing a lambda allocates nothing whatever it captures.
///
/// When `lookups` is non-null the hit/miss outcome is also attributed
/// there (per-diagnosis accounting for the cost profile; the cache's own
/// global stats are updated regardless). A null-cache call counts as a
/// miss: the caller paid for a fit.
Result<CachedBaseline> GetOrFitBaseline(
    BaselineModelCache* cache, const BaselineModelKey& key,
    uint64_t generation, stats::BandwidthRule rule,
    FunctionRef<ExtractedBaseline()> extract,
    obs::ModelLookupCounters* lookups = nullptr);

}  // namespace diads::diag

#endif  // DIADS_DIADS_MODEL_CACHE_H_
