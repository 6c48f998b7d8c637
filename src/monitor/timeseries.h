// Time-series store for monitoring data.
//
// The paper's deployment stores all monitoring data "as time-series data in
// a DB2 database" (Section 6). This store is the in-memory equivalent: one
// append-only series per (component, metric) pair, sampled at the monitoring
// interval (5 minutes by default — Section 1.1 notes intervals are "5
// minutes or higher" in production, which is what makes the data noisy).
//
// The diagnosis modules consume per-run aggregates: "the annotation of an
// operator O consists of the performance data ... collected in the [tb, te]
// time interval" (Section 3). MeanIn/ValuesIn provide exactly that slicing.
//
// Hot-path note: because every series is appended in non-decreasing time
// order, any interval maps to one contiguous range found with two binary
// searches. SliceView exposes that range as a non-owning SampleSpan —
// O(log n) and zero copies — and ValuesIn is built on it. MeanIn has one
// definition over an already-resolved series, so a caller averaging one
// series over many runs looks the series up once.
//
// Storage: each series lives in one sample buffer held by a
// std::shared_ptr. A collector that knows how many samples it will write
// sizes the buffer once (Reserve). A collected snapshot shares buffers
// instead of copying them: Pin hands out a series' buffer, and
// AdoptSeries makes a pinned buffer another store's series. A pinned
// buffer is never written again — the source's next write to the series
// copies it first (copy-on-write) — so a snapshot reads the samples as
// they were at the fetch while the source goes on appending on another
// thread.
#ifndef DIADS_MONITOR_TIMESERIES_H_
#define DIADS_MONITOR_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "monitor/metrics.h"

namespace diads::monitor {

/// One sample point.
struct Sample {
  SimTimeMs time = 0;
  double value = 0;
};

/// Non-owning view of a contiguous run of samples inside one series.
/// Valid while the buffer it points into is: for a store's series, until
/// the next write to that series; for a PinnedSeries, while it is held.
class SampleSpan {
 public:
  SampleSpan() = default;
  SampleSpan(const Sample* data, size_t size) : data_(data), size_(size) {}
  /// The samples of `series` in [first, last).
  SampleSpan(const std::vector<Sample>& series, size_t first, size_t last)
      : data_(first == last ? nullptr : series.data() + first),
        size_(last - first) {}

  const Sample* begin() const { return data_; }
  const Sample* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Sample& operator[](size_t i) const { return data_[i]; }
  const Sample& front() const { return data_[0]; }
  const Sample& back() const { return data_[size_ - 1]; }

 private:
  const Sample* data_ = nullptr;
  size_t size_ = 0;
};

/// One series' samples and whether a PinnedSeries shares them. The store
/// and every pin own it through std::shared_ptr; once pinned, it is never
/// written again. The flag is atomic because concurrent fetches pin the
/// same series from several threads.
struct SampleBuffer {
  std::vector<Sample> samples;
  std::atomic<bool> pinned{false};
};

/// A series' sample buffer as one TimeSeriesStore::Pin found it. The
/// buffer is immutable from the pin on (the store copies it before its
/// next write to the series), so a pin may be read from any thread,
/// without the store's lock or lifetime, while the store keeps appending.
class PinnedSeries {
 public:
  PinnedSeries() = default;

  /// The pinned samples; empty for a default pin or an empty series.
  const std::vector<Sample>& samples() const;
  bool empty() const { return buffer_ == nullptr; }

 private:
  friend class TimeSeriesStore;
  std::shared_ptr<SampleBuffer> buffer_;
};

/// Key of one series.
struct SeriesKey {
  ComponentId component;
  MetricId metric;

  friend bool operator==(const SeriesKey& a, const SeriesKey& b) {
    return a.component == b.component && a.metric == b.metric;
  }
};

/// 64-bit mix (splitmix64 finalizer) over the packed (component, metric)
/// pair. The previous `component * 1000003 ^ metric` collapsed a whole
/// metric family onto consecutive buckets: XOR-ing the small metric id
/// into the low bits meant all metrics of one component differed only in
/// those bits, clustering every family into one neighbourhood of the
/// table (and colliding outright once the bucket mask ate the high bits).
struct SeriesKeyHash {
  size_t operator()(const SeriesKey& k) const noexcept {
    uint64_t x = (static_cast<uint64_t>(k.component.value) << 32) |
                 (static_cast<uint64_t>(k.metric) & 0xFFFFFFFFu);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// Observes successful appends to one TimeSeriesStore (the online
/// detection hook). The callback runs synchronously on the appending
/// thread, *after* the sample is stored and the component and store
/// generations are bumped, so a listener reading them sees the
/// post-append values.
/// Listeners must only observe: mutating the store from OnAppend is
/// undefined (the store is mid-append and not re-entrant).
class AppendListener {
 public:
  virtual ~AppendListener() = default;
  /// `series_ordinal` is the dense 0-based index the store assigned to
  /// this series when it was created, stable for the store's lifetime
  /// (the store is append-only, so ordinals are never reused). It lets a
  /// listener keep per-series state in a flat array indexed directly,
  /// instead of re-hashing (component, metric) on every append.
  virtual void OnAppend(ComponentId component, MetricId metric,
                        const Sample& sample, uint32_t series_ordinal) = 0;
};

/// Append-only store of monitoring samples. Not thread-safe against its
/// own writes: one thread appends, and reads (Pin included) must not race
/// an append. A PinnedSeries outlives that rule — see Pin.
class TimeSeriesStore {
 public:
  TimeSeriesStore() = default;
  /// Stores share sample buffers only through pins, which mark them
  /// copy-on-write, so a store is moved, never copied.
  TimeSeriesStore(TimeSeriesStore&&) = default;
  TimeSeriesStore& operator=(TimeSeriesStore&&) = default;
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Appends a sample; time must be non-decreasing within a series and
  /// the value finite (NaN and +-inf are InvalidArgument, with the store
  /// unchanged). Bumps the component and store generations.
  Status Append(ComponentId component, MetricId metric, SimTimeMs time,
                double value);

  /// Makes room for `additional` more samples in one series, so the
  /// appends that follow never regrow its buffer. An empty series is sized
  /// exactly; a non-empty one grows at least to twice its capacity, so
  /// repeated reservations stay amortized O(1) per sample. A reserved
  /// series with no sample stays invisible: it is not counted by
  /// series_count(), listed by MetricsFor or visited by ForEachSeries, and
  /// takes its ordinal with its first sample. A pinned buffer that must
  /// grow is copied, never resized in place.
  void Reserve(ComponentId component, MetricId metric, size_t additional);

  /// Sizes the store for the series about to arrive, given as (component,
  /// at most how many of its series) pairs: the series table and the
  /// component table take room for all of them at once, and each listed
  /// component's metric list (MetricsFor) its full length, so adopting or
  /// appending them rehashes and regrows neither. Creates no series, and
  /// changes no answer of the store.
  void ReserveComponents(
      const std::vector<std::pair<ComponentId, size_t>>& series_per_component);

  /// Shares the series' buffer with the caller: the returned pin holds the
  /// samples as they are now, and the store copies the buffer before its
  /// next write to the series. Empty for an absent or empty series. Safe
  /// to call from many threads at once, as long as none appends to the
  /// store meanwhile.
  PinnedSeries Pin(ComponentId component, MetricId metric) const;

  /// Makes a pinned buffer this store's series without copying it. The
  /// samples are not re-checked: the store that wrote them validated them.
  /// A series that already has samples is extended instead, by a copy of
  /// the pinned samples, and is refused (InvalidArgument, store unchanged)
  /// if they start before its last sample. Every counter advances as
  /// single appends of the pinned samples would advance it, and an
  /// installed listener sees each sample in order, through the copying
  /// path. An empty pin is a no-op.
  Status AdoptSeries(ComponentId component, MetricId metric,
                     PinnedSeries pinned);

  /// Installs (or, with nullptr, clears) the append listener. At most one
  /// per store; not owned, must outlive its installation. The store is
  /// not thread-safe, so the listener inherits the store's threading
  /// contract: it is invoked on whichever single thread appends.
  void SetAppendListener(AppendListener* listener) { listener_ = listener; }
  AppendListener* append_listener() const { return listener_; }

  /// All samples of a series with time in [interval.begin, interval.end)
  /// as a non-owning view: two binary searches, no copy. The view is
  /// invalidated by the next write to the same series.
  SampleSpan SliceView(ComponentId component, MetricId metric,
                       const TimeInterval& interval) const;

  /// monitor::CoveringSlice over Series(component, metric).
  SampleSpan CoveringSlice(ComponentId component, MetricId metric,
                           const TimeInterval& interval) const;

  /// Values (without timestamps) in the interval.
  std::vector<double> ValuesIn(ComponentId component, MetricId metric,
                               const TimeInterval& interval) const;

  /// monitor::MeanIn over Series(component, metric).
  Result<double> MeanIn(ComponentId component, MetricId metric,
                        const TimeInterval& interval) const;

  /// Latest sample at or before `t`; NotFound if the series is empty or
  /// starts after `t`.
  Result<Sample> LatestAtOrBefore(ComponentId component, MetricId metric,
                                  SimTimeMs t) const;

  /// Whole series (empty if absent). Valid until the next write to the
  /// series.
  const std::vector<Sample>& Series(ComponentId component,
                                    MetricId metric) const;

  /// Monotone per-component append counter: the number of samples
  /// appended to the component's series (an adopted series counts its
  /// samples), maintained incrementally. Fleet-store entries
  /// and per-component cache invalidation stamp this — a component's
  /// published verdict is valid exactly while no series of that component
  /// has been appended to.
  uint64_t ComponentGeneration(ComponentId component) const;

  /// Monotone store-wide append counter (total appends ever). Diagnosis
  /// results derived from this store are valid exactly while it is
  /// unchanged — the result-cache's Append-driven invalidation stamp.
  uint64_t StoreGeneration() const { return store_generation_; }

  /// Metrics that have at least one sample for `component`, ascending.
  /// Kept as series are created, so this is one hash lookup. The
  /// reference stays valid until an append creates a new series.
  const std::vector<MetricId>& MetricsFor(ComponentId component) const;

  /// Visits every non-empty series (iteration order is unspecified; sort
  /// on the key if determinism matters). The visited sample vectors are
  /// valid only during the call.
  void ForEachSeries(
      const std::function<void(ComponentId, MetricId,
                               const std::vector<Sample>&)>& fn) const;

  /// Series with at least one sample.
  size_t series_count() const { return next_ordinal_; }
  size_t total_samples() const { return total_samples_; }

 private:
  struct ComponentData {
    uint64_t generation = 0;  ///< See ComponentGeneration.
    std::vector<MetricId> metrics;  ///< See MetricsFor.
  };
  struct SeriesData {
    /// Null until the series' first write.
    std::shared_ptr<SampleBuffer> buffer;
    /// The series' entry in components_, set with its first sample, so an
    /// append looks up one hash table, not two. Map nodes never move.
    ComponentData* component = nullptr;
    /// Dense creation-order index (see AppendListener::OnAppend);
    /// assigned with the series' first sample.
    uint32_t ordinal = kUnassignedOrdinal;
  };
  static constexpr uint32_t kUnassignedOrdinal = 0xFFFFFFFFu;

  /// Creates `series` on its first sample: links its component, assigns
  /// the ordinal and lists the metric under the component.
  void AddSeries(ComponentId component, MetricId metric, SeriesData& series);

  /// The series' samples, ready to write: the buffer is allocated on the
  /// first write and copied first if it is pinned (the copy keeps the
  /// buffer's capacity), and holds at least `capacity` samples.
  static std::vector<Sample>& Writable(SeriesData& series, size_t capacity);

  std::unordered_map<SeriesKey, SeriesData, SeriesKeyHash> series_;
  std::unordered_map<ComponentId, ComponentData> components_;
  uint64_t store_generation_ = 0;
  size_t total_samples_ = 0;
  uint32_t next_ordinal_ = 0;
  AppendListener* listener_ = nullptr;
};

/// The samples of `series` a collector must ship so that MeanIn / ValuesIn
/// / LatestAtOrBefore over any subinterval of `interval` answer
/// identically to the whole series: the in-window slice, plus the newest
/// sample at or before interval.begin (MeanIn's stale fallback), plus the
/// first sample at or after interval.end (MeanIn's tail reading). A view
/// into `series`; empty iff the series is empty.
SampleSpan CoveringSlice(const std::vector<Sample>& series,
                         const TimeInterval& interval);

/// Mean of the samples of `series` in the interval, plus the first sample
/// at or after interval.end (the reading that covers the window's tail).
/// With neither, falls back to the nearest sample at or before
/// interval.begin (the value the monitoring tool would report for a
/// window shorter than the sampling period); NotFound if the series is
/// empty. `series` must be in non-decreasing time order, as every store
/// series is.
Result<double> MeanIn(const std::vector<Sample>& series,
                      const TimeInterval& interval);

/// MeanIn over many intervals of one series. Each answer is MeanIn's, bit
/// for bit (the same samples summed in the same order), but an interval
/// that begins no earlier than the previous one resumes the search where
/// the previous window began: per-run means over runs in time order sweep
/// the series forward once instead of binary-searching all of it per run.
/// Holds a reference to `series`; valid until the series is written to.
class MeanCursor {
 public:
  explicit MeanCursor(const std::vector<Sample>& series)
      : series_(series), window_begin_(series.begin()) {}

  /// Sets `*mean` and returns true, or returns false iff the series is
  /// empty (MeanIn's NotFound).
  bool MeanIn(const TimeInterval& interval, double* mean);

 private:
  const std::vector<Sample>& series_;
  /// First sample at or after last_begin_: where the next search starts.
  std::vector<Sample>::const_iterator window_begin_;
  SimTimeMs last_begin_ = 0;
  bool started_ = false;
};

}  // namespace diads::monitor

#endif  // DIADS_MONITOR_TIMESERIES_H_
