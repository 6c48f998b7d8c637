#include "monitor/timeseries.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace diads::monitor {
namespace {

const std::vector<Sample>& EmptySeries() {
  static const std::vector<Sample> kEmpty;
  return kEmpty;
}

using SampleIt = std::vector<Sample>::const_iterator;

/// First sample in [first, last) with time >= t.
SampleIt LowerBoundTime(SampleIt first, SampleIt last, SimTimeMs t) {
  return std::lower_bound(
      first, last, t,
      [](const Sample& a, SimTimeMs tt) { return a.time < tt; });
}

/// LowerBoundTime searched forward from `first`: steps of 1, 2, 4, ...
/// until one lands at or past t, then a binary search inside the last
/// step. O(log d) for an answer d samples ahead, so a cursor moving
/// forward by short hops pays for the hops, not for the series.
SampleIt SeekTime(SampleIt first, SampleIt last, SimTimeMs t) {
  size_t step = 1;
  while (first != last && first->time < t) {
    if (step >= static_cast<size_t>(last - first)) {
      return LowerBoundTime(first + 1, last, t);
    }
    if ((first + step)->time >= t) {
      return LowerBoundTime(first + 1, first + step, t);
    }
    first += step;
    step *= 2;
  }
  return first;
}

/// A NaN would make every sort over the samples (the KDE fit, midranks)
/// use an inconsistent comparator, which is undefined behaviour, and an
/// infinity poisons every mean it enters; neither is a measurement.
Status NonFiniteSample() {
  return Status::InvalidArgument("sample values must be finite");
}

}  // namespace

const std::vector<Sample>& PinnedSeries::samples() const {
  return buffer_ == nullptr ? EmptySeries() : buffer_->samples;
}

Status TimeSeriesStore::Append(ComponentId component, MetricId metric,
                               SimTimeMs time, double value) {
  if (!std::isfinite(value)) return NonFiniteSample();
  SeriesData& s = series_[SeriesKey{component, metric}];
  SampleBuffer* buffer = s.buffer.get();
  if (buffer != nullptr && !buffer->samples.empty() &&
      time < buffer->samples.back().time) {
    return Status::InvalidArgument(
        "samples must be appended in non-decreasing time order");
  }
  if (s.ordinal == kUnassignedOrdinal) AddSeries(component, metric, s);
  std::vector<Sample>& samples =
      buffer != nullptr && !buffer->pinned.load(std::memory_order_relaxed)
          ? buffer->samples
          : Writable(s, 0);
  samples.push_back(Sample{time, value});
  ++s.component->generation;
  ++store_generation_;
  ++total_samples_;
  if (listener_ != nullptr) {
    listener_->OnAppend(component, metric, samples.back(), s.ordinal);
  }
  return Status::Ok();
}

void TimeSeriesStore::Reserve(ComponentId component, MetricId metric,
                              size_t additional) {
  if (additional == 0) return;
  SeriesData& s = series_[SeriesKey{component, metric}];
  const std::vector<Sample>& samples =
      s.buffer == nullptr ? EmptySeries() : s.buffer->samples;
  const size_t needed = samples.size() + additional;
  if (needed <= samples.capacity()) return;
  Writable(s, samples.empty() ? needed
                              : std::max(needed, 2 * samples.capacity()));
}

void TimeSeriesStore::ReserveComponents(
    const std::vector<std::pair<ComponentId, size_t>>& series_per_component) {
  size_t series = 0;
  for (const auto& [component, count] : series_per_component) series += count;
  series_.reserve(series_.size() + series);
  components_.reserve(components_.size() + series_per_component.size());
  for (const auto& [component, count] : series_per_component) {
    std::vector<MetricId>& metrics = components_[component].metrics;
    metrics.reserve(metrics.size() + count);
  }
}

PinnedSeries TimeSeriesStore::Pin(ComponentId component,
                                  MetricId metric) const {
  PinnedSeries pinned;
  auto it = series_.find(SeriesKey{component, metric});
  if (it == series_.end() || it->second.buffer == nullptr ||
      it->second.buffer->samples.empty()) {
    return pinned;
  }
  // Relaxed suffices: the flag is only ever set, and the store's next
  // write, which reads it, already happens after this pin (the store is
  // not written concurrently with reads).
  it->second.buffer->pinned.store(true, std::memory_order_relaxed);
  pinned.buffer_ = it->second.buffer;
  return pinned;
}

Status TimeSeriesStore::AdoptSeries(ComponentId component, MetricId metric,
                                    PinnedSeries pinned) {
  if (pinned.empty()) return Status::Ok();
  const std::vector<Sample>& incoming = pinned.samples();
  const SeriesKey key{component, metric};
  auto existing = series_.find(key);
  const bool extends = existing != series_.end() &&
                       existing->second.buffer != nullptr &&
                       !existing->second.buffer->samples.empty();
  if (extends &&
      incoming.front().time < existing->second.buffer->samples.back().time) {
    return Status::InvalidArgument(
        "samples must be appended in non-decreasing time order");
  }
  if (extends || listener_ != nullptr) {
    // An existing series keeps its own buffer, and a listener sees each
    // sample with the counters as of that sample, which only per-sample
    // appends reproduce. Ordered and finite, so none of them can fail.
    for (const Sample& sample : incoming) {
      Append(component, metric, sample.time, sample.value);
    }
    return Status::Ok();
  }
  SeriesData& s = existing != series_.end() ? existing->second : series_[key];
  // One generation step per sample, as the appends that wrote them took.
  AddSeries(component, metric, s);
  total_samples_ += incoming.size();
  s.component->generation += incoming.size();
  store_generation_ += incoming.size();
  s.buffer = std::move(pinned.buffer_);
  return Status::Ok();
}

void TimeSeriesStore::AddSeries(ComponentId component, MetricId metric,
                                SeriesData& series) {
  ComponentData& data = components_[component];
  series.component = &data;
  series.ordinal = next_ordinal_++;
  data.metrics.insert(
      std::upper_bound(data.metrics.begin(), data.metrics.end(), metric),
      metric);
}

std::vector<Sample>& TimeSeriesStore::Writable(SeriesData& series,
                                               size_t capacity) {
  if (series.buffer == nullptr ||
      series.buffer->pinned.load(std::memory_order_relaxed)) {
    auto own = std::make_shared<SampleBuffer>();
    if (series.buffer != nullptr) {
      const std::vector<Sample>& shared = series.buffer->samples;
      own->samples.reserve(std::max(capacity, shared.capacity()));
      own->samples.assign(shared.begin(), shared.end());
    }
    series.buffer = std::move(own);
  }
  series.buffer->samples.reserve(capacity);
  return series.buffer->samples;
}

uint64_t TimeSeriesStore::ComponentGeneration(ComponentId component) const {
  auto it = components_.find(component);
  return it == components_.end() ? 0 : it->second.generation;
}

SampleSpan TimeSeriesStore::SliceView(ComponentId component, MetricId metric,
                                      const TimeInterval& interval) const {
  const std::vector<Sample>& s = Series(component, metric);
  auto lo = LowerBoundTime(s.begin(), s.end(), interval.begin);
  auto hi = LowerBoundTime(lo, s.end(), interval.end);
  return SampleSpan(s, static_cast<size_t>(lo - s.begin()),
                    static_cast<size_t>(hi - s.begin()));
}

SampleSpan TimeSeriesStore::CoveringSlice(ComponentId component,
                                          MetricId metric,
                                          const TimeInterval& interval) const {
  return monitor::CoveringSlice(Series(component, metric), interval);
}

SampleSpan CoveringSlice(const std::vector<Sample>& series,
                         const TimeInterval& interval) {
  // [lo, hi) is the in-window range; widen by one sample on each side when
  // one exists (the stale-fallback reading and the tail reading).
  auto lo = LowerBoundTime(series.begin(), series.end(), interval.begin);
  auto hi = LowerBoundTime(series.begin(), series.end(), interval.end);
  if (lo != series.begin()) --lo;
  if (hi != series.end()) ++hi;
  return SampleSpan(series, static_cast<size_t>(lo - series.begin()),
                    static_cast<size_t>(hi - series.begin()));
}

std::vector<double> TimeSeriesStore::ValuesIn(
    ComponentId component, MetricId metric,
    const TimeInterval& interval) const {
  const SampleSpan view = SliceView(component, metric, interval);
  std::vector<double> out;
  out.reserve(view.size());
  for (const Sample& s : view) out.push_back(s.value);
  return out;
}

Result<double> TimeSeriesStore::MeanIn(ComponentId component, MetricId metric,
                                       const TimeInterval& interval) const {
  return monitor::MeanIn(Series(component, metric), interval);
}

Result<Sample> TimeSeriesStore::LatestAtOrBefore(ComponentId component,
                                                 MetricId metric,
                                                 SimTimeMs t) const {
  const std::vector<Sample>& s = Series(component, metric);
  auto it = std::upper_bound(
      s.begin(), s.end(), t,
      [](SimTimeMs tt, const Sample& a) { return tt < a.time; });
  if (it == s.begin()) {
    return Status::NotFound("no sample at or before requested time");
  }
  return *(it - 1);
}

const std::vector<Sample>& TimeSeriesStore::Series(ComponentId component,
                                                   MetricId metric) const {
  auto it = series_.find(SeriesKey{component, metric});
  if (it == series_.end() || it->second.buffer == nullptr) {
    return EmptySeries();
  }
  return it->second.buffer->samples;
}

const std::vector<MetricId>& TimeSeriesStore::MetricsFor(
    ComponentId component) const {
  static const std::vector<MetricId> kNone;
  auto it = components_.find(component);
  return it == components_.end() ? kNone : it->second.metrics;
}

Result<double> MeanIn(const std::vector<Sample>& series,
                      const TimeInterval& interval) {
  double mean = 0;
  if (!MeanCursor(series).MeanIn(interval, &mean)) {
    return Status::NotFound("no sample at or before requested time");
  }
  return mean;
}

bool MeanCursor::MeanIn(const TimeInterval& interval, double* mean) {
  if (series_.empty()) return false;
  // Samples are stamped at the *end* of the collection interval they
  // aggregate, so the sample covering this window's tail lands at the first
  // grid point at or after interval.end. Include it: for a run shorter than
  // the monitoring interval it is often the only reading that reflects the
  // run at all (Section 1.1's coarse-interval reality).
  if (!started_ || interval.begin < last_begin_) {
    window_begin_ = series_.begin();
  }
  started_ = true;
  last_begin_ = interval.begin;
  window_begin_ = SeekTime(window_begin_, series_.end(), interval.begin);
  size_t count = 0;
  double sum = 0;
  SampleIt tail = window_begin_;
  if (interval.end < interval.begin) {
    // An inverted interval's window is empty, and its tail may precede
    // the window's start.
    tail = LowerBoundTime(series_.begin(), series_.end(), interval.end);
  } else {
    for (; tail != series_.end() && tail->time < interval.end; ++tail) {
      sum += tail->value;
      ++count;
    }
  }
  if (tail != series_.end()) {
    sum += tail->value;
    ++count;
  }
  // With no samples at all in or after the window, every sample precedes
  // interval.begin: report the newest stale one.
  *mean = count > 0 ? sum / static_cast<double>(count) : series_.back().value;
  return true;
}

void TimeSeriesStore::ForEachSeries(
    const std::function<void(ComponentId, MetricId,
                             const std::vector<Sample>&)>& fn) const {
  for (const auto& [key, series] : series_) {
    if (series.buffer == nullptr || series.buffer->samples.empty()) continue;
    fn(key.component, key.metric, series.buffer->samples);
  }
}

}  // namespace diads::monitor
