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

bool EarlierThan(const Sample& a, const Sample& b) { return a.time < b.time; }

/// A NaN would make every sort over the samples (the KDE fit, midranks)
/// use an inconsistent comparator, which is undefined behaviour, and an
/// infinity poisons every mean it enters; neither is a measurement.
Status NonFiniteSample() {
  return Status::InvalidArgument("sample values must be finite");
}

}  // namespace

Status TimeSeriesStore::Append(ComponentId component, MetricId metric,
                               SimTimeMs time, double value) {
  if (!std::isfinite(value)) return NonFiniteSample();
  SeriesData& s = series_[SeriesKey{component, metric}];
  if (!s.samples.empty() && time < s.samples.back().time) {
    return Status::InvalidArgument(
        "samples must be appended in non-decreasing time order");
  }
  ComponentData& c = components_[component];
  if (s.ordinal == kUnassignedOrdinal) AddSeries(metric, s, c);
  s.samples.push_back(Sample{time, value});
  ++s.generation;
  ++c.generation;
  ++store_generation_;
  ++total_samples_;
  if (listener_ != nullptr) {
    listener_->OnAppend(component, metric, s.samples.back(), s.generation,
                        s.ordinal);
  }
  return Status::Ok();
}

Status TimeSeriesStore::AppendSamples(ComponentId component, MetricId metric,
                                      std::vector<Sample> samples) {
  const SeriesKey key{component, metric};
  auto existing = series_.find(key);
  const bool continues_series =
      samples.empty() || existing == series_.end() ||
      existing->second.samples.empty() ||
      samples.front().time >= existing->second.samples.back().time;
  if (!continues_series ||
      !std::is_sorted(samples.begin(), samples.end(), EarlierThan)) {
    return Status::InvalidArgument(
        "samples must be appended in non-decreasing time order");
  }
  if (!std::all_of(samples.begin(), samples.end(), [](const Sample& sample) {
        return std::isfinite(sample.value);
      })) {
    return NonFiniteSample();
  }
  if (samples.empty()) return Status::Ok();
  if (listener_ != nullptr) {
    // The listener sees each sample with the counters as of that sample,
    // which only per-sample appends reproduce. Validated above, so none
    // of them can fail.
    for (const Sample& sample : samples) {
      Append(component, metric, sample.time, sample.value);
    }
    return Status::Ok();
  }
  SeriesData& s = existing != series_.end() ? existing->second : series_[key];
  ComponentData& c = components_[component];
  if (s.ordinal == kUnassignedOrdinal) AddSeries(metric, s, c);
  const size_t n = samples.size();
  if (s.samples.empty()) {
    s.samples = std::move(samples);
  } else {
    s.samples.insert(s.samples.end(), samples.begin(), samples.end());
  }
  s.generation += n;
  c.generation += n;
  store_generation_ += n;
  total_samples_ += n;
  return Status::Ok();
}

void TimeSeriesStore::AddSeries(MetricId metric, SeriesData& series,
                                ComponentData& component) {
  series.ordinal = next_ordinal_++;
  component.metrics.insert(std::upper_bound(component.metrics.begin(),
                                            component.metrics.end(), metric),
                           metric);
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
  if (lo == hi) return SampleSpan();
  return SampleSpan(&*lo, static_cast<size_t>(hi - lo));
}

std::vector<Sample> TimeSeriesStore::Slice(ComponentId component,
                                           MetricId metric,
                                           const TimeInterval& interval) const {
  const SampleSpan view = SliceView(component, metric, interval);
  return std::vector<Sample>(view.begin(), view.end());
}

std::vector<Sample> TimeSeriesStore::CoveringSlice(
    ComponentId component, MetricId metric,
    const TimeInterval& interval) const {
  const std::vector<Sample>& s = Series(component, metric);
  if (s.empty()) return {};
  // [lo, hi) is the in-window range; widen by one sample on each side when
  // one exists (the stale-fallback reading and the tail reading).
  auto lo = LowerBoundTime(s.begin(), s.end(), interval.begin);
  auto hi = LowerBoundTime(s.begin(), s.end(), interval.end);
  if (lo != s.begin()) --lo;
  if (hi != s.end()) ++hi;
  return std::vector<Sample>(lo, hi);
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
  if (it == series_.end()) return EmptySeries();
  return it->second.samples;
}

uint64_t TimeSeriesStore::Generation(ComponentId component,
                                     MetricId metric) const {
  auto it = series_.find(SeriesKey{component, metric});
  if (it == series_.end()) return 0;
  return it->second.generation;
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
    if (series.samples.empty()) continue;
    fn(key.component, key.metric, series.samples);
  }
}

}  // namespace diads::monitor
