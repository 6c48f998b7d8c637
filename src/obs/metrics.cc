#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "common/strings.h"

namespace diads::obs {
namespace {

/// Prometheus label-value escaping: backslash, quote, newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%s=\"%s\"", labels[i].first.c_str(),
                     EscapeLabelValue(labels[i].second).c_str());
  }
  out += "}";
  return out;
}

/// Extra labels appended to an existing set (for _bucket le= lines).
std::string RenderLabelsPlus(const Labels& labels, const std::string& key,
                             const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return RenderLabels(extended);
}

/// Counters are almost always integers; print them as such so the text
/// format and the JSON snapshot stay pleasant to read and diff.
std::string FormatValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return StrFormat("%lld", (long long)v);
  }
  return StrFormat("%.6g", v);
}

std::string FormatBound(double bound) { return StrFormat("%.6g", bound); }

class CollectingEmitter : public MetricsEmitter {
 public:
  explicit CollectingEmitter(std::vector<MetricSample>* out) : out_(out) {}

  void Counter(const std::string& name, const std::string& help,
               const Labels& labels, uint64_t value) override {
    MetricSample sample;
    sample.name = name;
    sample.help = help;
    sample.type = MetricType::kCounter;
    sample.labels = labels;
    sample.value = static_cast<double>(value);
    out_->push_back(std::move(sample));
  }

  void Gauge(const std::string& name, const std::string& help,
             const Labels& labels, double value) override {
    MetricSample sample;
    sample.name = name;
    sample.help = help;
    sample.type = MetricType::kGauge;
    sample.labels = labels;
    sample.value = value;
    out_->push_back(std::move(sample));
  }

 private:
  std::vector<MetricSample>* out_;
};

}  // namespace

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(const ExponentialBuckets& layout) {
  double bound = layout.first_bound;
  for (int i = 0; i < layout.bucket_count; ++i) {
    bounds_.push_back(bound);
    bound *= layout.growth;
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t index = static_cast<size_t>(it - bounds_.begin());
  counts_[index].fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.cumulative.reserve(bounds_.size());
  uint64_t running = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    running += counts_[i].load(std::memory_order_relaxed);
    snap.cumulative.push_back(running);
  }
  snap.count =
      running + counts_[bounds_.size()].load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0;
  // The estimate of the order statistic at 0-based rank k: its bucket's
  // bounds interpolated by k's position among the bucket's observations.
  const auto order_statistic = [this](uint64_t k) {
    const size_t i = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), k) -
        cumulative.begin());
    if (i == 0) return bounds.front();
    if (i == bounds.size()) return bounds.back();
    const uint64_t below = cumulative[i - 1];
    const double position = (static_cast<double>(k - below) + 0.5) /
                            static_cast<double>(cumulative[i] - below);
    return bounds[i - 1] + (bounds[i] - bounds[i - 1]) * position;
  };
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count - 1);
  const uint64_t lo = static_cast<uint64_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double at_lo = order_statistic(lo);
  if (frac == 0 || lo + 1 >= count) return at_lo;
  return at_lo * (1.0 - frac) + order_statistic(lo + 1) * frac;
}

Counter* MetricsRegistry::AddCounter(const std::string& name,
                                     const std::string& help, Labels labels) {
  auto instrument = std::make_unique<OwnedInstrument>();
  instrument->name = name;
  instrument->help = help;
  instrument->type = MetricType::kCounter;
  instrument->labels = std::move(labels);
  instrument->counter = std::make_unique<class Counter>();
  Counter* out = instrument->counter.get();
  std::lock_guard<std::mutex> lock(mu_);
  instruments_.push_back(std::move(instrument));
  return out;
}

Gauge* MetricsRegistry::AddGauge(const std::string& name,
                                 const std::string& help, Labels labels) {
  auto instrument = std::make_unique<OwnedInstrument>();
  instrument->name = name;
  instrument->help = help;
  instrument->type = MetricType::kGauge;
  instrument->labels = std::move(labels);
  instrument->gauge = std::make_unique<class Gauge>();
  Gauge* out = instrument->gauge.get();
  std::lock_guard<std::mutex> lock(mu_);
  instruments_.push_back(std::move(instrument));
  return out;
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name,
                                         const std::string& help,
                                         const ExponentialBuckets& layout,
                                         Labels labels) {
  auto instrument = std::make_unique<OwnedInstrument>();
  instrument->name = name;
  instrument->help = help;
  instrument->type = MetricType::kHistogram;
  instrument->labels = std::move(labels);
  instrument->histogram = std::make_unique<class Histogram>(layout);
  Histogram* out = instrument->histogram.get();
  std::lock_guard<std::mutex> lock(mu_);
  instruments_.push_back(std::move(instrument));
  return out;
}

void MetricsRegistry::AddSource(SourceFn source) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(std::move(source));
}

std::vector<MetricSample> MetricsRegistry::Collect() const {
  std::vector<MetricSample> out;
  // Copy the source list under the lock, run the callbacks outside it so
  // a source may (indirectly) touch the registry without deadlocking.
  std::vector<SourceFn> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& instrument : instruments_) {
      MetricSample sample;
      sample.name = instrument->name;
      sample.help = instrument->help;
      sample.type = instrument->type;
      sample.labels = instrument->labels;
      switch (instrument->type) {
        case MetricType::kCounter:
          sample.value = static_cast<double>(instrument->counter->value());
          break;
        case MetricType::kGauge:
          sample.value = instrument->gauge->value();
          break;
        case MetricType::kHistogram: {
          const Histogram::Snapshot snap = instrument->histogram->Snap();
          sample.value = static_cast<double>(snap.count);
          sample.hist_bounds = snap.bounds;
          sample.hist_cumulative = snap.cumulative;
          sample.hist_sum = snap.sum;
          break;
        }
      }
      out.push_back(std::move(sample));
    }
    sources = sources_;
  }
  CollectingEmitter emitter(&out);
  for (const SourceFn& source : sources) source(emitter);
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  const std::vector<MetricSample> samples = Collect();
  // Families must be contiguous in the exposition: emit in first-seen
  // name order, all samples of a name together.
  std::vector<std::string> family_order;
  for (const MetricSample& sample : samples) {
    if (std::find(family_order.begin(), family_order.end(), sample.name) ==
        family_order.end()) {
      family_order.push_back(sample.name);
    }
  }
  std::string out;
  for (const std::string& family : family_order) {
    bool header_done = false;
    for (const MetricSample& sample : samples) {
      if (sample.name != family) continue;
      if (!header_done) {
        out += StrFormat("# HELP %s %s\n", family.c_str(),
                         sample.help.c_str());
        out += StrFormat("# TYPE %s %s\n", family.c_str(),
                         MetricTypeName(sample.type));
        header_done = true;
      }
      if (sample.type == MetricType::kHistogram) {
        for (size_t i = 0; i < sample.hist_bounds.size(); ++i) {
          out += StrFormat(
              "%s_bucket%s %llu\n", family.c_str(),
              RenderLabelsPlus(sample.labels, "le",
                               FormatBound(sample.hist_bounds[i]))
                  .c_str(),
              (unsigned long long)sample.hist_cumulative[i]);
        }
        out += StrFormat("%s_bucket%s %llu\n", family.c_str(),
                         RenderLabelsPlus(sample.labels, "le", "+Inf").c_str(),
                         (unsigned long long)sample.value);
        out += StrFormat("%s_sum%s %s\n", family.c_str(),
                         RenderLabels(sample.labels).c_str(),
                         FormatValue(sample.hist_sum).c_str());
        out += StrFormat("%s_count%s %llu\n", family.c_str(),
                         RenderLabels(sample.labels).c_str(),
                         (unsigned long long)sample.value);
      } else {
        out += StrFormat("%s%s %s\n", family.c_str(),
                         RenderLabels(sample.labels).c_str(),
                         FormatValue(sample.value).c_str());
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const std::vector<MetricSample> samples = Collect();
  std::string out = "{\"metrics\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& sample = samples[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"name\":%s,\"type\":\"%s\",\"labels\":{",
                     JsonQuote(sample.name).c_str(),
                     MetricTypeName(sample.type));
    for (size_t j = 0; j < sample.labels.size(); ++j) {
      if (j > 0) out += ",";
      out += StrFormat("%s:%s", JsonQuote(sample.labels[j].first).c_str(),
                       JsonQuote(sample.labels[j].second).c_str());
    }
    out += StrFormat("},\"value\":%s", FormatValue(sample.value).c_str());
    if (sample.type == MetricType::kHistogram) {
      out += StrFormat(",\"sum\":%s,\"buckets\":[",
                       FormatValue(sample.hist_sum).c_str());
      for (size_t j = 0; j < sample.hist_bounds.size(); ++j) {
        if (j > 0) out += ",";
        out += StrFormat("{\"le\":%s,\"count\":%llu}",
                         FormatBound(sample.hist_bounds[j]).c_str(),
                         (unsigned long long)sample.hist_cumulative[j]);
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

const MetricSample* MetricsRegistry::Find(
    const std::vector<MetricSample>& samples, const std::string& name,
    const Labels& labels) {
  for (const MetricSample& sample : samples) {
    if (sample.name != name) continue;
    bool all_match = true;
    for (const auto& want : labels) {
      const auto it = std::find(sample.labels.begin(), sample.labels.end(),
                                want);
      if (it == sample.labels.end()) {
        all_match = false;
        break;
      }
    }
    if (all_match) return &sample;
  }
  return nullptr;
}

}  // namespace diads::obs
