#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "diads/report.h"
#include "fleet/log.h"

namespace perfbench {

using diads::Result;
using diads::Status;
using diads::engine::DiagnosisRequest;
using diads::engine::DiagnosisResponse;
namespace obs = diads::obs;

namespace {

/// Requests kept in flight by the fresh_diagnosis client (and the
/// dashboard warm-up): one per engine worker.
constexpr size_t kOutstanding = 2;
/// Completions per fresh_diagnosis segment (two passes over the matrix).
constexpr size_t kFreshSegment = 100;
/// Polls per dashboard_poll segment.
constexpr size_t kPollSegment = 2000;
/// The work after which a loop samples its peak RSS; the loop runs at
/// least this long. Diagnoses: enough for the result cache (1024
/// entries) to be nearly full. Polls: a million samples in the engine's
/// latency recorder. stream_detect samples after its first round.
constexpr uint64_t kFreshRssOps = 1000;
constexpr uint64_t kPollRssOps = 1000000;
/// Passes of the fleet query mix per stream_detect round.
constexpr int kQueryMixesPerRound = 4;

/// An endless order over the configurations: one seeded permutation,
/// repeated, so every question recurs exactly once per cycle of 50 and the
/// reuse distance of its baseline models is the whole matrix.
class ConfigOrder {
 public:
  ConfigOrder(size_t configs, uint64_t seed) : order_(configs) {
    std::iota(order_.begin(), order_.end(), size_t{0});
    diads::SeededRng rng(seed);
    rng.Shuffle(&order_);
  }
  size_t Next() {
    if (next_ == order_.size()) next_ = 0;
    return order_[next_++];
  }

 private:
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// The wall and CPU clocks at the start of a timed segment.
struct SegmentStart {
  Clock::time_point wall = Clock::now();
  double cpu_s = CpuSeconds();
};

/// Records a timed segment of `ops` client operations; call it as the
/// segment ends. A traced run spends its first segment warming up, then
/// alternates traced and untraced segments.
void RecordSegment(const WorkloadEnv& env, int segment, double ops,
                   const SegmentStart& start, WorkloadResult* out) {
  const double rate = ops / (MsSince(start.wall) / 1e3);
  const double cpu_ms_per_op = (CpuSeconds() - start.cpu_s) * 1e3 / ops;
  if (env.traced && segment == 0) return;
  if (env.traced && segment % 2 == 1) {
    out->traced_rates.push_back(rate);
    return;
  }
  out->rates.push_back(rate);
  out->cpu_ms_per_op.push_back(cpu_ms_per_op);
}

/// True while a loop that started at `start` must go on: for the run's
/// seconds, and at least until it sampled its peak RSS.
bool KeepGoing(const WorkloadEnv& env, Clock::time_point start,
               const WorkloadResult& out) {
  return out.peak_rss_mb == 0 || MsSince(start) < env.seconds * 1e3;
}

/// Keeps up to `depth` requests in flight until `count` have completed,
/// handing each completion to `done` in submit order. `make` returns
/// {configuration index, request}.
template <typename Make, typename Done>
void ClosedLoop(diads::engine::DiagnosisEngine& engine, size_t count,
                size_t depth, const obs::TraceContext& trace, Make&& make,
                Done&& done) {
  struct InFlight {
    std::future<DiagnosisResponse> future;
    size_t config;
  };
  std::vector<InFlight> inflight;
  size_t submitted = 0;
  for (size_t completed = 0; completed < count; ++completed) {
    while (submitted < count && inflight.size() < depth) {
      std::pair<size_t, DiagnosisRequest> next = make();
      obs::SpanHandle span = trace.StartSpan("engine.submit", "client");
      inflight.push_back(
          InFlight{engine.Submit(std::move(next.second)), next.first});
      span.End();
      ++submitted;
    }
    // Block on the oldest request: a later one that finishes first waits
    // in its future until then (no timed polling on the client thread).
    DiagnosisResponse response = inflight.front().future.get();
    const size_t config = inflight.front().config;
    inflight.erase(inflight.begin());
    done(config, std::move(response));
  }
}

/// Folds the loop tracer's spans into `out` and clears it, keeping the
/// first traced segment as a Chrome trace.
void CollectLoopSpans(obs::Tracer* tracer, WorkloadResult* out) {
  if (out->loop_trace_json.empty()) {
    out->loop_trace_json = tracer->ExportChromeTrace();
  }
  FoldSpans(tracer->Spans(), "", &out->spans);
  tracer->Clear();
}

/// Checks one response against the serial reference of its
/// configuration; with `must_compute`, it must also have been computed
/// (not served from the result cache, not coalesced).
bool CheckAnswer(const WorkloadEnv& env, size_t config,
                 const DiagnosisResponse& response, bool must_compute,
                 WorkloadResult* out) {
  const std::string& name = env.matrix->configs[config].tenant.name;
  if (!response.ok() || response.report == nullptr) {
    out->Fail(name + ": " + response.status.ToString());
    return false;
  }
  if (must_compute && (response.cache_hit || response.coalesced)) {
    out->Fail(name + ": answered from cache, expected a computed report");
    return false;
  }
  if (diads::diag::ReportDigest(*response.report) !=
      (*env.references)[config].digest) {
    out->Fail(name + ": report differs from the serial diagnosis");
    return false;
  }
  return true;
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / whole;
}

/// The descriptive latency metrics, in `unit_scale` units of a
/// millisecond.
void AddLatencyMetrics(const LatencySampler& latency, const std::string& stem,
                       const std::string& unit, double unit_scale,
                       WorkloadResult* out) {
  const double tail = latency.TailQuantile();
  char tail_name[16];
  std::snprintf(tail_name, sizeof(tail_name), "p%02d",
                static_cast<int>(tail * 100 + 0.5));
  out->named.push_back(
      {stem + "_p50_" + unit, latency.Quantile(0.5) * unit_scale, unit});
  out->named.push_back(
      {stem + "_" + tail_name + "_" + unit, latency.Tail() * unit_scale, unit});
  out->named.push_back({stem + "_samples",
                        static_cast<double>(latency.count()), "count"});
}

}  // namespace

void WorkloadResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

Result<WorkloadResult> RunFreshDiagnosis(const WorkloadEnv& env,
                                         Serving* serving) {
  WorkloadResult out;
  const Matrix& matrix = *env.matrix;
  ConfigOrder order(matrix.configs.size(), env.seed ^ 0xf4e5d1a9ull);
  obs::Tracer tracer;
  uint64_t incident = 0, top1 = 0;
  const Clock::time_point start = Clock::now();
  for (int segment = 0; KeepGoing(env, start, out); ++segment) {
    const bool traced = env.traced && segment % 2 == 1;
    std::vector<std::pair<size_t, DiagnosisResponse>> done;
    done.reserve(kFreshSegment);
    const SegmentStart segment_start;
    ClosedLoop(
        serving->engine(), kFreshSegment, kOutstanding,
        traced ? tracer.Root() : obs::TraceContext(),
        [&] {
          const size_t c = order.Next();
          return std::make_pair(
              c, matrix.configs[c].Request(matrix.configs[c].tenant.name +
                                           "/incident-" +
                                           std::to_string(++incident)));
        },
        [&](size_t c, DiagnosisResponse response) {
          out.latency.Add(response.latency_ms);
          out.computed_latency.Add(response.latency_ms);
          done.emplace_back(c, std::move(response));
        });
    RecordSegment(env, segment, kFreshSegment, segment_start, &out);
    if (out.peak_rss_mb == 0 && incident >= kFreshRssOps) {
      out.peak_rss_mb = PeakRssMb();
    }

    for (const auto& [c, response] : done) {
      ++out.attempted;
      if (!CheckAnswer(env, c, response, true, &out)) continue;
      ++out.computed;
      if (Top1Correct(matrix.configs[c], *response.report)) ++top1;
    }
    if (traced) CollectLoopSpans(&tracer, &out);
  }
  out.engine = serving->engine().Stats();
  out.accuracy = Ratio(top1, out.attempted);
  out.named.push_back({"diagnoses_per_s", Median(out.rates), "1/s"});
  AddLatencyMetrics(out.latency, "diagnosis", "ms", 1.0, &out);
  out.named.push_back({"top1_accuracy", out.accuracy, "fraction"});
  return out;
}

Result<WorkloadResult> RunDashboardPoll(const WorkloadEnv& env,
                                        Serving* serving) {
  WorkloadResult out;
  const Matrix& matrix = *env.matrix;
  const size_t n = matrix.configs.size();
  std::vector<DiagnosisRequest> questions;
  for (const MatrixConfig& config : matrix.configs) {
    questions.push_back(config.Request(config.tenant.name + "/dashboard"));
  }

  // Untimed warm-up: every question computed once.
  ConfigOrder order(n, env.seed ^ 0xda5b0a4dull);
  std::vector<std::shared_ptr<const diads::diag::DiagnosisReport>> answers(n);
  std::vector<bool> top1(n, false);
  ClosedLoop(
      serving->engine(), n, kOutstanding, obs::TraceContext(),
      [&] {
        const size_t c = order.Next();
        return std::make_pair(c, questions[c]);
      },
      [&](size_t c, DiagnosisResponse response) {
        out.computed_latency.Add(response.latency_ms);
        if (!CheckAnswer(env, c, response, true, &out)) return;
        ++out.computed;
        answers[c] = response.report;
        top1[c] = Top1Correct(matrix.configs[c], *response.report);
      });
  if (out.failed != 0) return out;

  obs::Tracer tracer;
  uint64_t top1_served = 0;
  const Clock::time_point start = Clock::now();
  for (int segment = 0; KeepGoing(env, start, out); ++segment) {
    const bool traced = env.traced && segment % 2 == 1;
    const obs::TraceContext trace =
        traced ? tracer.Root() : obs::TraceContext();
    uint64_t wrong = 0;
    const SegmentStart segment_start;
    for (size_t i = 0; i < kPollSegment; ++i) {
      const size_t c = order.Next();
      DiagnosisRequest request = questions[c];
      const Clock::time_point poll_start = Clock::now();
      obs::SpanHandle poll = trace.StartSpan("poll", "client");
      obs::SpanHandle submit =
          trace.Under(poll).StartSpan("engine.submit", "client");
      std::future<DiagnosisResponse> future =
          serving->engine().Submit(std::move(request));
      submit.End();
      const DiagnosisResponse response = future.get();
      poll.End();
      out.latency.Add(MsSince(poll_start));
      // Identity with the warm-up's report: a pointer compare, cheap
      // enough to stay inline.
      if (!response.ok() || !response.cache_hit ||
          response.report != answers[c]) {
        ++wrong;
      } else if (top1[c]) {
        ++top1_served;
      }
    }
    RecordSegment(env, segment, kPollSegment, segment_start, &out);
    out.attempted += kPollSegment;
    if (out.peak_rss_mb == 0 && out.attempted >= kPollRssOps) {
      out.peak_rss_mb = PeakRssMb();
    }
    for (uint64_t i = 0; i < wrong; ++i) {
      out.Fail("a poll did not return the warm-up's report");
    }
    if (traced) CollectLoopSpans(&tracer, &out);
  }
  out.engine = serving->engine().Stats();
  out.accuracy = Ratio(top1_served, out.attempted);
  out.named.push_back({"polls_per_s", Median(out.rates), "1/s"});
  AddLatencyMetrics(out.latency, "poll", "us", 1e3, &out);
  out.named.push_back({"top1_accuracy", out.accuracy, "fraction"});
  return out;
}

namespace {

/// Counter-wise a - b over the monotone detector counters.
diads::detect::DetectorStats Delta(const diads::detect::DetectorStats& a,
                                   const diads::detect::DetectorStats& b) {
  diads::detect::DetectorStats d;
  d.appends_observed = a.appends_observed - b.appends_observed;
  d.appends_scored = a.appends_scored - b.appends_scored;
  d.series_tracked = a.series_tracked - b.series_tracked;
  d.series_calibrated = a.series_calibrated - b.series_calibrated;
  d.band_crossings = a.band_crossings - b.band_crossings;
  d.confirmations = a.confirmations - b.confirmations;
  d.incidents_opened = a.incidents_opened - b.incidents_opened;
  d.incidents_closed = a.incidents_closed - b.incidents_closed;
  d.suppressed_active = a.suppressed_active - b.suppressed_active;
  d.suppressed_cooldown = a.suppressed_cooldown - b.suppressed_cooldown;
  d.diagnoses_submitted = a.diagnoses_submitted - b.diagnoses_submitted;
  return d;
}

bool SameCounts(const diads::detect::DetectorStats& a,
                const diads::detect::DetectorStats& b) {
  return a.appends_observed == b.appends_observed &&
         a.appends_scored == b.appends_scored &&
         a.band_crossings == b.band_crossings &&
         a.confirmations == b.confirmations &&
         a.incidents_opened == b.incidents_opened &&
         a.suppressed_active == b.suppressed_active &&
         a.diagnoses_submitted == b.diagnoses_submitted;
}

}  // namespace

Result<WorkloadResult> RunStreamDetect(const WorkloadEnv& env,
                                       Serving* serving) {
  WorkloadResult out;
  out.has_detector = true;
  const Matrix& matrix = *env.matrix;
  const size_t n = matrix.configs.size();
  ConfigOrder order(n, env.seed ^ 0x57e4a3d7ull);
  diads::detect::SlowdownDetector detector(diads::detect::DetectorOptions{},
                                           &serving->engine());
  obs::Tracer tracer;
  diads::detect::DetectorStats before = detector.Stats();
  size_t incidents_seen = 0;
  uint64_t publishes_before = serving->engine().Stats().fleet_publishes;
  std::vector<double> recover_ms;
  double first_recall = -1;
  uint64_t answered = 0, top1 = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; KeepGoing(env, start, out); ++round) {
    const bool traced = env.traced && round % 2 == 1;
    const obs::TraceContext trace =
        traced ? tracer.Root() : obs::TraceContext();
    const std::string log_dir =
        env.work_dir + "/stream-round-" + std::to_string(round);
    serving->fleet().Clear();
    DIADS_RETURN_IF_ERROR(serving->ReopenLog(log_dir));

    std::vector<size_t> cycle(n);
    for (size_t& c : cycle) c = order.Next();
    std::vector<std::unique_ptr<diads::monitor::TimeSeriesStore>> replicas(n);
    std::unordered_map<std::string, size_t> config_of;
    // engine.submit: opened by the request factory, right before the
    // detector submits, and closed once the triggering append returns.
    obs::SpanHandle submit_span;
    for (size_t c : cycle) {
      replicas[c] = std::make_unique<diads::monitor::TimeSeriesStore>();
      const std::string tenant =
          "r" + std::to_string(round) + "/" + matrix.configs[c].tenant.name;
      config_of[tenant] = c;
      DIADS_RETURN_IF_ERROR(detector.Watch(
          tenant, replicas[c].get(), [&matrix, &trace, &submit_span, c,
                                      tenant] {
            DiagnosisRequest request = matrix.configs[c].Request(tenant);
            submit_span = trace.StartSpan("engine.submit", "client");
            return request;
          }));
    }

    uint64_t appends = 0;
    const SegmentStart ingest_start;
    for (size_t c : cycle) {
      obs::SpanHandle span = trace.StartSpan("ingest", "client");
      diads::monitor::TimeSeriesStore& replica = *replicas[c];
      for (const StreamSample& s : matrix.configs[c].stream) {
        if (!replica.Append(s.component, s.metric, s.time, s.value).ok()) {
          out.Fail(matrix.configs[c].tenant.name + ": append failed");
        }
        if (traced && submit_span.active()) submit_span.End();
      }
      appends += matrix.configs[c].stream.size();
    }
    RecordSegment(env, round, appends, ingest_start, &out);
    out.attempted += appends;

    detector.WaitForDiagnoses();
    std::vector<DiagnosisResponse> responses = detector.TakeResponses();
    for (size_t c : cycle) detector.Unwatch(replicas[c].get());
    replicas.clear();
    const std::vector<diads::detect::Incident> incidents =
        detector.Incidents();
    const diads::detect::DetectorStats now = detector.Stats();
    const diads::detect::DetectorStats round_counts = Delta(now, before);
    before = now;
    if (round == 0) {
      out.detector = round_counts;
    } else if (!SameCounts(round_counts, out.detector)) {
      out.Fail("detector counters differ between identical rounds");
    }

    // Every auto-diagnosis answers one incident (the detector files them
    // together) with the serial report. A tenant's second incident asks
    // the same question again and may be answered from the result cache.
    // An incident confirmed at or before its fault onset (the end of the
    // satisfactory window) is a false alarm and fails the run.
    std::vector<bool> detected(n, false);
    if (incidents.size() - incidents_seen != responses.size()) {
      out.Fail("incidents and auto-diagnoses do not pair up");
    }
    for (size_t i = 0; i < responses.size() &&
                       incidents_seen + i < incidents.size();
         ++i) {
      const diads::detect::Incident& incident = incidents[incidents_seen + i];
      ++out.attempted;
      auto it = config_of.find(incident.tenant);
      if (it == config_of.end()) {
        out.Fail("incident for an unknown tenant " + incident.tenant);
        continue;
      }
      const size_t c = it->second;
      const DiagnosisResponse& response = responses[i];
      if (!CheckAnswer(env, c, response, false, &out)) continue;
      ++answered;
      if (Top1Correct(matrix.configs[c], *response.report)) ++top1;
      if (!response.cache_hit && !response.coalesced) {
        ++out.computed;
        out.computed_latency.Add(response.latency_ms);
      }
      if (incident.confirmed_time >
          matrix.configs[c].tenant.output->satisfactory_window.end) {
        detected[c] = true;
      } else {
        out.Fail(incident.tenant + ": incident confirmed before the onset");
      }
    }
    incidents_seen = incidents.size();
    const double recall = Ratio(static_cast<uint64_t>(std::count(
                                    detected.begin(), detected.end(), true)),
                                n);
    if (first_recall < 0) {
      first_recall = recall;
    } else if (recall != first_recall) {
      out.Fail("detection differs between identical rounds");
    }

    const std::vector<std::string> components =
        FleetComponents(serving->fleet());
    std::string live;
    for (int mix = 0; mix < kQueryMixesPerRound; ++mix) {
      live = RunQueryMix(serving->fleet(), components, trace, &out.latency);
      out.attempted += QueryMixSize(components);
    }

    serving->CloseLog();
    const uint64_t publishes = serving->engine().Stats().fleet_publishes;
    diads::fleet::FleetStore recovered;
    diads::fleet::ReplayStats replay;
    {
      obs::SpanHandle span = trace.StartSpan("fleet.recover", "fleet");
      const Clock::time_point recover_start = Clock::now();
      replay = diads::fleet::RecoverFromLog(log_dir, &recovered);
      recover_ms.push_back(MsSince(recover_start));
    }
    ++out.attempted;
    LatencySampler unused;
    if (replay.records_dropped != 0 || replay.decode_failures != 0 ||
        replay.records_replayed != publishes - publishes_before) {
      out.Fail("recovery lost records: " + replay.Render());
    } else if (RunQueryMix(recovered, components, obs::TraceContext(),
                           &unused) != live) {
      out.Fail("recovered fleet answers the query mix differently");
    }
    publishes_before = publishes;
    std::filesystem::remove_all(log_dir);
    if (traced) CollectLoopSpans(&tracer, &out);
    if (out.peak_rss_mb == 0) out.peak_rss_mb = PeakRssMb();
  }
  out.engine = serving->engine().Stats();
  out.accuracy = Ratio(top1, answered);
  out.named.push_back({"ingest_appends_per_s", Median(out.rates), "1/s"});
  out.named.push_back({"detect_recall", first_recall, "fraction"});
  AddLatencyMetrics(out.latency, "fleet_query", "ms", 1.0, &out);
  out.named.push_back({"recover_ms", Median(recover_ms), "ms"});
  out.named.push_back({"top1_accuracy", out.accuracy, "fraction"});
  out.named.push_back({"rounds", static_cast<double>(recover_ms.size()),
                       "count"});
  return out;
}

}  // namespace perfbench
