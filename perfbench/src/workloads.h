// The three workload loops. Each drives one long-lived Serving stack
// from the main thread (the only client) for a fixed wall-clock budget
// (and at least until its peak-RSS sample), split into segments;
// correctness checks run between segments, outside the timed sections.
//
//   fresh_diagnosis  closed loop, 2 outstanding, every request a new
//                    incident tag over one of the 50 questions
//   dashboard_poll   untimed warm-up computes the 50 questions once, then
//                    the same questions are re-asked (result-cache hits)
//   stream_detect    rounds: every stream appended into fresh replicas a
//                    SlowdownDetector watches (auto-diagnosing incidents),
//                    then the fleet query mix and a RecoverFromLog
#ifndef DIADS_PERFBENCH_WORKLOADS_H_
#define DIADS_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "detect/detector.h"
#include "engine/stats.h"
#include "matrix.h"
#include "measure.h"
#include "serving.h"

namespace perfbench {

struct WorkloadEnv {
  const Matrix* matrix = nullptr;
  const std::vector<Reference>* references = nullptr;
  uint64_t seed = 42;
  double seconds = 10;
  /// Traced runs alternate untraced and traced segments: the traced ones
  /// record the loop's spans, the pair gives the tracing overhead.
  bool traced = false;
  std::string work_dir;  ///< Scratch space for fleet logs.
};

struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< The first few, for the log.
  /// Client operations per second, one per untraced / traced segment.
  std::vector<double> rates, traced_rates;
  /// CPU time of the whole process per client operation, ms, one per
  /// untraced segment.
  std::vector<double> cpu_ms_per_op;
  /// Peak RSS once the loop has done a fixed amount of work (see
  /// workloads.cc), so that it does not depend on the loop's speed.
  double peak_rss_mb = 0;
  /// Per-operation latency, ms (diagnosis, poll, or fleet query).
  LatencySampler latency;
  double accuracy = 0;
  /// The workload's metrics under their descriptive names (printed in
  /// the human-readable block).
  std::vector<Metric> named;

  diads::engine::EngineStatsSnapshot engine;  ///< After the loop.
  uint64_t computed = 0;  ///< Diagnoses the engine computed.
  /// Latency of the engine-computed diagnoses, ms (engine.overhead_ms).
  LatencySampler computed_latency;
  SpanTable spans;             ///< The loop's spans (traced segments).
  std::string loop_trace_json; ///< Chrome trace of the first traced segment.
  /// Detector counters of one round (stream_detect only).
  bool has_detector = false;
  diads::detect::DetectorStats detector;

  void Fail(const std::string& why);
};

diads::Result<WorkloadResult> RunFreshDiagnosis(const WorkloadEnv& env,
                                                Serving* serving);
diads::Result<WorkloadResult> RunDashboardPoll(const WorkloadEnv& env,
                                               Serving* serving);
diads::Result<WorkloadResult> RunStreamDetect(const WorkloadEnv& env,
                                              Serving* serving);

}  // namespace perfbench

#endif  // DIADS_PERFBENCH_WORKLOADS_H_
