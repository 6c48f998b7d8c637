// The traced decomposition pass: one serial walk over the 50 questions
// that calls each layer's public functions directly, each call inside a
// benchmark span, so every layer's cost is measured from outside.
//
// Per question:
//   question
//   ├─ db.optimize_q2        Testbed::OptimizeQ2
//   ├─ apg.build             Testbed::BuildApg
//   ├─ diagnose
//   │   ├─ monitor.gather    Workflow::Collect (0 ms collector)
//   │   ├─ diads.pd … diads.ia   the six Run* modules on the snapshot
//   │   ├─ fleet.extract     ExtractVerdict
//   │   ├─ fleet.publish     FleetStore::Publish (no log attached)
//   │   └─ fleet.log_append  SegmentLog::Append
//   ├─ monitor.append        the question's stream into a bare store
//   └─ detect.watched_append the same stream into a store a
//                            SlowdownDetector watches (no engine)
// then, over the pass's fleet store, the query mix (fleet.query.*) and
// one RecoverFromLog (fleet.recover).
//
// The report assembled from the modules must equal the serial reference
// digest, which also checks that the pass decomposes the workflow
// faithfully.
#ifndef DIADS_PERFBENCH_LAYERS_H_
#define DIADS_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "detect/detector.h"
#include "matrix.h"
#include "measure.h"
#include "monitor/async_collector.h"

namespace perfbench {

struct LayerPass {
  SpanTable spans;  ///< Per span name, and per name + ".<backend>".
  std::vector<double> diagnose_ms;  ///< One per question.
  uint64_t questions = 0;
  uint64_t gather_fetches = 0, gather_samples = 0, gather_bytes = 0;
  uint64_t model_lookups = 0;
  uint64_t da_metrics_scored = 0;
  uint64_t log_bytes = 0, log_records = 0;
  uint64_t fleet_rows = 0;
  uint64_t recover_records = 0, recover_dropped = 0;
  uint64_t stream_appends = 0;
  diads::detect::DetectorStats detector;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Runs the pass, gathering through `collector` (the serving stack's,
/// idle by then). Spans go to `tracer` (left there, so the caller can
/// export them); the log is written under `log_dir`.
diads::Status RunLayerPass(const Matrix& matrix,
                           const std::vector<Reference>& references,
                           const diads::diag::SymptomsDb& symptoms,
                           diads::monitor::AsyncCollector* collector,
                           const std::string& log_dir,
                           diads::obs::Tracer* tracer, LayerPass* out);

}  // namespace perfbench

#endif  // DIADS_PERFBENCH_LAYERS_H_
