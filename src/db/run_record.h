// Query run records — the per-execution data DIADS consumes.
//
// Section 3: "For each execution of plan P, DIADS collects some low-overhead
// monitoring data per operator O in P ... O's start time, stop time, and
// record-counts (estimated and actual number of records in O's output)."
// A QueryRunRecord is one such execution; the RunCatalog holds the run
// history with the administrator's satisfactory/unsatisfactory labels
// (Figure 3's screen, including the declarative labelling rule).
#ifndef DIADS_DB_RUN_RECORD_H_
#define DIADS_DB_RUN_RECORD_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "db/plan.h"

namespace diads::db {

/// Per-operator observations for one run.
struct OperatorRunStats {
  int op_index = -1;    ///< Index into the plan's ops().
  int op_number = 0;    ///< Paper label O<k>.
  SimTimeMs start = 0;  ///< tb: absolute start time of this operator.
  SimTimeMs stop = 0;   ///< te.
  double est_rows = 0;
  double actual_rows = 0;
  double physical_reads = 0;  ///< Pages fetched from the SAN.
  double buffer_hits = 0;
  double io_wait_ms = 0;      ///< Self time spent waiting on storage.
  double cpu_ms = 0;          ///< Self compute time.
  double lock_wait_ms = 0;

  /// Measured running time t(O) = stop - start (the span the paper's
  /// Module CO feeds to KDE).
  SimTimeMs span_ms() const { return stop - start; }
  /// Self work (used by Module IA's impact attribution).
  double self_ms() const { return io_wait_ms + cpu_ms + lock_wait_ms; }
};

/// One execution of a query plan.
struct QueryRunRecord {
  int run_id = -1;
  std::string query_name;
  std::shared_ptr<const Plan> plan;
  uint64_t plan_fingerprint = 0;
  TimeInterval interval;  ///< Plan start/stop times.
  std::vector<OperatorRunStats> operators;

  SimTimeMs duration_ms() const { return interval.duration(); }
  /// Operator stats by plan op index; nullptr if missing.
  const OperatorRunStats* FindOp(int op_index) const;
};

/// Label of a run (set by the administrator, Figure 3).
enum class RunLabel { kUnlabeled, kSatisfactory, kUnsatisfactory };

const char* RunLabelName(RunLabel label);

/// The run history with labels — DIADS's primary input.
///
/// The catalog also keeps each query's labelled window (LabelledWindow),
/// the span every diagnosis of the query analyses, so that reading it is
/// one hash lookup however long the history grows. It is maintained as
/// runs are labelled: AddRun adds an unlabelled run and leaves every
/// window alone, and each labelling call rebuilds only its own query's
/// window, in the pass that relabels that query's runs.
class RunCatalog {
 public:
  /// Adds an unlabelled run; assigns and returns its run_id.
  int AddRun(QueryRunRecord record);

  Status SetLabel(int run_id, RunLabel label);

  /// Declarative rule (Figure 3): runs with duration > threshold are
  /// unsatisfactory, the rest satisfactory. Applies to all runs of `query`.
  Status LabelByDurationThreshold(const std::string& query,
                                  SimTimeMs threshold_ms);

  /// Declarative rule: runs starting within `window` get `label`.
  Status LabelByTimeWindow(const std::string& query, const TimeInterval& window,
                           RunLabel label);

  const std::vector<QueryRunRecord>& runs() const { return runs_; }
  Result<const QueryRunRecord*> FindRun(int run_id) const;
  RunLabel LabelOf(int run_id) const;

  /// Runs of `query` carrying the given label, in time order.
  std::vector<const QueryRunRecord*> RunsWithLabel(const std::string& query,
                                                   RunLabel label) const;

  /// The earliest start to the latest end over `query`'s labelled runs
  /// (satisfactory or unsatisfactory); {0, 0} when none is labelled.
  /// Maintained, not scanned (see the class comment).
  TimeInterval LabelledWindow(const std::string& query) const;

  size_t size() const { return runs_.size(); }

 private:
  /// Sets the label of every run of `query` to new_label(run index, old
  /// label) and rebuilds the query's labelled window in the same pass.
  template <typename NewLabel>
  void Relabel(const std::string& query, NewLabel new_label);

  std::vector<QueryRunRecord> runs_;
  std::vector<RunLabel> labels_;
  /// LabelledWindow of each query with a labelled run.
  std::unordered_map<std::string, TimeInterval> windows_;
};

}  // namespace diads::db

#endif  // DIADS_DB_RUN_RECORD_H_
