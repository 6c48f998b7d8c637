// PostgreSQL-ish cost model.
//
// The original engine's planner, in the PostgreSQL tradition: per-table
// access-path selection (sequential vs. index scan), and hash,
// index-nested-loop and materialized-nested-loop join methods. The
// decorrelated subquery block is hash-joined into the main block. The
// left-deep join enumeration it plans through is shared by every engine
// (db/join_planner.h).
//
// Why the reproduction needs a real optimizer: Module PD diagnoses *plan
// changes* by checking, for every schema/configuration event between a good
// and a bad run, "whether this change could have caused the plan change"
// (Section 4.1) — which DIADS answers by re-optimizing under the
// hypothetical pre-change state. Index drops, ANALYZE-refreshed statistics,
// and cost-parameter changes (random_page_cost, work_mem) must therefore
// actually flip plans here, the same way reference [18]'s storage-cost-model
// sensitivity results say they do.
#ifndef DIADS_DB_OPTIMIZER_H_
#define DIADS_DB_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/join_planner.h"
#include "db/query.h"

namespace diads::db {

/// Optimizer / executor configuration parameters (the PostgreSQL GUC subset
/// the paper's plan-change analysis cares about).
struct DbParams {
  double seq_page_cost = 1.0;
  double random_page_cost = 4.0;
  double cpu_tuple_cost = 0.01;
  double cpu_index_tuple_cost = 0.005;
  double cpu_operator_cost = 0.0025;
  double work_mem_mb = 16.0;
  double buffer_pool_mb = 512.0;
  double effective_cache_mb = 1024.0;
  /// Executor translation: milliseconds of CPU per optimizer cost unit of
  /// CPU-type cost (calibrates simulated compute speed).
  double cpu_ms_per_cost_unit = 0.06;
};

/// Names usable with kDbParamChanged events, e.g. "random_page_cost".
/// Applies `value` to the named parameter; InvalidArgument for unknown names.
Status SetParamByName(DbParams* params, const std::string& name, double value);
Result<double> GetParamByName(const DbParams& params, const std::string& name);
/// Every name the two calls accept, in a stable order.
std::vector<std::string> DbParamNames();

/// The PostgreSQL-ish cost model. Deterministic; plan with PlanQuery.
class PostgresCostModel : public CostModel {
 public:
  /// `catalog` must outlive the model.
  PostgresCostModel(const Catalog* catalog, const DbParams& params);

  Result<PlanNodePtr> ScanPath(const QuerySpec& block,
                               const TableRef& ref) const override;
  PlanNodePtr Join(const JoinStep& step) const override;
  void CostAggregate(const PlanNode& input, PlanNode* agg) const override;
  PlanNodePtr SubqueryJoin(const QuerySpec& spec, const PlanNodePtr& outer,
                           const PlanNodePtr& sub, double rows) const override;
  void CostSort(const PlanNode& input, PlanNode* sort) const override;

 private:
  DbParams params_;
};

}  // namespace diads::db

#endif  // DIADS_DB_OPTIMIZER_H_
