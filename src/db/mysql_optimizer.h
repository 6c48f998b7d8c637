// MySQL-ish cost model.
//
// The second synthetic engine's planner, deliberately different from the
// PostgreSQL-ish one along the axes real MySQL differs:
//
//   * One I/O cost. MySQL's cost model charges io_block_read_cost for any
//     page fetch — there is no random_page_cost / seq_page_cost split, so
//     index access paths are never penalised for random access. Combined
//     with the join strategy below this produces the engine's famous
//     index-nested-loop bias.
//
//   * Nested-loop joins only. No hash join, no merge join: every join is
//     an index nested loop ("ref" / "eq_ref" access on the inner table)
//     or, when no usable index exists, a block nested loop over a
//     join-buffer-materialised inner ("BNL").
//
//   * Subquery materialisation. The decorrelated aggregate block is
//     materialised into a temp table and joined back through an
//     auto-generated key ("ref<auto_key0>") — MySQL 8's derived-table
//     strategy — instead of PostgreSQL's hash join over the subquery.
//
//   * filesort / tmp-table aggregation for ORDER BY and GROUP BY.
//
// Plans come out in the shared db::Plan operator taxonomy (that is the
// point — the APG layers never see engine vocabulary), with each node's
// engine-native access-type name recorded in PlanOp::engine_op. The
// left-deep join enumeration is shared by every engine
// (db/join_planner.h).
#ifndef DIADS_DB_MYSQL_OPTIMIZER_H_
#define DIADS_DB_MYSQL_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/join_planner.h"
#include "db/query.h"

namespace diads::db {

/// MySQL-flavoured optimizer/executor parameters (the Server Cost and
/// session-buffer subset the plan-change analysis cares about). Note the
/// single `io_block_read_cost` where DbParams has seq/random page costs.
struct MysqlParams {
  double io_block_read_cost = 1.0;      ///< Any page read, any pattern.
  double memory_block_read_cost = 0.25; ///< Buffer-pool-resident page.
  double row_evaluate_cost = 0.1;       ///< Per row examined.
  double key_compare_cost = 0.05;       ///< Per index key compared.
  double join_buffer_mb = 0.25;         ///< join_buffer_size (BNL chunking).
  double sort_buffer_mb = 8.0;          ///< filesort spill threshold.
  double tmp_table_mb = 32.0;           ///< Materialisation spill threshold.
  double buffer_pool_mb = 512.0;        ///< innodb_buffer_pool_size.
  /// Executor translation: milliseconds of CPU per optimizer cost unit.
  /// MySQL cost units are ~10x PostgreSQL's (row_evaluate_cost 0.1 vs
  /// cpu_tuple_cost 0.01), so the unit is a tenth of the PostgreSQL one —
  /// both engines execute the same physical work in comparable time.
  double cpu_ms_per_cost_unit = 0.006;
};

/// Parameter vocabulary for kDbParamChanged events ("io_block_read_cost",
/// ...). InvalidArgument for unknown names — including PostgreSQL-only
/// names like "random_page_cost", which do not exist on this engine.
Status SetMysqlParamByName(MysqlParams* params, const std::string& name,
                           double value);
Result<double> GetMysqlParamByName(const MysqlParams& params,
                                   const std::string& name);
/// Every name the two calls accept, in a stable order.
std::vector<std::string> MysqlParamNames();

/// The MySQL-ish cost model. Deterministic; plan with PlanQuery.
class MysqlCostModel : public CostModel {
 public:
  /// `catalog` must outlive the model.
  MysqlCostModel(const Catalog* catalog, const MysqlParams& params);

  Result<PlanNodePtr> ScanPath(const QuerySpec& block,
                               const TableRef& ref) const override;
  PlanNodePtr Join(const JoinStep& step) const override;
  void CostAggregate(const PlanNode& input, PlanNode* agg) const override;
  PlanNodePtr SubqueryJoin(const QuerySpec& spec, const PlanNodePtr& outer,
                           const PlanNodePtr& sub, double rows) const override;
  void CostSort(const PlanNode& input, PlanNode* sort) const override;

 private:
  MysqlParams params_;
};

}  // namespace diads::db

#endif  // DIADS_DB_MYSQL_OPTIMIZER_H_
