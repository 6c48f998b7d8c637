// The join-enumeration core every engine's optimizer shares.
//
// A System-R-style planner: per-table access-path selection, left-deep
// dynamic-programming (DP) join enumeration, and blocks (the decorrelated
// subquery is planned on its own, aggregated, and joined into the main
// block). Module PD diagnoses a plan change by re-optimizing under the
// state before each schema or configuration event (Section 4.1), so every
// backend's optimizer sits on the diagnosis path.
//
// An engine is one CostModel. It supplies only:
//   * ScanPath      — a table's best access path;
//   * Join          — the cheapest way to join one more base table onto a
//                     left-deep prefix, or to take a cartesian product;
//   * CostAggregate — what a group-by costs;
//   * SubqueryJoin  — how the subquery block joins back into the main one;
//   * CostSort      — what the final ORDER BY costs.
// PlanQuery owns the rest: the predicate search, the join and group-by
// cardinality estimates, the DP, the limit and result nodes, and
// flattening the node tree into a Plan.
//
// Plans are bit-identical to the three per-engine planners this core
// replaced, estimates included (tests/golden_plan_digests.txt), because
// of three rules:
//   1. Each cost expression keeps its operand order. Nothing is factored
//      or reassociated: floating-point addition is not associative.
//   2. The DP visits subsets in increasing numeric order within each
//      subset size. It allows a cartesian extension only when no remaining
//      table connects to the subset, and it replaces a subset's plan only
//      when the new cost is strictly lower, so ties go to the first plan
//      found.
//   3. A join reuses the inner table's singleton access path.
//
// Known gap. The DP keeps one plan per subset of tables, which finds the
// cheapest left-deep order only if every order that reaches a subset
// gives it the same row estimate. The max(1, ...) floor in JoinOutputRows
// breaks that when a table is smaller than its join key's NDV. With
// nation shrunk to 1.25 rows against 25 n_nationkey values,
// supplier-nation-region estimates 100 rows but nation-region-supplier
// 400, and the DP can settle on a prefix whose cheaper cost hides a
// costlier subset. db_optimizer_test walks every left-deep order through
// each engine's hooks: wherever subset estimates agree, the DP cost equals
// the brute-force minimum bit for bit; where they do not, the DP can
// exceed it (by up to 3.9x on that sweep). Closing the gap changes plans,
// so it needs a deliberate regeneration of every golden table.
#ifndef DIADS_DB_JOIN_PLANNER_H_
#define DIADS_DB_JOIN_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/plan.h"
#include "db/query.h"

namespace diads::db {

/// A plan-tree node under construction; PlanQuery flattens the finished
/// tree into a Plan. Shared pointers let DP states share subtrees cheaply.
struct PlanNode {
  OpType type = OpType::kSeqScan;
  std::vector<std::shared_ptr<const PlanNode>> children;
  std::string alias;
  std::string table;
  std::string index_name;
  std::string detail;
  std::string engine_op;  ///< PlanOp::engine_op; empty where none.
  double rows = 0;
  double cost = 0;    ///< Cumulative.
  double pages = 0;   ///< Page fetches attributable to this op itself.
  double width = 64;  ///< Bytes per output row (for memory estimates).
};

using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// A node over `input` that passes its rows and width through.
std::shared_ptr<PlanNode> MakeUnaryNode(OpType type, const PlanNodePtr& input,
                                        std::string detail = std::string());

/// A join of `outer` and `inner` yielding `rows` rows as wide as both.
std::shared_ptr<PlanNode> MakeJoinNode(OpType type, const PlanNodePtr& outer,
                                       const PlanNodePtr& inner,
                                       std::string detail, double rows);

/// "l.col = r.col", the detail text of a join on `pred`.
std::string PredicateText(const JoinPredicate& pred);

/// One left-deep extension: base table `inner` joins the tables under
/// `outer`.
struct JoinStep {
  const QuerySpec& block;
  const PlanNodePtr& outer;
  const TableRef& inner;
  const PlanNodePtr& inner_scan;  ///< `inner`'s best access path.
  const JoinPredicate* pred;      ///< nullptr: a cartesian product.
  bool inner_is_left;             ///< `inner` is pred->left_alias.
  double rows;  ///< Output estimate; every join method yields the same.

  /// `inner`'s column in `pred`.
  const std::string& inner_column() const {
    return inner_is_left ? pred->left_column : pred->right_column;
  }
  /// PredicateText(*pred), or "cartesian".
  std::string detail() const {
    return pred != nullptr ? PredicateText(*pred) : "cartesian";
  }
};

/// An engine's cost model: everything PlanQuery cannot know about it.
class CostModel {
 public:
  /// `catalog` must outlive the model. `limit_engine_op` is the engine's
  /// name for LIMIT in PlanOp::engine_op ("" for none).
  CostModel(const Catalog* catalog, std::string limit_engine_op);
  virtual ~CostModel() = default;

  /// Best access path for `ref`, one of `block`'s tables.
  virtual Result<PlanNodePtr> ScanPath(const QuerySpec& block,
                                       const TableRef& ref) const = 0;

  /// The cheapest join method for `step`.
  virtual PlanNodePtr Join(const JoinStep& step) const = 0;

  /// Sets `agg`'s cumulative cost, and pages and engine_op where the
  /// engine has them. `agg` groups `input`; its rows, width and detail are
  /// already set.
  virtual void CostAggregate(const PlanNode& input, PlanNode* agg) const = 0;

  /// Joins `sub`, the planned subquery block, back into `outer`, the
  /// main block, on `spec.subplan_join`, yielding `rows` rows.
  virtual PlanNodePtr SubqueryJoin(const QuerySpec& spec,
                                   const PlanNodePtr& outer,
                                   const PlanNodePtr& sub,
                                   double rows) const = 0;

  /// Sets `sort`'s cumulative cost, and pages and engine_op where the
  /// engine has them. `sort` orders `input`; its rows, width and detail
  /// are already set.
  virtual void CostSort(const PlanNode& input, PlanNode* sort) const = 0;

  const Catalog& catalog() const { return *catalog_; }
  const std::string& limit_engine_op() const { return limit_engine_op_; }

  /// Distinct values of `alias`.`column` in `block` per the catalog (at
  /// least 1; 1000 when the alias, table or column is unknown).
  double ColumnNdv(const QuerySpec& block, const std::string& alias,
                   const std::string& column) const;

 private:
  const Catalog* catalog_;
  std::string limit_engine_op_;
};

/// The first of `block.joins` that joins table `inner` (an index into
/// `block.tables`) to one of the tables in the bitmask `joined`, with
/// `*inner_is_left` set to whether `inner` is its left side; nullptr when
/// none does.
const JoinPredicate* FindJoinPredicate(const QuerySpec& block,
                                       uint32_t joined, size_t inner,
                                       bool* inner_is_left);

/// Join cardinality: outer x inner rows over the larger join-column NDV,
/// floored at 1.
double JoinOutputRows(const CostModel& model, const QuerySpec& block,
                      double outer_rows, double inner_rows,
                      const JoinPredicate& pred);

/// Plans `spec` with `model`: each block (at most 16 tables) by left-deep
/// DP plus its group-by, then the subquery join, sort, limit and result.
/// Deterministic.
Result<Plan> PlanQuery(const CostModel& model, const QuerySpec& spec);

// --- Parameter tables ---------------------------------------------------------

/// One row of an engine's parameter table: a name usable with
/// kDbParamChanged events and the member it reads and writes. An engine
/// keeps one table; its Set/Get…ParamByName and its backend's ParamNames()
/// all read it.
template <typename Params>
struct ParamRow {
  const char* name;
  double Params::*member;
};

/// Sets the named parameter; InvalidArgument for a name not in `table`.
template <typename Params, size_t N>
Status SetParamInTable(const ParamRow<Params> (&table)[N], Params* params,
                       const std::string& name, double value) {
  for (const ParamRow<Params>& row : table) {
    if (name == row.name) {
      params->*row.member = value;
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown parameter: " + name);
}

template <typename Params, size_t N>
Result<double> GetParamInTable(const ParamRow<Params> (&table)[N],
                               const Params& params, const std::string& name) {
  for (const ParamRow<Params>& row : table) {
    if (name == row.name) return params.*row.member;
  }
  return Status::InvalidArgument("unknown parameter: " + name);
}

/// The table's names, in its order.
template <typename Params, size_t N>
std::vector<std::string> ParamTableNames(const ParamRow<Params> (&table)[N]) {
  std::vector<std::string> names;
  for (const ParamRow<Params>& row : table) names.emplace_back(row.name);
  return names;
}

}  // namespace diads::db

#endif  // DIADS_DB_JOIN_PLANNER_H_
