#include "db/mysql_optimizer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/strings.h"

namespace diads::db {
namespace {

constexpr ParamRow<MysqlParams> kParamTable[] = {
    {"io_block_read_cost", &MysqlParams::io_block_read_cost},
    {"memory_block_read_cost", &MysqlParams::memory_block_read_cost},
    {"row_evaluate_cost", &MysqlParams::row_evaluate_cost},
    {"key_compare_cost", &MysqlParams::key_compare_cost},
    {"join_buffer_mb", &MysqlParams::join_buffer_mb},
    {"sort_buffer_mb", &MysqlParams::sort_buffer_mb},
    {"tmp_table_mb", &MysqlParams::tmp_table_mb},
    {"buffer_pool_mb", &MysqlParams::buffer_pool_mb},
};

/// Index nested loop: the engine's preferred join. "eq_ref" when the inner
/// index is unique (at most one row per probe), "ref" otherwise.
Result<PlanNodePtr> IndexNestLoop(const CostModel& model,
                                  const MysqlParams& p, const JoinStep& step) {
  const TableRef& inner_ref = step.inner;
  const std::string& inner_join_column = step.inner_column();
  std::vector<const IndexDef*> indexes =
      model.catalog().IndexesOn(inner_ref.table, inner_join_column);
  if (indexes.empty()) {
    return Status::NotFound("no index on " + inner_ref.table + "." +
                            inner_join_column);
  }
  const IndexDef* index = indexes.front();
  Result<const TableDef*> table_r = model.catalog().FindTable(inner_ref.table);
  DIADS_RETURN_IF_ERROR(table_r.status());
  const TableStats& stats = (*table_r)->optimizer_stats;

  const double ndv =
      model.ColumnNdv(step.block, inner_ref.alias, inner_join_column);
  const double matches_per_probe =
      index->unique
          ? std::min(1.0, stats.row_count * inner_ref.filter_selectivity /
                              std::max(1.0, ndv))
          : std::max(0.1, stats.row_count * inner_ref.filter_selectivity /
                              std::max(1.0, ndv));
  const double probes = std::max(1.0, step.outer->rows);

  // Per probe: a partially cached B-tree descent plus heap fetches, all at
  // the flat io_block_read_cost.
  const double pages_per_probe =
      0.5 * index->height +
      matches_per_probe * (index->clustering * 0.15 +
                           (1.0 - index->clustering) * 1.0);
  const double cost_per_probe =
      pages_per_probe * p.io_block_read_cost +
      index->height * p.key_compare_cost +
      matches_per_probe * p.row_evaluate_cost;

  auto inner = std::make_shared<PlanNode>();
  inner->type = OpType::kIndexScan;
  inner->engine_op = index->unique ? "eq_ref" : "ref";
  inner->alias = inner_ref.alias;
  inner->table = inner_ref.table;
  inner->index_name = index->name;
  // matches_per_probe already reflects the inner table's local filter.
  inner->rows = probes * matches_per_probe;
  inner->pages = probes * pages_per_probe;
  inner->cost = probes * cost_per_probe;
  inner->width = stats.row_width_bytes;
  inner->detail = StrFormat("%s = outer, ~%.1f rows/probe",
                            inner_join_column.c_str(), matches_per_probe);

  auto join = MakeJoinNode(OpType::kNestLoopJoin, step.outer, inner,
                           step.detail(), step.rows);
  join->engine_op = "nested loop";
  join->cost = step.outer->cost + inner->cost + step.rows * p.row_evaluate_cost;
  return PlanNodePtr(join);
}

/// Block nested loop: the no-usable-index fallback. The inner side is
/// rescanned once per join-buffer chunk of the outer, and every
/// (outer, inner) pair pays a row comparison — the quadratic CPU term that
/// makes BNL a last resort.
PlanNodePtr BlockNestLoop(const MysqlParams& p, const JoinStep& step) {
  const PlanNodePtr& outer = step.outer;
  const PlanNodePtr& inner = step.inner_scan;
  const double buffer_bytes = std::max(64.0 * 1024.0,
                                       p.join_buffer_mb * 1024.0 * 1024.0);
  const double chunks =
      std::max(1.0, std::ceil(outer->rows * outer->width / buffer_bytes));

  auto buffered = MakeUnaryNode(OpType::kMaterialize, inner,
                                StrFormat("%.0f chunk(s)", chunks));
  buffered->engine_op = "join buffer";
  // The rescans: the inner subtree's own cost counts once (in inner->cost);
  // every additional chunk re-reads the inner's pages.
  buffered->pages = (chunks - 1.0) * inner->pages;
  buffered->cost = inner->cost +
                   (chunks - 1.0) * inner->pages * p.io_block_read_cost +
                   inner->rows * p.row_evaluate_cost;

  auto join = MakeJoinNode(OpType::kNestLoopJoin, outer, buffered,
                           step.detail(), step.rows);
  join->engine_op = "BNL";
  join->cost = outer->cost + buffered->cost +
               outer->rows * inner->rows * p.row_evaluate_cost * 0.1 +
               step.rows * p.row_evaluate_cost;
  return join;
}

}  // namespace

Status SetMysqlParamByName(MysqlParams* params, const std::string& name,
                           double value) {
  return SetParamInTable(kParamTable, params, name, value);
}

Result<double> GetMysqlParamByName(const MysqlParams& params,
                                   const std::string& name) {
  return GetParamInTable(kParamTable, params, name);
}

std::vector<std::string> MysqlParamNames() {
  return ParamTableNames(kParamTable);
}

MysqlCostModel::MysqlCostModel(const Catalog* catalog,
                               const MysqlParams& params)
    : CostModel(catalog, "limit"), params_(params) {}

/// Best access path for one table reference: full table scan ("ALL") vs an
/// index range scan on the filter column. Both pay the same per-page
/// io_block_read_cost — the absence of a random-access penalty is the
/// engine's defining cost-model property.
Result<PlanNodePtr> MysqlCostModel::ScanPath(const QuerySpec& /*block*/,
                                             const TableRef& ref) const {
  Result<const TableDef*> table_r = catalog().FindTable(ref.table);
  DIADS_RETURN_IF_ERROR(table_r.status());
  const TableDef& table = **table_r;
  const TableStats& stats = table.optimizer_stats;
  const MysqlParams& p = params_;

  const double out_rows =
      std::max(1.0, stats.row_count * ref.filter_selectivity);

  auto all = std::make_shared<PlanNode>();
  all->type = OpType::kSeqScan;
  all->engine_op = "ALL";
  all->alias = ref.alias;
  all->table = ref.table;
  all->rows = out_rows;
  all->pages = std::max(1.0, stats.pages());
  all->cost = all->pages * p.io_block_read_cost +
              stats.row_count * p.row_evaluate_cost;
  all->width = stats.row_width_bytes;
  if (ref.filter_selectivity < 1.0) {
    all->detail = StrFormat("where %s, sel=%.4f",
                            ref.filter_column.empty()
                                ? "<non-indexed predicate>"
                                : ref.filter_column.c_str(),
                            ref.filter_selectivity);
  }

  PlanNodePtr best = all;
  if (!ref.filter_column.empty()) {
    for (const IndexDef* index : catalog().IndexesOn(ref.table,
                                                     ref.filter_column)) {
      const double sel = ref.filter_selectivity;
      const double index_pages = index->height + sel * index->leaf_pages;
      const double heap_pages =
          std::min(stats.pages(),
                   sel * stats.row_count *
                       (index->clustering * 0.1 + (1.0 - index->clustering)));
      auto range = std::make_shared<PlanNode>();
      range->type = OpType::kIndexScan;
      range->engine_op = "range";
      range->alias = ref.alias;
      range->table = ref.table;
      range->index_name = index->name;
      range->rows = out_rows;
      range->pages = index_pages + heap_pages;
      range->cost = (index_pages + heap_pages) * p.io_block_read_cost +
                    sel * stats.row_count * p.key_compare_cost +
                    out_rows * p.row_evaluate_cost;
      range->width = stats.row_width_bytes;
      range->detail = StrFormat("%s = ?, sel=%.4f", ref.filter_column.c_str(),
                                sel);
      if (range->cost < best->cost) best = range;
    }
  }
  return best;
}

PlanNodePtr MysqlCostModel::Join(const JoinStep& step) const {
  // Block nested loop is always available...
  PlanNodePtr best = BlockNestLoop(params_, step);
  if (step.pred == nullptr) return best;
  // ...but an index on the inner join column beats it essentially always
  // (the index-nested-loop bias).
  Result<PlanNodePtr> inl = IndexNestLoop(*this, params_, step);
  if (inl.ok() && (*inl)->cost < best->cost) best = *inl;
  return best;
}

void MysqlCostModel::CostAggregate(const PlanNode& input,
                                   PlanNode* agg) const {
  const MysqlParams& p = params_;
  agg->engine_op = "tmp table";
  double cost = input.rows * p.row_evaluate_cost +
                agg->rows * p.row_evaluate_cost;
  const double bytes = agg->rows * agg->width;
  if (bytes > p.tmp_table_mb * 1024 * 1024) {
    agg->pages = 2.0 * bytes / kPageSizeBytes;
    cost += agg->pages * p.io_block_read_cost;
  }
  agg->cost = input.cost + cost;
}

PlanNodePtr MysqlCostModel::SubqueryJoin(const QuerySpec& spec,
                                         const PlanNodePtr& outer,
                                         const PlanNodePtr& sub,
                                         double rows) const {
  // Derived-table materialisation with an auto-generated lookup key: the
  // subquery block is evaluated once into a temp table, and the main
  // block probes it per row through auto_key0.
  const MysqlParams& p = params_;
  auto mat =
      MakeUnaryNode(OpType::kMaterialize, sub, "temp table with auto_key0");
  mat->engine_op = "materialize derived";
  double mat_cost = sub->rows * p.row_evaluate_cost;
  const double bytes = mat->rows * mat->width;
  if (bytes > p.tmp_table_mb * 1024 * 1024) {
    mat->pages = 2.0 * bytes / kPageSizeBytes;
    mat_cost += mat->pages * p.io_block_read_cost;
  }
  mat->cost = sub->cost + mat_cost;

  auto join = MakeJoinNode(OpType::kNestLoopJoin, outer, mat,
                           PredicateText(spec.subplan_join), rows);
  join->engine_op = "ref<auto_key0>";
  join->cost = outer->cost + mat->cost +
               outer->rows * (p.key_compare_cost * 2 + p.row_evaluate_cost) +
               rows * p.row_evaluate_cost;
  return join;
}

void MysqlCostModel::CostSort(const PlanNode& input, PlanNode* sort) const {
  const MysqlParams& p = params_;
  sort->engine_op = "filesort";
  const double n = std::max(2.0, input.rows);
  double cost = n * std::log2(n) * p.key_compare_cost;
  const double bytes = input.rows * input.width;
  if (bytes > p.sort_buffer_mb * 1024 * 1024) {
    // Merge passes over tmp files, charged at the flat I/O cost.
    sort->pages = 2.0 * bytes / kPageSizeBytes;
    cost += sort->pages * p.io_block_read_cost;
  }
  sort->cost = input.cost + cost;
}

}  // namespace diads::db
