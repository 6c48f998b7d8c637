#include "db/optimizer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/strings.h"

namespace diads::db {
namespace {

constexpr ParamRow<DbParams> kParamTable[] = {
    {"seq_page_cost", &DbParams::seq_page_cost},
    {"random_page_cost", &DbParams::random_page_cost},
    {"cpu_tuple_cost", &DbParams::cpu_tuple_cost},
    {"cpu_index_tuple_cost", &DbParams::cpu_index_tuple_cost},
    {"cpu_operator_cost", &DbParams::cpu_operator_cost},
    {"work_mem_mb", &DbParams::work_mem_mb},
    {"buffer_pool_mb", &DbParams::buffer_pool_mb},
    {"effective_cache_mb", &DbParams::effective_cache_mb},
};

/// Hash join: HashJoin(outer, Hash(inner)).
PlanNodePtr HashJoin(const DbParams& p, const PlanNodePtr& outer,
                     const PlanNodePtr& inner, std::string detail,
                     double out_rows) {
  auto hash = MakeUnaryNode(OpType::kHash, inner,
                            StrFormat("build %s", inner->alias.c_str()));
  double build_cost = inner->rows * p.cpu_operator_cost * 1.5;
  // Multi-batch penalty when the build side exceeds work_mem.
  const double build_mb = inner->rows * inner->width / (1024.0 * 1024.0);
  double spill_pages = 0;
  if (build_mb > p.work_mem_mb) {
    spill_pages = 2.0 * build_mb * 1024.0 * 1024.0 / kPageSizeBytes;
    build_cost += spill_pages * p.seq_page_cost;
  }
  hash->cost = inner->cost + build_cost;
  hash->pages = spill_pages;

  auto join = MakeJoinNode(OpType::kHashJoin, outer, hash, std::move(detail),
                           out_rows);
  join->cost = outer->cost + hash->cost +
               outer->rows * p.cpu_operator_cost +
               out_rows * p.cpu_tuple_cost;
  return join;
}

/// Nested loop with an index probe on the inner table's join column.
Result<PlanNodePtr> IndexNestLoop(const CostModel& model, const DbParams& p,
                                  const JoinStep& step) {
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
      std::max(0.1, stats.row_count * inner_ref.filter_selectivity / ndv);
  const double probes = std::max(1.0, step.outer->rows);

  // Per-probe: descend the B-tree, then fetch matching heap rows. Repeated
  // probes hit cached upper levels; charge a fraction of the root-to-leaf
  // descent plus clustered heap fetches.
  const double pages_per_probe =
      0.5 * index->height +
      matches_per_probe * (index->clustering * 0.15 +
                           (1.0 - index->clustering) * 1.0);
  const double cost_per_probe =
      pages_per_probe * p.random_page_cost +
      matches_per_probe * (p.cpu_index_tuple_cost + p.cpu_tuple_cost);

  auto inner = std::make_shared<PlanNode>();
  inner->type = OpType::kIndexScan;
  inner->alias = inner_ref.alias;
  inner->table = inner_ref.table;
  inner->index_name = index->name;
  inner->rows = probes * matches_per_probe * inner_ref.filter_selectivity;
  inner->pages = probes * pages_per_probe;
  inner->cost = probes * cost_per_probe;
  inner->width = stats.row_width_bytes;
  inner->detail = StrFormat("%s = outer, ~%.1f rows/probe",
                            inner_join_column.c_str(), matches_per_probe);

  auto join = MakeJoinNode(OpType::kNestLoopJoin, step.outer, inner,
                           step.detail(), step.rows);
  join->cost = step.outer->cost + inner->cost + step.rows * p.cpu_tuple_cost;
  return PlanNodePtr(join);
}

/// Naive nested loop over a materialized inner (fallback when nothing
/// better exists; rarely wins on cost).
PlanNodePtr MaterializedNestLoop(const DbParams& p, const JoinStep& step) {
  const PlanNodePtr& outer = step.outer;
  const PlanNodePtr& inner = step.inner_scan;
  auto mat = MakeUnaryNode(OpType::kMaterialize, inner);
  mat->cost = inner->cost + inner->rows * p.cpu_operator_cost;

  auto join = MakeJoinNode(OpType::kNestLoopJoin, outer, mat, step.detail(),
                           step.rows);
  join->cost = outer->cost + mat->cost +
               outer->rows * inner->rows * p.cpu_operator_cost +
               step.rows * p.cpu_tuple_cost;
  return join;
}

}  // namespace

Status SetParamByName(DbParams* params, const std::string& name,
                      double value) {
  return SetParamInTable(kParamTable, params, name, value);
}

Result<double> GetParamByName(const DbParams& params, const std::string& name) {
  return GetParamInTable(kParamTable, params, name);
}

std::vector<std::string> DbParamNames() { return ParamTableNames(kParamTable); }

PostgresCostModel::PostgresCostModel(const Catalog* catalog,
                                     const DbParams& params)
    : CostModel(catalog, ""), params_(params) {}

Result<PlanNodePtr> PostgresCostModel::ScanPath(const QuerySpec& /*block*/,
                                                const TableRef& ref) const {
  Result<const TableDef*> table_r = catalog().FindTable(ref.table);
  DIADS_RETURN_IF_ERROR(table_r.status());
  const TableDef& table = **table_r;
  const TableStats& stats = table.optimizer_stats;
  const DbParams& p = params_;

  const double out_rows =
      std::max(1.0, stats.row_count * ref.filter_selectivity);

  auto seq = std::make_shared<PlanNode>();
  seq->type = OpType::kSeqScan;
  seq->alias = ref.alias;
  seq->table = ref.table;
  seq->rows = out_rows;
  seq->pages = std::max(1.0, stats.pages());
  seq->cost = seq->pages * p.seq_page_cost +
              stats.row_count * p.cpu_tuple_cost;
  seq->width = stats.row_width_bytes;
  if (ref.filter_selectivity < 1.0) {
    seq->detail = StrFormat("filter on %s, sel=%.4f",
                            ref.filter_column.empty()
                                ? "<non-indexed predicate>"
                                : ref.filter_column.c_str(),
                            ref.filter_selectivity);
  }

  PlanNodePtr best = seq;
  if (!ref.filter_column.empty()) {
    for (const IndexDef* index : catalog().IndexesOn(ref.table,
                                                     ref.filter_column)) {
      const double sel = ref.filter_selectivity;
      const double index_pages = index->height + sel * index->leaf_pages;
      // Heap fetches: clustered index ranges touch few pages; unclustered
      // ones pay a random page per row (capped by the table size).
      const double heap_pages =
          std::min(stats.pages(),
                   sel * stats.row_count *
                       (index->clustering * 0.1 + (1.0 - index->clustering)));
      auto idx = std::make_shared<PlanNode>();
      idx->type = OpType::kIndexScan;
      idx->alias = ref.alias;
      idx->table = ref.table;
      idx->index_name = index->name;
      idx->rows = out_rows;
      idx->pages = index_pages + heap_pages;
      idx->cost = (index_pages + heap_pages) * p.random_page_cost +
                  sel * stats.row_count * p.cpu_index_tuple_cost +
                  out_rows * p.cpu_tuple_cost;
      idx->width = stats.row_width_bytes;
      idx->detail = StrFormat("%s = ?, sel=%.4f", ref.filter_column.c_str(),
                              sel);
      if (idx->cost < best->cost) best = idx;
    }
  }
  return best;
}

PlanNodePtr PostgresCostModel::Join(const JoinStep& step) const {
  if (step.pred == nullptr) return MaterializedNestLoop(params_, step);
  PlanNodePtr best = HashJoin(params_, step.outer, step.inner_scan,
                              step.detail(), step.rows);
  Result<PlanNodePtr> inl = IndexNestLoop(*this, params_, step);
  if (inl.ok() && (*inl)->cost < best->cost) best = *inl;
  PlanNodePtr mnl = MaterializedNestLoop(params_, step);
  if (mnl->cost < best->cost) best = mnl;
  return best;
}

void PostgresCostModel::CostAggregate(const PlanNode& input,
                                      PlanNode* agg) const {
  agg->cost = input.cost + input.rows * params_.cpu_operator_cost +
              agg->rows * params_.cpu_tuple_cost;
}

PlanNodePtr PostgresCostModel::SubqueryJoin(const QuerySpec& spec,
                                            const PlanNodePtr& outer,
                                            const PlanNodePtr& sub,
                                            double rows) const {
  return HashJoin(params_, outer, sub, PredicateText(spec.subplan_join),
                  rows);
}

void PostgresCostModel::CostSort(const PlanNode& input, PlanNode* sort) const {
  const DbParams& p = params_;
  const double n = std::max(2.0, input.rows);
  double cost = 2.0 * n * std::log2(n) * p.cpu_operator_cost;
  const double bytes = input.rows * input.width;
  if (bytes > p.work_mem_mb * 1024 * 1024) {
    // External merge sort: write + read one full pass.
    sort->pages = 2.0 * bytes / kPageSizeBytes;
    cost += sort->pages * p.seq_page_cost;
  }
  sort->cost = input.cost + cost;
}

}  // namespace diads::db
