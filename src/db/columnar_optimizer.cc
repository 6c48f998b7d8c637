#include "db/columnar_optimizer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/strings.h"

namespace diads::db {
namespace {

constexpr ParamRow<ColumnarParams> kParamTable[] = {
    {"segment_read_cost", &ColumnarParams::segment_read_cost},
    {"compression_codec_cost", &ColumnarParams::compression_codec_cost},
    {"tuple_reconstruct_cost", &ColumnarParams::tuple_reconstruct_cost},
    {"vector_batch_rows", &ColumnarParams::vector_batch_rows},
    {"batch_dispatch_cost", &ColumnarParams::batch_dispatch_cost},
    {"zone_map_consult_cost", &ColumnarParams::zone_map_consult_cost},
    {"zone_map_refresh_threshold",
     &ColumnarParams::zone_map_refresh_threshold},
    {"buffer_pool_mb", &ColumnarParams::buffer_pool_mb},
};

/// Fraction of a table's pages a scan actually touches: only the columns
/// the query references are decompressed (Q2 projects a handful of the
/// TPC-H columns), so page math is scaled down uniformly.
constexpr double kColumnProjection = 0.35;

double Batches(const ColumnarParams& p, double rows) {
  return std::ceil(std::max(1.0, rows) / std::max(1.0, p.vector_batch_rows));
}

/// Columns of `alias` used in any join predicate — candidates for
/// semi-join zone pruning.
std::vector<std::string> JoinColumnsOf(const QuerySpec& spec,
                                       const std::string& alias) {
  std::vector<std::string> out;
  for (const JoinPredicate& j : spec.joins) {
    if (j.left_alias == alias) out.push_back(j.left_column);
    if (j.right_alias == alias) out.push_back(j.right_column);
  }
  return out;
}

/// Vectorized hash join, the engine's only join: a blocking hash build
/// over the newly joined side, probed in batches by the outer.
PlanNodePtr HashJoin(const ColumnarParams& p, const PlanNodePtr& outer,
                     const PlanNodePtr& inner, std::string detail,
                     double out_rows) {
  auto build = MakeUnaryNode(OpType::kHash, inner);
  build->engine_op = "hash build";
  build->cost = inner->cost + inner->rows * p.tuple_reconstruct_cost;

  auto join = MakeJoinNode(OpType::kHashJoin, outer, build, std::move(detail),
                           out_rows);
  join->engine_op = "vectorized hash join";
  join->cost = outer->cost + build->cost +
               Batches(p, outer->rows) * p.batch_dispatch_cost +
               outer->rows * 0.25 * p.tuple_reconstruct_cost +
               out_rows * p.tuple_reconstruct_cost;
  return join;
}

}  // namespace

Status SetColumnarParamByName(ColumnarParams* params, const std::string& name,
                              double value) {
  return SetParamInTable(kParamTable, params, name, value);
}

Result<double> GetColumnarParamByName(const ColumnarParams& params,
                                      const std::string& name) {
  return GetParamInTable(kParamTable, params, name);
}

std::vector<std::string> ColumnarParamNames() {
  return ParamTableNames(kParamTable);
}

ColumnarCostModel::ColumnarCostModel(const Catalog* catalog,
                                     const ColumnarParams& params)
    : CostModel(catalog, "limit"), params_(params) {}

/// Best access path for one table reference: a full vector scan vs a
/// zone-pruned scan through the best available zone map. Both paths are
/// decompression-dominated; pruning trades per-zone min/max consults for
/// skipped segments, and pays off in proportion to the column's physical
/// clustering.
Result<PlanNodePtr> ColumnarCostModel::ScanPath(const QuerySpec& block,
                                                const TableRef& ref) const {
  Result<const TableDef*> table_r = catalog().FindTable(ref.table);
  DIADS_RETURN_IF_ERROR(table_r.status());
  const TableDef& table = **table_r;
  const TableStats& stats = table.optimizer_stats;
  const ColumnarParams& p = params_;

  const double out_rows =
      std::max(1.0, stats.row_count * ref.filter_selectivity);
  const double zones = Batches(p, stats.row_count);
  const double full_pages = std::max(1.0, stats.pages() * kColumnProjection);

  auto full = std::make_shared<PlanNode>();
  full->type = OpType::kSeqScan;
  full->engine_op = "vector scan";
  full->alias = ref.alias;
  full->table = ref.table;
  full->rows = out_rows;
  full->pages = full_pages;
  full->cost = full_pages * p.segment_read_cost +
               stats.row_count * p.compression_codec_cost +
               zones * p.batch_dispatch_cost +
               out_rows * p.tuple_reconstruct_cost;
  full->width = stats.row_width_bytes * kColumnProjection;
  if (ref.filter_selectivity < 1.0) {
    full->detail = StrFormat("where %s, sel=%.4f",
                             ref.filter_column.empty()
                                 ? "<non-indexed predicate>"
                                 : ref.filter_column.c_str(),
                             ref.filter_selectivity);
  }

  // Zone-pruned candidates: (zone map, surviving segment fraction, why).
  struct PruneOption {
    const IndexDef* zone_map;
    double fraction;
    std::string why;
  };
  std::vector<PruneOption> options;
  if (!ref.filter_column.empty()) {
    for (const IndexDef* zm : catalog().IndexesOn(ref.table,
                                                  ref.filter_column)) {
      // A predicate gives explicit value bounds, so zone min/max pruning
      // approaches the selectivity on a well-clustered column and decays
      // to nothing on a shuffled one.
      const double fraction = std::max(
          0.05, 1.0 - zm->clustering * (1.0 - ref.filter_selectivity));
      options.push_back({zm, fraction,
                         StrFormat("%s zones", ref.filter_column.c_str())});
    }
  }
  for (const std::string& column : JoinColumnsOf(block, ref.alias)) {
    for (const IndexDef* zm : catalog().IndexesOn(ref.table, column)) {
      // Semi-join pushdown. Unique-key zone maps never prune: the key
      // values spread across every segment, so each zone's min/max spans
      // the whole domain.
      if (zm->unique) continue;
      const double fraction = std::max(0.05, 1.0 - zm->clustering);
      options.push_back(
          {zm, fraction, StrFormat("%s join zones", column.c_str())});
    }
  }

  PlanNodePtr best = full;
  for (const PruneOption& option : options) {
    const double scanned_rows = option.fraction * stats.row_count;
    auto pruned = std::make_shared<PlanNode>();
    pruned->type = OpType::kIndexScan;
    pruned->engine_op = "zone-pruned scan";
    pruned->alias = ref.alias;
    pruned->table = ref.table;
    pruned->index_name = option.zone_map->name;
    pruned->rows = out_rows;
    pruned->pages =
        std::max(1.0, option.fraction * stats.pages() * kColumnProjection);
    pruned->cost = zones * p.zone_map_consult_cost +
                   pruned->pages * p.segment_read_cost +
                   scanned_rows * p.compression_codec_cost +
                   Batches(p, scanned_rows) * p.batch_dispatch_cost +
                   out_rows * p.tuple_reconstruct_cost;
    pruned->width = stats.row_width_bytes * kColumnProjection;
    pruned->detail = StrFormat("%s prune to ~%.0f%% of segments",
                               option.why.c_str(), option.fraction * 100.0);
    if (pruned->cost < best->cost) best = pruned;
  }
  return best;
}

PlanNodePtr ColumnarCostModel::Join(const JoinStep& step) const {
  return HashJoin(params_, step.outer, step.inner_scan, step.detail(),
                  step.rows);
}

void ColumnarCostModel::CostAggregate(const PlanNode& input,
                                      PlanNode* agg) const {
  const ColumnarParams& p = params_;
  agg->engine_op = "vectorized hash agg";
  agg->cost = input.cost +
              Batches(p, input.rows) * p.batch_dispatch_cost +
              input.rows * 0.5 * p.tuple_reconstruct_cost +
              agg->rows * p.tuple_reconstruct_cost;
}

PlanNodePtr ColumnarCostModel::SubqueryJoin(const QuerySpec& spec,
                                            const PlanNodePtr& outer,
                                            const PlanNodePtr& sub,
                                            double rows) const {
  // Late materialization of the decorrelated block: the subquery's
  // result is buffered as a column block and hash-joined back into the
  // main block — there is no per-row probing machinery to do anything
  // else with it.
  auto mat = MakeUnaryNode(OpType::kMaterialize, sub, "column block buffer");
  mat->engine_op = "late materialize";
  mat->cost = sub->cost + sub->rows * 0.5 * params_.tuple_reconstruct_cost;
  return HashJoin(params_, outer, mat, PredicateText(spec.subplan_join),
                  rows);
}

void ColumnarCostModel::CostSort(const PlanNode& input, PlanNode* sort) const {
  sort->engine_op = "vectorized merge sort";
  const double n = std::max(2.0, input.rows);
  sort->cost =
      input.cost + n * std::log2(n) * 0.5 * params_.tuple_reconstruct_cost;
}

}  // namespace diads::db
