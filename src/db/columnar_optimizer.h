// Column-store-ish cost model.
//
// The third synthetic engine's planner, deliberately different from both
// row-store planners along the axes real column stores differ:
//
//   * Vectorized scans whose cost is CPU-shaped, not I/O-shaped. Columns
//     are stored compressed in large segments; a scan decompresses batches
//     of vector_batch_rows values at a time, so its cost is dominated by
//     decompression (compression_codec_cost per value) and per-batch
//     dispatch, with segment I/O a comparatively small term — the inverse
//     of the row stores, where page fetches dominate.
//
//   * No secondary-index probes. The engine has no B-tree access path at
//     all: the only alternative to a full vector scan is a *zone-pruned*
//     scan, which consults per-segment min/max zone maps to skip segments
//     that cannot contain qualifying rows. Zone maps exist wherever the
//     row stores have an index (the catalog's IndexDef doubles as the
//     zone-map metadata for that column), and how well they prune is the
//     column's physical clustering: sorted columns prune to the
//     predicate's selectivity, shuffled columns prune almost nothing.
//     Pruning also fires on *join* columns (semi-join pushdown, the
//     "invisible join"), but never through unique-key zone maps — a key
//     column's values spread across every segment, so each zone's min/max
//     spans the whole domain.
//
//   * Hash joins only. Every join is a vectorized hash join (build on the
//     newly joined side); there is no nested-loop machinery because there
//     is nothing to probe per row.
//
//   * Late materialization. Scans emit compressed column vectors; full
//     rows are reconstructed (tuple_reconstruct_cost) only where an
//     operator needs them, and the decorrelated subquery is buffered as a
//     column block and hash-joined back.
//
// Plans come out in the shared db::Plan operator taxonomy — zone-pruned
// scans surface as kIndexScan with the zone map's IndexDef name (which is
// what makes plan fingerprints sensitive to pruning changes), full vector
// scans as kSeqScan — with each node's engine-native name in
// PlanOp::engine_op. The left-deep join enumeration is shared by every
// engine (db/join_planner.h).
#ifndef DIADS_DB_COLUMNAR_OPTIMIZER_H_
#define DIADS_DB_COLUMNAR_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/join_planner.h"
#include "db/query.h"

namespace diads::db {

/// Column-store-flavoured optimizer/executor parameters. Note the absence
/// of any page-cost split and of every row-store knob: this engine's
/// vocabulary is batches, codecs, and zone maps.
struct ColumnarParams {
  double segment_read_cost = 1.0;        ///< Per compressed segment page read.
  double compression_codec_cost = 0.004; ///< Per value decompressed.
  double tuple_reconstruct_cost = 0.02;  ///< Per row materialised.
  double vector_batch_rows = 4096.0;     ///< Values per vectorized batch.
  double batch_dispatch_cost = 0.35;     ///< Per batch handed downstream.
  double zone_map_consult_cost = 0.6;    ///< Per zone min/max consulted.
  /// Fraction of a table changed by DML before the engine reorganizes the
  /// segments (recompress + zone map rebuild + stats refresh).
  double zone_map_refresh_threshold = 0.30;
  double buffer_pool_mb = 512.0;         ///< Segment cache size.
  /// Executor translation: milliseconds of CPU per optimizer cost unit.
  double cpu_ms_per_cost_unit = 0.012;
};

/// Parameter vocabulary for kDbParamChanged events ("vector_batch_rows",
/// ...). InvalidArgument for unknown names — including row-store-only
/// names like "random_page_cost" or "io_block_read_cost", which do not
/// exist on this engine.
Status SetColumnarParamByName(ColumnarParams* params, const std::string& name,
                              double value);
Result<double> GetColumnarParamByName(const ColumnarParams& params,
                                      const std::string& name);
/// Every name the two calls accept, in a stable order.
std::vector<std::string> ColumnarParamNames();

/// The column-store-ish cost model. Deterministic; plan with PlanQuery.
class ColumnarCostModel : public CostModel {
 public:
  /// `catalog` must outlive the model.
  ColumnarCostModel(const Catalog* catalog, const ColumnarParams& params);

  Result<PlanNodePtr> ScanPath(const QuerySpec& block,
                               const TableRef& ref) const override;
  PlanNodePtr Join(const JoinStep& step) const override;
  void CostAggregate(const PlanNode& input, PlanNode* agg) const override;
  PlanNodePtr SubqueryJoin(const QuerySpec& spec, const PlanNodePtr& outer,
                           const PlanNodePtr& sub, double rows) const override;
  void CostSort(const PlanNode& input, PlanNode* sort) const override;

 private:
  ColumnarParams params_;
};

}  // namespace diads::db

#endif  // DIADS_DB_COLUMNAR_OPTIMIZER_H_
