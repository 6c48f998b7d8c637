#include "db/columnar_backend.h"

#include <cassert>
#include <cmath>

#include "common/strings.h"
#include "db/columnar_plan.h"

namespace diads::db {
namespace {

/// Deterministic estimation error for a reorganization's statistics
/// refresh: the row count is derived from per-segment metadata, which is
/// exact for fully rewritten segments but approximate for the tail segment
/// still accepting inserts. Hashing the table name keeps runs reproducible
/// (and distinct from the MySQL backend's sampled-dive error).
double SegmentMetadataError(const std::string& table) {
  // Map to [-0.015, +0.015].
  return (static_cast<double>(Fnv1a64(table) % 5003) / 5002.0 - 0.5) * 0.03;
}

}  // namespace

ColumnarBackend::ColumnarBackend(const BackendInit& init)
    : catalog_(init.catalog), scale_factor_(init.scale_factor) {
  assert(catalog_ != nullptr);
  params_.buffer_pool_mb = init.buffer_pool_mb;
}

Result<Plan> ColumnarBackend::OptimizeQuery(const QuerySpec& spec) const {
  return PlanQuery(ColumnarCostModel(catalog_, params_), spec);
}

Result<Plan> ColumnarBackend::OptimizeQueryWithParam(const QuerySpec& spec,
                                                     const std::string& param,
                                                     double value) const {
  ColumnarParams what_if = params_;
  DIADS_RETURN_IF_ERROR(SetColumnarParamByName(&what_if, param, value));
  return PlanQuery(ColumnarCostModel(catalog_, what_if), spec);
}

Result<Plan> ColumnarBackend::MakePaperPlan() const {
  return MakeColumnarQ2Plan(scale_factor_);
}

Status ColumnarBackend::SetParam(const std::string& name, double value) {
  return SetColumnarParamByName(&params_, name, value);
}

Result<double> ColumnarBackend::GetParam(const std::string& name) const {
  return GetColumnarParamByName(params_, name);
}

std::vector<std::string> ColumnarBackend::ParamNames() const {
  return ColumnarParamNames();
}

PlanMisconfigKnob ColumnarBackend::MisconfigKnob() const {
  // No page-cost knob exists on this engine; the corresponding
  // misconfiguration is the zone-map consult cost cranked far above the
  // scan costs, which makes pruning look prohibitive (a large table pays
  // one consult per zone) and flips every zone-pruned scan into a full
  // vector scan of all segments.
  return {"zone_map_consult_cost", 40.0};
}

StatsDriftSpec ColumnarBackend::AnalyzeDriftSpec() const {
  // Hash joins are insensitive to access-path randomness, so the join
  // order survives substantial drift: with every access path a scan,
  // only the build-order arithmetic can move. part must grow ~70x
  // before fresh statistics reorder the main block — the DP stops
  // hash-building part against a partsupp-driven outer and instead
  // drives from nation, deferring the now-huge part build to the top of
  // the left-deep chain. 90x clears the break-even with margin.
  return {"part", 90.0};
}

DbParams ColumnarBackend::ExecutorParams() const {
  // Executor-facing translation of the engine cost model: segment reads
  // serve as both page costs (columnar I/O is sequential segment streaming
  // either way), tuple reconstruction plays cpu_tuple_cost's role,
  // decompression plays the per-index-tuple role on zone-pruned scans, and
  // batch dispatch amortized over a batch is the per-operator cost.
  DbParams out;
  out.seq_page_cost = params_.segment_read_cost;
  out.random_page_cost = params_.segment_read_cost;
  out.cpu_tuple_cost = params_.tuple_reconstruct_cost;
  out.cpu_index_tuple_cost = params_.compression_codec_cost;
  out.cpu_operator_cost =
      params_.batch_dispatch_cost / std::max(1.0, params_.vector_batch_rows);
  out.work_mem_mb = params_.buffer_pool_mb / 8.0;
  out.buffer_pool_mb = params_.buffer_pool_mb;
  out.effective_cache_mb = params_.buffer_pool_mb * 1.5;
  out.cpu_ms_per_cost_unit = params_.cpu_ms_per_cost_unit;
  return out;
}

Status ColumnarBackend::Reorganize(SimTimeMs t, const std::string& table) {
  // The reorganization rewrites the drifted segments: compression returns
  // to its healthy ratio and the zone maps become exact again, so any
  // physical-layout degradation on the table is healed alongside the
  // statistics refresh.
  DIADS_RETURN_IF_ERROR(catalog_->SetTableStorageBloatSilently(table, 1.0));
  for (const IndexDef* zone_map : catalog_->IndexesOn(table, "")) {
    DIADS_RETURN_IF_ERROR(
        catalog_->SetIndexScanBloatSilently(zone_map->name, 1.0));
  }
  return catalog_->RefreshOptimizerStats(
      t + Seconds(45), table, SegmentMetadataError(table),
      StrFormat("segment reorganization on '%s' (recompress, zone map "
                "rebuild, stats from segment metadata)",
                table.c_str()));
}

Status ColumnarBackend::ApplyDml(SimTimeMs t, const std::string& table,
                                 double factor,
                                 const std::string& description) {
  DIADS_RETURN_IF_ERROR(catalog_->ApplyDml(t, table, factor, description));
  double& drift = drift_since_reorg_.try_emplace(table, 1.0).first->second;
  drift *= factor;
  if (std::fabs(drift - 1.0) < params_.zone_map_refresh_threshold) {
    return Status::Ok();
  }
  drift = 1.0;
  return Reorganize(t, table);
}

Status ColumnarBackend::ApplyDmlSilently(SimTimeMs t, const std::string& table,
                                         double factor,
                                         const std::string& description) {
  // Append-only ingest below the reorganization radar: the data lands, the
  // optimizer stays blind, no segments are rewritten.
  return catalog_->ApplyDml(t, table, factor, description);
}

Status ColumnarBackend::Analyze(SimTimeMs t, const std::string& table) {
  // Explicit statistics refresh (modelled as exact). Statistics only: an
  // ANALYZE does not rewrite segments, so compression drift and stale zone
  // maps survive it — only a reorganization heals those. Like the
  // reorganization, it resets the churn counter.
  drift_since_reorg_.erase(table);
  return catalog_->Analyze(t, table);
}

}  // namespace diads::db
