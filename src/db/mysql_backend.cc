#include "db/mysql_backend.h"

#include <cassert>
#include <cmath>

#include "common/strings.h"
#include "db/mysql_plan.h"

namespace diads::db {
namespace {

/// Deterministic sampled-dive estimation error for a table: automatic
/// recalculation samples a handful of index pages (20 by default in
/// InnoDB), so the refreshed row count is close to — but not exactly —
/// the truth. Hashing the table name keeps runs reproducible.
double SampledDiveError(const std::string& table) {
  // Map to [-0.02, +0.02].
  return (static_cast<double>(Fnv1a64(table) % 4001) / 4000.0 - 0.5) * 0.04;
}

}  // namespace

MysqlBackend::MysqlBackend(const BackendInit& init)
    : catalog_(init.catalog), scale_factor_(init.scale_factor) {
  assert(catalog_ != nullptr);
  params_.buffer_pool_mb = init.buffer_pool_mb;
}

Result<Plan> MysqlBackend::OptimizeQuery(const QuerySpec& spec) const {
  return PlanQuery(MysqlCostModel(catalog_, params_), spec);
}

Result<Plan> MysqlBackend::OptimizeQueryWithParam(const QuerySpec& spec,
                                                  const std::string& param,
                                                  double value) const {
  MysqlParams what_if = params_;
  DIADS_RETURN_IF_ERROR(SetMysqlParamByName(&what_if, param, value));
  return PlanQuery(MysqlCostModel(catalog_, what_if), spec);
}

Result<Plan> MysqlBackend::MakePaperPlan() const {
  return MakeMysqlQ2Plan(scale_factor_);
}

Status MysqlBackend::SetParam(const std::string& name, double value) {
  return SetMysqlParamByName(&params_, name, value);
}

Result<double> MysqlBackend::GetParam(const std::string& name) const {
  return GetMysqlParamByName(params_, name);
}

std::vector<std::string> MysqlBackend::ParamNames() const {
  return MysqlParamNames();
}

PlanMisconfigKnob MysqlBackend::MisconfigKnob() const {
  // No random_page_cost analogue exists on this engine; the corresponding
  // misconfiguration is the single I/O cost cranked far above the CPU
  // costs, which makes per-probe index page reads look prohibitive and
  // flips ref-access joins into join-buffer plans.
  return {"io_block_read_cost", 25.0};
}

StatsDriftSpec MysqlBackend::AnalyzeDriftSpec() const {
  // The flat io_block_read_cost never penalises the part-driven
  // index-nested-loop chain the way random_page_cost does, so the join
  // order survives far more drift: part must grow ~48x before fresh
  // statistics flip the optimizer onto the supplier-driven order.
  return {"part", 48.0};
}

DbParams MysqlBackend::ExecutorParams() const {
  // Executor-facing translation of the engine cost model: the flat
  // io_block_read_cost serves as both page costs, row_evaluate_cost plays
  // cpu_tuple_cost's role, and the cost-unit-to-milliseconds factor
  // compensates for the ~10x scale difference between the vocabularies.
  DbParams out;
  out.seq_page_cost = params_.io_block_read_cost;
  out.random_page_cost = params_.io_block_read_cost;
  out.cpu_tuple_cost = params_.row_evaluate_cost;
  out.cpu_index_tuple_cost = params_.key_compare_cost;
  out.cpu_operator_cost = params_.key_compare_cost;
  out.work_mem_mb = params_.sort_buffer_mb;
  out.buffer_pool_mb = params_.buffer_pool_mb;
  out.effective_cache_mb = params_.buffer_pool_mb * 1.5;
  out.cpu_ms_per_cost_unit = params_.cpu_ms_per_cost_unit;
  return out;
}

Status MysqlBackend::ApplyDml(SimTimeMs t, const std::string& table,
                              double factor,
                              const std::string& description) {
  DIADS_RETURN_IF_ERROR(catalog_->ApplyDml(t, table, factor, description));
  double& drift = drift_since_recalc_.try_emplace(table, 1.0).first->second;
  drift *= factor;
  if (std::fabs(drift - 1.0) < kAutoRecalcThreshold) return Status::Ok();
  drift = 1.0;
  return catalog_->RefreshOptimizerStats(
      t + Seconds(30), table, SampledDiveError(table),
      StrFormat("automatic statistics recalculation on '%s' "
                "(innodb_stats_auto_recalc, sampled dives)",
                table.c_str()));
}

Status MysqlBackend::ApplyDmlSilently(SimTimeMs t, const std::string& table,
                                      double factor,
                                      const std::string& description) {
  // STATS_AUTO_RECALC=0 table: the DML lands, the optimizer stays blind.
  return catalog_->ApplyDml(t, table, factor, description);
}

Status MysqlBackend::Analyze(SimTimeMs t, const std::string& table) {
  // ANALYZE TABLE: an explicit full refresh (modelled as exact — the
  // sampling error only matters for the background recalculation). Like
  // InnoDB, it also resets the auto-recalc drift counter: subsequent DML
  // is measured against this refresh.
  drift_since_recalc_.erase(table);
  return catalog_->Analyze(t, table);
}

}  // namespace diads::db
