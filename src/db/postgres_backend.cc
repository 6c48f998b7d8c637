#include "db/postgres_backend.h"

#include <cassert>

#include "db/optimizer.h"
#include "db/paper_plan.h"

namespace diads::db {

PostgresBackend::PostgresBackend(const BackendInit& init)
    : catalog_(init.catalog),
      params_(init.postgres_params),
      scale_factor_(init.scale_factor) {
  assert(catalog_ != nullptr);
  params_.buffer_pool_mb = init.buffer_pool_mb;
}

Result<Plan> PostgresBackend::OptimizeQuery(const QuerySpec& spec) const {
  return PlanQuery(PostgresCostModel(catalog_, params_), spec);
}

Result<Plan> PostgresBackend::OptimizeQueryWithParam(
    const QuerySpec& spec, const std::string& param, double value) const {
  DbParams what_if = params_;
  DIADS_RETURN_IF_ERROR(SetParamByName(&what_if, param, value));
  return PlanQuery(PostgresCostModel(catalog_, what_if), spec);
}

Result<Plan> PostgresBackend::MakePaperPlan() const {
  return MakePaperQ2Plan(scale_factor_);
}

Status PostgresBackend::SetParam(const std::string& name, double value) {
  return SetParamByName(&params_, name, value);
}

Result<double> PostgresBackend::GetParam(const std::string& name) const {
  return GetParamByName(params_, name);
}

std::vector<std::string> PostgresBackend::ParamNames() const {
  return DbParamNames();
}

PlanMisconfigKnob PostgresBackend::MisconfigKnob() const {
  // The paper's S7 fault: random_page_cost cranked to 40 makes every index
  // access look prohibitively expensive and flips the plan.
  return {"random_page_cost", 40.0};
}

StatsDriftSpec PostgresBackend::AnalyzeDriftSpec() const {
  // part grown 8x is enough: with fresh statistics the random-page
  // penalty on the index-nested-loop probes flips the join strategy.
  return {"part", 8.0};
}

Status PostgresBackend::ApplyDml(SimTimeMs t, const std::string& table,
                                 double factor,
                                 const std::string& description) {
  // PostgreSQL semantics: optimizer statistics stay stale until ANALYZE.
  return catalog_->ApplyDml(t, table, factor, description);
}

Status PostgresBackend::ApplyDmlSilently(SimTimeMs t,
                                         const std::string& table,
                                         double factor,
                                         const std::string& description) {
  return catalog_->ApplyDml(t, table, factor, description);
}

Status PostgresBackend::Analyze(SimTimeMs t, const std::string& table) {
  return catalog_->Analyze(t, table);
}

}  // namespace diads::db
