// The PostgreSQL-ish backend: DbBackend over PostgresCostModel, the
// DbParams vocabulary, and the Figure-1 paper plan. Statistics semantics are
// the classic ones — DML leaves optimizer statistics stale until an
// explicit ANALYZE refreshes them.
#ifndef DIADS_DB_POSTGRES_BACKEND_H_
#define DIADS_DB_POSTGRES_BACKEND_H_

#include "db/backend.h"

namespace diads::db {

class PostgresBackend : public DbBackend {
 public:
  explicit PostgresBackend(const BackendInit& init);

  BackendKind kind() const override { return BackendKind::kPostgres; }

  Result<Plan> OptimizeQuery(const QuerySpec& spec) const override;
  Result<Plan> OptimizeQueryWithParam(const QuerySpec& spec,
                                      const std::string& param,
                                      double value) const override;
  Result<Plan> MakePaperPlan() const override;

  Status SetParam(const std::string& name, double value) override;
  Result<double> GetParam(const std::string& name) const override;
  std::vector<std::string> ParamNames() const override;
  PlanMisconfigKnob MisconfigKnob() const override;
  StatsDriftSpec AnalyzeDriftSpec() const override;

  DbParams ExecutorParams() const override { return params_; }

  Status ApplyDml(SimTimeMs t, const std::string& table, double factor,
                  const std::string& description) override;
  Status ApplyDmlSilently(SimTimeMs t, const std::string& table,
                          double factor,
                          const std::string& description) override;
  Status Analyze(SimTimeMs t, const std::string& table) override;

 private:
  Catalog* catalog_;
  DbParams params_;
  double scale_factor_;
};

}  // namespace diads::db

#endif  // DIADS_DB_POSTGRES_BACKEND_H_
