// The MySQL-ish backend: DbBackend over MysqlCostModel, the MysqlParams
// vocabulary, and the MakeMysqlQ2Plan fixture.
//
// Statistics semantics differ from PostgreSQL's: an InnoDB-style automatic
// recalculation (innodb_stats_auto_recalc) refreshes a table's optimizer
// statistics from sampled index dives once cumulative DML drift passes 10%
// of the table — so bulk DML through ApplyDml() both moves the actual
// statistics and (eventually, approximately) the optimizer's view, logging
// the kTableStatsChanged event a real deployment would see.
// ApplyDmlSilently() models tables created with STATS_AUTO_RECALC=0, the
// standard big-table opt-out — that is what silent data-drift faults use.
#ifndef DIADS_DB_MYSQL_BACKEND_H_
#define DIADS_DB_MYSQL_BACKEND_H_

#include <string>
#include <unordered_map>

#include "db/backend.h"
#include "db/mysql_optimizer.h"

namespace diads::db {

class MysqlBackend : public DbBackend {
 public:
  explicit MysqlBackend(const BackendInit& init);

  BackendKind kind() const override { return BackendKind::kMysql; }

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

  DbParams ExecutorParams() const override;

  Status ApplyDml(SimTimeMs t, const std::string& table, double factor,
                  const std::string& description) override;
  Status ApplyDmlSilently(SimTimeMs t, const std::string& table,
                          double factor,
                          const std::string& description) override;
  Status Analyze(SimTimeMs t, const std::string& table) override;

  /// Cumulative drift threshold that triggers an automatic recalculation
  /// (fraction of the table changed; InnoDB's default is 10%).
  static constexpr double kAutoRecalcThreshold = 0.10;

 private:
  Catalog* catalog_;
  MysqlParams params_;
  double scale_factor_;
  /// Per-table multiplicative row drift since the last stats refresh.
  std::unordered_map<std::string, double> drift_since_recalc_;
};

}  // namespace diads::db

#endif  // DIADS_DB_MYSQL_BACKEND_H_
