// The column-store-ish backend: DbBackend over ColumnarCostModel, the
// ColumnarParams vocabulary, and the MakeColumnarQ2Plan fixture.
//
// Statistics semantics differ from both row stores: the engine watches
// cumulative DML churn per table and, once it passes
// zone_map_refresh_threshold (default 30% of the table), runs a *segment
// reorganization* — it recompresses the drifted segments, rebuilds their
// zone maps, and refreshes the optimizer statistics from the segment
// metadata it just rewrote. That is heavier and rarer than InnoDB's
// sampled-dive auto-recalc (10% threshold, stats only): between
// reorganizations the data drifts freely, but a reorganization also heals
// physical-layout damage (compression-ratio drift, stale zone maps) as a
// side effect. ApplyDmlSilently() models append-only ingest below the
// reorganization radar — that is what silent data-drift faults use.
#ifndef DIADS_DB_COLUMNAR_BACKEND_H_
#define DIADS_DB_COLUMNAR_BACKEND_H_

#include <string>
#include <unordered_map>

#include "db/backend.h"
#include "db/columnar_optimizer.h"

namespace diads::db {

class ColumnarBackend : public DbBackend {
 public:
  explicit ColumnarBackend(const BackendInit& init);

  BackendKind kind() const override { return BackendKind::kColumnar; }

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

 private:
  /// Segment reorganization: recompress, rebuild zone maps, refresh stats.
  Status Reorganize(SimTimeMs t, const std::string& table);

  Catalog* catalog_;
  ColumnarParams params_;
  double scale_factor_;
  /// Per-table multiplicative row drift since the last reorganization.
  std::unordered_map<std::string, double> drift_since_reorg_;
};

}  // namespace diads::db

#endif  // DIADS_DB_COLUMNAR_BACKEND_H_
