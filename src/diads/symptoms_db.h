// Module SD — the Symptoms Database (Section 4.1).
//
// "DIADS's symptoms database is a collection of root cause entries each of
// which has the format Cond1 & Cond2 & ... & Condz ... Each Condi is a
// condition of the form ∃symp_j or ¬∃symp_j ... Each Condi is associated
// with a weight wi such that the sum of the weights for each individual
// root cause entry is 100%. From the symptoms observed currently, DIADS
// calculates a confidence score for each root cause R as the sum of the
// weights of R's conditions that evaluate to true", banded high (>= 80%),
// medium (>= 50%), low (< 50%).
//
// Entries may be volume-templated: `$V` in their conditions is instantiated
// for every volume the plan touches (and its disk-sharers), so one
// "contention in volume $V" entry covers V1, V2, ....
#ifndef DIADS_DIADS_SYMPTOMS_DB_H_
#define DIADS_DIADS_SYMPTOMS_DB_H_

#include <string>
#include <vector>

#include "diads/diagnosis.h"
#include "diads/symptom_expr.h"

namespace diads::diag {

/// One weighted condition (negation is expressed inside the expression).
struct Condition {
  std::string expr_text;
  SymptomExpr parsed;
  double weight = 0;
};

/// One root-cause entry.
struct RootCauseEntry {
  std::string name;
  RootCauseType type = RootCauseType::kExternalWorkloadContention;
  /// Instantiate the entry once per candidate volume, binding `$V`: set
  /// when the type's subject rule is SubjectRule::kBoundVolume.
  bool bind_volumes = false;
  std::vector<Condition> conditions;
};

/// The symptoms database.
class SymptomsDb {
 public:
  /// Parses and validates an entry: the type must be a RootCauseType,
  /// expressions must parse and weights must sum to 100 (+- 0.01).
  Status AddEntry(const std::string& name, RootCauseType type,
                  std::vector<std::pair<std::string, double>> conditions);

  /// Removes an entry by name (used by the incomplete-database ablation).
  Status RemoveEntry(const std::string& name);

  const std::vector<RootCauseEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// The in-house database the evaluation uses: entries for every root
  /// cause in Table 1's scenarios plus RAID rebuild, disk failure, buffer
  /// pool, and CPU saturation.
  static SymptomsDb MakeDefault();

 private:
  std::vector<RootCauseEntry> entries_;
};

/// Runs Module SD: evaluates every entry (per volume binding where
/// templated), computes confidence scores, and returns candidates above the
/// report floor sorted by confidence. Root causes do not yet carry impact
/// scores (Module IA fills those).
Result<std::vector<RootCause>> RunSymptomsDatabase(
    const DiagnosisContext& ctx, const WorkflowConfig& config,
    const PdResult& pd, const CoResult& co, const DaResult& da,
    const CrResult& cr, const SymptomsDb& db);

/// Console panel.
std::string RenderSdResult(const DiagnosisContext& ctx,
                           const std::vector<RootCause>& causes);

}  // namespace diads::diag

#endif  // DIADS_DIADS_SYMPTOMS_DB_H_
