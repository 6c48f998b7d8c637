// Module PD — Plan Diffing (Section 4.1).
//
// "The first module in the workflow looks for significant changes between
// the plans used in satisfactory and unsatisfactory runs." When the plans
// differ, DIADS pinpoints the cause of the change by considering "each
// schema or configuration change that occurred between the runs of P1 and
// P2" and checking "whether this change could have caused the plan change".
//
// The could-it-explain check is a what-if probe: re-optimize the query as
// if the candidate event had not happened, and see whether the
// satisfactory-era plan comes back. The probe callback is supplied by the
// deployment (DiagnosisContext::plan_whatif_probe) because it requires a
// mutable catalog copy; without it, candidates are reported unverified.
#ifndef DIADS_DIADS_PLAN_DIFF_H_
#define DIADS_DIADS_PLAN_DIFF_H_

#include "diads/diagnosis.h"

namespace diads::diag {

/// Runs Module PD.
Result<PdResult> RunPlanDiff(const DiagnosisContext& ctx);

/// Console panel.
std::string RenderPdResult(const PdResult& pd);

}  // namespace diads::diag

#endif  // DIADS_DIADS_PLAN_DIFF_H_
