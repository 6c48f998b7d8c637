// A frozen copy of Module DA as it was before its per-metric scoring was
// rewritten for speed (exact integer ranks, merged sort orders, reused
// buffers, one kernel term per run of equal samples).
//
// It is the reference the rewrite is checked against, so it keeps the
// straightforward arithmetic of the original and depends on as little of
// the current code as possible: per-run means by two binary searches per
// run, each observation's CDF by its own binary search and a kernel term
// per in-window sample, midranks by sorting the concatenated series, and a
// two-pass Pearson over them per (metric, operator) pair. It shares with
// the module only what both must agree on: the context, the APG paths, the
// fitted models (SortedKde::Fit) and the baseline-model cache, so a cache
// state seen by one can be given to the other. Do not optimise it.
#ifndef DIADS_TESTS_SUPPORT_DA_ORACLE_H_
#define DIADS_TESTS_SUPPORT_DA_ORACLE_H_

#include "diads/diagnosis.h"

namespace diads::testsupport {

/// What diag::RunDependencyAnalysis computed before the rewrite.
Result<diag::DaResult> OracleDependencyAnalysis(
    const diag::DiagnosisContext& ctx, const diag::WorkflowConfig& config,
    const diag::CoResult& co);

}  // namespace diads::testsupport

#endif  // DIADS_TESTS_SUPPORT_DA_ORACLE_H_
