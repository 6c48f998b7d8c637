// Shared helpers for the cross-backend scenario conformance suite.
//
// Running a scenario end to end and diagnosing it is the expensive part of
// the test pyramid, and with three backends the matrix is 16 x 3 = 48
// configurations, plus the two column-store-native scenarios that only run
// on the columnar engine: 50 in total. This support library (linked into
// the test binaries, not itself a test) provides:
//
//   * DiagnoseScenario / GetDiagnosed — run + diagnose one configuration,
//     memoised per test binary so every assertion family (ground truth,
//     APG schema, golden digests, narrative checks) shares one run;
//   * the canonical conformance-case enumeration and naming;
//   * the golden digest tables: loading the checked-in
//     tests/golden_report_digests.txt (one ReportDigest hash per
//     configuration) and tests/golden_store_digests.txt (one hash of the
//     configuration's whole monitoring store), formatting a computed table,
//     and the regeneration / CI-artifact environment hooks;
//   * the optimizer sweep behind tests/golden_plan_digests.txt: 45 TPC-H
//     catalog states, the parameter multipliers, and a field-by-field plan
//     hash.
#ifndef DIADS_TESTS_SUPPORT_CONFORMANCE_UTIL_H_
#define DIADS_TESTS_SUPPORT_CONFORMANCE_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_log.h"
#include "common/ids.h"
#include "db/backend.h"
#include "db/catalog.h"
#include "diads/report.h"
#include "diads/workflow.h"
#include "monitor/timeseries.h"
#include "workload/scenario.h"

namespace diads::testsupport {

/// One diagnosed (scenario, backend) configuration. The testbed inside
/// `scenario` owns all referenced state; keep the struct alive while using
/// the report.
struct DiagnosedScenario {
  workload::ScenarioOutput scenario;
  diag::DiagnosisReport report;
  std::string digest;       ///< Full ReportDigest text.
  std::string digest_hash;  ///< ReportDigestHashHex.
  /// StoreDigestHashHex of the testbed's store, taken as RunScenario
  /// returned it (before the diagnosis reads it).
  std::string store_digest_hash;
};

/// The backend-neutral scenarios, in enum order: the 12 Table-1 /
/// plan-change scenarios plus the 4 multipath failover scenarios. The
/// column-store-native C family is NOT here (it only runs on the columnar
/// engine; see AllConformanceCases).
const std::vector<workload::ScenarioId>& AllScenarioIds();

/// Every (scenario, backend) conformance configuration, backend-major in
/// enum order: each scenario on every backend its spec runs on. That is
/// the 16 backend-neutral scenarios x all backends, plus (C1, columnar)
/// and (C2, columnar) — 16 x 3 + 2 = 50.
std::vector<std::pair<workload::ScenarioId, db::BackendKind>>
AllConformanceCases();

/// gtest-safe case name, e.g. "S1_san_misconfiguration_postgres".
std::string CaseName(workload::ScenarioId id, db::BackendKind backend);

/// Runs scenario `id` on `backend` (default options, seed 42) and
/// diagnoses it with the default workflow + symptoms database.
Result<DiagnosedScenario> DiagnoseScenario(workload::ScenarioId id,
                                           db::BackendKind backend);

/// Memoised DiagnoseScenario: each configuration runs once per binary.
/// The returned pointer stays valid for the binary's lifetime.
Result<const DiagnosedScenario*> GetDiagnosed(workload::ScenarioId id,
                                              db::BackendKind backend);

/// The shared ground-truth predicate both the integration and conformance
/// suites assert (kept in one place so they cannot drift): every primary
/// injected cause appears in the report with high confidence, and the
/// single top-ranked cause matches some ground-truth entry. The
/// (scenario, report) overload serves callers that diagnosed through the
/// engine (the fleet conformance suite) rather than DiagnoseScenario.
::testing::AssertionResult DiagnosesGroundTruth(
    const workload::ScenarioOutput& scenario,
    const diag::DiagnosisReport& report);
::testing::AssertionResult DiagnosesGroundTruth(const DiagnosedScenario& d);

// --- Golden digest tables ----------------------------------------------------

/// (scenario name, backend name) -> digest hash hex.
using GoldenDigestTable = std::map<std::pair<std::string, std::string>,
                                   std::string>;

/// The checked-in golden ReportDigest file (under the source tree).
std::string GoldenDigestPath();

/// The checked-in golden store-digest file (under the source tree).
std::string GoldenStoreDigestPath();

/// fnv1a64 (hex) over every sample in `store`: series in (component name,
/// metric short name) order, each folding its names, its length, and every
/// sample's time and value bits in time order. Any change to any stored
/// sample — including series no ReportDigest reads — changes the hash.
std::string StoreDigestHashHex(const monitor::TimeSeriesStore& store,
                               const ComponentRegistry& registry);

/// Parses the golden file. Missing file yields an empty table + ok status
/// (the regeneration flow bootstraps it).
Result<GoldenDigestTable> LoadGoldenDigests(const std::string& path);

/// Renders a table in the golden file format (one "scenario backend hash"
/// line, sorted, with a header comment naming what `subject` was hashed).
std::string FormatGoldenDigests(const GoldenDigestTable& table,
                                const std::string& subject = "ReportDigest");

Status WriteGoldenDigests(const GoldenDigestTable& table,
                          const std::string& path,
                          const std::string& subject = "ReportDigest");

/// True when DIADS_UPDATE_GOLDEN_DIGESTS=1: digest mismatches rewrite the
/// golden file instead of failing (the explicit regeneration flag the CI
/// drift gate requires).
bool UpdateGoldenDigestsRequested();

/// When DIADS_DIGEST_OUT names a file, writes the computed table there
/// (the CI artifact hook). Best effort. A non-empty `suffix` goes before
/// the file's extension, so other tables land next to the ReportDigest
/// one: suffix "_store" turns conformance_digests.txt into
/// conformance_digests_store.txt.
void MaybeDumpComputedDigests(const GoldenDigestTable& computed,
                              const std::string& suffix = "",
                              const std::string& subject = "ReportDigest");

// --- Optimizer sweep ----------------------------------------------------------

/// The checked-in golden plan-digest file (under the source tree).
std::string GoldenPlanDigestPath();

/// One catalog state of the optimizer sweep: the base TPC-H catalog, or it
/// with one index dropped, or with one table's rows scaled and ANALYZEd.
struct PlanSweepState {
  std::string name;         ///< "base", "drop-<index>", "<table>-x<scale>".
  std::string drop_index;   ///< Empty unless an index is dropped.
  std::string scale_table;  ///< Empty unless a table is scaled.
  double scale = 1.0;
};

/// The 45 states: the base catalog, each of the 9 TPC-H indexes dropped,
/// and each of the 5 tables scaled x{0.05, 0.5, 2, 8, 48, 90, 1000}.
std::vector<PlanSweepState> PlanSweepStates();

/// What every parameter is multiplied by, in turn, relative to its current
/// value: x{0.01, 0.1, 0.5, 1, 2, 10, 40, 1000}.
const std::vector<double>& PlanSweepParamFactors();

/// A scale-factor-1 TPC-H catalog in one sweep state, behind a fresh
/// backend that owns the parameters.
struct PlanSweepCatalog {
  ComponentRegistry registry;
  EventLog events;
  db::Catalog catalog{&registry, &events};
  std::unique_ptr<db::DbBackend> backend;
};

/// Builds the catalog and reaches `state` through the public catalog and
/// DbBackend calls (DropIndex; ApplyDmlSilently + Analyze).
Result<std::unique_ptr<PlanSweepCatalog>> MakePlanSweepCatalog(
    const PlanSweepState& state, db::BackendKind kind);

/// Folds every field of `plan` into `h`: its name, root and size, then per
/// op its number, type, children, alias, table, index, engine_op, detail,
/// and the bits of est_rows, est_cost and est_pages.
uint64_t FoldPlan(uint64_t h, const db::Plan& plan);

}  // namespace diads::testsupport

#endif  // DIADS_TESTS_SUPPORT_CONFORMANCE_UTIL_H_
