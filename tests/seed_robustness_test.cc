// Seed-robustness property test.
//
// The conformance suite and its golden digests pin every (scenario,
// backend) configuration at the default seed 42. This suite guards against
// seed-tuning: it re-runs all 50 configurations at four other seeds and
// requires the top-ranked cause to match the injected ground truth at
// every one. The seeds were fixed before the matrix was widened to all 50
// configurations; a failing case is a finding to report, not a seed to
// swap.
#include <gtest/gtest.h>

#include "diads/workflow.h"
#include "support/conformance_util.h"
#include "workload/scenario.h"

namespace diads {
namespace {

using workload::MatchesGroundTruth;
using workload::RunScenario;
using workload::ScenarioId;
using workload::ScenarioOutput;

struct SeedCase {
  ScenarioId id;
  db::BackendKind backend;
  uint64_t seed;
};

void PrintTo(const SeedCase& c, std::ostream* os) {
  *os << testsupport::CaseName(c.id, c.backend) << "/seed" << c.seed;
}

class SeedRobustnessTest : public ::testing::TestWithParam<SeedCase> {};

TEST_P(SeedRobustnessTest, TopCauseMatchesGroundTruth) {
  workload::ScenarioOptions options;
  options.seed = GetParam().seed;
  options.testbed.backend = GetParam().backend;
  Result<ScenarioOutput> scenario = RunScenario(GetParam().id, options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  diag::SymptomsDb symptoms = diag::SymptomsDb::MakeDefault();
  diag::Workflow workflow(scenario->MakeContext(), diag::WorkflowConfig{},
                          &symptoms);
  Result<diag::DiagnosisReport> report = workflow.Diagnose();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->causes.empty());
  bool top_matches = false;
  for (const workload::GroundTruthCause& truth : scenario->ground_truth) {
    if (MatchesGroundTruth(truth, report->causes.front(),
                           scenario->testbed->registry)) {
      top_matches = true;
    }
  }
  EXPECT_TRUE(top_matches)
      << "top cause: "
      << diag::RootCauseTypeName(report->causes.front().type);
}

std::vector<SeedCase> AllCases() {
  std::vector<SeedCase> cases;
  for (const auto& [id, backend] : testsupport::AllConformanceCases()) {
    for (uint64_t seed : {1ull, 7ull, 19ull, 101ull}) {
      cases.push_back(SeedCase{id, backend, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SeedRobustnessTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<SeedCase>& info) {
      return testsupport::CaseName(info.param.id, info.param.backend) +
             "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace diads
