// The fault catalogue: the event-type, root-cause and scenario tables each
// hold one row per value of their enum. These tests walk every value, so a
// value added without its row, or with a row that repeats another's name,
// fails here instead of reading a "?" name or a wrong row.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "diads/diagnosis.h"
#include "diads/symptom_expr.h"
#include "diads/symptoms_db.h"
#include "workload/scenario.h"

namespace diads {
namespace {

using diag::RootCauseTraits;
using diag::RootCauseType;
using workload::ScenarioId;
using workload::ScenarioSpec;

/// Every value of an enum that ends with the `kCount` sentinel.
template <typename Enum>
std::vector<Enum> AllValues() {
  std::vector<Enum> out;
  for (int i = 0; i < static_cast<int>(Enum::kCount); ++i) {
    out.push_back(static_cast<Enum>(i));
  }
  return out;
}

TEST(FaultCatalogueTest, EveryEventTypeHasOneUniquelyNamedRow) {
  std::set<std::string> names;
  for (EventType type : AllValues<EventType>()) {
    const std::string name = EventTypeName(type);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "Unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    Result<EventType> parsed = diag::ParseEventTypeName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, type) << name;
  }
  EXPECT_STREQ(EventTypeName(EventType::kCount), "Unknown");
  EXPECT_FALSE(diag::ParseEventTypeName("Unknown").ok());
  EXPECT_FALSE(diag::ParseEventTypeName("NotAnEvent").ok());
}

TEST(FaultCatalogueTest, PlanAffectingEventsAreTheOptimizerInputs) {
  std::set<EventType> plan_affecting;
  for (EventType type : AllValues<EventType>()) {
    if (IsPlanAffectingEvent(type)) plan_affecting.insert(type);
  }
  EXPECT_EQ(plan_affecting,
            (std::set<EventType>{EventType::kIndexCreated,
                                 EventType::kIndexDropped,
                                 EventType::kDbParamChanged,
                                 EventType::kTableStatsChanged}));
  EXPECT_FALSE(IsPlanAffectingEvent(EventType::kCount));
}

TEST(FaultCatalogueTest, EveryRootCauseHasOneRowAndOneDefaultEntry) {
  const diag::SymptomsDb db = diag::SymptomsDb::MakeDefault();
  std::set<std::string> names;
  for (RootCauseType type : AllValues<RootCauseType>()) {
    const RootCauseTraits& traits = diag::GetRootCauseTraits(type);
    const std::string name = traits.name;
    EXPECT_EQ(traits.type, type) << name;
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_STRNE(traits.action, "") << name;
    if (traits.subject == diag::SubjectRule::kFirstEvent) {
      EXPECT_NE(traits.subject_event, EventType::kCount) << name;
    }
    int entries = 0;
    for (const diag::RootCauseEntry& entry : db.entries()) {
      if (entry.type != type) continue;
      ++entries;
      EXPECT_EQ(entry.bind_volumes,
                traits.subject == diag::SubjectRule::kBoundVolume)
          << entry.name;
    }
    EXPECT_EQ(entries, 1) << name;
  }
  EXPECT_EQ(db.size(), names.size());  // No entry of a type without a row.
  EXPECT_STREQ(diag::RootCauseTypeName(RootCauseType::kCount), "?");

  diag::SymptomsDb custom;
  EXPECT_EQ(custom
                .AddEntry("no-such-cause", RootCauseType::kCount,
                          {{"lock_wait_high()", 100}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(custom.size(), 0u);
}

TEST(FaultCatalogueTest, EveryScenarioHasOneUniquelyNamedRow) {
  std::set<std::string> names;
  for (ScenarioId id : AllValues<ScenarioId>()) {
    const ScenarioSpec& spec = workload::GetScenarioSpec(id);
    const std::string name = spec.name;
    EXPECT_EQ(spec.id, id) << name;
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_STRNE(spec.description, "") << name;
    EXPECT_STRNE(spec.description, "?") << name;
    EXPECT_FALSE(spec.ground_truth.empty()) << name;
    EXPECT_NE(spec.build_testbed, nullptr) << name;
    EXPECT_NE(spec.inject, nullptr) << name;
  }
  EXPECT_STREQ(workload::ScenarioName(ScenarioId::kCount), "?");
  EXPECT_EQ(workload::RunScenario(ScenarioId::kCount).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultCatalogueTest, ColumnStoreScenariosRejectOtherBackends) {
  for (ScenarioId id :
       {ScenarioId::kC1CompressionDrift, ScenarioId::kC2ZoneMapStale}) {
    for (db::BackendKind backend :
         {db::BackendKind::kPostgres, db::BackendKind::kMysql}) {
      workload::ScenarioOptions options;
      options.testbed.backend = backend;
      Result<workload::ScenarioOutput> output =
          workload::RunScenario(id, options);
      EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument)
          << workload::ScenarioName(id) << " on "
          << db::BackendKindName(backend);
    }
  }
}

}  // namespace
}  // namespace diads
