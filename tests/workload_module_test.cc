// Tests for the workload substrate: testbed assembly (the Figure-1
// inventory), the external workload generator's three load shapes, each
// fault injector's observable effects, and the scenario runner's contract
// (labels, windows, ground truth, determinism).
#include <gtest/gtest.h>

#include <set>

#include "workload/external_workload.h"
#include "workload/fault_injector.h"
#include "workload/scenario.h"
#include "workload/testbed.h"

namespace diads::workload {
namespace {

// --- Testbed assembly ----------------------------------------------------------

class TestbedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::unique_ptr<Testbed>> tb = BuildFigure1Testbed(TestbedOptions{});
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    tb_ = std::move(*tb);
  }
  std::unique_ptr<Testbed> tb_;
};

TEST_F(TestbedTest, Figure1Inventory) {
  // Two servers, three switches, one subsystem, two pools, 4+6 disks,
  // four volumes.
  EXPECT_EQ(tb_->topology.AllServers().size(), 2u);
  EXPECT_EQ(tb_->topology.AllSwitches().size(), 3u);
  EXPECT_EQ(tb_->topology.AllSubsystems().size(), 1u);
  EXPECT_EQ(tb_->topology.AllPools().size(), 2u);
  EXPECT_EQ(tb_->topology.AllDisks().size(), 10u);
  EXPECT_EQ(tb_->topology.AllVolumes().size(), 4u);
  EXPECT_EQ(tb_->topology.pool(tb_->pool1).disks.size(), 4u);
  EXPECT_EQ(tb_->topology.pool(tb_->pool2).disks.size(), 6u);
  EXPECT_TRUE(tb_->topology.Validate().ok());
}

TEST_F(TestbedTest, VolumeSharingMatchesFigure1) {
  // V1 shares P1's disks with V3; V2 shares P2's with V4.
  std::set<ComponentId> v1_sharers;
  for (ComponentId v : tb_->topology.VolumesSharingDisks(tb_->v1)) {
    v1_sharers.insert(v);
  }
  EXPECT_EQ(v1_sharers, (std::set<ComponentId>{tb_->v3}));
  std::set<ComponentId> v2_sharers;
  for (ComponentId v : tb_->topology.VolumesSharingDisks(tb_->v2)) {
    v2_sharers.insert(v);
  }
  EXPECT_EQ(v2_sharers, (std::set<ComponentId>{tb_->v4}));
}

TEST_F(TestbedTest, DbServerReachesItsVolumesOnly) {
  EXPECT_TRUE(tb_->topology.ResolvePath(tb_->db_server, tb_->v1).ok());
  EXPECT_TRUE(tb_->topology.ResolvePath(tb_->db_server, tb_->v2).ok());
  // V3/V4 belong to the app server; the DB server is not LUN-mapped.
  EXPECT_FALSE(tb_->topology.ResolvePath(tb_->db_server, tb_->v3).ok());
  EXPECT_TRUE(tb_->topology.ResolvePath(tb_->app_server, tb_->v3).ok());
}

TEST_F(TestbedTest, PaperPlanAndOptimizerBothUsable) {
  EXPECT_EQ(tb_->paper_plan->size(), 25u);
  Result<db::Plan> optimized = tb_->OptimizeQ2();
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->LeafIndexes().size(), 9u);
}

TEST_F(TestbedTest, WhatIfProberHandlesSupportedEvents) {
  auto prober = tb_->MakeWhatIfProber();
  const uint64_t base = tb_->OptimizeQ2()->Fingerprint();

  // Index drop: revert must reproduce the base plan.
  ASSERT_TRUE(
      tb_->catalog.DropIndex(Hours(1), "partsupp_partkey_idx").ok());
  SystemEvent drop = tb_->event_log.all().back();
  ASSERT_EQ(drop.type, EventType::kIndexDropped);
  Result<uint64_t> reverted = prober(drop);
  ASSERT_TRUE(reverted.ok()) << reverted.status().ToString();
  EXPECT_EQ(*reverted, base);
  // And the probe left the catalog in the dropped state.
  EXPECT_TRUE(tb_->catalog.IndexesOn("partsupp", "ps_partkey").empty());

  // Unsupported event type: explicit error, not a guess.
  SystemEvent unrelated;
  unrelated.type = EventType::kDmlBatch;
  EXPECT_FALSE(prober(unrelated).ok());
}

TEST_F(TestbedTest, WhatIfProberParamChange) {
  auto prober = tb_->MakeWhatIfProber();
  const uint64_t base = tb_->OptimizeQ2()->Fingerprint();
  FaultInjector injector(tb_.get());
  ASSERT_TRUE(
      injector.InjectParamChange(Hours(1), "random_page_cost", 40.0).ok());
  const uint64_t changed = tb_->OptimizeQ2()->Fingerprint();
  EXPECT_NE(changed, base);
  SystemEvent event = tb_->event_log.all().back();
  ASSERT_EQ(event.type, EventType::kDbParamChanged);
  Result<uint64_t> reverted = prober(event);
  ASSERT_TRUE(reverted.ok());
  EXPECT_EQ(*reverted, base);
}

// --- External workloads ---------------------------------------------------------

TEST_F(TestbedTest, AmbientLoadVariesByChunk) {
  ExternalWorkloadGen gen(tb_.get());
  san::IoProfile base;
  base.read_iops = 100;
  ASSERT_TRUE(gen.StartAmbient(tb_->v3, TimeInterval{0, Hours(10)}, base,
                               Hours(1))
                  .ok());
  // Intensity re-rolls hourly in [0.6, 1.4] x base.
  std::set<int> distinct;
  for (int h = 0; h < 10; ++h) {
    const double iops =
        tb_->perf_model.VolumeLoadAt(tb_->v3, Hours(h) + Minutes(30))
            .read_iops;
    EXPECT_GE(iops, 59.0);
    EXPECT_LE(iops, 141.0);
    distinct.insert(static_cast<int>(iops));
  }
  EXPECT_GT(distinct.size(), 3u);
}

TEST_F(TestbedTest, SteadyLoadLogsEventsOnlyWhenAsked) {
  ExternalWorkloadGen gen(tb_.get());
  san::IoProfile profile;
  profile.write_iops = 50;
  const size_t before = tb_->event_log.size();
  ASSERT_TRUE(gen.StartSteady(tb_->v4, TimeInterval{0, Hours(1)}, profile,
                              /*log_events=*/false, "quiet")
                  .ok());
  EXPECT_EQ(tb_->event_log.size(), before);
  ASSERT_TRUE(gen.StartSteady(tb_->v4, TimeInterval{Hours(2), Hours(3)},
                              profile, /*log_events=*/true, "loud")
                  .ok());
  ASSERT_EQ(tb_->event_log.size(), before + 1);
  EXPECT_EQ(tb_->event_log.all().back().type,
            EventType::kExternalWorkloadStarted);
}

TEST_F(TestbedTest, BurstyLoadRespectsDutyCycle) {
  ExternalWorkloadGen gen(tb_.get());
  san::IoProfile burst;
  burst.read_iops = 600;
  ASSERT_TRUE(gen.StartBursty(tb_->v4, TimeInterval{0, Hours(2)}, burst,
                              Minutes(5), Seconds(30), false, "bursts")
                  .ok());
  // Average over the window ~ 600 * (30s / 5min) = 60; instantaneous values
  // are either 0 or 600.
  const san::VolumeIntervalStats stats =
      tb_->perf_model.VolumeStats(tb_->v4, TimeInterval{0, Hours(2)});
  EXPECT_NEAR(stats.read_iops, 60.0, 6.0);
  int in_burst = 0;
  for (SimTimeMs t = 0; t < Hours(2); t += Seconds(10)) {
    const double iops = tb_->perf_model.VolumeLoadAt(tb_->v4, t).read_iops;
    EXPECT_TRUE(iops == 0.0 || iops == 600.0);
    if (iops > 0) ++in_burst;
  }
  EXPECT_NEAR(static_cast<double>(in_burst) / 720.0, 0.1, 0.04);
}

TEST_F(TestbedTest, BurstyLoadValidatesParameters) {
  ExternalWorkloadGen gen(tb_.get());
  san::IoProfile burst;
  burst.read_iops = 100;
  EXPECT_FALSE(gen.StartBursty(tb_->v4, TimeInterval{0, Hours(1)}, burst,
                               Seconds(30), Minutes(5), false, "bad")
                   .ok());  // Burst longer than period.
}

// --- Fault injectors --------------------------------------------------------------

TEST_F(TestbedTest, SanMisconfigurationCreatesSharerAndEvents) {
  FaultInjector injector(tb_.get());
  ASSERT_TRUE(injector
                  .InjectSanMisconfiguration(Hours(10),
                                             TimeInterval{Hours(10), Hours(20)})
                  .ok());
  // V' exists in P1 and shares V1's disks.
  Result<ComponentId> v_prime = tb_->registry.FindByName("V-prime");
  ASSERT_TRUE(v_prime.ok());
  bool shares = false;
  for (ComponentId v : tb_->topology.VolumesSharingDisks(tb_->v1)) {
    if (v == *v_prime) shares = true;
  }
  EXPECT_TRUE(shares);
  // Exactly the three configuration events; no workload events.
  const TimeInterval window{Hours(9), Hours(21)};
  EXPECT_EQ(tb_->event_log.EventsOfTypeIn(EventType::kVolumeCreated, window)
                .size(),
            1u);
  EXPECT_EQ(tb_->event_log.EventsOfTypeIn(EventType::kZoningChanged, window)
                .size(),
            1u);
  EXPECT_EQ(tb_->event_log
                .EventsOfTypeIn(EventType::kLunMappingChanged, window)
                .size(),
            1u);
  EXPECT_TRUE(tb_->event_log
                  .EventsOfTypeIn(EventType::kExternalWorkloadStarted, window)
                  .empty());
  // And V1's latency rises during the load window.
  EXPECT_GT(tb_->perf_model.VolumeReadLatencyMs(tb_->v1, Hours(15)),
            tb_->perf_model.VolumeReadLatencyMs(tb_->v1, Hours(5)) * 1.3);
}

TEST_F(TestbedTest, LockContentionInjectsWaitAndEvent) {
  FaultInjector injector(tb_.get());
  ASSERT_TRUE(injector
                  .InjectLockContention(TimeInterval{Hours(10), Hours(12)},
                                        "partsupp", Seconds(30))
                  .ok());
  EXPECT_EQ(tb_->locks.WaitFor("partsupp", Hours(11)), Seconds(30));
  EXPECT_EQ(tb_->locks.WaitFor("partsupp", Hours(13)), 0);
  EXPECT_EQ(tb_->locks.WaitFor("part", Hours(11)), 0);
  EXPECT_EQ(tb_->event_log
                .EventsOfTypeIn(EventType::kTableLockContention,
                                TimeInterval{Hours(9), Hours(13)})
                .size(),
            1u);
  // Unknown table: error.
  EXPECT_FALSE(injector
                   .InjectLockContention(TimeInterval{Hours(1), Hours(2)},
                                         "nope", Seconds(1))
                   .ok());
}

TEST_F(TestbedTest, SpuriousSymptomsBiasOnlyLatencyMetrics) {
  FaultInjector injector(tb_.get());
  ASSERT_TRUE(injector
                  .InjectSpuriousVolumeSymptoms(
                      tb_->v2, TimeInterval{Hours(10), Hours(12)}, 1.5)
                  .ok());
  // Latency metric biased +150%, ops metric untouched.
  const monitor::NoiseSpec& time_spec = tb_->noise.SpecFor(
      tb_->v2, monitor::MetricId::kVolPhysWriteTimeMs, Hours(11));
  EXPECT_DOUBLE_EQ(time_spec.bias_fraction, 1.5);
  const monitor::NoiseSpec& ops_spec = tb_->noise.SpecFor(
      tb_->v2, monitor::MetricId::kVolPhysWriteOps, Hours(11));
  EXPECT_DOUBLE_EQ(ops_spec.bias_fraction, 0.0);
  // Outside the window: clean.
  const monitor::NoiseSpec& later = tb_->noise.SpecFor(
      tb_->v2, monitor::MetricId::kVolPhysWriteTimeMs, Hours(13));
  EXPECT_DOUBLE_EQ(later.bias_fraction, 0.0);
}

TEST_F(TestbedTest, RaidRebuildAddsOverheadAndEvents) {
  FaultInjector injector(tb_.get());
  ComponentId disk5 = tb_->registry.FindByName("disk5").value();
  const double before = tb_->perf_model.DiskUtilizationAt(disk5, Hours(11));
  ASSERT_TRUE(injector
                  .InjectRaidRebuild(tb_->pool2,
                                     TimeInterval{Hours(10), Hours(12)}, 0.35)
                  .ok());
  EXPECT_NEAR(tb_->perf_model.DiskUtilizationAt(disk5, Hours(11)),
              before + 0.35, 1e-9);
  EXPECT_EQ(tb_->event_log
                .EventsOfTypeIn(EventType::kRaidRebuildStarted,
                                TimeInterval{Hours(9), Hours(13)})
                .size(),
            1u);
}

TEST_F(TestbedTest, DiskFailureLifecycle) {
  FaultInjector injector(tb_.get());
  ComponentId disk1 = tb_->registry.FindByName("disk1").value();
  ASSERT_TRUE(injector.InjectDiskFailure(Hours(10), disk1).ok());
  EXPECT_TRUE(tb_->topology.disk(disk1).failed);
  EXPECT_EQ(tb_->topology.ActiveDiskCount(tb_->pool1), 3);
  ASSERT_TRUE(injector.InjectDiskRecovery(Hours(12), disk1).ok());
  EXPECT_FALSE(tb_->topology.disk(disk1).failed);
  EXPECT_EQ(tb_->event_log
                .EventsOfTypeIn(EventType::kDiskRecovered,
                                TimeInterval{Hours(11), Hours(13)})
                .size(),
            1u);
}

// --- Scenario runner ---------------------------------------------------------------

TEST(ScenarioTest, ContractHolds) {
  ScenarioOptions options;
  options.satisfactory_runs = 8;
  options.unsatisfactory_runs = 4;
  Result<ScenarioOutput> scenario =
      RunScenario(ScenarioId::kS1SanMisconfiguration, options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ(scenario->testbed->runs.RunsWithLabel(
                    "Q2", db::RunLabel::kSatisfactory)
                .size(),
            8u);
  EXPECT_EQ(scenario->testbed->runs.RunsWithLabel(
                    "Q2", db::RunLabel::kUnsatisfactory)
                .size(),
            4u);
  EXPECT_LT(scenario->satisfactory_window.end,
            scenario->unsatisfactory_window.begin);
  ASSERT_FALSE(scenario->ground_truth.empty());
  EXPECT_EQ(scenario->ground_truth[0].subject_name, "V1");
  // Monitoring covers the whole history.
  EXPECT_GT(scenario->testbed->store.total_samples(), 1000u);
}

TEST(ScenarioTest, DeterministicForSeed) {
  ScenarioOptions options;
  options.satisfactory_runs = 6;
  options.unsatisfactory_runs = 3;
  Result<ScenarioOutput> a =
      RunScenario(ScenarioId::kS3DataPropertyChange, options);
  Result<ScenarioOutput> b =
      RunScenario(ScenarioId::kS3DataPropertyChange, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->testbed->runs.size(), b->testbed->runs.size());
  for (size_t i = 0; i < a->testbed->runs.size(); ++i) {
    EXPECT_EQ(a->testbed->runs.runs()[i].duration_ms(),
              b->testbed->runs.runs()[i].duration_ms());
  }
  EXPECT_EQ(a->testbed->store.total_samples(),
            b->testbed->store.total_samples());
}

TEST(ScenarioTest, SeedsChangeOutcomesButNotStructure) {
  ScenarioOptions a_options;
  a_options.seed = 1;
  a_options.satisfactory_runs = 6;
  a_options.unsatisfactory_runs = 3;
  ScenarioOptions b_options = a_options;
  b_options.seed = 2;
  Result<ScenarioOutput> a =
      RunScenario(ScenarioId::kS1SanMisconfiguration, a_options);
  Result<ScenarioOutput> b =
      RunScenario(ScenarioId::kS1SanMisconfiguration, b_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->testbed->runs.runs()[0].duration_ms(),
            b->testbed->runs.runs()[0].duration_ms());
  EXPECT_EQ(a->testbed->runs.size(), b->testbed->runs.size());
}

TEST(ScenarioTest, MatchesGroundTruthSemantics) {
  ComponentRegistry registry;
  ComponentId v1 = registry.MustRegister(ComponentKind::kVolume, "V1");
  diag::RootCause cause;
  cause.type = diag::RootCauseType::kSanMisconfigurationContention;
  cause.subject = v1;
  GroundTruthCause truth{diag::RootCauseType::kSanMisconfigurationContention,
                         "V1", true};
  EXPECT_TRUE(MatchesGroundTruth(truth, cause, registry));
  // Wrong subject.
  GroundTruthCause other{diag::RootCauseType::kSanMisconfigurationContention,
                         "V2", true};
  EXPECT_FALSE(MatchesGroundTruth(other, cause, registry));
  // Empty subject matches any subject.
  GroundTruthCause any{diag::RootCauseType::kSanMisconfigurationContention,
                       "", true};
  EXPECT_TRUE(MatchesGroundTruth(any, cause, registry));
  // Wrong type.
  GroundTruthCause wrong_type{diag::RootCauseType::kLockContention, "V1",
                              true};
  EXPECT_FALSE(MatchesGroundTruth(wrong_type, cause, registry));
}

}  // namespace
}  // namespace diads::workload
