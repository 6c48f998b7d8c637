#include "workload/scenario.h"

#include <iterator>

#include "common/enum_table.h"
#include "common/strings.h"

namespace diads::workload {
namespace {

/// Executes `count` Q2 runs starting at `*cursor`, advancing it by the
/// period. Returns the covered interval.
Result<TimeInterval> RunBatch(Testbed& tb, int count, SimTimeMs* cursor,
                              SimTimeMs period,
                              std::shared_ptr<const db::Plan> plan) {
  const SimTimeMs begin = *cursor;
  SimTimeMs last_end = begin;
  for (int i = 0; i < count; ++i) {
    Result<int> run = tb.RunQ2(*cursor, plan);
    DIADS_RETURN_IF_ERROR(run.status());
    Result<const db::QueryRunRecord*> record = tb.runs.FindRun(*run);
    DIADS_RETURN_IF_ERROR(record.status());
    last_end = (*record)->interval.end;
    *cursor += period;
    if (*cursor < last_end) {
      // A run overran its slot (heavily degraded system): keep runs
      // non-overlapping, the next starts right after with a small gap.
      *cursor = last_end + Minutes(1);
    }
  }
  return TimeInterval{begin, last_end};
}

/// The ambient background every scenario shares: app workloads on V3/V4.
Status StartBackground(Testbed& tb, ExternalWorkloadGen& gen,
                       const TimeInterval& span) {
  // 20-minute re-roll: enough run-to-run variance to keep every KDE
  // baseline honest, without multi-hour drifts that would make healthy
  // volumes look anomalous between the two labelling windows.
  san::IoProfile v3_profile;
  v3_profile.read_iops = 25;
  v3_profile.write_iops = 12;
  v3_profile.seq_fraction = 0.4;
  DIADS_RETURN_IF_ERROR(
      gen.StartAmbient(tb.v3, span, v3_profile, Minutes(20)));
  san::IoProfile v4_profile;
  v4_profile.read_iops = 35;
  v4_profile.write_iops = 15;
  v4_profile.seq_fraction = 0.5;
  DIADS_RETURN_IF_ERROR(
      gen.StartAmbient(tb.v4, span, v4_profile, Minutes(20)));
  // Light steady CPU noise on the database server.
  return tb.perf_model.AddCpuLoad(tb.db_server, span, 0.08);
}

// --- Injectors: one per scenario, called at the transition point ---------

Status InjectS1(const FaultPoint& at) {
  return at.injector->InjectSanMisconfiguration(at.t_fault, at.fault_window);
}

Status InjectS1b(const FaultPoint& at) {
  DIADS_RETURN_IF_ERROR(
      at.injector->InjectSanMisconfiguration(at.t_fault, at.fault_window));
  return at.injector->InjectBurstyLoad(at.tb->v2, at.fault_window, 620.0,
                                       Minutes(5), Seconds(45));
}

Status InjectS2(const FaultPoint& at) {
  DIADS_RETURN_IF_ERROR(at.injector->InjectExternalContention(
      at.tb->v1, at.fault_window, 30.0, 95.0));
  return at.injector->InjectExternalContention(at.tb->v2, at.fault_window,
                                               80.0, 20.0);
}

Status InjectS3(const FaultPoint& at) {
  return at.injector->InjectDataPropertyChange(at.t_fault, "partsupp", 1.7);
}

Status InjectS4(const FaultPoint& at) {
  DIADS_RETURN_IF_ERROR(
      at.injector->InjectDataPropertyChange(at.t_fault, "partsupp", 1.5));
  return at.injector->InjectSanMisconfiguration(at.t_fault + Minutes(1),
                                                at.fault_window);
}

Status InjectS5(const FaultPoint& at) {
  DIADS_RETURN_IF_ERROR(at.injector->InjectLockContention(
      at.fault_window, "partsupp", Seconds(40)));
  return at.injector->InjectSpuriousVolumeSymptoms(at.tb->v2, at.fault_window,
                                                   1.5);
}

Status InjectS6(const FaultPoint& at) {
  return at.injector->InjectIndexDrop(at.t_fault, "partsupp_partkey_idx");
}

Status InjectS7(const FaultPoint& at) {
  // Each engine has its own plan-flipping misconfiguration knob
  // (random_page_cost has no MySQL analogue).
  const db::PlanMisconfigKnob knob = at.tb->backend->MisconfigKnob();
  return at.injector->InjectParamChange(at.t_fault, knob.param,
                                        knob.bad_value);
}

Status InjectS8(const FaultPoint& at) {
  return at.injector->InjectAnalyze(at.t_fault,
                                    at.tb->backend->AnalyzeDriftSpec().table);
}

Status InjectS9(const FaultPoint& at) {
  at.ground_truth->front().subject_name =
      at.tb->registry.NameOf(at.tb->database);
  return at.injector->InjectCpuSaturation(at.fault_window, 0.72);
}

Status InjectS10(const FaultPoint& at) {
  return at.injector->InjectRaidRebuild(at.tb->pool1, at.fault_window, 0.45);
}

Status InjectS11(const FaultPoint& at) {
  Result<ComponentId> disk1 = at.tb->registry.FindByName("disk1");
  DIADS_RETURN_IF_ERROR(disk1.status());
  DIADS_RETURN_IF_ERROR(at.injector->InjectDiskFailure(at.t_fault, *disk1));
  // The array reacts as a real DS6000 would: an automatic RAID rebuild onto
  // the hot spare, stealing backend bandwidth from the survivors.
  return at.injector->InjectRaidRebuild(
      at.tb->pool1, TimeInterval{at.t_fault + Minutes(1), at.fault_window.end},
      0.30);
}

Status InjectF1(const FaultPoint& at) {
  Testbed& tb = *at.tb;
  // A mirror stream of 106.25 MB/s rides V1's resolved paths the whole
  // time. Split across both 1 Gbps fabrics it is 0.425 utilization per
  // path — below the congestion threshold, so the satisfactory era is
  // genuinely quiet. (Load events may be registered in any time order; a
  // sub-threshold stream adds exactly nothing to past run latencies.)
  DIADS_ASSIGN_OR_RETURN(std::vector<san::IoPath> pre_paths,
                         tb.topology.ResolvePaths(tb.db_server, tb.v1));
  const TimeInterval pre_window{at.t0 - Hours(1), at.t_fault};
  for (const san::IoPath& path : pre_paths) {
    DIADS_RETURN_IF_ERROR(at.injector->InjectFabricStream(
        pre_window, 106.25 / static_cast<double>(pre_paths.size()),
        path.ports));
  }
  DIADS_RETURN_IF_ERROR(at.injector->InjectPathProbes(tb.v1, pre_window));
  // The fault: hba0 dies. The config database logs the failure plus the
  // path failovers it forces; queries keep running — the failure is masked
  // — but the whole stream folds onto the surviving fabric-B path: 0.85
  // utilization, past the congestion threshold.
  DIADS_RETURN_IF_ERROR(at.injector->InjectHbaFailure(at.t_fault, tb.db_hba0));
  DIADS_ASSIGN_OR_RETURN(std::vector<san::IoPath> post_paths,
                         tb.topology.ResolvePaths(tb.db_server, tb.v1));
  for (const san::IoPath& path : post_paths) {
    DIADS_RETURN_IF_ERROR(at.injector->InjectFabricStream(
        at.fault_window, 106.25 / static_cast<double>(post_paths.size()),
        path.ports));
  }
  return at.injector->InjectPathProbes(tb.v1, at.fault_window);
}

Status InjectF2(const FaultPoint& at) {
  Testbed& tb = *at.tb;
  // At the fault point the fabric-A subsystem port negotiates down to half
  // bandwidth just as a balanced 106.25 MB/s replication cycle starts
  // across both paths: path B runs at a comfortable 0.425 utilization while
  // the degraded port grinds at 0.85 of its reduced capacity. (Port
  // capacity, like S11's disk failure, has no time dimension in the
  // topology, so the stream is confined to the fault window to keep the
  // satisfactory era's intervals clean.)
  DIADS_ASSIGN_OR_RETURN(std::vector<san::IoPath> paths,
                         tb.topology.ResolvePaths(tb.db_server, tb.v1));
  for (const san::IoPath& path : paths) {
    DIADS_RETURN_IF_ERROR(at.injector->InjectFabricStream(
        at.fault_window, 106.25 / static_cast<double>(paths.size()),
        path.ports));
  }
  DIADS_RETURN_IF_ERROR(at.injector->InjectPathProbes(
      tb.v1, TimeInterval{at.t0 - Hours(1), at.fault_window.end}));
  return at.injector->InjectPortDegradation(at.t_fault, tb.subsystem_port0,
                                            0.5);
}

Status InjectF3(const FaultPoint& at) {
  Testbed& tb = *at.tb;
  // RAID rebuild on V2's pool, whose replication stream crosses fabric A's
  // inter-switch link — the one fabric segment every path-A flow shares —
  // so the rebuild hurts twice: backend bandwidth on P2's disks, congestion
  // on the active fabric. 87.5 MB/s on a 1 Gbps ISL = 0.7 utilization: a
  // moderate ~7 ms congestion tax on every path-A flow — enough to show up
  // on the ISL port counters, not enough to drown out the rebuild itself.
  DIADS_RETURN_IF_ERROR(
      at.injector->InjectRaidRebuild(tb.pool2, at.fault_window, 0.45));
  DIADS_RETURN_IF_ERROR(at.injector->InjectFabricStream(
      at.fault_window, 87.5, {tb.isl_a0, tb.isl_a1}));
  // Path probes keep the ISL's utilization visible in both volumes' fabric
  // latency (congestion is charged through volume-bound events that carry
  // path ports; the raw stream alone only moves the port counters).
  const TimeInterval span{at.t0 - Hours(1), at.fault_window.end};
  DIADS_RETURN_IF_ERROR(at.injector->InjectPathProbes(tb.v1, span));
  return at.injector->InjectPathProbes(tb.v2, span);
}

Status InjectF4(const FaultPoint& at) {
  return at.injector->InjectRetrySnowball(at.tb->v1, at.fault_window,
                                          Minutes(15));
}

Status InjectC1(const FaultPoint& at) {
  // partsupp carries both heavy leaves (the paper plan's V1 hot spot), so
  // the drift inflates exactly the scans whose I/O dominates Q2.
  return at.injector->InjectCompressionDrift(at.t_fault, "partsupp", 2.2);
}

Status InjectC2(const FaultPoint& at) {
  return at.injector->InjectZoneMapStaleness(at.t_fault, "partsupp", 2.5);
}

}  // namespace

const ScenarioSpec& GetScenarioSpec(ScenarioId id) {
  using Id = ScenarioId;
  using P = PlanSource;
  using T = diag::RootCauseType;
  constexpr std::optional<db::BackendKind> kEveryBackend = std::nullopt;

  static const ScenarioSpec kScenarios[] = {
      {Id::kS1SanMisconfiguration, "S1-san-misconfiguration",
       "SAN misconfiguration leading to contention in volume V1",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kSanMisconfigurationContention, "V1"}}, &InjectS1},
      {Id::kS1bBurstyV2, "S1b-bursty-v2",
       "S1 plus bursty extra load on V2 with little query impact",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kSanMisconfigurationContention, "V1"}}, &InjectS1b},
      {Id::kS2DualExternalContention, "S2-dual-external-contention",
       "Contention caused by external workloads on volumes V1 and V2; with "
       "only the former affecting query performance",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kExternalWorkloadContention, "V1"}}, &InjectS2},
      {Id::kS3DataPropertyChange, "S3-data-property-change",
       "SQL DML causes a subtle change in data properties; problem propagates "
       "to SAN causing volume contention",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kDataPropertyChange, "table:partsupp"}}, &InjectS3},
      {Id::kS4ConcurrentDbSan, "S4-concurrent-db-san",
       "Concurrent DB (change in data properties) and SAN (misconfiguration) "
       "problems",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kSanMisconfigurationContention, "V1"},
        {T::kDataPropertyChange, "table:partsupp"}},
       &InjectS4},
      {Id::kS5LockingWithNoise, "S5-locking-with-noise",
       "DB problem (locking-based) and spurious symptoms of volume contention "
       "due to noise",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kLockContention, "table:partsupp"}}, &InjectS5},
      {Id::kS6IndexDrop, "S6-index-drop",
       "Index drop forces the optimizer onto a slower plan",
       &BuildFigure1Testbed, P::kOptimizer, kEveryBackend,
       {{T::kPlanChange, ""}}, &InjectS6},
      {Id::kS7ParamChange, "S7-param-change",
       "cost-parameter misconfiguration flips the plan (random_page_cost on "
       "PostgreSQL, io_block_read_cost on MySQL, zone_map_consult_cost on the "
       "columnar engine)",
       &BuildFigure1Testbed, P::kOptimizer, kEveryBackend,
       {{T::kPlanChange, ""}}, &InjectS7},
      {Id::kS8AnalyzeAfterDrift, "S8-analyze-after-drift",
       "ANALYZE after silent data drift changes the plan",
       &BuildFigure1Testbed, P::kOptimizerAfterSilentDrift, kEveryBackend,
       {{T::kPlanChange, ""}}, &InjectS8},
      // The subject is the testbed's database; InjectS9 names it.
      {Id::kS9CpuSaturation, "S9-cpu-saturation",
       "A competing job saturates the database server's CPUs",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kCpuSaturation, ""}}, &InjectS9},
      {Id::kS10RaidRebuild, "S10-raid-rebuild",
       "RAID rebuild on V1's pool steals backend bandwidth",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kRaidRebuild, "V1"}}, &InjectS10},
      {Id::kS11DiskFailure, "S11-disk-failure",
       "Disk failure concentrates V1's load on the surviving disks",
       &BuildFigure1Testbed, P::kPaperPlan, kEveryBackend,
       {{T::kDiskFailure, "V1"}, {T::kRaidRebuild, "V1"}}, &InjectS11},
      {Id::kF1HbaFailover, "F1-hba-failover",
       "HBA failure masked by path failover; the surviving path congests under "
       "the folded-over traffic",
       &BuildMultipathTestbed, P::kPaperPlan, kEveryBackend,
       {{T::kHbaFailure, "dbserver-hba0"}}, &InjectF1},
      {Id::kF2MultipathImbalance, "F2-multipath-imbalance",
       "A port negotiates down to half bandwidth, unbalancing the multipath "
       "split without any routing change",
       &BuildMultipathTestbed, P::kPaperPlan, kEveryBackend,
       {{T::kMultipathImbalance, "ds6000-pA"}}, &InjectF2},
      {Id::kF3IslRebuildCrosstalk, "F3-isl-rebuild-crosstalk",
       "RAID rebuild whose replication stream crosses the shared inter-switch "
       "link of the active fabric",
       &BuildMultipathTestbed, P::kPaperPlan, kEveryBackend,
       {{T::kRaidRebuild, "V2"}}, &InjectF3},
      {Id::kF4RetrySnowball, "F4-retry-snowball",
       "Timed-out I/Os get reissued into an already-slow volume, snowballing "
       "into a retry storm",
       &BuildMultipathTestbed, P::kPaperPlan, kEveryBackend,
       {{T::kRetryStorm, "V1"}}, &InjectF4},
      // The C family degrades column-store segments, which other engines do
      // not have.
      {Id::kC1CompressionDrift, "C1-compression-drift",
       "Segment compression ratio drifts under churny DML, inflating every "
       "scan of the table without changing a single row count",
       &BuildFigure1Testbed, P::kPaperPlan, db::BackendKind::kColumnar,
       {{T::kCompressionRatioDrift, "table:partsupp"}}, &InjectC1},
      {Id::kC2ZoneMapStale, "C2-zone-map-stale",
       "Stale zone maps defeat segment pruning: zone-pruned scans read "
       "segments they should skip, full vector scans are unaffected",
       &BuildFigure1Testbed, P::kPaperPlan, db::BackendKind::kColumnar,
       {{T::kZoneMapStaleness, "table:partsupp"}}, &InjectC2},
  };
  static_assert(std::size(kScenarios) == static_cast<size_t>(Id::kCount),
                "kScenarios needs one row per ScenarioId, in enum order");

  static const ScenarioSpec kUnknownScenario{
      Id::kCount, "?", "?", &BuildFigure1Testbed, P::kPaperPlan,
      kEveryBackend, {}, nullptr};
  return EnumRow(kScenarios, id, kUnknownScenario);
}

const char* ScenarioName(ScenarioId id) { return GetScenarioSpec(id).name; }

diag::DiagnosisContext ScenarioOutput::MakeContext() const {
  diag::DiagnosisContext ctx;
  ctx.runs = &testbed->runs;
  ctx.query = "Q2";
  ctx.store = &testbed->store;
  ctx.events = &testbed->event_log;
  ctx.apg = apg.get();
  ctx.topology = &testbed->topology;
  ctx.catalog = &testbed->catalog;
  ctx.database = testbed->database;
  ctx.plan_whatif_probe = testbed->MakeWhatIfProber();
  return ctx;
}

bool MatchesGroundTruth(const GroundTruthCause& truth,
                        const diag::RootCause& cause,
                        const ComponentRegistry& registry) {
  if (truth.type != cause.type) return false;
  if (truth.subject_name.empty()) return true;
  if (!registry.Contains(cause.subject)) return false;
  return registry.NameOf(cause.subject) == truth.subject_name;
}

Result<ScenarioOutput> RunScenario(ScenarioId id,
                                   const ScenarioOptions& options) {
  const ScenarioSpec& spec = GetScenarioSpec(id);
  if (spec.id == ScenarioId::kCount || !spec.RunsOn(options.testbed.backend)) {
    return Status::InvalidArgument(StrFormat(
        "scenario %s (id %d) does not run on backend '%s'", spec.name,
        static_cast<int>(id), db::BackendKindName(options.testbed.backend)));
  }
  ScenarioOptions opts = options;
  opts.testbed.seed = options.seed;
  DIADS_ASSIGN_OR_RETURN(std::unique_ptr<Testbed> tb,
                         spec.build_testbed(opts.testbed));
  ExternalWorkloadGen workloads(tb.get());
  FaultInjector injector(tb.get());

  const SimTimeMs t0 = opts.start;
  // Generous horizon estimate; background load must cover everything.
  const SimTimeMs horizon =
      t0 + opts.period * (opts.satisfactory_runs + opts.unsatisfactory_runs +
                          8) +
      Hours(6);
  DIADS_RETURN_IF_ERROR(
      StartBackground(*tb, workloads, TimeInterval{t0 - Hours(1), horizon}));

  // Pre-fault plan: the Figure-1 paper plan for the Table-1 scenarios, the
  // optimizer's choice for the plan-change scenarios.
  std::shared_ptr<const db::Plan> pre_plan = tb->paper_plan;
  if (spec.plan == PlanSource::kOptimizerAfterSilentDrift) {
    // Silent drift before the history: the table grew, the optimizer does
    // not know yet. The satisfactory era runs a stale-statistics plan; the
    // ANALYZE at the fault point flips the join strategy. The drift size is
    // backend-specific (how much growth the engine's cost model absorbs
    // before fresh stats change the plan), and the silent DML path keeps it
    // invisible on every backend (on MySQL this models a
    // STATS_AUTO_RECALC=0 table).
    const db::StatsDriftSpec drift = tb->backend->AnalyzeDriftSpec();
    DIADS_RETURN_IF_ERROR(tb->backend->ApplyDmlSilently(
        t0 - Hours(2), drift.table, drift.factor,
        StrFormat("silent data drift (%s grew %.0fx) before the run history",
                  drift.table.c_str(), drift.factor)));
  }
  if (spec.plan != PlanSource::kPaperPlan) {
    DIADS_ASSIGN_OR_RETURN(db::Plan plan, tb->OptimizeQ2());
    pre_plan = std::make_shared<const db::Plan>(std::move(plan));
  }

  SimTimeMs cursor = t0;
  DIADS_ASSIGN_OR_RETURN(
      TimeInterval sat_span,
      RunBatch(*tb, opts.satisfactory_runs, &cursor, opts.period, pre_plan));

  // --- Fault injection at the transition ----------------------------------
  const SimTimeMs t_fault = cursor + Minutes(2);
  cursor = t_fault + Minutes(8);
  ScenarioOutput out;
  out.id = id;
  out.ground_truth = spec.ground_truth;
  DIADS_RETURN_IF_ERROR(spec.inject(FaultPoint{tb.get(), &injector, t0,
                                               t_fault, {t_fault, horizon},
                                               &out.ground_truth}));

  // Post-fault plan: re-optimized for plan-change scenarios.
  std::shared_ptr<const db::Plan> post_plan = pre_plan;
  if (spec.plan != PlanSource::kPaperPlan) {
    DIADS_ASSIGN_OR_RETURN(db::Plan plan, tb->OptimizeQ2());
    post_plan = std::make_shared<const db::Plan>(std::move(plan));
  }

  DIADS_ASSIGN_OR_RETURN(
      TimeInterval unsat_span,
      RunBatch(*tb, opts.unsatisfactory_runs, &cursor, opts.period,
               post_plan));

  // --- Monitoring, labelling, APG ------------------------------------------
  DIADS_RETURN_IF_ERROR(
      tb->CollectMonitors(t0 - Minutes(30), unsat_span.end + Minutes(30)));
  DIADS_RETURN_IF_ERROR(tb->runs.LabelByTimeWindow(
      "Q2", TimeInterval{t0 - Minutes(1), t_fault},
      db::RunLabel::kSatisfactory));
  DIADS_RETURN_IF_ERROR(tb->runs.LabelByTimeWindow(
      "Q2", TimeInterval{t_fault, unsat_span.end + Minutes(1)},
      db::RunLabel::kUnsatisfactory));

  // The APG is built for the plan under diagnosis: the shared plan for
  // same-plan scenarios, the *pre-fault* plan for plan-change ones (PD
  // stops the drill-down there anyway).
  DIADS_ASSIGN_OR_RETURN(apg::Apg apg, tb->BuildApg(pre_plan));
  out.apg = std::make_unique<apg::Apg>(std::move(apg));
  out.satisfactory_window = sat_span;
  out.unsatisfactory_window = unsat_span;
  out.testbed = std::move(tb);
  return out;
}

}  // namespace diads::workload
