#include "workload/testbed.h"

#include <cassert>

#include "common/strings.h"
#include "san/generator.h"

namespace diads::workload {

Testbed::Testbed(const TestbedOptions& opts)
    : options(opts),
      rng(opts.seed),
      registry(),
      event_log(),
      topology(&registry),
      config_db(&topology, &event_log),
      perf_model(&topology),
      store(),
      noise(opts.default_noise, rng.Child("noise")),
      san_collector(&topology, &perf_model, &store, &noise, &event_log,
                    monitor::SanCollectorConfig{opts.monitoring_interval,
                                                25.0, 0.85}),
      catalog(&registry, &event_log),
      backend(db::MakeDbBackend(
          opts.backend, db::BackendInit{&catalog, opts.scale_factor,
                                        opts.buffer_pool_mb,
                                        opts.db_params})),
      buffer_pool(&catalog, opts.buffer_pool_mb),
      locks(),
      activity(),
      db_collector(&activity, &locks, &catalog, ComponentId{}, &store, &noise,
                   opts.monitoring_interval),
      runs(),
      apg_builder(&catalog, &topology, &registry) {}

db::Executor Testbed::MakeExecutor() {
  db::ExecutorContext ctx;
  ctx.catalog = &catalog;
  ctx.topology = &topology;
  ctx.perf_model = &perf_model;
  ctx.buffer_pool = &buffer_pool;
  ctx.locks = &locks;
  ctx.activity = &activity;
  ctx.db_server = db_server;
  ctx.database = database;
  ctx.params = backend->ExecutorParams();
  return db::Executor(ctx, rng.Child(StrFormat("executor-%zu", runs.size())));
}

Result<int> Testbed::RunQ2(SimTimeMs at, std::shared_ptr<const db::Plan> plan) {
  if (plan == nullptr) plan = paper_plan;
  db::Executor executor = MakeExecutor();
  Result<db::QueryRunRecord> record = executor.Execute(plan, at);
  DIADS_RETURN_IF_ERROR(record.status());
  return runs.AddRun(std::move(*record));
}

Result<db::Plan> Testbed::OptimizeQ2() const {
  return backend->OptimizeQuery(q2_spec);
}

Status Testbed::CollectMonitors(SimTimeMs from, SimTimeMs to) {
  DIADS_RETURN_IF_ERROR(san_collector.CollectRange(from, to));
  // Collection is the model's last heavy reader: a collected testbed keeps
  // its registrations, not their time index.
  perf_model.ReleaseIndex();
  return db_collector.CollectRange(from, to);
}

Result<apg::Apg> Testbed::BuildApg(std::shared_ptr<const db::Plan> plan) {
  if (plan == nullptr) plan = paper_plan;
  return apg_builder.Build(plan, query_q2, database, db_server);
}

std::function<Result<uint64_t>(const SystemEvent&)>
Testbed::MakeWhatIfProber() {
  return [this](const SystemEvent& event) -> Result<uint64_t> {
    switch (event.type) {
      case EventType::kIndexDropped: {
        auto it = event.attrs.find("index");
        if (it == event.attrs.end()) {
          return Status::InvalidArgument(
              "kIndexDropped event lacks 'index' attribute");
        }
        DIADS_RETURN_IF_ERROR(
            catalog.SetIndexDroppedSilently(it->second, false));
        Result<db::Plan> plan = OptimizeQ2();
        Status restore = catalog.SetIndexDroppedSilently(it->second, true);
        DIADS_RETURN_IF_ERROR(restore);
        DIADS_RETURN_IF_ERROR(plan.status());
        return plan->Fingerprint();
      }
      case EventType::kIndexCreated: {
        auto it = event.attrs.find("index");
        if (it == event.attrs.end()) {
          return Status::InvalidArgument(
              "kIndexCreated event lacks 'index' attribute");
        }
        DIADS_RETURN_IF_ERROR(
            catalog.SetIndexDroppedSilently(it->second, true));
        Result<db::Plan> plan = OptimizeQ2();
        Status restore = catalog.SetIndexDroppedSilently(it->second, false);
        DIADS_RETURN_IF_ERROR(restore);
        DIADS_RETURN_IF_ERROR(plan.status());
        return plan->Fingerprint();
      }
      case EventType::kDbParamChanged: {
        auto name_it = event.attrs.find("param");
        auto old_it = event.attrs.find("old_value");
        if (name_it == event.attrs.end() || old_it == event.attrs.end()) {
          return Status::InvalidArgument(
              "kDbParamChanged event lacks 'param'/'old_value' attributes");
        }
        Result<db::Plan> plan = backend->OptimizeQueryWithParam(
            q2_spec, name_it->second, std::stod(old_it->second));
        DIADS_RETURN_IF_ERROR(plan.status());
        return plan->Fingerprint();
      }
      case EventType::kTableStatsChanged: {
        auto table_it = event.attrs.find("table");
        auto rows_it = event.attrs.find("old_row_count");
        if (table_it == event.attrs.end() || rows_it == event.attrs.end()) {
          return Status::InvalidArgument(
              "kTableStatsChanged event lacks 'table'/'old_row_count'");
        }
        Result<const db::TableDef*> table = catalog.FindTable(table_it->second);
        DIADS_RETURN_IF_ERROR(table.status());
        const db::TableStats current = (*table)->optimizer_stats;
        db::TableStats reverted = current;
        reverted.row_count = std::stod(rows_it->second);
        DIADS_RETURN_IF_ERROR(
            catalog.SetOptimizerStatsSilently(table_it->second, reverted));
        Result<db::Plan> plan = OptimizeQ2();
        Status restore =
            catalog.SetOptimizerStatsSilently(table_it->second, current);
        DIADS_RETURN_IF_ERROR(restore);
        DIADS_RETURN_IF_ERROR(plan.status());
        return plan->Fingerprint();
      }
      default:
        return Status::Unimplemented(
            StrFormat("no what-if probe for event type %s",
                      EventTypeName(event.type)));
    }
  };
}

namespace {

// Storage layout (P1/P2, disks 1-10, V1-V4), LUN mappings, TPC-H catalog,
// the Q2 paper plan, and the ambient V3/V4 workloads — identical between the
// Figure-1 and multipath testbeds, so the F scenarios exercise the exact
// database/plan/volume schema the conformance suite pins. Expects servers,
// fabric, zoning, and tb->subsystem already built.
Status FinishStorageAndDatabase(Testbed* tb, const TestbedOptions& options) {
  DIADS_ASSIGN_OR_RETURN(
      tb->pool1, tb->topology.AddPool("P1", tb->subsystem,
                                      san::RaidLevel::kRaid5));
  DIADS_ASSIGN_OR_RETURN(
      tb->pool2, tb->topology.AddPool("P2", tb->subsystem,
                                      san::RaidLevel::kRaid5));
  for (int i = 1; i <= 4; ++i) {
    DIADS_RETURN_IF_ERROR(
        tb->topology.AddDisk(StrFormat("disk%d", i), tb->pool1).status());
  }
  for (int i = 5; i <= 10; ++i) {
    DIADS_RETURN_IF_ERROR(
        tb->topology.AddDisk(StrFormat("disk%d", i), tb->pool2).status());
  }
  DIADS_ASSIGN_OR_RETURN(tb->v1, tb->topology.AddVolume("V1", tb->pool1, 200));
  DIADS_ASSIGN_OR_RETURN(tb->v3, tb->topology.AddVolume("V3", tb->pool1, 200));
  DIADS_ASSIGN_OR_RETURN(tb->v2, tb->topology.AddVolume("V2", tb->pool2, 400));
  DIADS_ASSIGN_OR_RETURN(tb->v4, tb->topology.AddVolume("V4", tb->pool2, 300));

  DIADS_RETURN_IF_ERROR(tb->topology.MapLun(tb->db_server, tb->v1));
  DIADS_RETURN_IF_ERROR(tb->topology.MapLun(tb->db_server, tb->v2));
  DIADS_RETURN_IF_ERROR(tb->topology.MapLun(tb->app_server, tb->v3));
  DIADS_RETURN_IF_ERROR(tb->topology.MapLun(tb->app_server, tb->v4));
  DIADS_RETURN_IF_ERROR(tb->topology.Validate());

  // --- Database -------------------------------------------------------------
  DIADS_ASSIGN_OR_RETURN(
      tb->database,
      tb->registry.Register(ComponentKind::kDatabase,
                            tb->backend->DatabaseComponentName("dbserver")));
  DIADS_ASSIGN_OR_RETURN(
      tb->query_q2, tb->registry.Register(ComponentKind::kQuery, "Q2"));
  db::TpchOptions tpch;
  tpch.scale_factor = options.scale_factor;
  tpch.volume_v1 = tb->v1;
  tpch.volume_v2 = tb->v2;
  DIADS_RETURN_IF_ERROR(db::BuildTpchCatalog(tpch, &tb->catalog));

  tb->q2_spec = db::MakeTpchQ2Spec();
  DIADS_ASSIGN_OR_RETURN(db::Plan plan, tb->backend->MakePaperPlan());
  tb->paper_plan = std::make_shared<const db::Plan>(std::move(plan));

  // Re-bind the DB collector now that the database component exists.
  tb->db_collector =
      db::DbCollector(&tb->activity, &tb->locks, &tb->catalog, tb->database,
                      &tb->store, &tb->noise, options.monitoring_interval);

  // --- Ambient background workloads on V3/V4 --------------------------------
  DIADS_ASSIGN_OR_RETURN(
      tb->workload_v3,
      tb->registry.Register(ComponentKind::kWorkload, "app-workload-v3"));
  DIADS_ASSIGN_OR_RETURN(
      tb->workload_v4,
      tb->registry.Register(ComponentKind::kWorkload, "app-workload-v4"));
  tb->apg_builder.BindWorkload(tb->workload_v3, tb->v3);
  tb->apg_builder.BindWorkload(tb->workload_v4, tb->v4);
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<Testbed>> BuildFigure1Testbed(
    const TestbedOptions& options) {
  auto tb = std::make_unique<Testbed>(options);

  // --- Servers and fabric ---------------------------------------------------
  DIADS_ASSIGN_OR_RETURN(tb->db_server,
                         tb->topology.AddServer("dbserver", "RedHat Linux"));
  DIADS_ASSIGN_OR_RETURN(ComponentId db_hba,
                         tb->topology.AddHba("dbserver-hba0", tb->db_server));
  DIADS_ASSIGN_OR_RETURN(
      tb->db_hba_port,
      tb->topology.AddPort("dbserver-hba0-p0", san::PortOwner::kHba, db_hba));

  DIADS_ASSIGN_OR_RETURN(tb->app_server,
                         tb->topology.AddServer("appserver", "AIX"));
  DIADS_ASSIGN_OR_RETURN(ComponentId app_hba,
                         tb->topology.AddHba("appserver-hba0", tb->app_server));
  DIADS_ASSIGN_OR_RETURN(
      tb->app_hba_port,
      tb->topology.AddPort("appserver-hba0-p0", san::PortOwner::kHba, app_hba));

  DIADS_ASSIGN_OR_RETURN(tb->edge_switch1,
                         tb->topology.AddSwitch("edge-sw1", false));
  DIADS_ASSIGN_OR_RETURN(tb->core_switch,
                         tb->topology.AddSwitch("core-sw1", true));
  DIADS_ASSIGN_OR_RETURN(tb->edge_switch2,
                         tb->topology.AddSwitch("edge-sw2", false));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId e1p0, tb->topology.AddPort("edge-sw1-p0",
                                             san::PortOwner::kSwitch,
                                             tb->edge_switch1));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId e1p1, tb->topology.AddPort("edge-sw1-p1",
                                             san::PortOwner::kSwitch,
                                             tb->edge_switch1));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId e1p2, tb->topology.AddPort("edge-sw1-p2",
                                             san::PortOwner::kSwitch,
                                             tb->edge_switch1));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId c0p0, tb->topology.AddPort("core-sw1-p0",
                                             san::PortOwner::kSwitch,
                                             tb->core_switch));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId c0p1, tb->topology.AddPort("core-sw1-p1",
                                             san::PortOwner::kSwitch,
                                             tb->core_switch));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId e2p0, tb->topology.AddPort("edge-sw2-p0",
                                             san::PortOwner::kSwitch,
                                             tb->edge_switch2));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId e2p1, tb->topology.AddPort("edge-sw2-p1",
                                             san::PortOwner::kSwitch,
                                             tb->edge_switch2));

  DIADS_ASSIGN_OR_RETURN(tb->subsystem,
                         tb->topology.AddSubsystem("ds6000", "IBM DS6000"));
  DIADS_ASSIGN_OR_RETURN(
      tb->subsystem_port0,
      tb->topology.AddPort("ds6000-p0", san::PortOwner::kSubsystem,
                           tb->subsystem));
  DIADS_ASSIGN_OR_RETURN(
      tb->subsystem_port1,
      tb->topology.AddPort("ds6000-p1", san::PortOwner::kSubsystem,
                           tb->subsystem));

  DIADS_RETURN_IF_ERROR(tb->topology.Link(tb->db_hba_port, e1p0));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(tb->app_hba_port, e1p2));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(e1p1, c0p0));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(c0p1, e2p0));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(e2p1, tb->subsystem_port0));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(e2p1, tb->subsystem_port1));

  DIADS_RETURN_IF_ERROR(tb->topology.AddZone(
      "db-zone", {tb->db_hba_port, tb->subsystem_port0}));
  DIADS_RETURN_IF_ERROR(tb->topology.AddZone(
      "app-zone", {tb->app_hba_port, tb->subsystem_port1}));

  // --- Storage, catalog, database, ambient workloads ------------------------
  DIADS_RETURN_IF_ERROR(FinishStorageAndDatabase(tb.get(), options));

  return tb;
}

Result<std::unique_ptr<Testbed>> BuildMultipathTestbed(
    const TestbedOptions& options) {
  auto tb = std::make_unique<Testbed>(options);
  // All fabric ports run at 1 Gbps (125 MB/s effective) — deliberately slow
  // so that collapsing two paths onto one, or halving one port's capacity,
  // crosses the perf model's congestion threshold.
  constexpr double kGbps = 1.0;

  // --- Servers: the db server gets one HBA per fabric -----------------------
  DIADS_ASSIGN_OR_RETURN(tb->db_server,
                         tb->topology.AddServer("dbserver", "RedHat Linux"));
  DIADS_ASSIGN_OR_RETURN(tb->db_hba0,
                         tb->topology.AddHba("dbserver-hba0", tb->db_server));
  DIADS_ASSIGN_OR_RETURN(
      tb->db_hba_port,
      tb->topology.AddPort("dbserver-hba0-p0", san::PortOwner::kHba,
                           tb->db_hba0, kGbps));
  DIADS_ASSIGN_OR_RETURN(tb->db_hba1,
                         tb->topology.AddHba("dbserver-hba1", tb->db_server));
  DIADS_ASSIGN_OR_RETURN(
      tb->db_hba1_port,
      tb->topology.AddPort("dbserver-hba1-p0", san::PortOwner::kHba,
                           tb->db_hba1, kGbps));

  DIADS_ASSIGN_OR_RETURN(tb->app_server,
                         tb->topology.AddServer("appserver", "AIX"));
  DIADS_ASSIGN_OR_RETURN(ComponentId app_hba,
                         tb->topology.AddHba("appserver-hba0", tb->app_server));
  DIADS_ASSIGN_OR_RETURN(
      tb->app_hba_port,
      tb->topology.AddPort("appserver-hba0-p0", san::PortOwner::kHba, app_hba,
                           kGbps));

  // --- Fabric A: host switch -- ISL -- storage switch -----------------------
  DIADS_ASSIGN_OR_RETURN(tb->fabric_a_host_switch,
                         tb->topology.AddSwitch("mpa-host-sw", false));
  DIADS_ASSIGN_OR_RETURN(tb->fabric_a_storage_switch,
                         tb->topology.AddSwitch("mpa-stor-sw", false));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId a_host_p0,
      tb->topology.AddPort("mpa-host-sw-p0", san::PortOwner::kSwitch,
                           tb->fabric_a_host_switch, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      tb->isl_a0, tb->topology.AddPort("mpa-host-sw-p1",
                                       san::PortOwner::kSwitch,
                                       tb->fabric_a_host_switch, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      tb->isl_a1, tb->topology.AddPort("mpa-stor-sw-p0",
                                       san::PortOwner::kSwitch,
                                       tb->fabric_a_storage_switch, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId a_stor_p1,
      tb->topology.AddPort("mpa-stor-sw-p1", san::PortOwner::kSwitch,
                           tb->fabric_a_storage_switch, kGbps));

  // --- Fabric B: same shape, plus the app server's attachment ---------------
  DIADS_ASSIGN_OR_RETURN(tb->fabric_b_host_switch,
                         tb->topology.AddSwitch("mpb-host-sw", false));
  DIADS_ASSIGN_OR_RETURN(tb->fabric_b_storage_switch,
                         tb->topology.AddSwitch("mpb-stor-sw", false));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId b_host_p0,
      tb->topology.AddPort("mpb-host-sw-p0", san::PortOwner::kSwitch,
                           tb->fabric_b_host_switch, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId b_host_p1,
      tb->topology.AddPort("mpb-host-sw-p1", san::PortOwner::kSwitch,
                           tb->fabric_b_host_switch, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      tb->isl_b0, tb->topology.AddPort("mpb-host-sw-p2",
                                       san::PortOwner::kSwitch,
                                       tb->fabric_b_host_switch, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      tb->isl_b1, tb->topology.AddPort("mpb-stor-sw-p0",
                                       san::PortOwner::kSwitch,
                                       tb->fabric_b_storage_switch, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      ComponentId b_stor_p1,
      tb->topology.AddPort("mpb-stor-sw-p1", san::PortOwner::kSwitch,
                           tb->fabric_b_storage_switch, kGbps));

  // --- Subsystem: one port per fabric ---------------------------------------
  DIADS_ASSIGN_OR_RETURN(tb->subsystem,
                         tb->topology.AddSubsystem("ds6000", "IBM DS6000"));
  DIADS_ASSIGN_OR_RETURN(
      tb->subsystem_port0,
      tb->topology.AddPort("ds6000-pA", san::PortOwner::kSubsystem,
                           tb->subsystem, kGbps));
  DIADS_ASSIGN_OR_RETURN(
      tb->subsystem_port1,
      tb->topology.AddPort("ds6000-pB", san::PortOwner::kSubsystem,
                           tb->subsystem, kGbps));

  // --- Cabling --------------------------------------------------------------
  DIADS_RETURN_IF_ERROR(tb->topology.Link(tb->db_hba_port, a_host_p0));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(tb->isl_a0, tb->isl_a1));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(a_stor_p1, tb->subsystem_port0));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(tb->db_hba1_port, b_host_p0));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(tb->app_hba_port, b_host_p1));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(tb->isl_b0, tb->isl_b1));
  DIADS_RETURN_IF_ERROR(tb->topology.Link(b_stor_p1, tb->subsystem_port1));

  // --- Zoning: the db server sees the subsystem through both fabrics --------
  DIADS_RETURN_IF_ERROR(tb->topology.AddZone(
      "mp-zone-a", {tb->db_hba_port, tb->subsystem_port0}));
  DIADS_RETURN_IF_ERROR(tb->topology.AddZone(
      "mp-zone-b",
      {tb->db_hba1_port, tb->app_hba_port, tb->subsystem_port1}));

  // --- Storage, catalog, database, ambient workloads ------------------------
  DIADS_RETURN_IF_ERROR(FinishStorageAndDatabase(tb.get(), options));

  // --- Optional generated scale fabric (bench_topology_scale) ---------------
  // Idle background structure sharing the registry/topology; its own
  // servers, zones, and LUN mappings never intersect the core testbed's.
  if (options.add_scale_fabric) {
    DIADS_RETURN_IF_ERROR(
        san::GenerateFabricTopology(&tb->topology, san::LargeFabricSpec())
            .status());
  }

  return tb;
}

}  // namespace diads::workload
