// Annotated Plan Graphs (Section 3).
//
// An APG ties one query's execution plan to the SAN it runs on: every plan
// operator is linked — through its table's tablespace and volume — to the
// full physical chain (server, HBA, FC switches, storage subsystem, pool,
// volume, disks) it depends on.
//
// Dependency paths (Section 3):
//   * The *inner* dependency path of an operator O holds the components
//     whose performance can affect O directly: the database instance, the
//     server, and the storage chain of every volume O's subtree reads.
//   * The *outer* dependency path holds components that affect O
//     indirectly: volumes sharing physical disks with O's volumes, and the
//     workloads driving those sharer volumes (the channel scenario 1's
//     misconfigured volume V' uses).
//
// Annotations: each APG component is annotated with its monitoring data
// restricted to a run's [tb, te] interval — AnnotateApg() produces exactly
// that view over the TimeSeriesStore.
#ifndef DIADS_APG_APG_H_
#define DIADS_APG_APG_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "db/catalog.h"
#include "db/plan.h"
#include "monitor/timeseries.h"
#include "san/topology.h"

namespace diads::apg {

/// A workload known to drive a volume (for outer paths). Registered by the
/// testbed for each external application stream.
struct WorkloadBinding {
  ComponentId workload;
  ComponentId volume;
};

/// The Annotated Plan Graph for one (query, plan, server) triple.
class Apg {
 public:
  const db::Plan& plan() const { return *plan_; }
  std::shared_ptr<const db::Plan> plan_ptr() const { return plan_; }
  ComponentId query() const { return query_; }
  ComponentId database() const { return database_; }
  ComponentId db_server() const { return db_server_; }

  /// The registered component id of a plan operator.
  Result<ComponentId> OperatorComponent(int op_index) const;
  /// Reverse lookup: plan op index for an operator component id.
  Result<int> OpIndexOf(ComponentId component) const;

  /// The volume a scan operator reads; NotFound for non-scan operators.
  Result<ComponentId> VolumeOfOp(int op_index) const;

  /// Inner dependency path of an operator (see file comment). For interior
  /// operators this is the union over the leaf scans in their subtree.
  /// Deterministic order: database, server, fabric, subsystem, pools,
  /// volumes, disks.
  Result<std::vector<ComponentId>> InnerPath(int op_index) const;

  /// Outer dependency path: sharer volumes and their workloads.
  Result<std::vector<ComponentId>> OuterPath(int op_index) const;

  /// Leaf operator indexes whose inner path includes `component`.
  std::vector<int> LeafOpsOnComponent(ComponentId component) const;

  /// All volumes any leaf of the plan reads.
  std::vector<ComponentId> PlanVolumes() const;

  /// Every distinct component appearing in any inner or outer path, in
  /// SortPath order. Computed once by ApgBuilder::Build.
  const std::vector<ComponentId>& AllComponents() const {
    return all_components_;
  }

  const san::SanTopology& topology() const { return *topology_; }
  const db::Catalog& catalog() const { return *catalog_; }
  const std::vector<WorkloadBinding>& workloads() const { return workloads_; }

 private:
  friend class ApgBuilder;

  std::shared_ptr<const db::Plan> plan_;
  const san::SanTopology* topology_ = nullptr;
  const db::Catalog* catalog_ = nullptr;
  ComponentId query_;
  ComponentId database_;
  ComponentId db_server_;
  std::vector<ComponentId> op_components_;          ///< By op index.
  std::vector<ComponentId> op_volume_;              ///< Invalid if non-scan.
  std::vector<std::vector<ComponentId>> inner_;     ///< By op index.
  std::vector<std::vector<ComponentId>> outer_;     ///< By op index.
  std::vector<ComponentId> all_components_;         ///< See AllComponents.
  std::vector<WorkloadBinding> workloads_;
};

/// The order of every dependency path and of AllComponents: by kind
/// (database, server, fabric, subsystem, pools, volumes, disks,
/// workloads), then registration order.
std::vector<ComponentId> SortPath(const std::set<ComponentId>& parts,
                                  const ComponentRegistry& registry);

/// Builds APGs from the catalog, topology, and a plan — the construction
/// procedure of Section 3.1 (tablespace mapping + SAN configuration
/// correlation).
class ApgBuilder {
 public:
  /// All pointers must outlive built Apg instances. `registry` is used to
  /// register per-operator components ("<query>/P<fingerprint>/O<k>").
  ApgBuilder(const db::Catalog* catalog, const san::SanTopology* topology,
             ComponentRegistry* registry);

  /// Registers a workload->volume binding included in subsequent builds.
  void BindWorkload(ComponentId workload, ComponentId volume);

  /// Builds the APG for `plan` executed by `database` on `db_server`.
  Result<Apg> Build(std::shared_ptr<const db::Plan> plan, ComponentId query,
                    ComponentId database, ComponentId db_server) const;

 private:
  const db::Catalog* catalog_;
  const san::SanTopology* topology_;
  ComponentRegistry* registry_;
  std::vector<WorkloadBinding> workloads_;
};

/// Per-component annotation: interval-mean of every collected metric.
struct ComponentAnnotation {
  ComponentId component;
  std::map<monitor::MetricId, double> metric_means;
};

/// Annotations of a whole APG for one run interval.
struct ApgAnnotations {
  TimeInterval interval;
  std::unordered_map<ComponentId, ComponentAnnotation> per_component;
};

/// Slices `store` over `interval` for every APG component (Section 3's
/// per-execution annotation).
ApgAnnotations AnnotateApg(const Apg& apg,
                           const monitor::TimeSeriesStore& store,
                           const TimeInterval& interval);

}  // namespace diads::apg

#endif  // DIADS_APG_APG_H_
