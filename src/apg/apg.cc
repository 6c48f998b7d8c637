#include "apg/apg.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <set>

#include "common/strings.h"

namespace diads::apg {
namespace {

/// Deterministic ordering for dependency-path components: by kind first
/// (database/server down to disks), then registration order.
int KindRank(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kDatabase:
      return 0;
    case ComponentKind::kServer:
      return 1;
    case ComponentKind::kHba:
      return 2;
    case ComponentKind::kFcPort:
      return 3;
    case ComponentKind::kFcSwitch:
      return 4;
    case ComponentKind::kStorageSubsystem:
      return 5;
    case ComponentKind::kStoragePool:
      return 6;
    case ComponentKind::kVolume:
      return 7;
    case ComponentKind::kDisk:
      return 8;
    case ComponentKind::kWorkload:
      return 9;
    default:
      return 10;
  }
}

}  // namespace

std::vector<ComponentId> SortPath(const std::set<ComponentId>& parts,
                                  const ComponentRegistry& registry) {
  std::vector<ComponentId> out(parts.begin(), parts.end());
  std::sort(out.begin(), out.end(), [&registry](ComponentId a, ComponentId b) {
    const int ra = KindRank(registry.KindOf(a));
    const int rb = KindRank(registry.KindOf(b));
    if (ra != rb) return ra < rb;
    return a.value < b.value;
  });
  return out;
}

Result<ComponentId> Apg::OperatorComponent(int op_index) const {
  if (op_index < 0 || op_index >= static_cast<int>(op_components_.size())) {
    return Status::OutOfRange(StrFormat("op index %d out of range", op_index));
  }
  return op_components_[static_cast<size_t>(op_index)];
}

Result<int> Apg::OpIndexOf(ComponentId component) const {
  for (size_t i = 0; i < op_components_.size(); ++i) {
    if (op_components_[i] == component) return static_cast<int>(i);
  }
  return Status::NotFound("component is not an operator of this APG");
}

Result<ComponentId> Apg::VolumeOfOp(int op_index) const {
  if (op_index < 0 || op_index >= static_cast<int>(op_volume_.size())) {
    return Status::OutOfRange(StrFormat("op index %d out of range", op_index));
  }
  const ComponentId vol = op_volume_[static_cast<size_t>(op_index)];
  if (!vol.valid()) {
    return Status::NotFound(
        StrFormat("operator O%d is not a scan",
                  plan_->op(op_index).op_number));
  }
  return vol;
}

Result<std::vector<ComponentId>> Apg::InnerPath(int op_index) const {
  if (op_index < 0 || op_index >= static_cast<int>(inner_.size())) {
    return Status::OutOfRange(StrFormat("op index %d out of range", op_index));
  }
  return inner_[static_cast<size_t>(op_index)];
}

Result<std::vector<ComponentId>> Apg::OuterPath(int op_index) const {
  if (op_index < 0 || op_index >= static_cast<int>(outer_.size())) {
    return Status::OutOfRange(StrFormat("op index %d out of range", op_index));
  }
  return outer_[static_cast<size_t>(op_index)];
}

std::vector<int> Apg::LeafOpsOnComponent(ComponentId component) const {
  std::vector<int> out;
  for (int leaf : plan_->LeafIndexes()) {
    const std::vector<ComponentId>& path = inner_[static_cast<size_t>(leaf)];
    if (std::find(path.begin(), path.end(), component) != path.end()) {
      out.push_back(leaf);
    }
  }
  return out;
}

std::vector<ComponentId> Apg::PlanVolumes() const {
  std::set<ComponentId> vols;
  for (ComponentId v : op_volume_) {
    if (v.valid()) vols.insert(v);
  }
  return std::vector<ComponentId>(vols.begin(), vols.end());
}

ApgBuilder::ApgBuilder(const db::Catalog* catalog,
                       const san::SanTopology* topology,
                       ComponentRegistry* registry)
    : catalog_(catalog), topology_(topology), registry_(registry) {
  assert(catalog_ && topology_ && registry_);
}

void ApgBuilder::BindWorkload(ComponentId workload, ComponentId volume) {
  workloads_.push_back(WorkloadBinding{workload, volume});
}

Result<Apg> ApgBuilder::Build(std::shared_ptr<const db::Plan> plan,
                              ComponentId query, ComponentId database,
                              ComponentId db_server) const {
  if (plan == nullptr) {
    return Status::InvalidArgument("plan must not be null");
  }
  Apg apg;
  apg.plan_ = plan;
  apg.topology_ = topology_;
  apg.catalog_ = catalog_;
  apg.query_ = query;
  apg.database_ = database;
  apg.db_server_ = db_server;
  apg.workloads_ = workloads_;

  const size_t n = plan->size();
  apg.op_components_.resize(n);
  apg.op_volume_.resize(n);
  apg.inner_.resize(n);
  apg.outer_.resize(n);

  // Register operator components (stable names keyed by plan fingerprint,
  // so the same plan re-built yields the same ids).
  const std::string fp = plan->FingerprintHex();
  for (const db::PlanOp& op : plan->ops()) {
    Result<ComponentId> id = registry_->GetOrRegister(
        ComponentKind::kPlanOperator,
        StrFormat("%s/P%s/O%d", plan->query_name().c_str(), fp.c_str(),
                  op.op_number));
    DIADS_RETURN_IF_ERROR(id.status());
    apg.op_components_[static_cast<size_t>(op.index)] = *id;
  }

  // Leaf scans: resolve tablespace -> volume -> physical path.
  for (const db::PlanOp& op : plan->ops()) {
    if (!op.is_scan()) continue;
    Result<ComponentId> volume = catalog_->VolumeOfTable(op.table);
    DIADS_RETURN_IF_ERROR(volume.status());
    apg.op_volume_[static_cast<size_t>(op.index)] = *volume;

    // Union over every surviving multipath route: the APG must cover all
    // components the I/O may touch, not just the active path.
    Result<std::vector<san::IoPath>> paths =
        topology_->ResolvePaths(db_server, *volume);
    DIADS_RETURN_IF_ERROR(paths.status());

    std::set<ComponentId> inner;
    inner.insert(database);
    for (const san::IoPath& path : *paths) {
      for (ComponentId c : path.AllComponents()) inner.insert(c);
    }
    apg.inner_[static_cast<size_t>(op.index)] =
        SortPath(inner, topology_->registry());

    // Outer path: sharer volumes + workloads known to drive them.
    std::set<ComponentId> outer;
    for (ComponentId sharer : topology_->VolumesSharingDisks(*volume)) {
      outer.insert(sharer);
      for (const WorkloadBinding& wb : workloads_) {
        if (wb.volume == sharer) outer.insert(wb.workload);
      }
    }
    apg.outer_[static_cast<size_t>(op.index)] =
        SortPath(outer, topology_->registry());
  }

  // Interior operators: union over the leaves of their subtree.
  std::function<void(int)> fill = [&](int index) {
    const db::PlanOp& op = plan->op(index);
    for (int child : op.children) fill(child);
    if (op.is_scan()) return;
    std::set<ComponentId> inner;
    std::set<ComponentId> outer;
    inner.insert(database);
    std::function<void(int)> collect = [&](int sub) {
      for (ComponentId c : apg.inner_[static_cast<size_t>(sub)]) {
        inner.insert(c);
      }
      for (ComponentId c : apg.outer_[static_cast<size_t>(sub)]) {
        outer.insert(c);
      }
      for (int child : plan->op(sub).children) collect(child);
    };
    collect(index);
    apg.inner_[static_cast<size_t>(index)] =
        SortPath(inner, topology_->registry());
    apg.outer_[static_cast<size_t>(index)] =
        SortPath(outer, topology_->registry());
  };
  fill(plan->root_index());

  std::set<ComponentId> parts;
  for (const auto& path : apg.inner_) parts.insert(path.begin(), path.end());
  for (const auto& path : apg.outer_) parts.insert(path.begin(), path.end());
  apg.all_components_ = SortPath(parts, topology_->registry());
  return apg;
}

ApgAnnotations AnnotateApg(const Apg& apg,
                           const monitor::TimeSeriesStore& store,
                           const TimeInterval& interval) {
  ApgAnnotations out;
  out.interval = interval;
  for (ComponentId component : apg.AllComponents()) {
    ComponentAnnotation ann;
    ann.component = component;
    for (monitor::MetricId metric : store.MetricsFor(component)) {
      Result<double> mean = store.MeanIn(component, metric, interval);
      if (mean.ok()) ann.metric_means[metric] = *mean;
    }
    if (!ann.metric_means.empty()) {
      out.per_component.emplace(component, std::move(ann));
    }
  }
  return out;
}

}  // namespace diads::apg
