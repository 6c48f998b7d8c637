#include "db/catalog.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace diads::db {

const char* StorageModeName(StorageMode mode) {
  switch (mode) {
    case StorageMode::kSystemManaged:
      return "SMS";
    case StorageMode::kDatabaseManaged:
      return "DMS";
  }
  return "?";
}

const ColumnStats* TableDef::FindColumn(const std::string& column) const {
  for (const ColumnStats& c : columns) {
    if (c.name == column) return &c;
  }
  return nullptr;
}

Catalog::Catalog(ComponentRegistry* registry, EventLog* event_log)
    : registry_(registry), event_log_(event_log) {
  assert(registry != nullptr);
}

Status Catalog::LogEvent(SimTimeMs t, EventType type, ComponentId subject,
                         std::string description,
                         std::map<std::string, std::string> attrs) {
  if (event_log_ == nullptr) return Status::Ok();
  SystemEvent event;
  event.time = t;
  event.type = type;
  event.subject = subject;
  event.description = std::move(description);
  event.attrs = std::move(attrs);
  return event_log_->Append(std::move(event));
}

Status Catalog::AddTablespace(const std::string& name, ComponentId volume,
                              StorageMode mode) {
  if (tablespaces_.count(name)) {
    return Status::AlreadyExists("tablespace exists: " + name);
  }
  Result<ComponentId> id =
      registry_->Register(ComponentKind::kTablespace, "tablespace:" + name);
  DIADS_RETURN_IF_ERROR(id.status());
  TablespaceDef def;
  def.id = *id;
  def.name = name;
  def.volume = volume;
  def.mode = mode;
  tablespaces_.emplace(name, std::move(def));
  tablespace_order_.push_back(name);
  return Status::Ok();
}

Status Catalog::AddTable(const std::string& name,
                         const std::string& tablespace, TableStats stats,
                         std::vector<ColumnStats> columns) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  if (!tablespaces_.count(tablespace)) {
    return Status::NotFound("no tablespace named: " + tablespace);
  }
  Result<ComponentId> id =
      registry_->Register(ComponentKind::kTable, "table:" + name);
  DIADS_RETURN_IF_ERROR(id.status());
  TableDef def;
  def.id = *id;
  def.name = name;
  def.tablespace = tablespace;
  def.optimizer_stats = stats;
  def.actual_stats = stats;
  def.columns = std::move(columns);
  tables_.emplace(name, std::move(def));
  table_order_.push_back(name);
  return Status::Ok();
}

Status Catalog::AddIndex(const std::string& index_name,
                         const std::string& table, const std::string& column,
                         bool unique, double clustering) {
  if (indexes_.count(index_name)) {
    return Status::AlreadyExists("index exists: " + index_name);
  }
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) {
    return Status::NotFound("no table named: " + table);
  }
  if (table_it->second.FindColumn(column) == nullptr) {
    return Status::NotFound(
        StrFormat("table '%s' has no column '%s'", table.c_str(),
                  column.c_str()));
  }
  Result<ComponentId> id =
      registry_->Register(ComponentKind::kIndex, "index:" + index_name);
  DIADS_RETURN_IF_ERROR(id.status());
  IndexDef def;
  def.id = *id;
  def.name = index_name;
  def.table = table;
  def.column = column;
  def.unique = unique;
  def.clustering = clustering;
  // Size the B-tree from the table: ~200 entries per leaf page.
  const double rows = table_it->second.actual_stats.row_count;
  def.leaf_pages = std::max(1.0, rows / 200.0);
  def.height = rows > 0 ? std::max(1, static_cast<int>(
                                          std::ceil(std::log(rows) / std::log(200.0))))
                        : 1;
  indexes_.emplace(index_name, std::move(def));
  return Status::Ok();
}

Status Catalog::DropIndex(SimTimeMs t, const std::string& index_name) {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named: " + index_name);
  }
  if (it->second.dropped) {
    return Status::FailedPrecondition("index already dropped: " + index_name);
  }
  it->second.dropped = true;
  return LogEvent(t, EventType::kIndexDropped, it->second.id,
                  StrFormat("index '%s' on %s(%s) dropped", index_name.c_str(),
                            it->second.table.c_str(),
                            it->second.column.c_str()),
                  {{"index", index_name}});
}

Status Catalog::RecreateIndex(SimTimeMs t, const std::string& index_name) {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named: " + index_name);
  }
  if (!it->second.dropped) {
    return Status::FailedPrecondition("index not dropped: " + index_name);
  }
  it->second.dropped = false;
  return LogEvent(t, EventType::kIndexCreated, it->second.id,
                  StrFormat("index '%s' re-created", index_name.c_str()),
                  {{"index", index_name}});
}

Status Catalog::ApplyDml(SimTimeMs t, const std::string& table, double factor,
                         const std::string& description) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named: " + table);
  }
  if (factor <= 0) {
    return Status::InvalidArgument("DML factor must be positive");
  }
  it->second.actual_stats.row_count *= factor;
  return LogEvent(t, EventType::kDmlBatch, it->second.id,
                  description.empty()
                      ? StrFormat("bulk DML on '%s' (row count x%.2f)",
                                  table.c_str(), factor)
                      : description,
                  {{"table", table}, {"factor", StrFormat("%.4f", factor)}});
}

Status Catalog::Analyze(SimTimeMs t, const std::string& table) {
  return RefreshOptimizerStats(
      t, table, 0.0,
      StrFormat("ANALYZE refreshed optimizer statistics for '%s'",
                table.c_str()));
}

Status Catalog::RefreshOptimizerStats(SimTimeMs t, const std::string& table,
                                      double rel_error,
                                      const std::string& reason) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named: " + table);
  }
  const double old_rows = it->second.optimizer_stats.row_count;
  it->second.optimizer_stats = it->second.actual_stats;
  it->second.optimizer_stats.row_count *= (1.0 + rel_error);
  // Module PD's what-if probe reverts to old_row_count, so it is logged
  // with round-trip precision: sampled refreshes leave non-integer counts.
  return LogEvent(
      t, EventType::kTableStatsChanged, it->second.id,
      StrFormat("%s (row count now %.0f)", reason.c_str(),
                it->second.optimizer_stats.row_count),
      {{"table", table},
       {"old_row_count", StrFormat("%.17g", old_rows)}});
}

Status Catalog::SetIndexDroppedSilently(const std::string& index_name,
                                        bool dropped) {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named: " + index_name);
  }
  it->second.dropped = dropped;
  return Status::Ok();
}

Status Catalog::SetOptimizerStatsSilently(const std::string& table,
                                          TableStats stats) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named: " + table);
  }
  it->second.optimizer_stats = stats;
  return Status::Ok();
}

Status Catalog::SetTableStorageBloatSilently(const std::string& table,
                                             double bloat) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named: " + table);
  }
  if (bloat <= 0) {
    return Status::InvalidArgument("storage bloat must be positive");
  }
  it->second.storage_bloat = bloat;
  return Status::Ok();
}

Status Catalog::SetIndexScanBloatSilently(const std::string& index_name,
                                          double bloat) {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named: " + index_name);
  }
  if (bloat <= 0) {
    return Status::InvalidArgument("scan bloat must be positive");
  }
  it->second.scan_bloat = bloat;
  return Status::Ok();
}

Result<const TablespaceDef*> Catalog::FindTablespace(
    const std::string& name) const {
  auto it = tablespaces_.find(name);
  if (it == tablespaces_.end()) {
    return Status::NotFound("no tablespace named: " + name);
  }
  return &it->second;
}

Result<const TableDef*> Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named: " + name);
  }
  return &it->second;
}

Result<const IndexDef*> Catalog::FindIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named: " + name);
  }
  return &it->second;
}

std::vector<const IndexDef*> Catalog::IndexesOn(
    const std::string& table, const std::string& column) const {
  std::vector<const IndexDef*> out;
  for (const auto& [name, def] : indexes_) {
    if (def.dropped || def.table != table) continue;
    if (!column.empty() && def.column != column) continue;
    out.push_back(&def);
  }
  std::sort(out.begin(), out.end(),
            [](const IndexDef* a, const IndexDef* b) {
              return a->name < b->name;
            });
  return out;
}

Result<ComponentId> Catalog::VolumeOfTable(const std::string& table) const {
  Result<const TableDef*> def = FindTable(table);
  DIADS_RETURN_IF_ERROR(def.status());
  Result<const TablespaceDef*> ts = FindTablespace((*def)->tablespace);
  DIADS_RETURN_IF_ERROR(ts.status());
  return (*ts)->volume;
}

std::vector<std::string> Catalog::TableNames() const { return table_order_; }

std::vector<std::string> Catalog::TablespaceNames() const {
  return tablespace_order_;
}

double Catalog::TotalSizeMb() const {
  double mb = 0;
  for (const auto& [name, def] : tables_) {
    mb += def.actual_stats.pages() * kPageSizeBytes / (1024.0 * 1024.0);
  }
  return mb;
}

}  // namespace diads::db
