#include "common/event_log.h"

#include <algorithm>

#include "common/enum_table.h"

namespace diads {

namespace {

/// One row per EventType, in enum order.
struct EventTypeRow {
  EventType type;
  const char* name;
  /// Can change which plan the optimizer picks (IsPlanAffectingEvent).
  bool plan_affecting;
};

constexpr EventTypeRow kEventTypes[] = {
    {EventType::kVolumeCreated, "VolumeCreated", false},
    {EventType::kVolumeDeleted, "VolumeDeleted", false},
    {EventType::kZoningChanged, "ZoningChanged", false},
    {EventType::kLunMappingChanged, "LunMappingChanged", false},
    {EventType::kDiskFailed, "DiskFailed", false},
    {EventType::kDiskRecovered, "DiskRecovered", false},
    {EventType::kRaidRebuildStarted, "RaidRebuildStarted", false},
    {EventType::kRaidRebuildCompleted, "RaidRebuildCompleted", false},
    {EventType::kExternalWorkloadStarted, "ExternalWorkloadStarted", false},
    {EventType::kExternalWorkloadStopped, "ExternalWorkloadStopped", false},
    {EventType::kVolumePerfDegraded, "VolumePerfDegraded", false},
    {EventType::kSubsystemHighLoad, "SubsystemHighLoad", false},
    {EventType::kIndexCreated, "IndexCreated", true},
    {EventType::kIndexDropped, "IndexDropped", true},
    {EventType::kDbParamChanged, "DbParamChanged", true},
    {EventType::kTableStatsChanged, "TableStatsChanged", true},
    {EventType::kDmlBatch, "DmlBatch", false},
    {EventType::kTableLockContention, "TableLockContention", false},
    {EventType::kHbaFailed, "HbaFailed", false},
    {EventType::kHbaRecovered, "HbaRecovered", false},
    {EventType::kPortFailed, "PortFailed", false},
    {EventType::kPortRecovered, "PortRecovered", false},
    {EventType::kSwitchFailed, "SwitchFailed", false},
    {EventType::kSwitchRecovered, "SwitchRecovered", false},
    {EventType::kLinkFailed, "LinkFailed", false},
    {EventType::kLinkRecovered, "LinkRecovered", false},
    {EventType::kPortDegraded, "PortDegraded", false},
    {EventType::kPathFailover, "PathFailover", false},
    {EventType::kRetryStormDetected, "RetryStormDetected", false},
    {EventType::kCompressionRatioDrifted, "CompressionRatioDrifted", false},
    {EventType::kZoneMapStale, "ZoneMapStale", false},
};
static_assert(IsEnumIndexed(kEventTypes, &EventTypeRow::type),
              "kEventTypes needs one row per EventType, in enum order");

constexpr EventTypeRow kUnknownEventType{EventType::kCount, "Unknown", false};

const EventTypeRow& Row(EventType type) {
  return EnumRow(kEventTypes, type, kUnknownEventType);
}

}  // namespace

const char* EventTypeName(EventType type) { return Row(type).name; }

bool IsPlanAffectingEvent(EventType type) { return Row(type).plan_affecting; }

Status EventLog::Append(SystemEvent event) {
  if (events_.empty() || events_.back().time <= event.time) {
    events_.push_back(std::move(event));
    return Status::Ok();
  }
  auto pos = std::upper_bound(
      events_.begin(), events_.end(), event.time,
      [](SimTimeMs t, const SystemEvent& e) { return t < e.time; });
  events_.insert(pos, std::move(event));
  return Status::Ok();
}

std::vector<SystemEvent> EventLog::EventsIn(
    const TimeInterval& interval) const {
  std::vector<SystemEvent> out;
  // events_ is sorted by time; binary search the window.
  auto lo = std::lower_bound(
      events_.begin(), events_.end(), interval.begin,
      [](const SystemEvent& e, SimTimeMs t) { return e.time < t; });
  for (auto it = lo; it != events_.end() && it->time < interval.end; ++it) {
    out.push_back(*it);
  }
  return out;
}

std::vector<SystemEvent> EventLog::EventsOfTypeIn(
    EventType type, const TimeInterval& interval) const {
  std::vector<SystemEvent> out;
  for (const SystemEvent& e : EventsIn(interval)) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

std::vector<SystemEvent> EventLog::EventsForComponentIn(
    ComponentId component, const TimeInterval& interval) const {
  std::vector<SystemEvent> out;
  for (const SystemEvent& e : EventsIn(interval)) {
    if (e.subject == component) out.push_back(e);
  }
  return out;
}

}  // namespace diads
