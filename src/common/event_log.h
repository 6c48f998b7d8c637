// System event log.
//
// Section 3 lists "(v) events generated by the system (e.g., disk failure,
// RAID rebuild) and (vi) events generated by user-defined triggers" among the
// data an APG carries, and Module PD scans "each schema or configuration
// change that occurred between the runs". The event log is the single
// ordered history both layers append to: SAN configuration changes, database
// schema/parameter changes, and user-defined performance triggers.
//
// It lives in common (not monitor) because both the SAN configuration
// database and the database catalog emit events, and neither may depend on
// the monitoring layer.
#ifndef DIADS_COMMON_EVENT_LOG_H_
#define DIADS_COMMON_EVENT_LOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace diads {

/// Every event kind DIADS reasons about, across layers.
enum class EventType {
  // SAN configuration changes.
  kVolumeCreated,
  kVolumeDeleted,
  kZoningChanged,
  kLunMappingChanged,
  kDiskFailed,
  kDiskRecovered,
  kRaidRebuildStarted,
  kRaidRebuildCompleted,
  // SAN / workload runtime events.
  kExternalWorkloadStarted,
  kExternalWorkloadStopped,
  kVolumePerfDegraded,   ///< User-defined trigger (Section 3, item vi).
  kSubsystemHighLoad,    ///< User-defined trigger.
  // Database schema / configuration / data events.
  kIndexCreated,
  kIndexDropped,
  kDbParamChanged,
  kTableStatsChanged,  ///< Optimizer statistics refreshed after data change.
  kDmlBatch,           ///< Bulk DML that changed data properties.
  kTableLockContention,
  // Fabric failure / multipath events (appended; values are persisted in
  // digests, so existing entries must keep their positions).
  kHbaFailed,
  kHbaRecovered,
  kPortFailed,
  kPortRecovered,
  kSwitchFailed,
  kSwitchRecovered,
  kLinkFailed,
  kLinkRecovered,
  kPortDegraded,         ///< Port capacity reduced (link renegotiation etc.).
  kPathFailover,         ///< Multipath driver moved a LUN to a surviving path.
  kRetryStormDetected,   ///< User-defined trigger: retry amplification seen.
  // Column-store storage-layout events (appended; values are persisted in
  // digests, so existing entries must keep their positions).
  kCompressionRatioDrifted,  ///< Segment compression ratio degraded under DML.
  kZoneMapStale,             ///< Zone maps stale; segment pruning ineffective.
  // Not an event type: the number of them. Keep last.
  kCount,
};

/// Stable display name, e.g. "VolumeCreated"; "Unknown" outside the enum.
const char* EventTypeName(EventType type);

/// True for event types that can change which plan the optimizer picks —
/// the candidate causes Module PD's plan-change analysis enumerates.
bool IsPlanAffectingEvent(EventType type);

/// One timestamped event. `subject` is the primarily affected component;
/// free-form attributes carry event-specific details (old/new values etc.).
struct SystemEvent {
  SimTimeMs time = 0;
  EventType type = EventType::kVolumeCreated;
  ComponentId subject;
  std::string description;
  std::map<std::string, std::string> attrs;
};

/// Time-ordered event history.
class EventLog {
 public:
  /// Records an event. The log stays sorted by time: producers (config
  /// database, collectors, fault injectors) may emit with interleaved
  /// timestamps, so out-of-order appends are inserted at their sorted
  /// position (stable for equal timestamps).
  Status Append(SystemEvent event);

  /// All events with time in [interval.begin, interval.end).
  std::vector<SystemEvent> EventsIn(const TimeInterval& interval) const;

  /// Events of one type in an interval.
  std::vector<SystemEvent> EventsOfTypeIn(EventType type,
                                          const TimeInterval& interval) const;

  /// Events whose subject is `component` in an interval.
  std::vector<SystemEvent> EventsForComponentIn(
      ComponentId component, const TimeInterval& interval) const;

  const std::vector<SystemEvent>& all() const { return events_; }
  size_t size() const { return events_.size(); }

 private:
  std::vector<SystemEvent> events_;
};

}  // namespace diads

#endif  // DIADS_COMMON_EVENT_LOG_H_
