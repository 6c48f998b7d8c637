// Per-diagnosis cost profile.
//
// The trace answers "where did the time go" for a human staring at a
// timeline; the cost profile is the same answer as data — a compact,
// digest-neutral breakdown attached to each DiagnosisResponse and
// published to the fleet store alongside the verdict, so cross-tenant
// queries can ask "which tenants' diagnoses are slow, and why" without
// shipping whole traces around.
//
// Digest neutrality: nothing in this struct feeds ReportDigest. It is
// produced *about* the computation, strictly after the report content is
// fixed.
#ifndef DIADS_OBS_COST_PROFILE_H_
#define DIADS_OBS_COST_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace diads::obs {

/// Per-diagnosis count of the baselines Modules CO/DA/CR fitted, threaded
/// through DiagnosisContext::model_lookups. Every baseline is fitted
/// fresh, so each one is a miss and `hits` stays 0; the two-field shape
/// is what perfbench's diads.model_lookups row (hits + misses) reads.
struct ModelLookupCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Where one diagnosis spent its time and what it touched.
struct CostProfile {
  // --- phase breakdown, wall milliseconds ---
  double queue_wait_ms = 0;  ///< Submit accepted -> worker pickup.
  double gather_ms = 0;      ///< The scatter/gather over SAN components.
  /// Per-module wall time in execution order, e.g. {"PD",0.1},{"CO",3.2}.
  std::vector<std::pair<std::string, double>> module_ms;
  double total_ms = 0;       ///< Submit -> response ready.

  // --- cache outcome ---
  bool result_cache_hit = false;

  // --- gather volume & degradations ---
  uint64_t fetches_issued = 0;
  uint64_t fetch_timeouts = 0;
  uint64_t fetch_retries = 0;
  uint64_t samples_collected = 0;  ///< Metric samples integrated.
  uint64_t bytes_collected = 0;    ///< Approximate payload volume.
  /// Component ids that degraded to stale local data.
  std::vector<std::string> stale_components;

  /// Workflow module time summed (excludes queue/gather).
  double ModuleTotalMs() const;

  /// One JSON object (validated well-formed by obs_test).
  std::string ToJson() const;
  /// Compact single-line human rendering for logs and the fleet panel.
  std::string Render() const;
};

}  // namespace diads::obs

#endif  // DIADS_OBS_COST_PROFILE_H_
