#include "obs/cost_profile.h"

#include "common/json.h"
#include "common/strings.h"

namespace diads::obs {

double CostProfile::ModuleTotalMs() const {
  double total = 0;
  for (const auto& [name, ms] : module_ms) total += ms;
  return total;
}

std::string CostProfile::ToJson() const {
  std::string out = StrFormat(
      "{\"total_ms\":%.3f,\"queue_wait_ms\":%.3f,\"gather_ms\":%.3f,"
      "\"modules\":{",
      total_ms, queue_wait_ms, gather_ms);
  for (size_t i = 0; i < module_ms.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%s:%.3f", JsonQuote(module_ms[i].first).c_str(),
                     module_ms[i].second);
  }
  out += StrFormat(
      "},\"result_cache_hit\":%s,"
      "\"gather\":{\"fetches\":%llu,\"timeouts\":%llu,\"retries\":%llu,"
      "\"samples\":%llu,\"bytes\":%llu,\"stale_components\":[",
      result_cache_hit ? "true" : "false",
      (unsigned long long)fetches_issued, (unsigned long long)fetch_timeouts,
      (unsigned long long)fetch_retries, (unsigned long long)samples_collected,
      (unsigned long long)bytes_collected);
  for (size_t i = 0; i < stale_components.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(stale_components[i]);
  }
  out += "]}}";
  return out;
}

std::string CostProfile::Render() const {
  std::string out = StrFormat(
      "cost: total=%.2fms queue=%.2fms gather=%.2fms modules=%.2fms",
      total_ms, queue_wait_ms, gather_ms, ModuleTotalMs());
  if (result_cache_hit) out += " [result-cache hit]";
  out += StrFormat(" fetches=%llu", (unsigned long long)fetches_issued);
  if (fetch_timeouts > 0 || !stale_components.empty()) {
    out += StrFormat(" timeouts=%llu stale=%zu",
                     (unsigned long long)fetch_timeouts,
                     stale_components.size());
  }
  return out;
}

}  // namespace diads::obs
