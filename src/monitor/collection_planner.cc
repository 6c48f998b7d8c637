#include "monitor/collection_planner.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace diads::monitor {

std::vector<FetchRequest> CollectionPlanner::Plan(
    std::vector<SeriesKey> keys, const TimeInterval& window,
    const TimeSeriesStore* source) {
  std::sort(keys.begin(), keys.end(),
            [](const SeriesKey& a, const SeriesKey& b) {
              return std::tie(a.component, a.metric) <
                     std::tie(b.component, b.metric);
            });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<FetchRequest> plan;
  for (size_t first = 0; first < keys.size();) {
    size_t last = first + 1;
    while (last < keys.size() &&
           keys[last].component == keys[first].component) {
      ++last;
    }
    FetchRequest request;
    request.component = keys[first].component;
    request.interval = window;
    request.metrics.reserve(last - first);
    for (size_t i = first; i < last; ++i) {
      request.metrics.push_back(keys[i].metric);
    }
    request.source = source;
    plan.push_back(std::move(request));
    first = last;
  }
  return plan;
}

size_t CollectionPlanner::SeriesCount(const std::vector<FetchRequest>& plan) {
  size_t count = 0;
  for (const FetchRequest& request : plan) count += request.metrics.size();
  return count;
}

}  // namespace diads::monitor
