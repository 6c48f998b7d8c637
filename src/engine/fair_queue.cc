#include "engine/fair_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace diads::engine {
namespace {

/// Weight of a tenant absent from FairnessOptions::tenant_weights.
constexpr double kDefaultWeight = 1.0;

}  // namespace

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kLow:
      return "low";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kHigh:
      return "high";
  }
  return "unknown";
}

FairQueue::FairQueue(FairnessOptions options, double cost_capacity)
    : options_(std::move(options)), cost_capacity_(cost_capacity) {
  if (options_.tenant_share_fraction <= 0) options_.tenant_share_fraction = 1.0;
  if (cost_capacity_ <= 0) cost_capacity_ = 1.0;
}

double FairQueue::WeightOf(const std::string& tenant) const {
  auto it = options_.tenant_weights.find(tenant);
  if (it != options_.tenant_weights.end() && it->second > 0) return it->second;
  return kDefaultWeight;
}

double FairQueue::ShareCapFor(const QueueTask& task) const {
  double cap =
      cost_capacity_ * options_.tenant_share_fraction * WeightOf(task.tenant);
  // Even a tiny queue must admit one request per tenant, or small-capacity
  // configurations (unit tests, constrained deployments) deadlock tenants
  // out entirely.
  cap = std::max(cap, std::max(task.cost, 1.0));
  switch (task.priority) {
    case RequestPriority::kLow:
      return cap * options_.low_priority_headroom;
    case RequestPriority::kNormal:
      return cap;
    case RequestPriority::kHigh:
      return cap * options_.high_priority_headroom;
  }
  return cap;
}

AdmissionResult FairQueue::Admit(const QueueTask& task) const {
  // Untagged work shares the "" sub-queue and is exempt from share caps:
  // it has no tenant to be fair *to*, and an untagged single-tenant
  // deployment must keep the whole queue rather than be refused once its
  // requests fill one tenant's share.
  if (task.tenant.empty()) return AdmissionResult::kAdmitted;
  auto it = tenants_.find(task.tenant);
  double queued = (it == tenants_.end()) ? 0.0 : it->second.queued_cost;
  if (queued + task.cost > ShareCapFor(task)) {
    return AdmissionResult::kRejectedTenantShare;
  }
  return AdmissionResult::kAdmitted;
}

void FairQueue::RecordAdmission(const QueueTask& task, AdmissionResult result) {
  Tenant& tenant = TenantState(task.tenant);
  ++tenant.submitted;
  if (result == AdmissionResult::kAdmitted) {
    ++tenant.admitted;
    ++counters_.admitted;
  } else {
    ++tenant.rejected_share;
    ++counters_.rejected_share;
  }
}

void FairQueue::Push(QueueTask task) {
  Tenant& tenant = TenantState(task.tenant);
  double cost = std::max(task.cost, 0.0);
  tenant.queued_cost += cost;
  total_cost_ += cost;
  ++size_;
  if (!tenant.in_ring) {
    tenant.in_ring = true;
    tenant.deficit = 0;
    ring_.push_back(task.tenant);
  }
  tenant.items.push_back(Item{std::move(task), next_arrival_++});
}

void FairQueue::ShedExpiredHead(Tenant* tenant,
                                std::chrono::steady_clock::time_point now,
                                std::vector<QueueTask>* shed) {
  while (!tenant->items.empty()) {
    Item& head = tenant->items.front();
    if (!head.task.has_deadline || head.task.deadline > now) break;
    double cost = std::max(head.task.cost, 0.0);
    tenant->queued_cost -= cost;
    total_cost_ -= cost;
    --size_;
    ++tenant->shed_deadline;
    ++counters_.shed_deadline;
    if (shed != nullptr) shed->push_back(std::move(head.task));
    tenant->items.pop_front();
  }
}

uint64_t FairQueue::MinQueuedArrival() const {
  // Only ring members hold queued items, so this scans the active tenants,
  // not every tenant ever seen.
  uint64_t min_arrival = std::numeric_limits<uint64_t>::max();
  for (const std::string& key : ring_) {
    const Tenant& tenant = tenants_.at(key);
    if (!tenant.items.empty()) {
      min_arrival = std::min(min_arrival, tenant.items.front().arrival);
    }
  }
  return min_arrival;
}

void FairQueue::Dispatched(Tenant* tenant, Item item, QueueTask* out) {
  double cost = std::max(item.task.cost, 0.0);
  tenant->queued_cost -= cost;
  total_cost_ -= cost;
  --size_;
  ++tenant->dispatched;
  ++counters_.dispatched;
  *out = std::move(item.task);
}

bool FairQueue::Pop(QueueTask* out, std::chrono::steady_clock::time_point now,
                    std::vector<QueueTask>* shed) {
  // Classic DRR, one dispatch per call: the front tenant is granted its
  // weight in deficit ONCE per visit (front_granted_) and keeps the front
  // while its deficit covers its head cost — so a weight-3 tenant drains
  // three unit-cost requests per turn to a weight-1 tenant's one — then
  // rotates to the back with any remainder banked. Terminates: every
  // iteration either sheds an item, removes an emptied tenant from the
  // ring, or rotates after growing a tenant's deficit by its weight (> 0),
  // so some deficit eventually covers its head cost and dispatches.
  while (!ring_.empty()) {
    const std::string key = ring_.front();
    Tenant& tenant = tenants_[key];
    ShedExpiredHead(&tenant, now, shed);
    if (tenant.items.empty()) {
      ring_.pop_front();
      front_granted_ = false;
      tenant.in_ring = false;
      tenant.deficit = 0;
      continue;
    }
    if (!front_granted_) {
      tenant.deficit += WeightOf(key);
      front_granted_ = true;
    }
    Item& head = tenant.items.front();
    double cost = std::max(head.task.cost, 0.0);
    if (tenant.deficit + 1e-9 < cost) {
      // This visit's grant is spent; rotate to the back with the deficit
      // banked for the next visit.
      ring_.pop_front();
      ring_.push_back(key);
      front_granted_ = false;
      continue;
    }
    tenant.deficit -= cost;
    // A dispatch that overtakes an older queued request of another tenant
    // is exactly the reordering FIFO would never do — count it.
    uint64_t dispatched_arrival = head.arrival;
    Item item = std::move(head);
    tenant.items.pop_front();
    if (tenant.items.empty()) {
      ring_.pop_front();
      front_granted_ = false;
      tenant.in_ring = false;
      tenant.deficit = 0;
    }
    Dispatched(&tenant, std::move(item), out);
    if (size_ > 0 && dispatched_arrival > MinQueuedArrival()) {
      ++counters_.starvation_avoided;
    }
    return true;
  }
  return false;
}

std::vector<QueueTask> FairQueue::DrainAll() {
  std::vector<QueueTask> drained;
  drained.reserve(size_);
  for (auto& [tag, tenant] : tenants_) {
    while (!tenant.items.empty()) {
      drained.push_back(std::move(tenant.items.front().task));
      tenant.items.pop_front();
      ++counters_.cancelled_shutdown;
    }
    tenant.queued_cost = 0;
    tenant.deficit = 0;
    tenant.in_ring = false;
  }
  ring_.clear();
  front_granted_ = false;
  size_ = 0;
  total_cost_ = 0;
  return drained;
}

FairQueue::Tenant& FairQueue::TenantState(const std::string& tenant) {
  return tenants_[tenant];
}

std::vector<TenantAdmissionRow> FairQueue::TenantRows() const {
  std::vector<TenantAdmissionRow> rows;
  rows.reserve(tenants_.size());
  for (const auto& [tag, tenant] : tenants_) {
    TenantAdmissionRow row;
    row.tenant = tag;
    row.weight = WeightOf(tag);
    row.submitted = tenant.submitted;
    row.admitted = tenant.admitted;
    row.rejected_share = tenant.rejected_share;
    row.shed_deadline = tenant.shed_deadline;
    row.dispatched = tenant.dispatched;
    row.queued_cost = tenant.queued_cost;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const TenantAdmissionRow& a, const TenantAdmissionRow& b) {
              return a.tenant < b.tenant;
            });
  return rows;
}

}  // namespace diads::engine
