// Per-tenant weighted fair queueing for the diagnosis engine.
//
// Under a single FIFO, admission is first-come-first-served and dispatch
// is arrival order, so one flooding tenant (a dashboard stuck in a retry
// loop, an alerting storm) can fill the queue and starve every other
// tenant's diagnosis behind its burst — exactly the snowball regime where
// slowdown begets retry load and the diagnosis service amplifies the
// incident it should be explaining. FairQueue is the engine's only queue
// discipline, with the three standard defenses, in dispatch order:
//
//   * admission control — each tenant owns a bounded share of the queue's
//     cost budget (weight-scaled fraction of capacity, stretched or
//     squeezed by the request's priority). A request that would push its
//     tenant past that share is rejected immediately with a typed reason
//     (kResourceExhausted) instead of crowding out other tenants; the
//     global capacity bound keeps plain backpressure semantics.
//   * deficit-round-robin dispatch — tenants with queued work are served
//     in a round-robin ring; each visit grants one unit of deficit per
//     unit of weight, and a tenant dispatches while its deficit covers the
//     head request's cost. A flooding tenant therefore drains at its
//     weighted rate while light tenants' requests overtake the flood's
//     tail (each such overtake is counted as starvation_avoided).
//   * deadline shedding — a request may carry a deadline; once it
//     expires, the dispatcher drops it at pop time (cancel callback, no
//     worker time spent) rather than wasting a full diagnosis on an
//     answer nobody is waiting for.
//
// FairQueue itself is NOT thread-safe: it is the queueing discipline
// owned by ThreadPool, which already serializes access under its queue
// mutex. A queue whose requests all carry one tag has one sub-queue and
// dispatches in arrival order: that is the FIFO baseline bench_fairness
// measures against.
#ifndef DIADS_ENGINE_FAIR_QUEUE_H_
#define DIADS_ENGINE_FAIR_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace diads::engine {

/// Scheduling priority of one request. Affects the admission headroom a
/// tenant gets (high-priority work may burst past the normal share, low-
/// priority work is squeezed below it); dispatch order within a tenant
/// stays FIFO so coalescing/caching semantics are unaffected.
enum class RequestPriority { kLow = 0, kNormal = 1, kHigh = 2 };

const char* RequestPriorityName(RequestPriority priority);

struct FairnessOptions {
  /// Per-tenant dispatch/admission weights (tenant tag -> weight); a
  /// tenant absent here weighs 1. Each round-robin visit grants a tenant
  /// deficit equal to its weight: one unit-cost request per visit at
  /// weight 1, the finest interleaving.
  std::unordered_map<std::string, double> tenant_weights;
  /// Fraction of the queue's cost capacity one tenant may occupy at
  /// normal priority and weight 1. The per-tenant cap is
  ///   max(1, capacity * tenant_share_fraction * weight)
  ///     * priority headroom,
  /// so even a tiny queue admits at least one request per tenant.
  double tenant_share_fraction = 0.5;
  /// Share multiplier for low-priority requests (< 1 squeezes them out
  /// first under load).
  double low_priority_headroom = 0.5;
  /// Share multiplier for high-priority requests (> 1 lets an urgent
  /// diagnosis burst past the normal share).
  double high_priority_headroom = 2.0;
};

/// One queued unit of work. Exactly one of run / cancel is eventually
/// invoked: run when a worker dispatches it, cancel (with the typed
/// reason) when it is shed past its deadline or failed by shutdown.
struct QueueTask {
  std::function<void()> run;
  std::function<void(const Status&)> cancel;  ///< May be null (no-op).
  /// "" = untagged: one shared sub-queue, exempt from the share cap, so
  /// an untagged single-tenant deployment keeps the whole queue.
  std::string tenant;
  double cost = 1.0;   ///< Admission + deficit units; must be > 0.
  RequestPriority priority = RequestPriority::kNormal;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
};

/// Why admission refused a task (kAdmitted otherwise).
enum class AdmissionResult {
  kAdmitted,
  kRejectedTenantShare,
};

/// Aggregate fair-queue counters (monotone since construction).
struct FairQueueCounters {
  uint64_t admitted = 0;            ///< Tasks accepted into a sub-queue.
  uint64_t rejected_share = 0;      ///< Admission refusals (tenant share).
  uint64_t shed_deadline = 0;       ///< Dropped expired at dispatch.
  uint64_t cancelled_shutdown = 0;  ///< Queued tasks failed by Shutdown.
  uint64_t starvation_avoided = 0;  ///< Dispatches that overtook an
                                    ///< earlier-arrived task of another
                                    ///< tenant (fairness reorderings).
  uint64_t dispatched = 0;          ///< Tasks handed to workers.
};

/// Per-tenant admission/dispatch accounting, for operator tables.
struct TenantAdmissionRow {
  std::string tenant;
  double weight = 1.0;
  uint64_t submitted = 0;       ///< Admission attempts.
  uint64_t admitted = 0;
  uint64_t rejected_share = 0;
  uint64_t shed_deadline = 0;
  uint64_t dispatched = 0;
  double queued_cost = 0;       ///< Cost currently enqueued.
};

class FairQueue {
 public:
  FairQueue(FairnessOptions options, double cost_capacity);

  /// Would `task` be admitted right now? Pure check, no state change
  /// (the submitted/rejected counters are bumped by RecordAdmission so a
  /// blocked producer re-checking in a wait loop counts once).
  AdmissionResult Admit(const QueueTask& task) const;

  /// Counts one admission attempt with its outcome.
  void RecordAdmission(const QueueTask& task, AdmissionResult result);

  /// Enqueues an admitted task.
  void Push(QueueTask task);

  /// DRR dispatch: pops the next runnable task into `*out`. Expired
  /// tasks encountered at sub-queue heads are moved into `*shed` (counted
  /// as shed_deadline; invoke their cancel callbacks outside the queue
  /// lock). Returns false when nothing is left to run.
  bool Pop(QueueTask* out, std::chrono::steady_clock::time_point now,
           std::vector<QueueTask>* shed);

  /// Removes every queued task (shutdown path; counted as
  /// cancelled_shutdown). Invoke the cancel callbacks outside the lock.
  std::vector<QueueTask> DrainAll();

  size_t size() const { return size_; }
  double total_cost() const { return total_cost_; }
  bool empty() const { return size_ == 0; }

  FairQueueCounters counters() const { return counters_; }

  /// Snapshot of per-tenant accounting, sorted by tenant tag. Tenants
  /// are remembered once seen (a rejected-only tenant still shows up).
  std::vector<TenantAdmissionRow> TenantRows() const;

  double WeightOf(const std::string& tenant) const;
  /// The admission cap for one task's (tenant, priority), in cost units.
  double ShareCapFor(const QueueTask& task) const;

 private:
  struct Item {
    QueueTask task;
    uint64_t arrival = 0;  ///< Global arrival sequence (starvation stat).
  };
  struct Tenant {
    std::deque<Item> items;
    double deficit = 0;
    double queued_cost = 0;
    bool in_ring = false;
    // Accounting (monotone).
    uint64_t submitted = 0, admitted = 0, rejected_share = 0;
    uint64_t shed_deadline = 0, dispatched = 0;
  };

  Tenant& TenantState(const std::string& tenant);
  /// Drops expired items from the head of `tenant`'s queue into `*shed`.
  void ShedExpiredHead(Tenant* tenant,
                       std::chrono::steady_clock::time_point now,
                       std::vector<QueueTask>* shed);
  /// Smallest arrival sequence across all queued items (starvation stat).
  uint64_t MinQueuedArrival() const;
  void Dispatched(Tenant* tenant, Item item, QueueTask* out);

  FairnessOptions options_;
  double cost_capacity_;
  std::unordered_map<std::string, Tenant> tenants_;
  /// Round-robin ring of tenants with queued work (keys into tenants_;
  /// stable because unordered_map never invalidates references).
  std::list<std::string> ring_;
  /// Whether the current ring front has already received this visit's
  /// deficit grant (cleared whenever the front rotates or empties).
  bool front_granted_ = false;
  uint64_t next_arrival_ = 0;
  size_t size_ = 0;
  double total_cost_ = 0;
  FairQueueCounters counters_;
};

}  // namespace diads::engine

#endif  // DIADS_ENGINE_FAIR_QUEUE_H_
