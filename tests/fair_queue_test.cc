// Unit tests for the engine's per-tenant weighted fair queue: DRR
// dispatch order, share-based admission, priority headroom, deadline
// shedding, shutdown draining, and the one-tenant queue the fairness
// bench uses as its FIFO baseline. FairQueue is exercised directly (single-threaded, as
// ThreadPool drives it under its lock) plus through ThreadPool for the
// cross-thread admission/backpressure contract. Run under TSan to vet
// the pool-level tests.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/fair_queue.h"
#include "engine/thread_pool.h"

namespace diads::engine {
namespace {

using Clock = std::chrono::steady_clock;

QueueTask Task(const std::string& tenant, double cost = 1.0,
               RequestPriority priority = RequestPriority::kNormal) {
  QueueTask task;
  task.run = [] {};
  task.tenant = tenant;
  task.cost = cost;
  task.priority = priority;
  return task;
}

/// Pushes (admission-checked) and returns whether it was admitted.
bool PushThrough(FairQueue& queue, QueueTask task) {
  const AdmissionResult result = queue.Admit(task);
  queue.RecordAdmission(task, result);
  if (result != AdmissionResult::kAdmitted) return false;
  queue.Push(std::move(task));
  return true;
}

/// Drains the queue, returning the dispatch order as tenant tags.
std::vector<std::string> DrainOrder(FairQueue& queue) {
  std::vector<std::string> order;
  std::vector<QueueTask> shed;
  QueueTask task;
  while (queue.Pop(&task, Clock::now(), &shed)) order.push_back(task.tenant);
  EXPECT_TRUE(shed.empty());
  return order;
}

// --- DRR dispatch ------------------------------------------------------------

TEST(FairQueueTest, InterleavesTenantsInsteadOfFifo) {
  FairQueue queue(FairnessOptions{}, /*cost_capacity=*/100);
  // A flood of 6 from tenant "a" arrives before 2 each from "b" and "c".
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(PushThrough(queue, Task("a")));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(PushThrough(queue, Task("b")));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(PushThrough(queue, Task("c")));

  const std::vector<std::string> order = DrainOrder(queue);
  ASSERT_EQ(order.size(), 10u);
  // Round-robin: all of b's and c's work overtakes a's flood tail. By the
  // time 6 tasks have dispatched, every b and c task is out.
  size_t bc_done = 0;
  for (size_t i = 0; i < 6; ++i) {
    if (order[i] != "a") ++bc_done;
  }
  EXPECT_EQ(bc_done, 4u) << "victims did not overtake the flood";
  // Those overtakes are visible as starvation_avoided.
  EXPECT_GT(queue.counters().starvation_avoided, 0u);
  EXPECT_EQ(queue.counters().dispatched, 10u);
}

TEST(FairQueueTest, WeightsScaleDispatchRate) {
  FairnessOptions options;
  options.tenant_weights["heavy"] = 3.0;
  FairQueue queue(options, /*cost_capacity=*/100);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(PushThrough(queue, Task("heavy")));
    ASSERT_TRUE(PushThrough(queue, Task("light")));
  }
  const std::vector<std::string> order = DrainOrder(queue);
  // In the first 8 dispatches the weight-3 tenant should get ~3x the
  // weight-1 tenant's slots.
  size_t heavy = 0;
  for (size_t i = 0; i < 8; ++i) heavy += order[i] == "heavy" ? 1 : 0;
  EXPECT_GE(heavy, 6u);
  EXPECT_LT(heavy, 8u);  // The light tenant still progresses.
}

TEST(FairQueueTest, LargeCostTaskEventuallyDispatches) {
  // A head task costing far more than its per-visit grant must accumulate
  // deficit over multiple ring visits and still come out; Pop must never
  // report empty-with-work-queued (that would strand a worker).
  FairQueue queue(FairnessOptions{}, /*cost_capacity=*/100);
  ASSERT_TRUE(PushThrough(queue, Task("big", /*cost=*/25.0)));
  ASSERT_TRUE(PushThrough(queue, Task("small", /*cost=*/1.0)));
  const std::vector<std::string> order = DrainOrder(queue);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "small");  // Cheap work first...
  EXPECT_EQ(order[1], "big");    // ...but the expensive task is not lost.
  EXPECT_TRUE(queue.empty());
}

// --- Admission ---------------------------------------------------------------

TEST(FairQueueTest, TenantShareCapsAdmission) {
  FairnessOptions options;
  options.tenant_share_fraction = 0.5;
  FairQueue queue(options, /*cost_capacity=*/10);  // Per-tenant cap: 5.
  int admitted = 0, rejected = 0;
  for (int i = 0; i < 8; ++i) {
    PushThrough(queue, Task("flood")) ? ++admitted : ++rejected;
  }
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(rejected, 3);
  // Another tenant's share is unaffected by the flood's rejections.
  EXPECT_TRUE(PushThrough(queue, Task("victim")));
  EXPECT_EQ(queue.counters().rejected_share, 3u);
  EXPECT_EQ(queue.counters().admitted, 6u);
}

TEST(FairQueueTest, PriorityHeadroomStretchesAndSqueezesShare) {
  FairnessOptions options;
  options.tenant_share_fraction = 0.5;
  options.low_priority_headroom = 0.5;
  options.high_priority_headroom = 2.0;
  FairQueue queue(options, /*cost_capacity=*/8);  // Normal cap: 4.
  // Low priority: cap 2.
  EXPECT_TRUE(PushThrough(queue, Task("t", 1, RequestPriority::kLow)));
  EXPECT_TRUE(PushThrough(queue, Task("t", 1, RequestPriority::kLow)));
  EXPECT_FALSE(PushThrough(queue, Task("t", 1, RequestPriority::kLow)));
  // Normal priority still has room up to 4.
  EXPECT_TRUE(PushThrough(queue, Task("t", 1)));
  EXPECT_TRUE(PushThrough(queue, Task("t", 1)));
  EXPECT_FALSE(PushThrough(queue, Task("t", 1)));
  // High priority bursts past the normal share, up to 8.
  EXPECT_TRUE(PushThrough(queue, Task("t", 1, RequestPriority::kHigh)));
}

TEST(FairQueueTest, TinyQueueStillAdmitsOneRequestPerTenant) {
  FairnessOptions options;
  options.tenant_share_fraction = 0.1;
  FairQueue queue(options, /*cost_capacity=*/2);  // Raw cap 0.2 -> floor.
  EXPECT_TRUE(PushThrough(queue, Task("t")));
  // And an expensive request is never unadmittable on cost alone.
  EXPECT_TRUE(PushThrough(queue, Task("u", /*cost=*/50.0)));
}

TEST(FairQueueTest, UntaggedRequestsBypassShareAdmission) {
  FairnessOptions options;
  options.tenant_share_fraction = 0.1;
  FairQueue queue(options, /*cost_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(PushThrough(queue, Task("")));  // Global capacity only.
  }
}

TEST(FairQueueTest, OneTenantQueueDispatchesInArrivalOrder) {
  // bench_fairness's FIFO baseline: every request carries one tag, so the
  // ring holds one sub-queue and a victim's request waits out the entire
  // flood queued before it.
  FairnessOptions options;
  options.tenant_share_fraction = 1.0;
  FairQueue queue(options, /*cost_capacity=*/8);
  std::vector<int> ran;
  for (int i = 0; i < 8; ++i) {
    QueueTask task = Task("fleet", /*cost=*/i % 3 == 0 ? 0.5 : 1.0);
    task.run = [&ran, i] { ran.push_back(i); };
    ASSERT_TRUE(PushThrough(queue, std::move(task)));
  }
  QueueTask task;
  std::vector<QueueTask> shed;
  while (queue.Pop(&task, Clock::now(), &shed)) task.run();
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(queue.counters().dispatched, 8u);
  EXPECT_EQ(queue.counters().starvation_avoided, 0u);
}

// --- Deadline shedding -------------------------------------------------------

TEST(FairQueueTest, ExpiredTasksAreShedAtPop) {
  FairQueue queue(FairnessOptions{}, /*cost_capacity=*/100);
  const Clock::time_point now = Clock::now();

  QueueTask expired = Task("t");
  expired.has_deadline = true;
  expired.deadline = now - std::chrono::milliseconds(1);
  QueueTask live = Task("t");
  live.has_deadline = true;
  live.deadline = now + std::chrono::hours(1);

  ASSERT_TRUE(PushThrough(queue, std::move(expired)));
  ASSERT_TRUE(PushThrough(queue, std::move(live)));

  QueueTask out;
  std::vector<QueueTask> shed;
  ASSERT_TRUE(queue.Pop(&out, now, &shed));
  ASSERT_EQ(shed.size(), 1u);  // The expired head was dropped, not run.
  EXPECT_TRUE(out.has_deadline);
  EXPECT_GT(out.deadline.time_since_epoch().count(),
            now.time_since_epoch().count());
  EXPECT_EQ(queue.counters().shed_deadline, 1u);
  EXPECT_EQ(queue.counters().dispatched, 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(FairQueueTest, PopOnAllExpiredQueueReturnsFalseAndShedsAll) {
  FairQueue queue(FairnessOptions{}, /*cost_capacity=*/100);
  const Clock::time_point now = Clock::now();
  for (int i = 0; i < 3; ++i) {
    QueueTask task = Task("t");
    task.has_deadline = true;
    task.deadline = now - std::chrono::milliseconds(1);
    ASSERT_TRUE(PushThrough(queue, std::move(task)));
  }
  QueueTask out;
  std::vector<QueueTask> shed;
  EXPECT_FALSE(queue.Pop(&out, now, &shed));
  EXPECT_EQ(shed.size(), 3u);
  EXPECT_EQ(queue.counters().shed_deadline, 3u);
  EXPECT_TRUE(queue.empty());
}

// --- Shutdown / accounting ---------------------------------------------------

TEST(FairQueueTest, DrainAllReturnsEverythingAndCounts) {
  FairQueue queue(FairnessOptions{}, /*cost_capacity=*/100);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(PushThrough(queue, Task("a")));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(PushThrough(queue, Task("b")));
  std::vector<QueueTask> drained = queue.DrainAll();
  EXPECT_EQ(drained.size(), 7u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.total_cost(), 0.0);
  EXPECT_EQ(queue.counters().cancelled_shutdown, 7u);
}

TEST(FairQueueTest, TenantRowsTrackPerTenantOutcomes) {
  FairnessOptions options;
  options.tenant_share_fraction = 0.5;
  FairQueue queue(options, /*cost_capacity=*/4);  // Per-tenant cap: 2.
  for (int i = 0; i < 4; ++i) PushThrough(queue, Task("flood"));
  PushThrough(queue, Task("victim"));
  (void)DrainOrder(queue);

  const std::vector<TenantAdmissionRow> rows = queue.TenantRows();
  ASSERT_EQ(rows.size(), 2u);  // Sorted by tag: flood, victim.
  EXPECT_EQ(rows[0].tenant, "flood");
  EXPECT_EQ(rows[0].submitted, 4u);
  EXPECT_EQ(rows[0].admitted, 2u);
  EXPECT_EQ(rows[0].rejected_share, 2u);
  EXPECT_EQ(rows[0].dispatched, 2u);
  EXPECT_EQ(rows[1].tenant, "victim");
  EXPECT_EQ(rows[1].admitted, 1u);
  EXPECT_EQ(rows[1].rejected_share, 0u);
}

/// A flood with two light tenants arriving mid-drain. Returns the dispatch
/// order; `*starvation_avoided` receives the overtakes the mix added.
std::vector<std::string> FloodWithLightTenants(FairQueue& queue,
                                               uint64_t* starvation_avoided) {
  const uint64_t before = queue.counters().starvation_avoided;
  std::vector<std::string> order;
  std::vector<QueueTask> shed;
  QueueTask task;
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(PushThrough(queue, Task("flood")));
  for (int round = 0; round < 6; ++round) {
    EXPECT_TRUE(PushThrough(queue, Task(round % 2 == 0 ? "light-a"
                                                        : "light-b")));
    EXPECT_TRUE(PushThrough(queue, Task("flood")));
    for (int k = 0; k < 3 && queue.Pop(&task, Clock::now(), &shed); ++k) {
      order.push_back(task.tenant);
    }
  }
  while (queue.Pop(&task, Clock::now(), &shed)) order.push_back(task.tenant);
  EXPECT_TRUE(shed.empty());
  *starvation_avoided = queue.counters().starvation_avoided - before;
  return order;
}

TEST(FairQueueTest, DispatchIsIndependentOfServedTenantHistory) {
  FairQueue fresh(FairnessOptions{}, /*cost_capacity=*/1000);
  uint64_t fresh_overtakes = 0;
  const std::vector<std::string> fresh_order =
      FloodWithLightTenants(fresh, &fresh_overtakes);
  EXPECT_GT(fresh_overtakes, 0u);

  // A long-running queue remembers every tenant it has served; none of
  // them may change how the queued ones are dispatched.
  FairQueue served(FairnessOptions{}, /*cost_capacity=*/1000);
  QueueTask task;
  std::vector<QueueTask> shed;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(PushThrough(served, Task("one-shot-" + std::to_string(i))));
    ASSERT_TRUE(served.Pop(&task, Clock::now(), &shed));
  }
  ASSERT_TRUE(served.empty());
  uint64_t served_overtakes = 0;
  EXPECT_EQ(FloodWithLightTenants(served, &served_overtakes), fresh_order);
  EXPECT_EQ(served_overtakes, fresh_overtakes);
}

// --- Through ThreadPool ------------------------------------------------------

TEST(FairQueueThreadPoolTest, ShareRejectionIsImmediateAndTyped) {
  ThreadPool::Options options;
  options.workers = 1;
  options.queue_capacity = 8;  // Per-tenant share cap: 4.
  ThreadPool pool(options);

  // Wedge the single worker so queued work stays queued.
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  QueueTask wedge = Task("wedge");
  wedge.run = [&release] {
    while (!release.load()) std::this_thread::yield();
  };
  ASSERT_TRUE(pool.Submit(std::move(wedge)).ok());

  // The flood fills its share; the next submit is refused immediately
  // (no blocking on global capacity, which still has room).
  int admitted = 0;
  Status refused;
  for (int i = 0; i < 6; ++i) {
    QueueTask task = Task("flood");
    task.run = [&ran] { ++ran; };
    Status status = pool.Submit(std::move(task));
    if (status.ok()) {
      ++admitted;
    } else {
      refused = status;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // A victim tenant still gets in.
  QueueTask victim = Task("victim");
  std::atomic<bool> victim_ran{false};
  victim.run = [&victim_ran] { victim_ran = true; };
  EXPECT_TRUE(pool.Submit(std::move(victim)).ok());

  release = true;
  pool.Drain();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_TRUE(victim_ran.load());
  EXPECT_EQ(pool.QueueCounters().rejected_share, 2u);
}

TEST(FairQueueThreadPoolTest, ExpiredWorkIsCancelledNotRun) {
  ThreadPool::Options options;
  options.workers = 1;
  options.queue_capacity = 16;
  ThreadPool pool(options);

  std::atomic<bool> release{false};
  QueueTask wedge = Task("wedge");
  wedge.run = [&release] {
    while (!release.load()) std::this_thread::yield();
  };
  ASSERT_TRUE(pool.Submit(std::move(wedge)).ok());

  // Queued behind the wedge with an already-tight deadline.
  std::atomic<int> ran{0}, shed{0};
  for (int i = 0; i < 3; ++i) {
    QueueTask task = Task("t");
    task.run = [&ran] { ++ran; };
    task.cancel = [&shed](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
      ++shed;
    };
    task.has_deadline = true;
    task.deadline = Clock::now() + std::chrono::milliseconds(20);
    ASSERT_TRUE(pool.Submit(std::move(task)).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  release = true;
  pool.Drain();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 0);  // No worker time was spent on expired work.
  EXPECT_EQ(shed.load(), 3);
  EXPECT_EQ(pool.QueueCounters().shed_deadline, 3u);
}

TEST(FairQueueThreadPoolTest, ShutdownCancelsWithTypedStatus) {
  ThreadPool::Options options;
  options.workers = 1;
  options.queue_capacity = 16;
  ThreadPool pool(options);

  std::atomic<bool> wedged{false}, release{false};
  QueueTask wedge = Task("wedge");
  wedge.run = [&wedged, &release] {
    wedged = true;
    while (!release.load()) std::this_thread::yield();
  };
  ASSERT_TRUE(pool.Submit(std::move(wedge)).ok());
  // Wait until the worker actually holds the wedge — otherwise it may
  // still be queued when Shutdown drains, and would count as a sixth
  // shutdown cancel.
  while (!wedged.load()) std::this_thread::yield();
  std::atomic<int> cancelled{0};
  for (int i = 0; i < 5; ++i) {
    QueueTask task = Task("t");
    task.cancel = [&cancelled](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kShutdown);
      ++cancelled;
    };
    ASSERT_TRUE(pool.Submit(std::move(task)).ok());
  }
  // Shutdown drains the queue (cancelling all 5, which are guaranteed
  // still queued: the only worker is wedged) before joining; release the
  // wedge once the cancels have landed so the join can complete.
  std::thread shutter([&pool] { pool.Shutdown(); });
  while (cancelled.load() < 5) std::this_thread::yield();
  release = true;
  shutter.join();
  EXPECT_EQ(cancelled.load(), 5);
  EXPECT_EQ(pool.QueueCounters().cancelled_shutdown, 5u);
}

}  // namespace
}  // namespace diads::engine
