// Tenant-fair bounded work queue and worker pool for the diagnosis engine.
//
// Boring synchronization (one mutex, three condition variables) around a
// FairQueue: per-tenant sub-queues with share-based admission control,
// deficit-round-robin dispatch, and deadline shedding (see fair_queue.h
// for the discipline). Every task is a QueueTask carrying its tenant,
// cost, priority, deadline and cancel callback. Lifecycle:
//
//   accepting  -> Submit admits or rejects (kResourceExhausted when the
//                 tenant's share is full; blocking backpressure when the
//                 whole queue is at capacity)
//   draining   -> Drain() blocks until queued + running tasks hit zero
//   shut down  -> Shutdown() stops intake, lets tasks already RUNNING
//                 finish, and fails every still-queued task explicitly
//                 through its cancel callback with kShutdown (work is
//                 never silently dropped — callers holding futures see a
//                 typed error, not a hang); later Submits fail fast with
//                 kShutdown.
//
// Exactly one of task.run / task.cancel is invoked per accepted task:
// run on a worker thread, cancel on the thread that shed it (a worker,
// for deadline expiry) or the Shutdown caller's thread. Cancel callbacks
// always fire outside the queue lock.
#ifndef DIADS_ENGINE_THREAD_POOL_H_
#define DIADS_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/fair_queue.h"

namespace diads::engine {

class ThreadPool {
 public:
  struct Options {
    int workers = 4;
    /// Maximum queued (not yet running) tasks; Submit blocks beyond this.
    size_t queue_capacity = 128;
    /// Tenant fairness discipline (weights, shares, priority headroom).
    FairnessOptions fairness;
  };

  explicit ThreadPool(Options options);
  ~ThreadPool();  ///< Shutdown(): running tasks finish, queued cancelled.

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task with tenant/priority/deadline metadata. Returns:
  ///   kResourceExhausted — the tenant's queue share is full (immediate,
  ///     no blocking: flooding tenants get told, not buffered);
  ///   kShutdown — Shutdown has begun, including for submitters that were
  ///     blocked on a full queue when it began;
  ///   kInvalidArgument — null run callback or non-positive cost.
  /// Blocks while the global queue is at capacity (backpressure). The
  /// cancel callback is NOT invoked for rejected submissions — a non-OK
  /// return means the task was never accepted.
  Status Submit(QueueTask task);

  /// Blocks until every accepted task has finished (run, shed, or
  /// cancelled). Does not stop intake; tasks submitted concurrently with
  /// Drain extend the wait.
  void Drain();

  /// Stops intake, cancels every queued-but-not-running task with
  /// kShutdown, finishes tasks already running, joins the workers.
  /// Idempotent and safe to call concurrently with Submit/Drain.
  void Shutdown();

  size_t QueueDepth() const;
  /// Total cost currently enqueued (queued tasks weighted by their cost).
  double QueuedCost() const;

  /// Fair-queue counters (admitted / rejected / shed / cancelled /
  /// starvation_avoided / dispatched) accumulated since construction.
  FairQueueCounters QueueCounters() const;

  /// Per-tenant admission and dispatch accounting, sorted by tenant.
  std::vector<TenantAdmissionRow> TenantRows() const;

 private:
  void WorkerLoop();

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;   ///< Workers wait here.
  std::condition_variable not_full_;    ///< Blocked producers wait here.
  std::condition_variable all_done_;    ///< Drain/Shutdown wait here.
  FairQueue queue_;          ///< Guarded by mu_.
  size_t running_ = 0;       ///< Tasks currently executing.
  bool accepting_ = true;    ///< Cleared by Shutdown.
  bool stopping_ = false;    ///< Workers exit once queue is empty.
  std::mutex join_mu_;       ///< Serializes the join; late Shutdown callers
                             ///< block here until the workers are joined.
  bool joined_ = false;      ///< Guarded by join_mu_.
  std::vector<std::thread> workers_;
};

}  // namespace diads::engine

#endif  // DIADS_ENGINE_THREAD_POOL_H_
