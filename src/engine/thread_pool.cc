#include "engine/thread_pool.h"

#include <algorithm>
#include <utility>

namespace diads::engine {
namespace {

void CancelAll(std::vector<QueueTask>& tasks, const Status& status) {
  for (QueueTask& task : tasks) {
    if (task.cancel) task.cancel(status);
  }
  tasks.clear();
}

}  // namespace

ThreadPool::ThreadPool(Options options)
    : capacity_(std::max<size_t>(1, options.queue_capacity)),
      queue_(options.fairness,
             static_cast<double>(std::max<size_t>(1, options.queue_capacity))) {
  const int workers = std::max(1, options.workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(QueueTask task) {
  if (task.run == nullptr) {
    return Status::InvalidArgument("ThreadPool::Submit: null task");
  }
  if (task.cost <= 0) {
    return Status::InvalidArgument("ThreadPool::Submit: cost must be > 0");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!accepting_) {
    return Status::Shutdown("ThreadPool is shut down");
  }
  // Share admission is checked before blocking: a tenant over its share
  // gets an immediate typed refusal instead of consuming a backpressure
  // slot that fair tenants are waiting for.
  if (queue_.Admit(task) == AdmissionResult::kRejectedTenantShare) {
    queue_.RecordAdmission(task, AdmissionResult::kRejectedTenantShare);
    return Status::ResourceExhausted(
        "tenant '" + task.tenant + "' queue share is full (" +
        RequestPriorityName(task.priority) + " priority)");
  }
  not_full_.wait(lock, [this] { return queue_.size() < capacity_ || !accepting_; });
  if (!accepting_) {
    return Status::Shutdown("ThreadPool is shut down");
  }
  // Same-tenant producers may have refilled the share while we were
  // blocked on global capacity; the share bound must hold at enqueue time.
  if (queue_.Admit(task) == AdmissionResult::kRejectedTenantShare) {
    queue_.RecordAdmission(task, AdmissionResult::kRejectedTenantShare);
    return Status::ResourceExhausted(
        "tenant '" + task.tenant + "' queue share is full (" +
        RequestPriorityName(task.priority) + " priority)");
  }
  queue_.RecordAdmission(task, AdmissionResult::kAdmitted);
  queue_.Push(std::move(task));
  not_empty_.notify_one();
  return Status::Ok();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::Shutdown() {
  std::vector<QueueTask> cancelled;
  {
    std::unique_lock<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
    cancelled = queue_.DrainAll();
    // Wake producers blocked on a full queue so they can fail fast, and
    // idle workers so they observe stopping_.
    not_full_.notify_all();
    not_empty_.notify_all();
    if (queue_.empty() && running_ == 0) all_done_.notify_all();
  }
  // Queued-but-not-running work is failed explicitly, outside the lock
  // (cancel callbacks resolve engine futures and may take other locks).
  CancelAll(cancelled, Status::Shutdown("engine shutting down"));
  // Every Shutdown caller returns only once the workers are joined: a
  // late caller blocks on join_mu_ until the first caller's join is done,
  // so it can safely destroy the pool afterwards.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) return;
  joined_ = true;
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

double ThreadPool::QueuedCost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.total_cost();
}

FairQueueCounters ThreadPool::QueueCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.counters();
}

std::vector<TenantAdmissionRow> ThreadPool::TenantRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.TenantRows();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    QueueTask task;
    std::vector<QueueTask> shed;
    bool got = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && stopping_) return;
      got = queue_.Pop(&task, std::chrono::steady_clock::now(), &shed);
      if (got) ++running_;
      if (got || !shed.empty()) not_full_.notify_all();
      if (!got) {
        // Pop shed every remaining item: the queue may have just become
        // empty without any dispatch.
        if (queue_.empty() && running_ == 0) all_done_.notify_all();
        if (queue_.empty() && stopping_) {
          lock.unlock();
          CancelAll(shed, Status::DeadlineExceeded(
                              "deadline expired before diagnosis started"));
          return;
        }
      }
    }
    CancelAll(shed, Status::DeadlineExceeded(
                        "deadline expired before diagnosis started"));
    if (!got) continue;
    task.run();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace diads::engine
