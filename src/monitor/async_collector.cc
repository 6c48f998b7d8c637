#include "monitor/async_collector.h"

#include <chrono>
#include <utility>

namespace diads::monitor {

using Clock = std::chrono::steady_clock;

MetricBatch BatchFromSource(const FetchRequest& request) {
  MetricBatch batch;
  batch.component = request.component;
  if (request.source == nullptr) {
    batch.status = Status::InvalidArgument("FetchRequest.source is null");
    return batch;
  }
  batch.series.reserve(request.metrics.size());
  for (MetricId metric : request.metrics) {
    MetricSeries series;
    series.metric = metric;
    series.pinned = request.source->Pin(request.component, metric);
    if (series.pinned.empty()) continue;
    series.samples = CoveringSlice(series.pinned.samples(), request.interval);
    batch.series.push_back(std::move(series));
  }
  return batch;
}

SimulatedSanCollector::SimulatedSanCollector(SimulatedLatencyOptions options)
    : options_(std::move(options)) {
  const int n = options_.connections > 0 ? options_.connections : 1;
  connections_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    connections_.emplace_back([this] { ConnectionLoop(); });
  }
}

SimulatedSanCollector::~SimulatedSanCollector() { Shutdown(); }

std::future<MetricBatch> SimulatedSanCollector::Fetch(
    const FetchRequest& request) {
  Pending pending;
  pending.request = request;
  pending.enqueued = Clock::now();
  std::future<MetricBatch> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      ++cancelled_;
      Cancel(&pending);
      return future;
    }
    ++started_;
    queue_.push_back(std::move(pending));
  }
  wake_.notify_one();
  return future;
}

void SimulatedSanCollector::Serve(Pending* pending) {
  MetricBatch batch = BatchFromSource(pending->request);
  batch.fetch_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - pending->enqueued)
                       .count();
  pending->promise.set_value(std::move(batch));
}

void SimulatedSanCollector::Cancel(Pending* pending) {
  MetricBatch batch;
  batch.component = pending->request.component;
  batch.status =
      Status::FailedPrecondition("collector shut down before fetch completed");
  batch.fetch_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - pending->enqueued)
                       .count();
  pending->promise.set_value(std::move(batch));
}

void SimulatedSanCollector::ConnectionLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ and drained.
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    // The simulated wire: sleep the component's round-trip, but wake early
    // on Shutdown so cancellation is prompt and deterministic.
    const double latency_ms = options_.LatencyFor(pending.request.component);
    if (latency_ms > 0) {
      std::unique_lock<std::mutex> lock(mu_);
      const bool interrupted = abort_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(latency_ms),
          [this] { return shutting_down_; });
      if (interrupted) {
        ++cancelled_;
        lock.unlock();
        Cancel(&pending);
        continue;
      }
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutting_down_) {
        ++cancelled_;
        Cancel(&pending);
        continue;
      }
    }
    Serve(&pending);
  }
}

void SimulatedSanCollector::Shutdown() {
  std::deque<Pending> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
    orphaned.swap(queue_);
    cancelled_ += orphaned.size();
  }
  wake_.notify_all();
  abort_.notify_all();
  for (Pending& pending : orphaned) Cancel(&pending);
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) return;
  joined_ = true;
  for (std::thread& connection : connections_) connection.join();
}

uint64_t SimulatedSanCollector::fetches_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_;
}

uint64_t SimulatedSanCollector::fetches_cancelled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_;
}

}  // namespace diads::monitor
