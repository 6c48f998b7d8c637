// Deterministic span tracing for the diagnosis serving stack.
//
// The paper's whole premise is attributing a slowdown to the component
// that caused it; the tracer applies the same discipline to DIADS's own
// serving path. One diagnosis becomes one span tree:
//
//   diagnosis                      (root: tag, query, sim window)
//   ├─ result_cache                (hit / miss)
//   ├─ queue_wait                  (submit -> worker pickup)
//   ├─ gather                      (the scatter/gather)
//   │   ├─ fetch:C7                (one per component fetch attempt)
//   │   └─ fetch:C12 ...
//   ├─ workflow
//   │   └─ module:PD ... module:IA (the Figure-2 module chain)
//   └─ fleet_publish
//
// so "why did my *diagnosis* slow down?" is answerable from data: queue
// wait vs SAN gather vs KDE scoring vs publish.
//
// Design constraints, in priority order:
//   * ReportDigest-neutral: tracing only observes. Enabling it must not
//     change a single byte of any report (asserted by engine_test).
//   * Cross-thread: a span can begin on the submitting thread and end on
//     a worker. Open spans are therefore value-owned SpanHandles that
//     travel with the request — the Tracer itself stores only completed
//     spans, so there is no open-span table to lock or leak.
//   * Cheap when off: a default-constructed TraceContext makes every
//     call a no-op (null check, no allocation). The serving overhead
//     with tracing *on* is CI-gated < 5% on bench_engine_throughput.
//
// Spans carry both clock domains: wall duration from the steady clock
// (what actually cost time) and optional SimTime annotations (what part
// of the simulated monitoring timeline the work was about). Export is
// Chrome trace-event JSON ("ph":"X" complete events), loadable in
// chrome://tracing or Perfetto.
#ifndef DIADS_OBS_TRACE_H_
#define DIADS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace diads::obs {

using SpanId = uint64_t;

/// One completed span.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = root (no parent).
  std::string name;
  std::string category;  ///< "engine", "collect", "workflow", "cache", ...
  int64_t start_ns = 0;  ///< Steady clock, relative to the tracer's epoch.
  int64_t end_ns = 0;
  uint64_t thread_hash = 0;  ///< Hash of the thread that closed the span.
  /// Small string key/value annotations ("cache":"miss", "attempt":"2").
  std::vector<std::pair<std::string, std::string>> args;

  double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
  const std::string* FindArg(const std::string& key) const;
};

class Tracer;

/// A value-owned open span. Travels with the request across threads;
/// End() (or destruction) files the completed span with the tracer.
/// Movable, not copyable. Default-constructed handles are inert.
class SpanHandle {
 public:
  SpanHandle() = default;
  ~SpanHandle() { End(); }

  SpanHandle(SpanHandle&& other) noexcept { *this = std::move(other); }
  SpanHandle& operator=(SpanHandle&& other) noexcept;
  SpanHandle(const SpanHandle&) = delete;
  SpanHandle& operator=(const SpanHandle&) = delete;

  bool active() const { return tracer_ != nullptr; }
  SpanId id() const { return id_; }

  /// Attaches a key/value annotation (no-op when inert).
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, uint64_t value);
  void Note(const std::string& key, double value);
  /// Annotates with a simulated-time interval (the diagnosis window).
  void NoteWindow(const TimeInterval& window);

  /// Closes the span and files it with the tracer. Idempotent.
  void End();

 private:
  friend class Tracer;
  friend class TraceContext;

  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
  SpanId parent_ = 0;
  int64_t start_ns_ = 0;
  std::string name_;
  std::string category_;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// A cheap (pointer + id) handle threaded through the code being traced.
/// Copyable; a default-constructed context is disabled and makes every
/// operation a no-op.
class TraceContext {
 public:
  TraceContext() = default;
  TraceContext(Tracer* tracer, SpanId parent)
      : tracer_(tracer), parent_(parent) {}

  bool enabled() const { return tracer_ != nullptr; }
  Tracer* tracer() const { return tracer_; }
  SpanId parent() const { return parent_; }

  /// Opens a span as a child of this context's span.
  SpanHandle StartSpan(const std::string& name,
                       const std::string& category) const;

  /// Files a zero-duration marker span (outcome annotations, which have
  /// no meaningful extent of their own).
  void Instant(const std::string& name, const std::string& category,
               std::vector<std::pair<std::string, std::string>> args) const;

  /// The context for work nested under `span` (inert handle -> inert
  /// context).
  TraceContext Under(const SpanHandle& span) const {
    return span.active() ? TraceContext(span.tracer_, span.id_)
                         : TraceContext();
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanId parent_ = 0;
};

/// Collects completed spans. Thread-safe: any number of threads may open
/// and close spans concurrently. One tracer typically serves one engine.
class Tracer {
 public:
  Tracer();

  /// A root context (spans started from it have no parent).
  TraceContext Root() { return TraceContext(this, 0); }

  /// Snapshot of every completed span so far, in completion order.
  std::vector<Span> Spans() const;
  size_t span_count() const;
  void Clear();

  /// Chrome trace-event JSON: {"traceEvents":[...], "displayTimeUnit":..}.
  /// Complete ("ph":"X") events with microsecond timestamps; span ids and
  /// parent ids are carried in args so the tree is reconstructable.
  std::string ExportChromeTrace() const;

  /// Steady-clock nanoseconds since this tracer's construction.
  int64_t NowNs() const;

 private:
  friend class SpanHandle;
  friend class TraceContext;

  SpanId NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void File(Span span);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<SpanId> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Validates parent/child structure: every non-zero parent id must refer
/// to a span in `spans`, and every child must be temporally contained in
/// its parent within `slack_ns` (spans are closed child-first on one
/// request path, but cross-thread clock reads get a little slack).
/// Returns an empty string when consistent, else a description of the
/// first violation. Test utility.
std::string CheckSpanNesting(const std::vector<Span>& spans,
                             int64_t slack_ns = 0);

}  // namespace diads::obs

#endif  // DIADS_OBS_TRACE_H_
