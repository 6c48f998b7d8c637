// Structured leveled logging.
//
// The library is quiet by default (kWarning); examples and the interactive
// workflow raise the level to narrate what DIADS is doing, mirroring the
// module-by-module result panels of the paper's GUI (Figure 7).
//
// Every emitted line is a LogRecord — level, component prefix (dotted,
// e.g. "monitor.gather"), optional SimTime stamp, wall-clock stamp, and
// the message — routed through a pluggable LogSink. The default sink
// formats records to stderr; tests install a CaptureLogSink to assert on
// what the library logged (e.g. that a stale-data degradation names the
// affected component), and deployments can forward records to their own
// logging fabric.
#ifndef DIADS_COMMON_LOGGING_H_
#define DIADS_COMMON_LOGGING_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace diads {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

const char* LogLevelName(LogLevel level);

/// One structured log line.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  /// Dotted source component, e.g. "monitor.gather", "engine".
  std::string component;
  std::string message;
  /// Simulated-time stamp of the event being logged; < 0 when the caller
  /// has no sim-time context (most serving-path logs).
  SimTimeMs sim_time = -1;
  /// Wall-clock stamp, nanoseconds since the Unix epoch.
  int64_t wall_ns = 0;

  /// The default sink's line format:
  ///   [WARN monitor.gather d0 02:05:00] message      (with sim time)
  ///   [WARN monitor.gather] message                  (without)
  std::string Format() const;
};

/// Where log records go. Implementations must tolerate concurrent Write
/// calls (the global logger serializes them, but sinks may also be used
/// directly).
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// Sets the global minimum level that will be emitted.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Installs `sink` as the global log destination and returns the previous
/// one (nullptr when the default stderr sink was active). Passing nullptr
/// restores the default stderr sink. The caller keeps ownership; the sink
/// must outlive its installation.
LogSink* SetLogSink(LogSink* sink);

/// Emits a structured record if `level` passes the global threshold.
void LogRecordTo(LogLevel level, const std::string& component,
                 const std::string& message, SimTimeMs sim_time = -1);

/// Component-prefixed conveniences.
void LogDebug(const std::string& component, const std::string& message);
void LogInfo(const std::string& component, const std::string& message);
void LogWarning(const std::string& component, const std::string& message);
void LogError(const std::string& component, const std::string& message);

/// Test sink: records every write for later assertion. Thread-safe.
class CaptureLogSink : public LogSink {
 public:
  void Write(const LogRecord& record) override;

  /// Snapshot of everything captured so far.
  std::vector<LogRecord> Records() const;
  /// Records whose component matches exactly.
  std::vector<LogRecord> RecordsFor(const std::string& component) const;
  /// True if any captured message contains `needle`.
  bool ContainsMessage(const std::string& needle) const;
  size_t size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<LogRecord> records_;
};

/// RAII: installs a sink for the current scope, restores the previous one
/// on destruction (tests).
class ScopedLogSink {
 public:
  explicit ScopedLogSink(LogSink* sink) : previous_(SetLogSink(sink)) {}
  ~ScopedLogSink() { SetLogSink(previous_); }

  ScopedLogSink(const ScopedLogSink&) = delete;
  ScopedLogSink& operator=(const ScopedLogSink&) = delete;

 private:
  LogSink* previous_;
};

}  // namespace diads

#endif  // DIADS_COMMON_LOGGING_H_
