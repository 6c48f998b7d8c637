#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "common/strings.h"

namespace diads {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarning};

/// Serializes sink swaps and writes: a record is always written to the
/// sink that was installed when it passed the level check, and never to a
/// sink mid-destruction (ScopedLogSink restores before the sink dies).
std::mutex g_sink_mu;
LogSink* g_sink = nullptr;  // nullptr = default stderr sink.

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

class StderrSink : public LogSink {
 public:
  void Write(const LogRecord& record) override {
    const std::string line = record.Format();
    std::fprintf(stderr, "%s\n", line.c_str());
  }
};

StderrSink& DefaultSink() {
  static StderrSink sink;
  return sink;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

std::string LogRecord::Format() const {
  std::string head = StrFormat("[%s", LogLevelName(level));
  if (!component.empty()) head += StrFormat(" %s", component.c_str());
  if (sim_time >= 0) head += " " + FormatSimTime(sim_time);
  head += "] ";
  return head + message;
}

void SetLogLevel(LogLevel level) { g_level.store(level); }
LogLevel GetLogLevel() { return g_level.load(); }

LogSink* SetLogSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  LogSink* previous = g_sink;
  g_sink = sink;
  return previous;
}

void LogRecordTo(LogLevel level, const std::string& component,
                 const std::string& message, SimTimeMs sim_time) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  LogRecord record;
  record.level = level;
  record.component = component;
  record.message = message;
  record.sim_time = sim_time;
  record.wall_ns = WallNowNs();
  std::lock_guard<std::mutex> lock(g_sink_mu);
  (g_sink != nullptr ? g_sink : &DefaultSink())->Write(record);
}

void LogDebug(const std::string& component, const std::string& message) {
  LogRecordTo(LogLevel::kDebug, component, message);
}
void LogInfo(const std::string& component, const std::string& message) {
  LogRecordTo(LogLevel::kInfo, component, message);
}
void LogWarning(const std::string& component, const std::string& message) {
  LogRecordTo(LogLevel::kWarning, component, message);
}
void LogError(const std::string& component, const std::string& message) {
  LogRecordTo(LogLevel::kError, component, message);
}

void CaptureLogSink::Write(const LogRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

std::vector<LogRecord> CaptureLogSink::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<LogRecord> CaptureLogSink::RecordsFor(
    const std::string& component) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogRecord> out;
  for (const LogRecord& record : records_) {
    if (record.component == component) out.push_back(record);
  }
  return out;
}

bool CaptureLogSink::ContainsMessage(const std::string& needle) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const LogRecord& record : records_) {
    if (record.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

size_t CaptureLogSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void CaptureLogSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

}  // namespace diads
