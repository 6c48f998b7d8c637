#include "fleet/log.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"
#include "fleet/store.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace diads::fleet {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kFormatVersion = 1;
/// Upper bound on one record's payload. A corrupt length word must not
/// make replay allocate gigabytes: anything larger is treated as
/// corruption, not data (real verdicts are a few KB).
constexpr uint32_t kMaxPayloadBytes = 64u * 1024 * 1024;
constexpr size_t kFrameBytes = 8;  // u32 len + u32 crc.

// ---- little-endian payload writer/reader ------------------------------

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader: every Get returns false past the end instead of
/// reading garbage, so a corrupt (but CRC-colliding) payload degrades to
/// a decode failure, never undefined behavior.
class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool GetI64(int64_t* v) {
    uint64_t u = 0;
    if (!GetU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<unsigned char>(data_[pos_++]);
    return true;
  }

  /// An enum stored as a u32: false unless the value is below `count`, so
  /// a value outside the enum never reaches a table indexed by it.
  template <typename Enum>
  bool GetEnum(uint32_t count, Enum* v) {
    uint32_t raw = 0;
    if (!GetU32(&raw) || raw >= count) return false;
    *v = static_cast<Enum>(raw);
    return true;
  }

  bool GetStr(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_, pos_, len);
    pos_ += len;
    return true;
  }

  bool done() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

Status DecodeError() {
  return Status::InvalidArgument(
      "fleet log record payload is truncated or malformed");
}

// How many values each enum a record stores has.
constexpr uint32_t kCauseTypes =
    static_cast<uint32_t>(diag::RootCauseType::kCount);
constexpr uint32_t kBands =
    static_cast<uint32_t>(diag::ConfidenceBand::kLow) + 1;
constexpr uint32_t kComponentKinds =
    static_cast<uint32_t>(ComponentKind::kWorkload) + 1;
constexpr uint32_t kMetrics =
    static_cast<uint32_t>(monitor::MetricId::kDiskIops) + 1;

// ---- segment naming ---------------------------------------------------
//
// seg-<sequence>-w<bucket>.dlog — zero-padded so lexical order is append
// order, with the retention window bucket readable without opening the
// file. Bucket is offset by 2^62 so negative sim-time buckets still sort
// and parse (%019lld of the offset value is always positive).

constexpr int64_t kBucketOffset = int64_t{1} << 62;

std::string SegmentName(uint64_t sequence, int64_t bucket) {
  return StrFormat("seg-%010llu-w%019lld.dlog",
                   static_cast<unsigned long long>(sequence),
                   static_cast<long long>(bucket + kBucketOffset));
}

bool ParseSegmentName(const std::string& name, uint64_t* sequence,
                      int64_t* bucket) {
  unsigned long long seq = 0;
  long long offset_bucket = 0;
  if (std::sscanf(name.c_str(), "seg-%llu-w%lld.dlog", &seq,
                  &offset_bucket) != 2) {
    return false;
  }
  *sequence = seq;
  *bucket = offset_bucket - kBucketOffset;
  return true;
}

}  // namespace

// ---- verdict payload codec -------------------------------------------

std::string EncodeVerdict(const TenantVerdict& verdict) {
  std::string out;
  PutU32(&out, kFormatVersion);
  PutStr(&out, verdict.tenant);
  PutStr(&out, verdict.query);
  PutI64(&out, verdict.window_begin);
  PutI64(&out, verdict.window_end);
  PutU64(&out, verdict.store_generation);
  PutU8(&out, verdict.plan_diff.plans_differ ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(verdict.plan_diff.satisfactory_plans));
  PutU32(&out, static_cast<uint32_t>(verdict.plan_diff.unsatisfactory_plans));
  PutU32(&out, static_cast<uint32_t>(verdict.plan_diff.candidates));
  PutU32(&out, static_cast<uint32_t>(verdict.plan_diff.explaining_candidates));
  PutU32(&out, static_cast<uint32_t>(verdict.causes.size()));
  for (const CauseVerdict& cause : verdict.causes) {
    PutU32(&out, static_cast<uint32_t>(cause.type));
    PutStr(&out, cause.subject);
    PutF64(&out, cause.confidence);
    PutU32(&out, static_cast<uint32_t>(cause.band));
    PutF64(&out, cause.impact_pct);
  }
  PutU32(&out, static_cast<uint32_t>(verdict.components.size()));
  for (const ComponentVerdict& component : verdict.components) {
    PutStr(&out, component.component);
    PutU32(&out, static_cast<uint32_t>(component.kind));
    PutU8(&out, component.in_ccs ? 1 : 0);
    PutF64(&out, component.max_anomaly);
    PutU32(&out, static_cast<uint32_t>(component.metrics.size()));
    for (const MetricVerdict& metric : component.metrics) {
      PutU32(&out, static_cast<uint32_t>(metric.metric));
      PutF64(&out, metric.anomaly_score);
      PutF64(&out, metric.correlation);
      PutU8(&out, metric.correlated ? 1 : 0);
    }
    PutU8(&out, component.cause_subject ? 1 : 0);
    PutF64(&out, component.best_cause_confidence);
    PutU32(&out, static_cast<uint32_t>(component.cause_types.size()));
    for (diag::RootCauseType type : component.cause_types) {
      PutU32(&out, static_cast<uint32_t>(type));
    }
    PutU64(&out, component.generation);
  }
  // `cost` is observability-only and not serialized (see header).
  PutU8(&out, verdict.incident != nullptr ? 1 : 0);
  if (verdict.incident != nullptr) {
    PutU64(&out, verdict.incident->sequence);
    PutStr(&out, verdict.incident->subject);
    PutU32(&out, static_cast<uint32_t>(verdict.incident->metric));
    PutI64(&out, verdict.incident->onset_time);
    PutI64(&out, verdict.incident->confirmed_time);
  }
  return out;
}

Result<TenantVerdict> DecodeVerdict(const std::string& payload) {
  Reader reader(payload);
  uint32_t version = 0;
  if (!reader.GetU32(&version)) return DecodeError();
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("fleet log record has unknown format version %u", version));
  }
  TenantVerdict verdict;
  uint8_t flag = 0;
  uint32_t u32 = 0;
  if (!reader.GetStr(&verdict.tenant)) return DecodeError();
  if (!reader.GetStr(&verdict.query)) return DecodeError();
  if (!reader.GetI64(&verdict.window_begin)) return DecodeError();
  if (!reader.GetI64(&verdict.window_end)) return DecodeError();
  if (!reader.GetU64(&verdict.store_generation)) return DecodeError();
  if (!reader.GetU8(&flag)) return DecodeError();
  verdict.plan_diff.plans_differ = flag != 0;
  if (!reader.GetU32(&u32)) return DecodeError();
  verdict.plan_diff.satisfactory_plans = static_cast<int>(u32);
  if (!reader.GetU32(&u32)) return DecodeError();
  verdict.plan_diff.unsatisfactory_plans = static_cast<int>(u32);
  if (!reader.GetU32(&u32)) return DecodeError();
  verdict.plan_diff.candidates = static_cast<int>(u32);
  if (!reader.GetU32(&u32)) return DecodeError();
  verdict.plan_diff.explaining_candidates = static_cast<int>(u32);
  uint32_t n_causes = 0;
  if (!reader.GetU32(&n_causes)) return DecodeError();
  if (n_causes > payload.size()) return DecodeError();  // Sanity bound.
  verdict.causes.reserve(n_causes);
  for (uint32_t i = 0; i < n_causes; ++i) {
    CauseVerdict cause;
    if (!reader.GetEnum(kCauseTypes, &cause.type)) return DecodeError();
    if (!reader.GetStr(&cause.subject)) return DecodeError();
    if (!reader.GetF64(&cause.confidence)) return DecodeError();
    if (!reader.GetEnum(kBands, &cause.band)) return DecodeError();
    if (!reader.GetF64(&cause.impact_pct)) return DecodeError();
    verdict.causes.push_back(std::move(cause));
  }
  uint32_t n_components = 0;
  if (!reader.GetU32(&n_components)) return DecodeError();
  if (n_components > payload.size()) return DecodeError();
  verdict.components.reserve(n_components);
  for (uint32_t i = 0; i < n_components; ++i) {
    ComponentVerdict component;
    if (!reader.GetStr(&component.component)) return DecodeError();
    if (!reader.GetEnum(kComponentKinds, &component.kind)) {
      return DecodeError();
    }
    if (!reader.GetU8(&flag)) return DecodeError();
    component.in_ccs = flag != 0;
    if (!reader.GetF64(&component.max_anomaly)) return DecodeError();
    uint32_t n_metrics = 0;
    if (!reader.GetU32(&n_metrics)) return DecodeError();
    if (n_metrics > payload.size()) return DecodeError();
    component.metrics.reserve(n_metrics);
    for (uint32_t j = 0; j < n_metrics; ++j) {
      MetricVerdict metric;
      if (!reader.GetEnum(kMetrics, &metric.metric)) return DecodeError();
      if (!reader.GetF64(&metric.anomaly_score)) return DecodeError();
      if (!reader.GetF64(&metric.correlation)) return DecodeError();
      if (!reader.GetU8(&flag)) return DecodeError();
      metric.correlated = flag != 0;
      component.metrics.push_back(metric);
    }
    if (!reader.GetU8(&flag)) return DecodeError();
    component.cause_subject = flag != 0;
    if (!reader.GetF64(&component.best_cause_confidence)) return DecodeError();
    uint32_t n_types = 0;
    if (!reader.GetU32(&n_types)) return DecodeError();
    if (n_types > payload.size()) return DecodeError();
    component.cause_types.reserve(n_types);
    for (uint32_t j = 0; j < n_types; ++j) {
      diag::RootCauseType type{};
      if (!reader.GetEnum(kCauseTypes, &type)) return DecodeError();
      component.cause_types.push_back(type);
    }
    if (!reader.GetU64(&component.generation)) return DecodeError();
    verdict.components.push_back(std::move(component));
  }
  if (!reader.GetU8(&flag)) return DecodeError();
  if (flag != 0) {
    auto incident = std::make_shared<IncidentStamp>();
    if (!reader.GetU64(&incident->sequence)) return DecodeError();
    if (!reader.GetStr(&incident->subject)) return DecodeError();
    if (!reader.GetEnum(kMetrics, &incident->metric)) return DecodeError();
    if (!reader.GetI64(&incident->onset_time)) return DecodeError();
    if (!reader.GetI64(&incident->confirmed_time)) return DecodeError();
    verdict.incident = std::move(incident);
  }
  if (!reader.done()) return DecodeError();  // Trailing garbage.
  return verdict;
}

// ---- SegmentLog -------------------------------------------------------

SegmentLog::SegmentLog(LogOptions options) : options_(std::move(options)) {}

SegmentLog::~SegmentLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<std::unique_ptr<SegmentLog>> SegmentLog::Open(LogOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("SegmentLog::Open: empty directory");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("SegmentLog::Open: cannot create '" +
                            options.dir + "': " + ec.message());
  }
  auto log = std::unique_ptr<SegmentLog>(new SegmentLog(std::move(options)));
  // Continue the sequence after the highest existing segment so replay
  // order (lexical) matches append order across process restarts.
  uint64_t max_sequence = 0;
  bool any = false;
  for (const std::string& name : ListSegments(log->options_.dir)) {
    uint64_t sequence = 0;
    int64_t bucket = 0;
    if (ParseSegmentName(name, &sequence, &bucket)) {
      max_sequence = std::max(max_sequence, sequence);
      any = true;
    }
  }
  log->next_sequence_ = any ? max_sequence + 1 : 0;
  return log;
}

int64_t SegmentLog::BucketOf(SimTimeMs window_end) const {
  if (options_.window_span_ms <= 0) return 0;
  // Floor division so negative sim times bucket consistently.
  int64_t q = window_end / options_.window_span_ms;
  if (window_end % options_.window_span_ms < 0) --q;
  return q;
}

Status SegmentLog::RollSegment(int64_t bucket) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string name = SegmentName(next_sequence_, bucket);
  file_path_ = (fs::path(options_.dir) / name).string();
  file_ = std::fopen(file_path_.c_str(), "wb");
  if (file_ == nullptr) {
    have_segment_ = false;
    return Status::Internal("SegmentLog: cannot open segment '" +
                            file_path_ + "'");
  }
  ++next_sequence_;
  file_bytes_ = 0;
  current_bucket_ = bucket;
  have_segment_ = true;
  ++counters_.segments_created;
  return Status::Ok();
}

Status SegmentLog::Append(const TenantVerdict& verdict) {
  const std::string payload = EncodeVerdict(verdict);
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::string frame;
  frame.reserve(kFrameBytes);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, crc);

  std::lock_guard<std::mutex> lock(mu_);
  const int64_t bucket = BucketOf(verdict.window_end);
  if (!have_segment_ || bucket != current_bucket_ ||
      file_bytes_ >= options_.segment_max_bytes) {
    const Status rolled = RollSegment(bucket);
    if (!rolled.ok()) {
      ++counters_.append_failures;
      return rolled;
    }
    EnforceRetention();
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size() ||
      std::fflush(file_) != 0) {
    ++counters_.append_failures;
    // The segment now ends in a torn record — exactly what replay's CRC
    // check skips. Roll on the next append rather than keep writing
    // after the tear.
    have_segment_ = false;
    return Status::Internal("SegmentLog: short write to '" + file_path_ +
                            "'");
  }
#ifdef __unix__
  if (options_.sync_each_append) ::fsync(fileno(file_));
#endif
  file_bytes_ += frame.size() + payload.size();
  ++counters_.appends;
  counters_.bytes_written += frame.size() + payload.size();
  return Status::Ok();
}

Status SegmentLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::Ok();
  if (std::fflush(file_) != 0) {
    return Status::Internal("SegmentLog: flush failed for '" + file_path_ +
                            "'");
  }
#ifdef __unix__
  if (options_.sync_each_append) ::fsync(fileno(file_));
#endif
  return Status::Ok();
}

void SegmentLog::EnforceRetention() {
  if (options_.retain_windows == 0) return;
  // Collect the distinct window buckets present; keep the newest N.
  std::set<int64_t> buckets;
  std::vector<std::pair<std::string, int64_t>> segments;
  for (const std::string& name : ListSegments(options_.dir)) {
    uint64_t sequence = 0;
    int64_t bucket = 0;
    if (!ParseSegmentName(name, &sequence, &bucket)) continue;
    buckets.insert(bucket);
    segments.emplace_back(name, bucket);
  }
  if (buckets.size() <= options_.retain_windows) return;
  auto cutoff_it = buckets.end();
  for (size_t i = 0; i < options_.retain_windows; ++i) --cutoff_it;
  const int64_t cutoff = *cutoff_it;  // Oldest bucket retained.
  for (const auto& [name, bucket] : segments) {
    if (bucket >= cutoff) continue;
    std::error_code ec;
    const fs::path path = fs::path(options_.dir) / name;
    if (path.string() == file_path_) continue;  // Never the live segment.
    if (fs::remove(path, ec) && !ec) ++counters_.segments_deleted;
  }
}

LogCounters SegmentLog::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<std::string> SegmentLog::ListSegments(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return names;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    uint64_t sequence = 0;
    int64_t bucket = 0;
    if (ParseSegmentName(name, &sequence, &bucket)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

ReplayStats SegmentLog::Replay(
    const std::string& dir,
    const std::function<void(TenantVerdict&&)>& visit) {
  ReplayStats stats;
  for (const std::string& name : ListSegments(dir)) {
    ++stats.segments_scanned;
    const std::string path = (fs::path(dir) / name).string();
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      ++stats.records_dropped;
      continue;
    }
    // Records are replayed frame by frame; the first torn frame, absurd
    // length, or CRC mismatch abandons the rest of this segment (there
    // is no resync marker) and counts one drop.
    while (true) {
      unsigned char header[kFrameBytes];
      const size_t got = std::fread(header, 1, kFrameBytes, file);
      if (got == 0) break;  // Clean end of segment.
      if (got < kFrameBytes) {
        ++stats.records_dropped;  // Torn frame header.
        stats.bytes_scanned += got;
        break;
      }
      stats.bytes_scanned += kFrameBytes;
      uint32_t length = 0, crc = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<uint32_t>(header[i]) << (8 * i);
        crc |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
      }
      if (length > kMaxPayloadBytes) {
        ++stats.records_dropped;  // Corrupt length word.
        break;
      }
      std::string payload(length, '\0');
      const size_t read = length == 0 ? 0
                                      : std::fread(&payload[0], 1, length,
                                                   file);
      stats.bytes_scanned += read;
      if (read < length) {
        ++stats.records_dropped;  // Torn payload.
        break;
      }
      if (Crc32(payload.data(), payload.size()) != crc) {
        ++stats.records_dropped;  // Bit flip (or tear) inside the record.
        break;
      }
      Result<TenantVerdict> decoded = DecodeVerdict(payload);
      if (!decoded.ok()) {
        // CRC-valid but unparseable: a format from the future, or a
        // collision. Either way: skip this record, keep the segment —
        // framing is intact, later records are still addressable.
        ++stats.decode_failures;
        continue;
      }
      ++stats.records_replayed;
      if (visit) visit(std::move(decoded).value());
    }
    std::fclose(file);
  }
  return stats;
}

ReplayStats RecoverFromLog(const std::string& dir, FleetStore* store) {
  return SegmentLog::Replay(dir, [store](TenantVerdict&& verdict) {
    store->Publish(verdict);
  });
}

std::string LogCounters::Render() const {
  return StrFormat(
      "log: %llu appends (%llu failures), %llu bytes, %llu segments "
      "created, %llu deleted by retention\n",
      static_cast<unsigned long long>(appends),
      static_cast<unsigned long long>(append_failures),
      static_cast<unsigned long long>(bytes_written),
      static_cast<unsigned long long>(segments_created),
      static_cast<unsigned long long>(segments_deleted));
}

std::string LogCounters::ToJson() const {
  return StrFormat(
      "{\"appends\":%llu,\"append_failures\":%llu,\"bytes_written\":%llu,"
      "\"segments_created\":%llu,\"segments_deleted\":%llu}",
      static_cast<unsigned long long>(appends),
      static_cast<unsigned long long>(append_failures),
      static_cast<unsigned long long>(bytes_written),
      static_cast<unsigned long long>(segments_created),
      static_cast<unsigned long long>(segments_deleted));
}

std::string ReplayStats::Render() const {
  return StrFormat(
      "replay: %llu segments, %llu records restored, %llu dropped "
      "(torn/corrupt), %llu undecodable, %llu bytes\n",
      static_cast<unsigned long long>(segments_scanned),
      static_cast<unsigned long long>(records_replayed),
      static_cast<unsigned long long>(records_dropped),
      static_cast<unsigned long long>(decode_failures),
      static_cast<unsigned long long>(bytes_scanned));
}

std::string ReplayStats::ToJson() const {
  return StrFormat(
      "{\"segments_scanned\":%llu,\"records_replayed\":%llu,"
      "\"records_dropped\":%llu,\"decode_failures\":%llu,"
      "\"bytes_scanned\":%llu}",
      static_cast<unsigned long long>(segments_scanned),
      static_cast<unsigned long long>(records_replayed),
      static_cast<unsigned long long>(records_dropped),
      static_cast<unsigned long long>(decode_failures),
      static_cast<unsigned long long>(bytes_scanned));
}

}  // namespace diads::fleet
