// Fault-injection tests for the fleet store's crash-durable segment log:
// codec round trips, torn tails, truncated segments, bit-flipped CRCs,
// empty logs, retention, and the recovery contract — a recovered store
// answers every FleetQuery byte-equal to the pre-crash store minus
// provably lost tail records, and replayed rows obey the same monotone-
// generation rule as live publishes. Run under ASan and TSan.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/log.h"
#include "fleet/query.h"
#include "fleet/store.h"

namespace diads::fleet {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test.
fs::path ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fleet_log_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A verdict exercising every serialized field (incident included when
/// `with_incident`). Generations and scores derive from `n` so distinct
/// records are distinguishable after replay.
TenantVerdict MakeVerdict(const std::string& tenant, uint64_t n,
                          bool with_incident = false) {
  TenantVerdict verdict;
  verdict.tenant = tenant;
  verdict.query = "Q2";
  verdict.window_begin = static_cast<SimTimeMs>(n * 1000);
  verdict.window_end = static_cast<SimTimeMs>(n * 1000 + 600);
  verdict.store_generation = 100 + n;

  verdict.plan_diff.plans_differ = (n % 2) == 0;
  verdict.plan_diff.satisfactory_plans = 2;
  verdict.plan_diff.unsatisfactory_plans = 1;
  verdict.plan_diff.candidates = static_cast<int>(n);
  verdict.plan_diff.explaining_candidates = 1;

  CauseVerdict cause;
  cause.type = diag::RootCauseType::kSanMisconfigurationContention;
  cause.subject = "V1";
  cause.confidence = 0.9;
  cause.band = diag::ConfidenceBand::kHigh;
  cause.impact_pct = 42.5;
  verdict.causes.push_back(cause);
  cause.type = diag::RootCauseType::kExternalWorkloadContention;
  cause.subject = "";
  cause.confidence = 0.4;
  cause.band = diag::ConfidenceBand::kLow;
  cause.impact_pct = -1;
  verdict.causes.push_back(cause);

  ComponentVerdict component;
  component.component = "V1";
  component.kind = ComponentKind::kVolume;
  component.in_ccs = true;
  component.max_anomaly = 0.95;
  MetricVerdict metric;
  metric.metric = monitor::MetricId::kVolTotalIos;
  metric.anomaly_score = 0.95;
  metric.correlation = 0.88;
  metric.correlated = true;
  component.metrics.push_back(metric);
  component.cause_subject = true;
  component.best_cause_confidence = 0.9;
  component.cause_types = {diag::RootCauseType::kSanMisconfigurationContention};
  component.generation = 10 + n;
  verdict.components.push_back(component);

  ComponentVerdict quiet;
  quiet.component = "P1";
  quiet.kind = ComponentKind::kStoragePool;
  quiet.generation = 20 + n;
  verdict.components.push_back(quiet);

  if (with_incident) {
    auto incident = std::make_shared<IncidentStamp>();
    incident->sequence = n;
    incident->subject = "V1";
    incident->metric = monitor::MetricId::kVolPhysReadTimeMs;
    incident->onset_time = 5000;
    incident->confirmed_time = 6500;
    verdict.incident = std::move(incident);
  }
  return verdict;
}

void ExpectVerdictsEqual(const TenantVerdict& a, const TenantVerdict& b) {
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.query, b.query);
  EXPECT_EQ(a.window_begin, b.window_begin);
  EXPECT_EQ(a.window_end, b.window_end);
  EXPECT_EQ(a.store_generation, b.store_generation);
  EXPECT_EQ(a.plan_diff.plans_differ, b.plan_diff.plans_differ);
  EXPECT_EQ(a.plan_diff.candidates, b.plan_diff.candidates);
  ASSERT_EQ(a.causes.size(), b.causes.size());
  for (size_t i = 0; i < a.causes.size(); ++i) {
    EXPECT_EQ(a.causes[i].type, b.causes[i].type);
    EXPECT_EQ(a.causes[i].subject, b.causes[i].subject);
    EXPECT_DOUBLE_EQ(a.causes[i].confidence, b.causes[i].confidence);
    EXPECT_EQ(a.causes[i].band, b.causes[i].band);
    EXPECT_DOUBLE_EQ(a.causes[i].impact_pct, b.causes[i].impact_pct);
  }
  ASSERT_EQ(a.components.size(), b.components.size());
  for (size_t i = 0; i < a.components.size(); ++i) {
    const ComponentVerdict& x = a.components[i];
    const ComponentVerdict& y = b.components[i];
    EXPECT_EQ(x.component, y.component);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.in_ccs, y.in_ccs);
    EXPECT_DOUBLE_EQ(x.max_anomaly, y.max_anomaly);
    EXPECT_EQ(x.cause_subject, y.cause_subject);
    EXPECT_EQ(x.cause_types, y.cause_types);
    EXPECT_EQ(x.generation, y.generation);
    ASSERT_EQ(x.metrics.size(), y.metrics.size());
    for (size_t m = 0; m < x.metrics.size(); ++m) {
      EXPECT_EQ(x.metrics[m].metric, y.metrics[m].metric);
      EXPECT_DOUBLE_EQ(x.metrics[m].anomaly_score,
                       y.metrics[m].anomaly_score);
      EXPECT_EQ(x.metrics[m].correlated, y.metrics[m].correlated);
    }
  }
  ASSERT_EQ(a.incident != nullptr, b.incident != nullptr);
  if (a.incident != nullptr) {
    EXPECT_EQ(a.incident->sequence, b.incident->sequence);
    EXPECT_EQ(a.incident->subject, b.incident->subject);
    EXPECT_EQ(a.incident->metric, b.incident->metric);
    EXPECT_EQ(a.incident->onset_time, b.incident->onset_time);
    EXPECT_EQ(a.incident->confirmed_time, b.incident->confirmed_time);
  }
}

/// The single (lexically last) segment file of `dir`.
fs::path LastSegment(const fs::path& dir) {
  const std::vector<std::string> segments =
      SegmentLog::ListSegments(dir.string());
  EXPECT_FALSE(segments.empty());
  return dir / segments.back();
}

// --- Codec -------------------------------------------------------------------

TEST(VerdictCodecTest, RoundTripsEveryField) {
  const TenantVerdict original = MakeVerdict("t00-S1", 7, true);
  Result<TenantVerdict> decoded = DecodeVerdict(EncodeVerdict(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectVerdictsEqual(original, *decoded);
}

TEST(VerdictCodecTest, RejectsGarbageWithoutCrashing) {
  EXPECT_FALSE(DecodeVerdict("").ok());
  EXPECT_FALSE(DecodeVerdict("not a verdict").ok());
  // Every truncation of a valid payload must fail cleanly, never read
  // out of bounds (the ASan job is what gives this test its teeth).
  const std::string payload = EncodeVerdict(MakeVerdict("t", 1, true));
  for (size_t len = 0; len < payload.size(); len += 7) {
    EXPECT_FALSE(DecodeVerdict(payload.substr(0, len)).ok())
        << "truncation at " << len << " decoded successfully";
  }
  // Trailing garbage is also rejected (a CRC-valid record must parse
  // exactly, or the frame boundary is suspect).
  EXPECT_FALSE(DecodeVerdict(payload + "x").ok());
}

TEST(VerdictCodecTest, RejectsEnumValuesOutsideTheirEnum) {
  // The last value of every stored enum decodes...
  TenantVerdict last = MakeVerdict("t", 1, true);
  last.causes.front().type = diag::RootCauseType::kZoneMapStaleness;
  last.causes.front().band = diag::ConfidenceBand::kLow;
  last.components.front().kind = ComponentKind::kWorkload;
  last.components.front().metrics.front().metric =
      monitor::MetricId::kDiskIops;
  ASSERT_TRUE(DecodeVerdict(EncodeVerdict(last)).ok());
  // ...and one past it, in each of the six places, does not.
  std::vector<TenantVerdict> bad(6, last);
  bad[0].causes.front().type = static_cast<diag::RootCauseType>(14);
  bad[1].causes.front().band = static_cast<diag::ConfidenceBand>(3);
  bad[2].components.front().kind = static_cast<ComponentKind>(15);
  bad[3].components.front().metrics.front().metric =
      static_cast<monitor::MetricId>(44);
  bad[4].components.front().cause_types.front() =
      static_cast<diag::RootCauseType>(14);
  auto incident = std::make_shared<IncidentStamp>(*last.incident);
  incident->metric = static_cast<monitor::MetricId>(44);
  bad[5].incident = incident;
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(DecodeVerdict(EncodeVerdict(bad[i])).ok()) << "case " << i;
  }
}

// --- Append / replay ---------------------------------------------------------

TEST(SegmentLogTest, AppendThenReplayRoundTrips) {
  const fs::path dir = ScratchDir("round_trip");
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t n = 0; n < 5; ++n) {
      ASSERT_TRUE((*log)->Append(MakeVerdict("t00", n, n == 0)).ok());
    }
    EXPECT_EQ((*log)->Counters().appends, 5u);
    EXPECT_EQ((*log)->Counters().append_failures, 0u);
  }
  std::vector<TenantVerdict> replayed;
  const ReplayStats stats = SegmentLog::Replay(
      dir.string(),
      [&replayed](TenantVerdict&& v) { replayed.push_back(std::move(v)); });
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.records_replayed, 5u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.decode_failures, 0u);
  ASSERT_EQ(replayed.size(), 5u);
  for (uint64_t n = 0; n < 5; ++n) {
    ExpectVerdictsEqual(MakeVerdict("t00", n, n == 0), replayed[n]);
  }
}

/// CRC-32 (reflected polynomial 0xEDB88320) one bit at a time: the
/// checksum's definition, independent of how common/crc32.cc computes it.
uint32_t BitwiseCrc32(const std::string& bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (const char byte : bytes) {
    c ^= static_cast<uint8_t>(byte);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

void PutLe32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

// A record is [u32 payload length][u32 CRC-32 of the payload][payload],
// little-endian. The log writes exactly those bytes, with the checksum's
// definitional value, and a segment holding them (such as one written
// before the checksum was computed eight bytes per step) replays in full.
TEST(SegmentLogTest, SegmentBytesFollowTheCrc32Definition) {
  std::vector<TenantVerdict> verdicts;
  std::string framed;
  for (uint64_t n = 0; n < 6; ++n) {
    verdicts.push_back(MakeVerdict("t01", n, n % 2 == 1));
    const std::string payload = EncodeVerdict(verdicts.back());
    PutLe32(&framed, static_cast<uint32_t>(payload.size()));
    PutLe32(&framed, BitwiseCrc32(payload));
    framed += payload;
  }
  const fs::path dir = ScratchDir("crc_definition");
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (const TenantVerdict& verdict : verdicts) {
      ASSERT_TRUE((*log)->Append(verdict).ok());
    }
  }
  const fs::path segment = LastSegment(dir);
  std::string written;
  {
    std::ifstream in(segment, std::ios::binary);
    written.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(written, framed);

  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out << framed;
  }
  std::vector<TenantVerdict> replayed;
  const ReplayStats stats = SegmentLog::Replay(
      dir.string(),
      [&replayed](TenantVerdict&& v) { replayed.push_back(std::move(v)); });
  EXPECT_EQ(stats.records_replayed, verdicts.size());
  EXPECT_EQ(stats.records_dropped, 0u);
  ASSERT_EQ(replayed.size(), verdicts.size());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    ExpectVerdictsEqual(verdicts[i], replayed[i]);
  }
}

TEST(SegmentLogTest, MissingDirectoryIsAnEmptyLog) {
  const ReplayStats stats = SegmentLog::Replay(
      "/tmp/diads-no-such-log-dir", [](TenantVerdict&&) { FAIL(); });
  EXPECT_EQ(stats.segments_scanned, 0u);
  EXPECT_EQ(stats.records_replayed, 0u);
  EXPECT_EQ(stats.records_dropped, 0u);
}

TEST(SegmentLogTest, EachOpenStartsAFreshSegment) {
  const fs::path dir = ScratchDir("fresh_segment");
  for (uint64_t n = 0; n < 3; ++n) {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeVerdict("t00", n)).ok());
  }
  EXPECT_EQ(SegmentLog::ListSegments(dir.string()).size(), 3u);
  size_t replayed = 0;
  const ReplayStats stats = SegmentLog::Replay(
      dir.string(), [&replayed](TenantVerdict&&) { ++replayed; });
  EXPECT_EQ(stats.segments_scanned, 3u);
  EXPECT_EQ(replayed, 3u);
}

TEST(SegmentLogTest, RollsSegmentsBySize) {
  const fs::path dir = ScratchDir("roll_by_size");
  LogOptions options;
  options.dir = dir.string();
  options.segment_max_bytes = 1;  // Any non-empty segment rolls: one
                                  // record per segment.
  {
    Result<std::unique_ptr<SegmentLog>> log =
        SegmentLog::Open(std::move(options));
    ASSERT_TRUE(log.ok());
    for (uint64_t n = 0; n < 4; ++n) {
      ASSERT_TRUE((*log)->Append(MakeVerdict("t00", n)).ok());
    }
  }
  EXPECT_GE(SegmentLog::ListSegments(dir.string()).size(), 4u);
  size_t replayed = 0;
  SegmentLog::Replay(dir.string(),
                     [&replayed](TenantVerdict&&) { ++replayed; });
  EXPECT_EQ(replayed, 4u);  // Rolling loses nothing.
}

TEST(SegmentLogTest, WindowRetentionDeletesOldSegments) {
  const fs::path dir = ScratchDir("retention");
  LogOptions options;
  options.dir = dir.string();
  options.window_span_ms = 1000;  // MakeVerdict(n) lands in bucket n.
  options.retain_windows = 2;
  uint64_t deleted = 0;
  {
    Result<std::unique_ptr<SegmentLog>> log =
        SegmentLog::Open(std::move(options));
    ASSERT_TRUE(log.ok());
    for (uint64_t n = 0; n < 6; ++n) {
      ASSERT_TRUE((*log)->Append(MakeVerdict("t00", n)).ok());
    }
    deleted = (*log)->Counters().segments_deleted;
  }
  EXPECT_GT(deleted, 0u);
  // Only records of the newest two window buckets survive.
  std::vector<SimTimeMs> windows;
  SegmentLog::Replay(dir.string(), [&windows](TenantVerdict&& v) {
    windows.push_back(v.window_end);
  });
  ASSERT_FALSE(windows.empty());
  for (SimTimeMs w : windows) {
    EXPECT_GE(w, 4000) << "a retention-expired window survived replay";
  }
}

// --- Fault injection ---------------------------------------------------------

/// Appends `count` records, closes the log, then truncates the last
/// segment file to `keep_fraction` of the final record (simulating a
/// crash mid-write), and returns the replay outcome.
ReplayStats ReplayAfterTear(const fs::path& dir, int count,
                            double keep_fraction, size_t* replayed) {
  size_t last_record_begin = 0;
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    EXPECT_TRUE(log.ok());
    for (int n = 0; n < count; ++n) {
      if (n == count - 1) {
        last_record_begin = fs::file_size(LastSegment(dir));
      }
      EXPECT_TRUE((*log)->Append(MakeVerdict("t00", n)).ok());
      EXPECT_TRUE((*log)->Flush().ok());
    }
  }
  const fs::path segment = LastSegment(dir);
  const size_t full = fs::file_size(segment);
  const size_t torn =
      last_record_begin + static_cast<size_t>(
                              (full - last_record_begin) * keep_fraction);
  fs::resize_file(segment, torn);

  *replayed = 0;
  return SegmentLog::Replay(dir.string(),
                            [replayed](TenantVerdict&&) { ++*replayed; });
}

TEST(SegmentLogFaultTest, TornFinalRecordRecoversToLastValidRecord) {
  // Tear mid-payload: frame header intact, payload short.
  size_t replayed = 0;
  const ReplayStats stats =
      ReplayAfterTear(ScratchDir("torn_payload"), 4, 0.6, &replayed);
  EXPECT_EQ(replayed, 3u);
  EXPECT_EQ(stats.records_replayed, 3u);
  EXPECT_EQ(stats.records_dropped, 1u);
}

TEST(SegmentLogFaultTest, TornFrameHeaderRecoversToLastValidRecord) {
  // Tear inside the 8-byte frame header itself.
  size_t replayed = 0;
  const ReplayStats stats =
      ReplayAfterTear(ScratchDir("torn_header"), 4, 0.0, &replayed);
  // 0.0 keeps zero bytes of the final record: a clean end, nothing torn.
  EXPECT_EQ(replayed, 3u);
  EXPECT_EQ(stats.records_dropped, 0u);

  size_t replayed2 = 0;
  const fs::path dir2 = ScratchDir("torn_header2");
  {
    Result<std::unique_ptr<SegmentLog>> log =
        SegmentLog::Open({dir2.string()});
    ASSERT_TRUE(log.ok());
    for (int n = 0; n < 3; ++n) {
      ASSERT_TRUE((*log)->Append(MakeVerdict("t00", n)).ok());
    }
  }
  const fs::path segment = LastSegment(dir2);
  // Keep 3 bytes past the second record's end: a torn frame header.
  std::vector<size_t> sizes;
  {
    std::ifstream in(segment, std::ios::binary);
    ASSERT_TRUE(in.good());
  }
  // Compute record boundaries by re-reading lengths.
  std::string bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  size_t offset = 0;
  for (int n = 0; n < 2; ++n) {
    const uint32_t len = static_cast<uint8_t>(bytes[offset]) |
                         static_cast<uint8_t>(bytes[offset + 1]) << 8 |
                         static_cast<uint8_t>(bytes[offset + 2]) << 16 |
                         static_cast<uint8_t>(bytes[offset + 3]) << 24;
    offset += 8 + len;
  }
  fs::resize_file(segment, offset + 3);
  const ReplayStats stats2 = SegmentLog::Replay(
      dir2.string(), [&replayed2](TenantVerdict&&) { ++replayed2; });
  EXPECT_EQ(replayed2, 2u);
  EXPECT_EQ(stats2.records_dropped, 1u);
}

TEST(SegmentLogFaultTest, BitFlippedCrcDropsOnlyTheCorruptSuffix) {
  const fs::path dir = ScratchDir("bit_flip");
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    for (int n = 0; n < 3; ++n) {
      ASSERT_TRUE((*log)->Append(MakeVerdict("t00", n)).ok());
    }
  }
  // Flip one bit in the LAST record's payload.
  const fs::path segment = LastSegment(dir);
  std::string bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  size_t offset = 0;
  for (int n = 0; n < 2; ++n) {
    const uint32_t len = static_cast<uint8_t>(bytes[offset]) |
                         static_cast<uint8_t>(bytes[offset + 1]) << 8 |
                         static_cast<uint8_t>(bytes[offset + 2]) << 16 |
                         static_cast<uint8_t>(bytes[offset + 3]) << 24;
    offset += 8 + len;
  }
  bytes[offset + 8 + 5] ^= 0x40;  // Payload byte of record 3.
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  size_t replayed = 0;
  const ReplayStats stats = SegmentLog::Replay(
      dir.string(), [&replayed](TenantVerdict&&) { ++replayed; });
  EXPECT_EQ(replayed, 2u);  // The two records before the flip survive.
  EXPECT_EQ(stats.records_dropped, 1u);
}

TEST(SegmentLogFaultTest, CorruptSegmentDoesNotPoisonLaterSegments) {
  const fs::path dir = ScratchDir("multi_segment");
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeVerdict("t00", 0)).ok());
  }
  // Corrupt the first segment's only record...
  {
    const fs::path first = LastSegment(dir);
    fs::resize_file(first, fs::file_size(first) - 4);
  }
  // ...then write a clean second segment (a later process's publishes).
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeVerdict("t00", 1)).ok());
    ASSERT_TRUE((*log)->Append(MakeVerdict("t00", 2)).ok());
  }
  std::vector<uint64_t> generations;
  const ReplayStats stats =
      SegmentLog::Replay(dir.string(), [&generations](TenantVerdict&& v) {
        generations.push_back(v.store_generation);
      });
  EXPECT_EQ(stats.segments_scanned, 2u);
  EXPECT_EQ(stats.records_dropped, 1u);
  EXPECT_EQ(generations, (std::vector<uint64_t>{101, 102}));
}

TEST(SegmentLogFaultTest, OutOfRangeCauseTypeSkipsOnlyThatRecord) {
  // A CRC-valid record naming cause type 14, one past the last
  // RootCauseType (say, written by a build with more causes). The type
  // would index past the cause catalogue, so the payload must fail to
  // decode, and recovery must skip that record and keep the others.
  TenantVerdict future = MakeVerdict("t01", 1);
  future.causes.front().type = static_cast<diag::RootCauseType>(14);
  EXPECT_FALSE(DecodeVerdict(EncodeVerdict(future)).ok());

  const fs::path dir = ScratchDir("out_of_range_cause");
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeVerdict("t00", 0)).ok());
    ASSERT_TRUE((*log)->Append(future).ok());
    ASSERT_TRUE((*log)->Append(MakeVerdict("t02", 2)).ok());
  }
  FleetStore store;
  const ReplayStats stats = RecoverFromLog(dir.string(), &store);
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_EQ(stats.decode_failures, 1u);
  EXPECT_EQ(stats.records_dropped, 0u);
  std::set<std::string> tenants;
  for (const FleetStore::Row& row : store.Snapshot()) {
    tenants.insert(row.key.tenant);
  }
  EXPECT_EQ(tenants, (std::set<std::string>{"t00", "t02"}));
}

// --- Recovery into a FleetStore ---------------------------------------------

TEST(RecoveryTest, RecoveredStoreAnswersQueriesByteEqual) {
  const fs::path dir = ScratchDir("byte_equal");
  // Pre-crash: three tenants publish through an attached log.
  FleetStore before;
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    before.AttachLog(log->get());
    before.Publish(MakeVerdict("t00-S1", 3, true));
    before.Publish(MakeVerdict("t01-S2", 4));
    before.Publish(MakeVerdict("t02-S3", 5));
    before.DetachLog();
  }  // "Crash": the log closes; `before`'s memory is the oracle.

  FleetStore after;
  const ReplayStats stats = RecoverFromLog(dir.string(), &after);
  EXPECT_EQ(stats.records_replayed, 3u);
  EXPECT_EQ(stats.records_dropped, 0u);

  const FleetQuery oracle(&before);
  const FleetQuery recovered(&after);
  EXPECT_EQ(oracle.TenantsSharingComponent("V1"),
            recovered.TenantsSharingComponent("V1"));
  EXPECT_EQ(oracle.TenantsSharingComponent(
                "V1", monitor::MetricId::kVolTotalIos, 0.5),
            recovered.TenantsSharingComponent(
                "V1", monitor::MetricId::kVolTotalIos, 0.5));
  EXPECT_EQ(oracle.TenantsImplicating("V1"),
            recovered.TenantsImplicating("V1"));
  EXPECT_EQ(oracle.TenantsImplicating("V1", diag::ConfidenceBand::kHigh),
            recovered.TenantsImplicating("V1", diag::ConfidenceBand::kHigh));

  const auto oracle_top = oracle.TopImplicatedComponents(4);
  const auto recovered_top = recovered.TopImplicatedComponents(4);
  ASSERT_EQ(oracle_top.size(), recovered_top.size());
  for (size_t i = 0; i < oracle_top.size(); ++i) {
    EXPECT_EQ(oracle_top[i].component, recovered_top[i].component);
    EXPECT_EQ(oracle_top[i].tenants, recovered_top[i].tenants);
    EXPECT_DOUBLE_EQ(oracle_top[i].max_confidence,
                     recovered_top[i].max_confidence);
    EXPECT_EQ(oracle_top[i].tenant_names, recovered_top[i].tenant_names);
  }

  const auto oracle_cooc = oracle.RootCauseCooccurrence();
  const auto recovered_cooc = recovered.RootCauseCooccurrence();
  ASSERT_EQ(oracle_cooc.size(), recovered_cooc.size());
  for (size_t i = 0; i < oracle_cooc.size(); ++i) {
    EXPECT_EQ(oracle_cooc[i].a, recovered_cooc[i].a);
    EXPECT_EQ(oracle_cooc[i].b, recovered_cooc[i].b);
    EXPECT_EQ(oracle_cooc[i].tenants, recovered_cooc[i].tenants);
  }

  // Same live rows, row for row (cost is observability-only and excluded
  // from the codec by contract; no query reads it).
  EXPECT_EQ(before.TotalCounters().entries, after.TotalCounters().entries);
}

TEST(RecoveryTest, ReplayThenPublishKeepsGenerationsMonotone) {
  const fs::path dir = ScratchDir("monotone");
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    // Two publishes of the same identity: generation 12 then 15.
    ASSERT_TRUE((*log)->Append(MakeVerdict("t00", 2)).ok());
    TenantVerdict newer = MakeVerdict("t00", 2);
    newer.store_generation = 115;
    for (ComponentVerdict& c : newer.components) c.generation += 5;
    ASSERT_TRUE((*log)->Append(newer).ok());
  }

  FleetStore store;
  const ReplayStats stats = RecoverFromLog(dir.string(), &store);
  EXPECT_EQ(stats.records_replayed, 2u);
  // Replay routed both through Publish: the second superseded the first.
  EXPECT_GT(store.TotalCounters().rows_superseded, 0u);

  // A live publish of a STALE verdict (older generations) after recovery
  // must be dropped, exactly as it would have been pre-crash.
  const FleetStore::Counters pre = store.TotalCounters();
  TenantVerdict stale = MakeVerdict("t00", 2);
  stale.store_generation = 90;
  for (ComponentVerdict& c : stale.components) c.generation = 1;
  store.Publish(stale);
  const FleetStore::Counters post = store.TotalCounters();
  EXPECT_EQ(post.rows_stale_dropped,
            pre.rows_stale_dropped + 1 + stale.components.size());
  EXPECT_EQ(post.entries, pre.entries);

  // And a genuinely newer publish still lands.
  TenantVerdict fresh = MakeVerdict("t00", 2);
  fresh.store_generation = 200;
  for (ComponentVerdict& c : fresh.components) c.generation += 100;
  store.Publish(fresh);
  EXPECT_GT(store.TotalCounters().rows_superseded, post.rows_superseded);
}

TEST(RecoveryTest, RecoverIntoAttachedStoreWouldDuplicateSoContractIsRecoverFirst) {
  // The documented ordering: recover BEFORE attach. This test pins the
  // reason — an attached log re-appends every publish, so recovery into
  // an attached store doubles the log.
  const fs::path dir = ScratchDir("attach_order");
  {
    Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeVerdict("t00", 1)).ok());
  }
  FleetStore store;
  RecoverFromLog(dir.string(), &store);  // Correct order: no log attached.
  Result<std::unique_ptr<SegmentLog>> log = SegmentLog::Open({dir.string()});
  ASSERT_TRUE(log.ok());
  store.AttachLog(log->get());
  store.Publish(MakeVerdict("t00", 9));  // Live publish appends once.
  EXPECT_EQ((*log)->Counters().appends, 1u);
  store.DetachLog();
}

}  // namespace
}  // namespace diads::fleet
