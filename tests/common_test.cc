// Unit tests for the common module: Status/Result, component registry,
// simulated time, RNG, strings, table printing, the event log, and CRC-32.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/event_log.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table_printer.h"

namespace diads {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("widget missing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "widget missing");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: widget missing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(result.value_or(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::Internal("boom"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.value_or(3), 3);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  DIADS_ASSIGN_OR_RETURN(int half, HalveEven(x));
  DIADS_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> error = QuarterEven(6);  // 6/2 = 3 is odd.
  EXPECT_FALSE(error.ok());
}

// --- ComponentRegistry --------------------------------------------------------

TEST(ComponentRegistryTest, RegisterAndLookup) {
  ComponentRegistry registry;
  Result<ComponentId> v1 = registry.Register(ComponentKind::kVolume, "V1");
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->valid());
  EXPECT_EQ(registry.NameOf(*v1), "V1");
  EXPECT_EQ(registry.KindOf(*v1), ComponentKind::kVolume);
  Result<ComponentId> found = registry.FindByName("V1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *v1);
}

TEST(ComponentRegistryTest, DuplicateNameRejected) {
  ComponentRegistry registry;
  ASSERT_TRUE(registry.Register(ComponentKind::kVolume, "V1").ok());
  EXPECT_EQ(registry.Register(ComponentKind::kDisk, "V1").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(ComponentRegistryTest, EmptyNameRejected) {
  ComponentRegistry registry;
  EXPECT_EQ(registry.Register(ComponentKind::kVolume, "").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ComponentRegistryTest, GetOrRegisterIsIdempotent) {
  ComponentRegistry registry;
  Result<ComponentId> a = registry.GetOrRegister(ComponentKind::kQuery, "Q2");
  Result<ComponentId> b = registry.GetOrRegister(ComponentKind::kQuery, "Q2");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  // Same name, different kind: rejected.
  EXPECT_FALSE(registry.GetOrRegister(ComponentKind::kVolume, "Q2").ok());
}

TEST(ComponentRegistryTest, AllOfKindPreservesOrder) {
  ComponentRegistry registry;
  ComponentId v1 = registry.MustRegister(ComponentKind::kVolume, "V1");
  registry.MustRegister(ComponentKind::kDisk, "d1");
  ComponentId v2 = registry.MustRegister(ComponentKind::kVolume, "V2");
  std::vector<ComponentId> volumes = registry.AllOfKind(ComponentKind::kVolume);
  ASSERT_EQ(volumes.size(), 2u);
  EXPECT_EQ(volumes[0], v1);
  EXPECT_EQ(volumes[1], v2);
}

TEST(ComponentRegistryTest, AllKindsHaveNames) {
  for (ComponentKind kind :
       {ComponentKind::kServer, ComponentKind::kHba, ComponentKind::kFcPort,
        ComponentKind::kFcSwitch, ComponentKind::kStorageSubsystem,
        ComponentKind::kDisk, ComponentKind::kStoragePool,
        ComponentKind::kVolume, ComponentKind::kDatabase,
        ComponentKind::kTablespace, ComponentKind::kTable,
        ComponentKind::kIndex, ComponentKind::kPlanOperator,
        ComponentKind::kQuery, ComponentKind::kWorkload}) {
    EXPECT_STRNE(ComponentKindName(kind), "Unknown");
  }
}

// --- Sim time ----------------------------------------------------------------

TEST(SimTimeTest, UnitHelpers) {
  EXPECT_EQ(Seconds(1.5), 1500);
  EXPECT_EQ(Minutes(2), 120000);
  EXPECT_EQ(Hours(1), 3600000);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(FormatSimTime(Hours(8) + Minutes(5) + Seconds(30)),
            "d0 08:05:30");
  EXPECT_EQ(FormatSimTime(kMsPerDay + Hours(1)), "d1 01:00:00");
  EXPECT_EQ(FormatDuration(430), "430ms");
  EXPECT_EQ(FormatDuration(Seconds(2.5)), "2.5s");
  EXPECT_EQ(FormatDuration(Minutes(2) + Seconds(5)), "2m 05s");
  EXPECT_EQ(FormatDuration(Hours(3) + Minutes(7)), "3h 07m");
}

TEST(TimeIntervalTest, ContainsAndOverlap) {
  TimeInterval a{100, 200};
  EXPECT_TRUE(a.Contains(100));
  EXPECT_TRUE(a.Contains(199));
  EXPECT_FALSE(a.Contains(200));  // Half-open.
  EXPECT_FALSE(a.Contains(99));
  EXPECT_TRUE(a.Overlaps(TimeInterval{150, 400}));
  EXPECT_FALSE(a.Overlaps(TimeInterval{200, 400}));
  EXPECT_EQ(a.Intersect(TimeInterval{150, 400}), (TimeInterval{150, 200}));
  EXPECT_DOUBLE_EQ(a.OverlapFraction(TimeInterval{150, 400}), 0.5);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(TimeInterval{0, 1000}), 1.0);
}

TEST(TimeIntervalTest, EmptyIntersection) {
  TimeInterval a{100, 200};
  TimeInterval inter = a.Intersect(TimeInterval{300, 400});
  EXPECT_TRUE(inter.empty());
  EXPECT_DOUBLE_EQ(a.OverlapFraction(TimeInterval{300, 400}), 0.0);
}

TEST(SimClockTest, Monotonic) {
  SimClock clock(100);
  clock.Advance(50);
  EXPECT_EQ(clock.now(), 150);
  clock.AdvanceTo(120);  // In the past: no-op.
  EXPECT_EQ(clock.now(), 150);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.now(), 500);
}

// --- RNG ----------------------------------------------------------------------

TEST(SeededRngTest, Deterministic) {
  SeededRng a(7);
  SeededRng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(SeededRngTest, ChildStreamsAreOrderIndependent) {
  SeededRng parent(7);
  SeededRng c1 = parent.Child("alpha");
  // Consuming the parent or a sibling must not affect "alpha".
  parent.Uniform();
  SeededRng sibling = parent.Child("beta");
  sibling.Uniform();
  SeededRng c2 = SeededRng(7).Child("alpha");
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(c1.Uniform(), c2.Uniform());
  }
}

TEST(SeededRngTest, UniformBounds) {
  SeededRng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(SeededRngTest, UniformIntInclusive) {
  SeededRng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(1, 3));
  EXPECT_EQ(seen, (std::set<int64_t>{1, 2, 3}));
}

TEST(SeededRngTest, NormalMoments) {
  SeededRng rng(13);
  double sum = 0, ss = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    ss += x * x;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(SeededRngTest, BernoulliEdgeCases) {
  SeededRng rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(SeededRngTest, WeightedIndexRespectsWeights) {
  SeededRng rng(19);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 9000; ++i) {
    counts[rng.WeightedIndex({1.0, 2.0, 6.0})]++;
  }
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[1], counts[2]);
  EXPECT_NEAR(counts[2] / 9000.0, 6.0 / 9.0, 0.05);
}

// --- Strings --------------------------------------------------------------------

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", "hello"), "hello");
}

TEST(StringsTest, JoinSplitRoundTrip) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Split("a,b,c", ','), parts);
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("volume-v1", "volume"));
  EXPECT_FALSE(StartsWith("v", "volume"));
  EXPECT_TRUE(EndsWith("table:part", ":part"));
  EXPECT_FALSE(EndsWith("part", "partsupp"));
}

TEST(StringsTest, Percent) {
  EXPECT_EQ(FormatPercent(0.998), "99.8%");
  EXPECT_EQ(FormatPercent(0.5, 0), "50%");
}

// --- TablePrinter -----------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"A", "Column"});
  table.AddRow({"longvalue", "x"});
  table.AddRow({"s"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| A         | Column |"), std::string::npos);
  EXPECT_NE(out.find("| longvalue | x      |"), std::string::npos);
  EXPECT_NE(out.find("| s         |        |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorRows) {
  TablePrinter table({"A"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  const std::string out = table.Render();
  // 5 rules: top, under-header, separator, bottom... count '+--' lines.
  int rules = 0;
  for (size_t pos = 0; (pos = out.find("+-", pos)) != std::string::npos; ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 4);
}

// --- EventLog -----------------------------------------------------------------------

SystemEvent MakeEvent(SimTimeMs t, EventType type, uint32_t subject = 0) {
  SystemEvent event;
  event.time = t;
  event.type = type;
  event.subject = ComponentId{subject};
  return event;
}

TEST(EventLogTest, KeepsSortedOrderOnOutOfOrderAppend) {
  EventLog log;
  ASSERT_TRUE(log.Append(MakeEvent(100, EventType::kVolumeCreated)).ok());
  ASSERT_TRUE(log.Append(MakeEvent(50, EventType::kZoningChanged)).ok());
  ASSERT_TRUE(log.Append(MakeEvent(75, EventType::kDiskFailed)).ok());
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.all()[0].time, 50);
  EXPECT_EQ(log.all()[1].time, 75);
  EXPECT_EQ(log.all()[2].time, 100);
}

TEST(EventLogTest, EventsInWindow) {
  EventLog log;
  for (SimTimeMs t : {10, 20, 30, 40}) {
    ASSERT_TRUE(log.Append(MakeEvent(t, EventType::kDmlBatch)).ok());
  }
  EXPECT_EQ(log.EventsIn(TimeInterval{20, 40}).size(), 2u);  // 20, 30.
  EXPECT_EQ(log.EventsIn(TimeInterval{0, 100}).size(), 4u);
  EXPECT_TRUE(log.EventsIn(TimeInterval{41, 100}).empty());
}

TEST(EventLogTest, FiltersByTypeAndComponent) {
  EventLog log;
  ASSERT_TRUE(log.Append(MakeEvent(10, EventType::kDiskFailed, 1)).ok());
  ASSERT_TRUE(log.Append(MakeEvent(20, EventType::kDiskRecovered, 1)).ok());
  ASSERT_TRUE(log.Append(MakeEvent(30, EventType::kDiskFailed, 2)).ok());
  EXPECT_EQ(
      log.EventsOfTypeIn(EventType::kDiskFailed, TimeInterval{0, 100}).size(),
      2u);
  EXPECT_EQ(log.EventsForComponentIn(ComponentId{1}, TimeInterval{0, 100})
                .size(),
            2u);
}

TEST(EventLogTest, PlanAffectingClassification) {
  EXPECT_TRUE(IsPlanAffectingEvent(EventType::kIndexDropped));
  EXPECT_TRUE(IsPlanAffectingEvent(EventType::kIndexCreated));
  EXPECT_TRUE(IsPlanAffectingEvent(EventType::kDbParamChanged));
  EXPECT_TRUE(IsPlanAffectingEvent(EventType::kTableStatsChanged));
  EXPECT_FALSE(IsPlanAffectingEvent(EventType::kVolumeCreated));
  EXPECT_FALSE(IsPlanAffectingEvent(EventType::kDmlBatch));
  EXPECT_FALSE(IsPlanAffectingEvent(EventType::kTableLockContention));
}

// --- CRC-32 -----------------------------------------------------------------

/// The byte-at-a-time table loop over the reflected 0xEDB88320 polynomial
/// that common/crc32.cc ran before slicing-by-8: the reference every
/// segment-log record written so far was framed with.
uint32_t ByteWiseCrc32Update(uint32_t crc, const unsigned char* data,
                             size_t size) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> entries(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
    return entries;
  }();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(SeededRng* rng, size_t size) {
  std::vector<unsigned char> out(size);
  for (unsigned char& byte : out) {
    byte = static_cast<unsigned char>(rng->UniformInt(0, 255));
  }
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32Update(0xCBF43926u, "x", 0), 0xCBF43926u);
}

TEST(Crc32Test, ChainedUpdatesMatchOneCallAtEverySplit) {
  SeededRng rng(71);
  const std::vector<unsigned char> buffer = RandomBytes(&rng, 1024);
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, ByteWiseCrc32Update(0, buffer.data(), buffer.size()));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32Update(0, buffer.data(), split);
    EXPECT_EQ(Crc32Update(head, buffer.data() + split, buffer.size() - split),
              whole)
        << "split " << split;
  }
}

// Slicing-by-8 reads eight bytes per step whatever the buffer's address:
// every length (tails of 0-7 bytes included) at every alignment modulo 8
// must give the byte-wise loop's checksum, from a zero and a chained start.
TEST(Crc32Test, MatchesByteWiseLoopAtEveryLengthAndAlignment) {
  SeededRng rng(73);
  std::vector<size_t> sizes = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65,
                               4096, 4700, 10000};
  for (int i = 0; i < 40; ++i) {
    sizes.push_back(static_cast<size_t>(rng.UniformInt(0, 10000)));
  }
  for (const size_t size : sizes) {
    const std::vector<unsigned char> bytes = RandomBytes(&rng, size);
    const uint32_t start = static_cast<uint32_t>(rng.UniformInt(0, 0xFFFFFFF));
    for (size_t alignment = 0; alignment < 8; ++alignment) {
      SCOPED_TRACE(testing::Message()
                   << "size " << size << " alignment " << alignment);
      std::vector<unsigned char> storage(size + 16);
      const size_t shift =
          (alignment + 8 -
           reinterpret_cast<uintptr_t>(storage.data()) % 8) % 8;
      unsigned char* at = storage.data() + shift;
      if (size > 0) std::memcpy(at, bytes.data(), size);
      EXPECT_EQ(Crc32(at, size), ByteWiseCrc32Update(0, at, size));
      EXPECT_EQ(Crc32Update(start, at, size),
                ByteWiseCrc32Update(start, at, size));
    }
  }
}

}  // namespace
}  // namespace diads
