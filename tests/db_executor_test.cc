// Tests for the pipelined executor: span semantics (the paper's event-
// propagation mechanism), SAN-coupled I/O waits, lock waits, record-count
// scaling under data drift, and load registration back into the SAN model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/paper_plan.h"
#include "diads/diagnosis.h"
#include "workload/testbed.h"

namespace diads::db {
namespace {

using workload::BuildFigure1Testbed;
using workload::Testbed;
using workload::TestbedOptions;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::unique_ptr<Testbed>> tb = BuildFigure1Testbed(TestbedOptions{});
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    tb_ = std::move(*tb);
  }

  QueryRunRecord Run(SimTimeMs at) {
    Result<int> run_id = tb_->RunQ2(at);
    EXPECT_TRUE(run_id.ok()) << run_id.status().ToString();
    return *tb_->runs.FindRun(*run_id).value();
  }

  const OperatorRunStats& Op(const QueryRunRecord& run, int op_number) {
    const int index = run.plan->IndexOfOpNumber(op_number).value();
    return *run.FindOp(index);
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(ExecutorTest, ProducesCompleteRunRecord) {
  QueryRunRecord run = Run(Hours(8));
  EXPECT_EQ(run.query_name, "Q2");
  EXPECT_EQ(run.operators.size(), 25u);
  EXPECT_EQ(run.interval.begin, Hours(8));
  EXPECT_GT(run.duration_ms(), Seconds(1));
  EXPECT_LT(run.duration_ms(), Minutes(10));
  for (const OperatorRunStats& op : run.operators) {
    EXPECT_GE(op.start, run.interval.begin);
    EXPECT_LE(op.stop, run.interval.end);
    EXPECT_GE(op.actual_rows, 0);
  }
}

TEST_F(ExecutorTest, SpansFollowPipelineStructure) {
  QueryRunRecord run = Run(Hours(8));
  // Within the main probe pipeline (O3..O8) every operator shares a span.
  const OperatorRunStats& o3 = Op(run, 3);
  for (int number : {4, 5, 6, 7, 8}) {
    EXPECT_EQ(Op(run, number).start, o3.start) << "O" << number;
    EXPECT_EQ(Op(run, number).stop, o3.stop) << "O" << number;
  }
  // Hash-build pipelines are disjoint from the probe pipeline.
  const OperatorRunStats& o10 = Op(run, 10);  // supplier build.
  EXPECT_LT(o10.stop, o3.start + 1);
  // Build pipelines for the subquery run before the probe pipelines too.
  const OperatorRunStats& o22 = Op(run, 22);
  const OperatorRunStats& o17 = Op(run, 17);
  EXPECT_EQ(o22.start, Op(run, 18).start);
  // The aggregate's span extends into its consumer (emission phase).
  EXPECT_GE(o17.stop, o22.stop);
}

TEST_F(ExecutorTest, SortSpanExtendsButResultStaysShort) {
  QueryRunRecord run = Run(Hours(8));
  const OperatorRunStats& sort = Op(run, 2);
  const OperatorRunStats& result = Op(run, 1);
  // Sort starts with its input pipeline and ends at the root pipeline end.
  EXPECT_EQ(sort.stop, run.interval.end);
  // The Result op only spans the final emission pipeline — the mechanism
  // that keeps the root out of the correlated operator set.
  EXPECT_LT(result.span_ms(), sort.span_ms());
}

TEST_F(ExecutorTest, HashBuildPrecedesProbe) {
  QueryRunRecord run = Run(Hours(8));
  // O16 (hash of subquery result) must complete before the top probe
  // pipeline (O3) starts consuming.
  EXPECT_LE(Op(run, 16).stop, Op(run, 3).start);
  // O9/O10 supplier build precedes the main pipeline.
  EXPECT_LE(Op(run, 10).stop, Op(run, 3).start);
}

TEST_F(ExecutorTest, V1ContentionStretchesOnlyDependentPipelines) {
  QueryRunRecord before = Run(Hours(8));
  // Saturate V1's pool with an external write load.
  san::LoadEvent load;
  load.volume = tb_->v1;
  load.interval = TimeInterval{Hours(9), Hours(12)};
  load.profile.write_iops = 120;
  ASSERT_TRUE(tb_->perf_model.AddLoad(load).ok());
  QueryRunRecord after = Run(Hours(10));

  // The pipelines holding the partsupp scans stretch...
  EXPECT_GT(Op(after, 8).span_ms(), Op(before, 8).span_ms() * 1.2);
  EXPECT_GT(Op(after, 22).span_ms(), Op(before, 22).span_ms() * 1.2);
  // ...their pipeline peers stretch with them (event propagation)...
  EXPECT_GT(Op(after, 4).span_ms(), Op(before, 4).span_ms() * 1.2);
  EXPECT_GT(Op(after, 19).span_ms(), Op(before, 19).span_ms() * 1.2);
  // ...but the region/nation build pipelines on V2 stay put (within noise).
  EXPECT_LT(Op(after, 13).span_ms(),
            Op(before, 13).span_ms() * 1.2 + 200);
  // And the query as a whole slowed.
  EXPECT_GT(after.duration_ms(), before.duration_ms() * 1.2);
}

TEST_F(ExecutorTest, DataGrowthScalesRecordCountsAndIo) {
  QueryRunRecord before = Run(Hours(8));
  ASSERT_TRUE(tb_->catalog.ApplyDml(Hours(9), "partsupp", 2.0, "").ok());
  QueryRunRecord after = Run(Hours(10));
  // partsupp scans double their rows and physical I/O (± jitter).
  EXPECT_NEAR(Op(after, 8).actual_rows / Op(before, 8).actual_rows, 2.0, 0.2);
  EXPECT_NEAR(Op(after, 22).actual_rows / Op(before, 22).actual_rows, 2.0,
              0.2);
  EXPECT_GT(Op(after, 22).physical_reads,
            Op(before, 22).physical_reads * 1.6);
  // part's scan is unaffected.
  EXPECT_NEAR(Op(after, 7).actual_rows / Op(before, 7).actual_rows, 1.0,
              0.1);
  // Estimated rows stay at plan values: the est vs actual gap is what
  // Module CR keys on.
  EXPECT_DOUBLE_EQ(Op(after, 8).est_rows, Op(before, 8).est_rows);
}

TEST_F(ExecutorTest, LockWaitDelaysContendedScan) {
  QueryRunRecord before = Run(Hours(8));
  LockContentionWindow contention;
  contention.table = "partsupp";
  contention.window = TimeInterval{Hours(9), Hours(12)};
  contention.wait_ms = Seconds(30);
  ASSERT_TRUE(tb_->locks.AddContention(contention).ok());
  QueryRunRecord after = Run(Hours(10));
  EXPECT_GE(Op(after, 22).lock_wait_ms, Seconds(30) - 1);
  EXPECT_DOUBLE_EQ(Op(after, 7).lock_wait_ms, 0);  // part is not locked.
  EXPECT_GT(after.duration_ms(), before.duration_ms() + Seconds(50));
}

TEST_F(ExecutorTest, RegistersLoadWithSanModel) {
  const size_t before_events = tb_->perf_model.load_event_count();
  QueryRunRecord run = Run(Hours(8));
  // One load event per scan with physical reads (9 leaves, the cached ones
  // may round to zero pages but generally all register).
  EXPECT_GT(tb_->perf_model.load_event_count(), before_events + 3);
  // The query's own I/O shows up on V1 while its heavy V1 pipeline runs.
  const OperatorRunStats& o22 = Op(run, 22);
  const SimTimeMs mid = o22.start + o22.span_ms() / 2;
  EXPECT_GT(tb_->perf_model.VolumeLoadAt(tb_->v1, mid).read_iops, 0);
}

TEST_F(ExecutorTest, BufferPoolSizeControlsPhysicalIo) {
  QueryRunRecord small_pool_run = Run(Hours(8));
  tb_->buffer_pool.set_size_mb(100000);  // Everything fits.
  QueryRunRecord big_pool_run = Run(Hours(12));
  EXPECT_LT(Op(big_pool_run, 22).physical_reads,
            Op(small_pool_run, 22).physical_reads * 0.2);
  EXPECT_LT(big_pool_run.duration_ms(), small_pool_run.duration_ms());
}

TEST_F(ExecutorTest, DeterministicForSameSeedAndTime) {
  Result<std::unique_ptr<Testbed>> tb2 = BuildFigure1Testbed(TestbedOptions{});
  ASSERT_TRUE(tb2.ok());
  QueryRunRecord a = Run(Hours(8));
  Result<int> b_id = (*tb2)->RunQ2(Hours(8));
  ASSERT_TRUE(b_id.ok());
  const QueryRunRecord& b = *(*tb2)->runs.FindRun(*b_id).value();
  EXPECT_EQ(a.duration_ms(), b.duration_ms());
  for (size_t i = 0; i < a.operators.size(); ++i) {
    EXPECT_EQ(a.operators[i].span_ms(), b.operators[i].span_ms());
    EXPECT_DOUBLE_EQ(a.operators[i].actual_rows, b.operators[i].actual_rows);
  }
}

TEST_F(ExecutorTest, RunsDifferUnderJitter) {
  QueryRunRecord a = Run(Hours(8));
  QueryRunRecord b = Run(Hours(9));
  // Same plan, different run: jitter must keep the KDE baselines honest.
  EXPECT_NE(a.duration_ms(), b.duration_ms());
}

TEST_F(ExecutorTest, RecordsDbActivity) {
  QueryRunRecord run = Run(Hours(8));
  const DbActivityCounters counters =
      tb_->activity.AverageOver(run.interval);
  EXPECT_GT(counters.blocks_read_per_sec, 0);
  EXPECT_GT(counters.buffer_hits_per_sec, 0);
  EXPECT_GT(counters.index_scans_per_sec, 0);
  EXPECT_GT(counters.seq_scans_per_sec, 0);
}

TEST_F(ExecutorTest, RejectsNullPlan) {
  db::ExecutorContext ctx;
  ctx.catalog = &tb_->catalog;
  ctx.topology = &tb_->topology;
  ctx.perf_model = &tb_->perf_model;
  ctx.buffer_pool = &tb_->buffer_pool;
  ctx.locks = &tb_->locks;
  ctx.activity = &tb_->activity;
  ctx.db_server = tb_->db_server;
  ctx.database = tb_->database;
  Executor executor(ctx, SeededRng(1));
  EXPECT_FALSE(executor.Execute(nullptr, 0).ok());
}

// --- RunCatalog --------------------------------------------------------------

TEST_F(ExecutorTest, RunCatalogLabelling) {
  Run(Hours(8));
  Run(Hours(9));
  Run(Hours(10));
  ASSERT_TRUE(tb_->runs
                  .LabelByTimeWindow("Q2", TimeInterval{Hours(8), Hours(10)},
                                     RunLabel::kSatisfactory)
                  .ok());
  ASSERT_TRUE(tb_->runs
                  .LabelByTimeWindow("Q2",
                                     TimeInterval{Hours(10), Hours(11)},
                                     RunLabel::kUnsatisfactory)
                  .ok());
  EXPECT_EQ(tb_->runs.RunsWithLabel("Q2", RunLabel::kSatisfactory).size(),
            2u);
  EXPECT_EQ(tb_->runs.RunsWithLabel("Q2", RunLabel::kUnsatisfactory).size(),
            1u);
}

TEST_F(ExecutorTest, DurationThresholdLabelling) {
  QueryRunRecord a = Run(Hours(8));
  // Slow the system down, run again.
  san::LoadEvent load;
  load.volume = tb_->v1;
  load.interval = TimeInterval{Hours(9), Hours(12)};
  load.profile.write_iops = 120;
  ASSERT_TRUE(tb_->perf_model.AddLoad(load).ok());
  Run(Hours(10));
  ASSERT_TRUE(tb_->runs
                  .LabelByDurationThreshold(
                      "Q2", a.duration_ms() + Seconds(10))
                  .ok());
  EXPECT_EQ(tb_->runs.RunsWithLabel("Q2", RunLabel::kSatisfactory).size(),
            1u);
  EXPECT_EQ(tb_->runs.RunsWithLabel("Q2", RunLabel::kUnsatisfactory).size(),
            1u);
}

/// The analysis window by brute force, as DiagnosisContext computed it
/// before the catalog kept it: a scan of the whole run history.
TimeInterval ScannedWindow(const RunCatalog& catalog,
                           const std::string& query) {
  TimeInterval out{0, 0};
  bool first = true;
  for (const QueryRunRecord& run : catalog.runs()) {
    if (run.query_name != query) continue;
    if (catalog.LabelOf(run.run_id) == RunLabel::kUnlabeled) continue;
    if (first) {
      out = run.interval;
      first = false;
    } else {
      out.begin = std::min(out.begin, run.interval.begin);
      out.end = std::max(out.end, run.interval.end);
    }
  }
  return out;
}

TEST(RunCatalogWindowTest, MaintainedWindowMatchesScan) {
  // Random mutation sequences over two query names. After every mutation
  // the window a diagnosis reads equals the scan, for both queries —
  // including {0, 0} while a query has no labelled run.
  const std::vector<std::string> queries = {"Q2", "Q5"};
  const RunLabel labels[] = {RunLabel::kUnlabeled, RunLabel::kSatisfactory,
                             RunLabel::kUnsatisfactory};
  SeededRng rng(20091);
  int checks = 0;
  int empty_windows = 0;
  for (int history = 0; history < 40; ++history) {
    RunCatalog catalog;
    for (int step = 0; step < 80; ++step) {
      const std::string& query = queries[rng.UniformInt(0, 1)];
      const RunLabel label = labels[rng.UniformInt(0, 2)];
      const SimTimeMs at = Minutes(rng.UniformInt(0, 24 * 60));
      switch (rng.UniformInt(0, 3)) {
        case 0: {
          QueryRunRecord record;
          record.query_name = query;
          record.interval =
              TimeInterval{at, at + Minutes(rng.UniformInt(0, 90))};
          catalog.AddRun(std::move(record));
          break;
        }
        case 1: {
          // Ids one past either end exercise the NotFound path.
          const int64_t size = static_cast<int64_t>(catalog.size());
          const int run_id = static_cast<int>(rng.UniformInt(-1, size));
          EXPECT_EQ(catalog.SetLabel(run_id, label).ok(),
                    run_id >= 0 && run_id < size);
          break;
        }
        case 2:
          (void)catalog.LabelByDurationThreshold(
              query, Minutes(rng.UniformInt(0, 90)));
          break;
        default:
          (void)catalog.LabelByTimeWindow(
              query, TimeInterval{at, at + Minutes(rng.UniformInt(0, 600))},
              label);
          break;
      }
      for (const std::string& name : queries) {
        diag::DiagnosisContext ctx;
        ctx.runs = &catalog;
        ctx.query = name;
        const TimeInterval scanned = ScannedWindow(catalog, name);
        ASSERT_EQ(ctx.AnalysisWindow(), scanned)
            << "history " << history << " step " << step << " query "
            << name;
        ++checks;
        if (scanned == TimeInterval{0, 0}) ++empty_windows;
      }
    }
  }
  // The sequences reach both answers often.
  EXPECT_GT(empty_windows, checks / 20);
  EXPECT_LT(empty_windows, checks / 2);
}

}  // namespace
}  // namespace diads::db
