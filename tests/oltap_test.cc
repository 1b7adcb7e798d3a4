#include "workload/oltap.h"

#include <gtest/gtest.h>

#include "workload/report.h"

namespace stratus {
namespace {

DatabaseOptions WorkloadOptions() {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 4;
  options.shipping.heartbeat_interval_us = 1000;
  return options;
}

TEST(OltapTest, SetupLoadsAndPopulates) {
  AdgCluster cluster(WorkloadOptions());
  cluster.Start();
  OltapOptions options;
  options.initial_rows = 2000;
  options.num_cols = 3;
  options.varchar_cols = 2;
  OltapWorkload workload(&cluster, options);
  ASSERT_TRUE(workload.Setup().ok());

  ScanQuery q;
  q.object = workload.table_id();
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster.standby()->Query(q)->count, 2000u);
  EXPECT_GT(cluster.standby()->im_store()->Stats().smus_ready, 0u);
}

TEST(OltapTest, MixedRunProducesLatencies) {
  AdgCluster cluster(WorkloadOptions());
  cluster.Start();
  OltapOptions options;
  options.initial_rows = 1500;
  options.num_cols = 3;
  options.varchar_cols = 2;
  options.update_pct = 50;
  options.insert_pct = 10;
  options.scan_pct = 5;
  options.target_ops_per_sec = 400;
  options.duration_ms = 1500;
  options.num_threads = 2;
  OltapWorkload workload(&cluster, options);
  ASSERT_TRUE(workload.Setup().ok());
  workload.Run();

  OltapStats& stats = workload.stats();
  EXPECT_GT(stats.ops_done.load(), 100u);
  EXPECT_GT(stats.update_latency.count(), 0u);
  EXPECT_GT(stats.fetch_latency.count(), 0u);
  EXPECT_GT(stats.insert_latency.count(), 0u);
  EXPECT_GT(stats.scans_done.load(), 0u);
  EXPECT_EQ(stats.errors.load(), 0u);
  EXPECT_GT(stats.AchievedOpsPerSec(), 0.0);
  EXPECT_GT(stats.primary_op_cpu_ns.load(), 0u);
}

TEST(OltapTest, RowMakerMatchesSchema) {
  AdgCluster cluster(WorkloadOptions());
  cluster.Start();
  OltapOptions options;
  options.initial_rows = 10;
  options.num_cols = 4;
  options.varchar_cols = 3;
  OltapWorkload workload(&cluster, options);
  ASSERT_TRUE(workload.Setup().ok());
  Random rng(1);
  const Row row = workload.MakeRow(7, &rng);
  ASSERT_EQ(row.size(), 8u);
  EXPECT_EQ(row[0].as_int(), 7);
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(row[i].type(), ValueType::kInt);
  for (int i = 5; i <= 7; ++i) {
    EXPECT_EQ(row[i].type(), ValueType::kString);
    EXPECT_EQ(row[i].as_string().size(),
              static_cast<size_t>(options.varchar_len));
  }
}

TEST(OltapTest, ScanOnPrimaryModeWorks) {
  AdgCluster cluster(WorkloadOptions());
  cluster.Start();
  OltapOptions options;
  options.initial_rows = 1000;
  options.num_cols = 2;
  options.varchar_cols = 2;
  options.scans_on_standby = false;
  OltapWorkload workload(&cluster, options);
  ASSERT_TRUE(workload.Setup(ImService::kBoth).ok());
  Random rng(5);
  EXPECT_TRUE(workload.RunScanOnce(&rng, false).ok());
  EXPECT_TRUE(workload.RunScanOnce(&rng, true).ok());
}

TEST(ReportTest, FormattingHelpers) {
  EXPECT_EQ(Fmt(1.2345, 2), "1.23");
  EXPECT_EQ(UsToMs(1500.0, 1), "1.5");
  EXPECT_EQ(Speedup(100.0, 10.0), "10.0x");
  EXPECT_EQ(Speedup(100.0, 0.0), "-");
  Histogram h;
  h.Record(2000);
  const std::string triple = LatencyTriple(h);
  EXPECT_NE(triple.find("2.00"), std::string::npos);
  ReportTable table({"a", "bb"});
  table.AddRow({"1", "2"});
  table.Print("TEST TABLE");  // Smoke: must not crash.
}

}  // namespace
}  // namespace stratus
