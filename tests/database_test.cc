#include "db/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/clock.h"

namespace stratus {
namespace {

DatabaseOptions SmallOptions() {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.apply.barrier_interval = 16;
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 1000;
  return options;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : cluster_(SmallOptions()) {
    cluster_.Start();
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                              ImService::kStandbyOnly, /*identity_index=*/true)
                 .value();
  }

  void LoadRows(int n) {
    Transaction txn = cluster_.primary()->Begin();
    for (int i = 0; i < n; ++i) {
      Row row{Value(static_cast<int64_t>(next_id_++)), Value(int64_t{i % 10}),
              Value(std::string("s") + std::to_string(i % 5))};
      ASSERT_TRUE(cluster_.primary()->Insert(&txn, table_, std::move(row), nullptr).ok());
    }
    ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  }

  AdgCluster cluster_;
  ObjectId table_ = kInvalidObjectId;
  int64_t next_id_ = 0;
};

TEST_F(ClusterTest, StandbyCatchesUpAndServesQueries) {
  LoadRows(600);
  const Scn reached = cluster_.WaitForCatchup();
  ASSERT_GE(reached, cluster_.primary()->current_scn());

  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->count, 600u);
}

TEST_F(ClusterTest, StandbyScansUseImcsAfterPopulation) {
  LoadRows(3 * kRowsPerBlock);
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{3})}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.rows_from_imcs, 0u);

  // Same predicate through the row path agrees.
  q.force_row_store = true;
  const auto row_result = cluster_.standby()->Query(q);
  ASSERT_TRUE(row_result.ok());
  EXPECT_EQ(result->count, row_result->count);
}

TEST_F(ClusterTest, UpdatesInvalidateAndReconcile) {
  LoadRows(2 * kRowsPerBlock);
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  // Update 30 rows to an out-of-band value.
  Transaction txn = cluster_.primary()->Begin();
  for (int64_t id = 0; id < 30; ++id) {
    ASSERT_TRUE(cluster_.primary()
                    ->UpdateByKey(&txn, table_, id,
                                  Row{Value(id), Value(int64_t{999}),
                                      Value(std::string("upd"))})
                    .ok());
  }
  ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  cluster_.WaitForCatchup();

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{999})}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 30u);
  // The updated rows were served via SMU reconciliation (row path).
  EXPECT_GT(result->stats.invalid_rowpath, 0u);
  // The mining/flush machinery really carried them.
  EXPECT_GE(cluster_.standby()->flush()->stats().flushed_records, 30u);
  EXPECT_GE(cluster_.standby()->mining()->mined_records(), 30u);
}

TEST_F(ClusterTest, DeletesPropagate) {
  LoadRows(kRowsPerBlock);
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  Transaction txn = cluster_.primary()->Begin();
  Table* t = cluster_.primary()->table(table_);
  for (int64_t id = 0; id < 10; ++id) {
    const auto rid = t->index()->Lookup(id);
    ASSERT_TRUE(rid.has_value());
    ASSERT_TRUE(cluster_.primary()->Delete(&txn, table_, *rid).ok());
  }
  ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  cluster_.WaitForCatchup();

  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster_.standby()->Query(q)->count,
            static_cast<uint64_t>(kRowsPerBlock) - 10u);
}

TEST_F(ClusterTest, AbortedTransactionsInvisibleOnStandby) {
  LoadRows(100);
  Transaction txn = cluster_.primary()->Begin();
  ASSERT_TRUE(cluster_.primary()
                  ->UpdateByKey(&txn, table_, 5,
                                Row{Value(int64_t{5}), Value(int64_t{888}),
                                    Value(std::string("no"))})
                  .ok());
  cluster_.primary()->Abort(&txn);
  LoadRows(1);  // A committed marker to advance the QuerySCN past the abort.
  cluster_.WaitForCatchup();

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{888})}};
  EXPECT_EQ(cluster_.standby()->Query(q)->count, 0u);
}

TEST_F(ClusterTest, StandbyIndexFetch) {
  LoadRows(200);
  cluster_.WaitForCatchup();
  const auto row = cluster_.standby()->Fetch(table_, 42);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[0].as_int(), 42);
}

TEST_F(ClusterTest, QueryScnIsMonotonic) {
  Scn last = 0;
  for (int i = 0; i < 5; ++i) {
    LoadRows(50);
    cluster_.WaitForCatchup();
    const Scn now = cluster_.standby()->query_scn();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GT(last, 0u);
}

// A query runs at query_scn(); the fleet router, lag monitor, checkpoints
// and v$standby_apply read published_query_scn(). Both read the one
// published QuerySCN, so a read of the second never comes back below a read
// of the first taken just before it, however publishes race the reader.
TEST_F(ClusterTest, PublishedQueryScnNeverTrailsQueryScn) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t id = 1'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      Transaction txn = cluster_.primary()->Begin();
      EXPECT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_,
                               Row{Value(id++), Value(int64_t{1}),
                                   Value(std::string("w"))})
                      .ok());
      EXPECT_TRUE(cluster_.primary()->Commit(&txn).ok());
    }
  });
  StandbyDb* standby = cluster_.standby();
  const Scn start = standby->query_scn();
  uint64_t pairs = 0;
  uint64_t trailing = 0;
  const uint64_t deadline = NowMicros() + 1'000'000;
  for (; (pairs & 1023) != 0 || NowMicros() < deadline; ++pairs) {
    const Scn queried = standby->query_scn();
    const Scn published = standby->published_query_scn();
    if (published < queried) ++trailing;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(trailing, 0u) << "of " << pairs << " pairs";
  EXPECT_GT(standby->query_scn(), start);  // Publishes raced the reader.
}

TEST_F(ClusterTest, ShippedBytesAccounted) {
  LoadRows(500);
  cluster_.WaitForCatchup();
  EXPECT_GT(cluster_.shipped_bytes(), 10'000u);
}

TEST(ClusterBaselineTest, PlainAdgWithoutImAdgStillConsistent) {
  DatabaseOptions options = SmallOptions();
  options.standby_imadg_enabled = false;  // The paper's "without DBIM" baseline.
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  Transaction txn = cluster.primary()->Begin();
  for (int64_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(cluster.primary()
                    ->Insert(&txn, table,
                             Row{Value(id), Value(id % 7), Value(std::string("x"))},
                             nullptr)
                    .ok());
  }
  ASSERT_TRUE(cluster.primary()->Commit(&txn).ok());
  cluster.WaitForCatchup();
  ScanQuery q;
  q.object = table;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{3})}};
  const auto result = cluster.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 43u);  // ids ≡ 3 mod 7 in [0,300): 43.
  EXPECT_EQ(result->stats.rows_from_imcs, 0u);  // No IMCS on this standby.
  cluster.Stop();
}

TEST(ClusterConfigTest, TwoPrimaryRedoThreads) {
  DatabaseOptions options = SmallOptions();
  options.primary_redo_threads = 2;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 0),
                          ImService::kStandbyOnly, true)
          .value();
  // Interleave transactions across both redo threads.
  for (int batch = 0; batch < 10; ++batch) {
    Transaction txn = cluster.primary()->Begin(batch % 2);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(cluster.primary()
                      ->Insert(&txn, table,
                               Row{Value(static_cast<int64_t>(batch * 20 + i)),
                                   Value(int64_t{batch})},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster.primary()->Commit(&txn).ok());
  }
  cluster.WaitForCatchup();
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster.standby()->Query(q)->count, 200u);
  cluster.Stop();
}

}  // namespace
}  // namespace stratus
