#include <gtest/gtest.h>

#include "common/clock.h"
#include "db/database.h"

namespace stratus {
namespace {

DatabaseOptions RacOptions() {
  DatabaseOptions options;
  options.primary_redo_threads = 2;
  options.standby_instances = 2;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 500;
  options.transport.latency_us = 50;
  return options;
}

class RacTest : public ::testing::Test {
 protected:
  RacTest() : cluster_(RacOptions()) {
    cluster_.Start();
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                              ImService::kStandbyOnly, true)
                 .value();
  }

  void Load(int n) {
    Transaction txn = cluster_.primary()->Begin(
        static_cast<RedoThreadId>(next_id_ % 2));
    for (int i = 0; i < n; ++i) {
      const int64_t id = next_id_++;
      ASSERT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 8), Value(std::string("r"))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  }

  AdgCluster cluster_;
  ObjectId table_ = kInvalidObjectId;
  int64_t next_id_ = 0;
};

TEST_F(RacTest, ImcsDistributedAcrossInstances) {
  Load(24 * kRowsPerBlock);  // 12 chunks of 2 blocks: both homes get some.
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  const auto master = cluster_.standby()->im_store(0)->Stats();
  const auto remote = cluster_.standby()->im_store(1)->Stats();
  EXPECT_GT(master.smus_ready, 0u);
  EXPECT_GT(remote.smus_ready, 0u);

  // A scan merges both instances' stores and covers everything in-memory.
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, static_cast<uint64_t>(next_id_));
  EXPECT_EQ(result->stats.rows_from_imcs, static_cast<uint64_t>(next_id_));
}

TEST_F(RacTest, InvalidationGroupsReachRemoteInstance) {
  Load(24 * kRowsPerBlock);
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  // Touch every row so chunks homed on BOTH instances take invalidations.
  Transaction txn = cluster_.primary()->Begin();
  for (int64_t id = 0; id < next_id_; id += 16) {
    ASSERT_TRUE(cluster_.primary()
                    ->UpdateByKey(&txn, table_, id,
                                  Row{Value(id), Value(int64_t{555}),
                                      Value(std::string("u"))})
                    .ok());
  }
  ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  cluster_.WaitForCatchup();

  EXPECT_GT(cluster_.standby()->im_store(1)->Stats().row_invalidations, 0u);
  EXPECT_GT(cluster_.standby()->channel()->stats().rows_sent, 0u);

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{555})}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, static_cast<uint64_t>((next_id_ + 15) / 16));
}

TEST_F(RacTest, RemoteInstancePublishesItsOwnQueryScn) {
  Load(100);
  cluster_.WaitForCatchup();
  const uint64_t deadline = NowMicros() + 5'000'000;
  while (cluster_.standby()->query_scn(1) == kInvalidScn && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const Scn remote_scn = cluster_.standby()->query_scn(1);
  ASSERT_NE(remote_scn, kInvalidScn);
  EXPECT_LE(remote_scn, cluster_.standby()->query_scn(0));

  // Queries served by the non-master instance's service are consistent too.
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto remote_result = cluster_.standby()->Query(q, /*instance=*/1);
  ASSERT_TRUE(remote_result.ok());
  const auto primary_at = cluster_.primary()->QueryAt(q, remote_result->snapshot);
  ASSERT_TRUE(primary_at.ok());
  EXPECT_EQ(remote_result->count, primary_at->count);
}

TEST_F(RacTest, TwoPrimaryThreadsMergeCleanly) {
  // Alternating commits across both redo threads, all against one table.
  for (int b = 0; b < 20; ++b) Load(20);
  cluster_.WaitForCatchup();
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster_.standby()->Query(q)->count, 400u);
}

}  // namespace
}  // namespace stratus
