#include <gtest/gtest.h>

#include "db/database.h"

namespace stratus {
namespace {

DatabaseOptions FailoverOptions() {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 500;
  return options;
}

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : cluster_(FailoverOptions()) {
    cluster_.Start();
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                              ImService::kStandbyOnly, true)
                 .value();
    Transaction txn = cluster_.primary()->Begin();
    for (int64_t id = 0; id < 2 * kRowsPerBlock; ++id) {
      EXPECT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 10), Value(std::string("x"))},
                               nullptr)
                      .ok());
    }
    EXPECT_TRUE(cluster_.primary()->Commit(&txn).ok());
    cluster_.WaitForCatchup();
  }

  uint64_t Count(StandbyDb* db) {
    ScanQuery q;
    q.object = table_;
    q.aggregates = {{AggKind::kCount, 0}};
    auto result = db->Query(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->count : 0;
  }

  AdgCluster cluster_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(FailoverTest, PromotedStandbyAcceptsWrites) {
  StandbyDb* standby = cluster_.standby();
  const uint64_t before = Count(standby);
  ASSERT_TRUE(standby->Promote().ok());
  EXPECT_TRUE(standby->promoted());

  // Writes now succeed on the promoted database.
  Transaction txn = standby->Begin();
  ASSERT_TRUE(standby
                  ->Insert(&txn, table_,
                           Row{Value(int64_t{999'000}), Value(int64_t{1}),
                               Value(std::string("post-failover"))},
                           nullptr)
                  .ok());
  StatusOr<Scn> commit = standby->Commit(&txn);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(Count(standby), before + 1);
}

TEST_F(FailoverTest, ScnAndXidResumeAboveAppliedHistory) {
  StandbyDb* standby = cluster_.standby();
  const Scn applied = standby->query_scn();
  ASSERT_TRUE(standby->Promote().ok());

  Transaction txn = standby->Begin();
  // The load ran as one primary transaction (XID 1); the promoted manager
  // must allocate strictly above every XID the redo stream carried.
  EXPECT_GT(txn.xid, 1u);
  ASSERT_TRUE(standby
                  ->Insert(&txn, table_,
                           Row{Value(int64_t{999'001}), Value(int64_t{1}),
                               Value(std::string("y"))},
                           nullptr)
                  .ok());
  StatusOr<Scn> commit = standby->Commit(&txn);
  ASSERT_TRUE(commit.ok());
  EXPECT_GT(*commit, applied);  // New SCNs continue past applied history.
}

TEST_F(FailoverTest, ImcsRebuildsAndMaintainsAfterPromotion) {
  StandbyDb* standby = cluster_.standby();
  ASSERT_TRUE(standby->PopulateNow(table_).ok());
  ASSERT_TRUE(standby->Promote().ok());
  // Rebuild the IMCS from the promoted snapshot source.
  ASSERT_TRUE(standby->PopulateNow(table_).ok());

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{3})}};
  q.aggregates = {{AggKind::kCount, 0}};
  auto result = standby->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.rows_from_imcs, 0u);
  const uint64_t matches_before = result->count;

  // Commit-time IMCS maintenance: an update must invalidate its IMCU row.
  Transaction txn = standby->Begin();
  ASSERT_TRUE(standby
                  ->UpdateByKey(&txn, table_, 3,  // id 3 has n1 == 3.
                                Row{Value(int64_t{3}), Value(int64_t{777}),
                                    Value(std::string("upd"))})
                  .ok());
  ASSERT_TRUE(standby->Commit(&txn).ok());

  result = standby->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, matches_before - 1);  // The row left the n1=3 set.

  ScanQuery updated;
  updated.object = table_;
  updated.predicates = {{1, PredOp::kEq, Value(int64_t{777})}};
  updated.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(standby->Query(updated)->count, 1u);
}

TEST_F(FailoverTest, WritesRejectedBeforePromotion) {
  StandbyDb* standby = cluster_.standby();
  Transaction txn = standby->Begin();
  const Row row{Value(int64_t{1}), Value(int64_t{1}), Value(std::string("no"))};
  EXPECT_EQ(standby->Insert(&txn, table_, row).code(), Code::kFailedPrecondition);
  EXPECT_EQ(standby->UpdateByKey(&txn, table_, 1, row).code(),
            Code::kFailedPrecondition);
  EXPECT_EQ(standby->Commit(&txn).status().code(), Code::kFailedPrecondition);
  standby->Abort(&txn);
}

TEST_F(FailoverTest, DoublePromotionRejected) {
  StandbyDb* standby = cluster_.standby();
  ASSERT_TRUE(standby->Promote().ok());
  EXPECT_EQ(standby->Promote().code(), Code::kFailedPrecondition);
}

TEST_F(FailoverTest, RestartRejectedAfterPromotionInEveryMode) {
  StandbyDb* standby = cluster_.standby();
  ASSERT_TRUE(standby->Promote().ok());
  const uint64_t before = Count(standby);
  for (const RestartMode mode :
       {RestartMode{}, RestartMode{.crash = true},
        RestartMode{.from_disk = true},
        RestartMode{.crash = true, .from_disk = true}}) {
    EXPECT_EQ(standby->Restart(mode).code(), Code::kFailedPrecondition)
        << "crash=" << mode.crash << " from_disk=" << mode.from_disk;
    EXPECT_EQ(cluster_.RestartStandby(mode).code(), Code::kFailedPrecondition)
        << "crash=" << mode.crash << " from_disk=" << mode.from_disk;
  }
  EXPECT_EQ(standby->restarts(), 0u);

  // The promoted database is untouched and still commits.
  Transaction txn = standby->Begin();
  ASSERT_TRUE(standby
                  ->Insert(&txn, table_,
                           Row{Value(int64_t{999'002}), Value(int64_t{1}),
                               Value(std::string("after-restart-attempts"))},
                           nullptr)
                  .ok());
  ASSERT_TRUE(standby->Commit(&txn).ok());
  EXPECT_EQ(Count(standby), before + 1);
}

TEST_F(FailoverTest, SnapshotIsolationSurvivesPromotion) {
  StandbyDb* standby = cluster_.standby();
  ASSERT_TRUE(standby->Promote().ok());
  const Scn before = standby->query_scn();

  Transaction txn = standby->Begin();
  ASSERT_TRUE(standby
                  ->UpdateByKey(&txn, table_, 5,
                                Row{Value(int64_t{5}), Value(int64_t{888}),
                                    Value(std::string("z"))})
                  .ok());
  ASSERT_TRUE(standby->Commit(&txn).ok());

  // Old snapshots (from the standby era and just before the commit) still
  // resolve through the version chains built by redo apply.
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{888})}};
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(standby->Query(q)->count, 1u);
  (void)before;
}

}  // namespace
}  // namespace stratus
