#include <gtest/gtest.h>

#include "common/random.h"
#include "db/database.h"

namespace stratus {
namespace {

DatabaseOptions MiraOptions(int apply_instances) {
  DatabaseOptions options;
  options.mira_apply_instances = apply_instances;
  options.apply.num_workers = 2;  // Per apply instance.
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 500;
  return options;
}

class MiraTest : public ::testing::Test {
 protected:
  MiraTest() : cluster_(MiraOptions(2)) {
    cluster_.Start();
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                              ImService::kStandbyOnly, true)
                 .value();
  }

  void Load(int n) {
    Transaction txn = cluster_.primary()->Begin();
    for (int i = 0; i < n; ++i) {
      const int64_t id = next_id_++;
      ASSERT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 9), Value(std::string("m"))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  }

  AdgCluster cluster_;
  ObjectId table_ = kInvalidObjectId;
  int64_t next_id_ = 0;
};

TEST_F(MiraTest, BothApplyInstancesParticipate) {
  Load(4 * kRowsPerBlock);
  cluster_.WaitForCatchup();
  ASSERT_EQ(cluster_.standby()->mira_instances(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    uint64_t applied = 0;
    for (const auto& w : cluster_.standby()->mira_engine(i)->workers())
      applied += w->applied_cvs();
    EXPECT_GT(applied, 0u) << "apply instance " << i << " did no work";
  }
}

TEST_F(MiraTest, GlobalQueryScnServesConsistentReads) {
  Load(2 * kRowsPerBlock);
  cluster_.WaitForCatchup();
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster_.standby()->Query(q)->count, static_cast<uint64_t>(next_id_));
}

TEST_F(MiraTest, MiningAndFlushWorkAcrossInstances) {
  Load(2 * kRowsPerBlock);
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  Transaction txn = cluster_.primary()->Begin();
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_TRUE(cluster_.primary()
                    ->UpdateByKey(&txn, table_, id,
                                  Row{Value(id), Value(int64_t{555}),
                                      Value(std::string("u"))})
                    .ok());
  }
  ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  cluster_.WaitForCatchup();

  // The 64 updated rows span blocks applied by BOTH instances; every one of
  // their invalidation records must have reached the SMUs before publish.
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{555})}};
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 64u);
  EXPECT_GE(cluster_.standby()->flush()->stats().flushed_records, 64u);
}

TEST_F(MiraTest, ConsistencyUnderChurn) {
  Load(2 * kRowsPerBlock);
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  Random rng(7);
  for (int round = 0; round < 10; ++round) {
    Transaction txn = cluster_.primary()->Begin();
    for (int i = 0; i < 16; ++i) {
      const int64_t id = rng.UniformInt(0, next_id_ - 1);
      (void)cluster_.primary()->UpdateByKey(
          &txn, table_, id,
          Row{Value(id), Value(static_cast<int64_t>(rng.Uniform(9))),
              Value(std::string("c"))});
    }
    (void)cluster_.primary()->Commit(&txn);

    ScanQuery q;
    q.object = table_;
    q.predicates = {{1, PredOp::kEq, Value(static_cast<int64_t>(rng.Uniform(9)))}};
    q.aggregates = {{AggKind::kCount, 0}};
    const auto standby = cluster_.standby()->Query(q);
    if (!standby.ok()) continue;
    const auto primary = cluster_.primary()->QueryAt(q, standby->snapshot);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(standby->count, primary->count) << "round " << round;
  }
}

TEST_F(MiraTest, RestartResumesMira) {
  Load(kRowsPerBlock);
  cluster_.WaitForCatchup();
  cluster_.standby()->Restart();
  Load(kRowsPerBlock);
  cluster_.WaitForCatchup();
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster_.standby()->Query(q)->count, static_cast<uint64_t>(next_id_));
  EXPECT_EQ(cluster_.standby()->mira_instances(), 2u);
}

TEST(MiraConfigTest, SiraWhenSingleInstance) {
  AdgCluster cluster(MiraOptions(1));
  cluster.Start();
  EXPECT_EQ(cluster.standby()->mira_instances(), 0u);  // Classic engine.
  EXPECT_NE(cluster.standby()->coordinator(), nullptr);
  cluster.Stop();
}

TEST(MiraConfigTest, FourApplyInstances) {
  AdgCluster cluster(MiraOptions(4));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 0),
                          ImService::kNone, true).value();
  Transaction txn = cluster.primary()->Begin();
  for (int64_t id = 0; id < 1000; ++id) {
    ASSERT_TRUE(cluster.primary()
                    ->Insert(&txn, table, Row{Value(id), Value(id % 3)}, nullptr)
                    .ok());
  }
  ASSERT_TRUE(cluster.primary()->Commit(&txn).ok());
  cluster.WaitForCatchup();
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster.standby()->Query(q)->count, 1000u);
  cluster.Stop();
}

}  // namespace
}  // namespace stratus
