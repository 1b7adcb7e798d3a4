#include "db/ddl.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace stratus {
namespace {

DatabaseOptions DdlOptions() {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 500;
  return options;
}

class DdlTest : public ::testing::Test {
 protected:
  DdlTest() : cluster_(DdlOptions()), ddl_(cluster_.primary()) {
    cluster_.Start();
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                              ImService::kBoth, true)
                 .value();
    Transaction txn = cluster_.primary()->Begin();
    for (int64_t id = 0; id < 2 * kRowsPerBlock; ++id) {
      EXPECT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 5), Value(id % 3),
                                   Value(std::string("s"))},
                               nullptr)
                      .ok());
    }
    EXPECT_TRUE(cluster_.primary()->Commit(&txn).ok());
    cluster_.WaitForCatchup();
    EXPECT_TRUE(cluster_.standby()->PopulateNow(table_).ok());
    EXPECT_TRUE(cluster_.primary()->PopulateNow(table_).ok());
  }

  /// Pushes a committed no-op past the DDL so the QuerySCN covers it.
  void AdvancePastDdl() {
    Transaction txn = cluster_.primary()->Begin();
    ASSERT_TRUE(cluster_.primary()
                    ->Insert(&txn, marker_table_,
                             Row{Value(marker_id_++), Value(int64_t{0})}, nullptr)
                    .ok());
    ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
    cluster_.WaitForCatchup();
  }

  void SetUp() override {
    marker_table_ = cluster_
                        .CreateTable("markers", kDefaultTenant,
                                     Schema::WideTable(1, 0), ImService::kNone,
                                     false)
                        .value();
  }

  AdgCluster cluster_;
  DdlExecutor ddl_;
  ObjectId table_ = kInvalidObjectId;
  ObjectId marker_table_ = kInvalidObjectId;
  int64_t marker_id_ = 0;
};

TEST_F(DdlTest, DropTablePropagatesToStandby) {
  ASSERT_TRUE(ddl_.DropTable(table_).ok());
  AdvancePastDdl();
  ScanQuery q;
  q.object = table_;
  EXPECT_TRUE(cluster_.standby()->Query(q).status().IsNotFound());
  EXPECT_TRUE(cluster_.primary()->Query(q).status().IsNotFound());
  // IMCUs dropped on both sides.
  EXPECT_EQ(cluster_.standby()->im_store()->SmusForObject(table_).size(), 0u);
  EXPECT_EQ(cluster_.primary()->im_store()->SmusForObject(table_).size(), 0u);
}

TEST_F(DdlTest, DropUnknownTableFails) {
  EXPECT_TRUE(ddl_.DropTable(999999).IsNotFound());
}

TEST_F(DdlTest, NoInMemoryDropsImcusButKeepsData) {
  ASSERT_TRUE(ddl_.NoInMemory(table_).ok());
  AdvancePastDdl();
  // Give the deferred populator fixup a moment, then verify the store.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(cluster_.standby()->im_store()->SmusForObject(table_).size(), 0u);
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 2u * kRowsPerBlock);
  EXPECT_EQ(result->stats.rows_from_imcs, 0u);
}

TEST_F(DdlTest, DropColumnRebuildsWithNewShape) {
  ASSERT_TRUE(ddl_.DropColumn(table_, "n2").ok());
  AdvancePastDdl();
  // Repopulation with the new schema happens in the background.
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());
  const auto smus = cluster_.standby()->im_store()->SmusForObject(table_);
  ASSERT_FALSE(smus.empty());
  for (const auto& smu : smus) {
    if (smu->state() != SmuState::kReady) continue;
    EXPECT_TRUE(smu->imcu()->schema().IsDropped(2));
  }
  // Predicates on surviving columns still work end to end.
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{2})}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 2u * kRowsPerBlock / 5);
  // The dropped column no longer resolves by name.
  EXPECT_EQ(cluster_.standby()
                ->catalog()
                ->CurrentSchema(table_)
                .value()
                .FindColumn("n2"),
            -1);
}

TEST_F(DdlTest, DropColumnRejectsIdentityAndUnknown) {
  EXPECT_FALSE(ddl_.DropColumn(table_, "id").ok());
  EXPECT_TRUE(ddl_.DropColumn(table_, "nope").IsNotFound());
}

TEST_F(DdlTest, OldQueryScnStillSeesPreDdlDefinition) {
  // Capture a consistency point before the DDL.
  const Scn before = cluster_.standby()->query_scn();
  ASSERT_NE(before, kInvalidScn);
  ASSERT_TRUE(ddl_.DropTable(table_).ok());
  AdvancePastDdl();
  // The SCN-effective catalog still resolves the old definition.
  EXPECT_TRUE(cluster_.standby()->catalog()->ExistsAt(table_, before));
  EXPECT_FALSE(cluster_.standby()->catalog()->Exists(table_));
}

}  // namespace
}  // namespace stratus
