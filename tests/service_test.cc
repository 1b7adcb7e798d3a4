#include "db/service.h"

#include <gtest/gtest.h>

namespace stratus {
namespace {

DatabaseOptions ServiceOptions() {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 500;
  return options;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : cluster_(ServiceOptions()), services_(&cluster_) {
    cluster_.Start();
    EXPECT_TRUE(services_.CreateDefaultServices().ok());
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                              ImService::kStandbyOnly, true)
                 .value();
    Transaction txn = cluster_.primary()->Begin();
    for (int64_t id = 0; id < kRowsPerBlock; ++id) {
      EXPECT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 5), Value(std::string("s"))},
                               nullptr)
                      .ok());
    }
    EXPECT_TRUE(cluster_.primary()->Commit(&txn).ok());
    cluster_.WaitForCatchup();
  }

  AdgCluster cluster_;
  ServiceDirectory services_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(ServiceTest, DefaultTrioRegistered) {
  EXPECT_EQ(services_.All().size(), 3u);
  EXPECT_TRUE(services_.Lookup("standby_only").ok());
  EXPECT_TRUE(services_.Lookup("primary_only").ok());
  EXPECT_TRUE(services_.Lookup("primary_and_standby").ok());
  EXPECT_TRUE(services_.Lookup("nope").status().IsNotFound());
}

TEST_F(ServiceTest, ValidationRules) {
  EXPECT_FALSE(services_.CreateService({"", true, true, 0}).ok());
  EXPECT_FALSE(services_.CreateService({"nowhere", false, false, 0}).ok());
  EXPECT_TRUE(services_.CreateService({"standby_only", true, true, 0})
                  .code() == Code::kAlreadyExists);
}

TEST_F(ServiceTest, QueriesRouteByService) {
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  // All three services answer the read, from their respective databases.
  for (const char* name : {"standby_only", "primary_only", "primary_and_standby"}) {
    const auto result = services_.Query(name, q);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result->count, static_cast<uint64_t>(kRowsPerBlock)) << name;
  }
}

TEST_F(ServiceTest, WritesOnlyOnPrimaryCapableServices) {
  EXPECT_EQ(services_.BeginWrite("standby_only").status().code(),
            Code::kFailedPrecondition);
  StatusOr<Transaction> txn = services_.BeginWrite("primary_and_standby");
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cluster_.primary()
                  ->Insert(&*txn, table_,
                           Row{Value(int64_t{100'000}), Value(int64_t{1}),
                               Value(std::string("w"))},
                           nullptr)
                  .ok());
  ASSERT_TRUE(cluster_.primary()->Commit(&*txn).ok());
}

TEST_F(ServiceTest, FetchRoutes) {
  const auto row = services_.Fetch("standby_only", table_, 7);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[0].as_int(), 7);
}

TEST_F(ServiceTest, DefaultServiceForPlacement) {
  EXPECT_STREQ(ServiceDirectory::DefaultServiceFor(ImService::kStandbyOnly),
               "standby_only");
  EXPECT_STREQ(ServiceDirectory::DefaultServiceFor(ImService::kBoth),
               "primary_and_standby");
}

TEST(ServiceFallbackTest, SpanningServiceFallsBackToPrimary) {
  // Standby never started: a standby-preferring service must fall back to the
  // primary when it spans both, and fail cleanly when standby-only.
  DatabaseOptions options = ServiceOptions();
  AdgCluster cluster(options);
  // Note: cluster NOT started — no QuerySCN will ever publish.
  cluster.primary()->Start();
  ServiceDirectory services(&cluster);
  ASSERT_TRUE(services.CreateDefaultServices().ok());
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 0),
                          ImService::kNone, true).value();
  Transaction txn = cluster.primary()->Begin();
  ASSERT_TRUE(cluster.primary()
                  ->Insert(&txn, table, Row{Value(int64_t{1}), Value(int64_t{2})},
                           nullptr)
                  .ok());
  ASSERT_TRUE(cluster.primary()->Commit(&txn).ok());

  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto spanning = services.Query("primary_and_standby", q);
  ASSERT_TRUE(spanning.ok());
  EXPECT_EQ(spanning->count, 1u);
  EXPECT_TRUE(services.Query("standby_only", q).status().IsUnavailable());
}

}  // namespace
}  // namespace stratus
