#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "db/database.h"

namespace stratus {
namespace {

/// End-to-end invariant used by every scenario here: the standby (at its own
/// QuerySCN) agrees exactly with the primary at the same SCN.
void ExpectConsistent(AdgCluster* cluster, ObjectId table, const char* label) {
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kSum, 1}};
  const auto standby = cluster->standby()->Query(q);
  ASSERT_TRUE(standby.ok()) << label << ": " << standby.status().ToString();
  const auto primary = cluster->primary()->QueryAt(q, standby->snapshot);
  ASSERT_TRUE(primary.ok()) << label;
  EXPECT_EQ(standby->count, primary->count) << label;
  EXPECT_EQ(standby->agg_int, primary->agg_int) << label;
}

int64_t LoadRows(AdgCluster* cluster, ObjectId table, int64_t from, int n,
                 Random* rng) {
  Transaction txn = cluster->primary()->Begin();
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(cluster->primary()
                    ->Insert(&txn, table,
                             Row{Value(from + i),
                                 Value(static_cast<int64_t>(rng->Uniform(100))),
                                 Value(std::string("f"))},
                             nullptr)
                    .ok());
  }
  EXPECT_TRUE(cluster->primary()->Commit(&txn).ok());
  return from + n;
}

/// Repeated standby restarts at random points of an update stream: every
/// non-persistent structure dies and resurrects mid-flight; the consistency
/// invariant must hold at every catchup.
class RestartChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RestartChurnTest, SurvivesRandomRestarts) {
  const uint64_t seed = GetParam();
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 500;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true).value();
  Random rng(seed);
  int64_t next_id = LoadRows(&cluster, table, 0, 2 * kRowsPerBlock, &rng);
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());

  for (int round = 0; round < 6; ++round) {
    // Random mutation burst.
    Transaction txn = cluster.primary()->Begin();
    for (int i = 0; i < 30; ++i) {
      const int64_t id = rng.UniformInt(0, next_id - 1);
      (void)cluster.primary()->UpdateByKey(
          &txn, table, id,
          Row{Value(id), Value(static_cast<int64_t>(rng.Uniform(100))),
              Value(std::string("r"))});
    }
    (void)cluster.primary()->Commit(&txn);
    if (rng.Percent(30)) next_id = LoadRows(&cluster, table, next_id, 64, &rng);

    if (rng.Percent(50)) {
      cluster.standby()->Restart();
    }
    cluster.WaitForCatchup();
    ExpectConsistent(&cluster, table, "restart churn");
  }
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestartChurnTest, ::testing::Values(11, 22, 33));

TEST(FaultInjectionTest, TinyWorkerQueuesBackpressure) {
  // Queue capacity 8 forces the dispatcher to block constantly; correctness
  // must be unaffected (only throughput).
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.apply.worker_queue_capacity = 8;
  options.apply.barrier_interval = 4;
  options.population.blocks_per_imcu = 2;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true).value();
  Random rng(5);
  LoadRows(&cluster, table, 0, 3 * kRowsPerBlock, &rng);
  cluster.WaitForCatchup();
  ExpectConsistent(&cluster, table, "tiny queues");
  cluster.Stop();
}

TEST(FaultInjectionTest, DegenerateJournalAndCommitTableSizes) {
  // One bucket, one partition: maximal contention and chaining; results must
  // stay exact.
  DatabaseOptions options;
  options.apply.num_workers = 3;
  options.journal_buckets = 1;
  options.commit_table_partitions = 1;
  options.population.blocks_per_imcu = 2;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true).value();
  Random rng(6);
  int64_t next_id = LoadRows(&cluster, table, 0, 2 * kRowsPerBlock, &rng);
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());
  for (int round = 0; round < 5; ++round) {
    Transaction txn = cluster.primary()->Begin();
    for (int i = 0; i < 40; ++i) {
      const int64_t id = rng.UniformInt(0, next_id - 1);
      (void)cluster.primary()->UpdateByKey(
          &txn, table, id,
          Row{Value(id), Value(static_cast<int64_t>(rng.Uniform(100))),
              Value(std::string("d"))});
    }
    (void)cluster.primary()->Commit(&txn);
  }
  cluster.WaitForCatchup();
  ExpectConsistent(&cluster, table, "degenerate sizes");
  cluster.Stop();
}

TEST(FaultInjectionTest, VersionGcDuringQueries) {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true).value();
  Random rng(7);
  int64_t next_id = LoadRows(&cluster, table, 0, 2 * kRowsPerBlock, &rng);
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());

  // Build deep version chains, pruning aggressively between bursts while
  // queries run against both roles.
  for (int round = 0; round < 8; ++round) {
    Transaction txn = cluster.primary()->Begin();
    for (int i = 0; i < 50; ++i) {
      const int64_t id = rng.UniformInt(0, next_id - 1);
      (void)cluster.primary()->UpdateByKey(
          &txn, table, id,
          Row{Value(id), Value(static_cast<int64_t>(rng.Uniform(100))),
              Value(std::string("g"))});
    }
    (void)cluster.primary()->Commit(&txn);
    cluster.WaitForCatchup();
    cluster.primary()->PruneVersions();
    cluster.standby()->PruneVersions();
    ExpectConsistent(&cluster, table, "gc churn");
  }
  // Chains really were pruned back near the live tip.
  size_t long_chains = 0;
  Table* t = cluster.primary()->table(table);
  for (Dba dba : t->SnapshotBlocks()) {
    Block* b = cluster.primary()->block_store()->GetBlock(dba);
    for (SlotId s = 0; s < b->used_slots(); ++s) {
      if (b->ChainLength(s) > 2) ++long_chains;
    }
  }
  EXPECT_LT(long_chains, 16u);
  cluster.Stop();
}

TEST(FaultInjectionTest, CapacityStarvedImcsStaysCorrect) {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.im_pool_bytes = 2048;  // Too small for even one IMCU.
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true).value();
  Random rng(8);
  LoadRows(&cluster, table, 0, 4 * kRowsPerBlock, &rng);
  cluster.WaitForCatchup();
  // Population cannot fully cover the table; whatever made it in serves, the
  // rest row-paths — and results stay exact.
  cluster.standby()->populator()->RunOnePass();
  EXPECT_GT(cluster.standby()->populator()->stats().capacity_rejections, 0u);
  ExpectConsistent(&cluster, table, "capacity starved");
  cluster.Stop();
}

TEST(FaultInjectionTest, SlowNetworkStillConverges) {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.shipping.channel.faults.delay_us = 2000;  // 2ms per shipped batch.
  options.shipping.max_batch = 32;
  options.population.blocks_per_imcu = 2;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true).value();
  Random rng(9);
  LoadRows(&cluster, table, 0, kRowsPerBlock, &rng);
  cluster.WaitForCatchup(60'000'000);
  ExpectConsistent(&cluster, table, "slow network");
  cluster.Stop();
}

TEST(FaultInjectionTest, StopIsCleanWithPendingRedo) {
  // Stop the standby while the primary keeps writing; nothing should hang or
  // crash, and a later start picks the stream back up.
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true).value();
  Random rng(10);
  int64_t next_id = LoadRows(&cluster, table, 0, kRowsPerBlock, &rng);
  cluster.WaitForCatchup();

  cluster.standby()->Stop();
  next_id = LoadRows(&cluster, table, next_id, kRowsPerBlock, &rng);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.standby()->Start();
  cluster.WaitForCatchup();
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}};
  EXPECT_EQ(cluster.standby()->Query(q)->count, static_cast<uint64_t>(next_id));
  cluster.Stop();
}

}  // namespace
}  // namespace stratus
