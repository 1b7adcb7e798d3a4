#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/clock.h"
#include "db/database.h"
#include "db/introspection.h"

namespace stratus {
namespace {

DatabaseOptions RestartOptions(bool specialized_redo) {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.shipping.heartbeat_interval_us = 500;
  options.specialized_redo = specialized_redo;
  // Keep automatic repopulation out of the assertions' way.
  options.population.manager_interval_us = 1'000'000;
  return options;
}

void Load(AdgCluster* cluster, ObjectId table, int64_t* next_id, int n) {
  Transaction txn = cluster->primary()->Begin();
  for (int i = 0; i < n; ++i) {
    const int64_t id = (*next_id)++;
    ASSERT_TRUE(cluster->primary()
                    ->Insert(&txn, table,
                             Row{Value(id), Value(id % 9), Value(std::string("x"))},
                             nullptr)
                    .ok());
  }
  ASSERT_TRUE(cluster->primary()->Commit(&txn).ok());
}

uint64_t CountRows(StandbyDb* standby, ObjectId table) {
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = standby->Query(q);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->count : 0;
}

TEST(RestartTest, ImcsLostAndRebuiltAfterRestart) {
  AdgCluster cluster(RestartOptions(true));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 2 * kRowsPerBlock);
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());
  EXPECT_GT(cluster.standby()->im_store()->Stats().smus_ready, 0u);

  cluster.standby()->Restart();
  // Non-persistent state is gone.
  EXPECT_EQ(cluster.standby()->im_store()->Stats().smus_total, 0u);

  // Redo apply resumes; new data keeps flowing; queries still correct.
  Load(&cluster, table, &next_id, 50);
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(cluster.standby(), table), static_cast<uint64_t>(next_id));

  // And the IMCS rebuilds on demand.
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());
  EXPECT_GT(cluster.standby()->im_store()->Stats().smus_ready, 0u);
}

TEST(RestartTest, StraddlingTransactionTriggersCoarseInvalidation) {
  AdgCluster cluster(RestartOptions(true));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 2 * kRowsPerBlock);
  cluster.WaitForCatchup();

  // A transaction modifies the IM-enabled table but does NOT commit yet; its
  // DML change vectors (and begin) are mined on the standby.
  Transaction straddler = cluster.primary()->Begin();
  ASSERT_TRUE(cluster.primary()
                  ->UpdateByKey(&straddler, table, 3,
                                Row{Value(int64_t{3}), Value(int64_t{777}),
                                    Value(std::string("mid"))})
                  .ok());
  Load(&cluster, table, &next_id, 1);  // Marker commit to push the QuerySCN.
  cluster.WaitForCatchup();

  // Instance restart: journal and commit table are lost (Section III.E).
  cluster.standby()->Restart();
  cluster.WaitForCatchup();
  // Population happens immediately after restart (the pathological timing the
  // paper warns about): the SMUs' snapshot predates the straddler's commit.
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());

  // Now the straddler commits. Its commit record carries the IM flag, but the
  // journal has no (begin) record for it → coarse invalidation.
  ASSERT_TRUE(cluster.primary()->Commit(&straddler).ok());
  cluster.WaitForCatchup();

  EXPECT_GE(cluster.standby()->im_store()->Stats().coarse_invalidations, 1u);

  // Queries remain correct (everything served from the row store).
  ScanQuery q;
  q.object = table;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{777})}};
  const auto result = cluster.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 1u);
  EXPECT_EQ(result->stats.rows_from_imcs, 0u);
}

TEST(RestartTest, NonImTransactionsDoNotCoarseInvalidate) {
  AdgCluster cluster(RestartOptions(true));
  cluster.Start();
  const ObjectId im_table =
      cluster.CreateTable("im", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  const ObjectId plain_table =
      cluster.CreateTable("plain", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kNone, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, im_table, &next_id, kRowsPerBlock);
  cluster.WaitForCatchup();

  // The straddler touches only the NON-IM table: specialized redo generation
  // leaves its commit record unflagged, so no coarse invalidation.
  Transaction straddler = cluster.primary()->Begin();
  ASSERT_TRUE(cluster.primary()
                  ->Insert(&straddler, plain_table,
                           Row{Value(int64_t{1}), Value(int64_t{1}),
                               Value(std::string("p"))},
                           nullptr)
                  .ok());
  Load(&cluster, im_table, &next_id, 1);
  cluster.WaitForCatchup();

  cluster.standby()->Restart();
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(im_table).ok());
  ASSERT_TRUE(cluster.primary()->Commit(&straddler).ok());
  cluster.WaitForCatchup();

  EXPECT_EQ(cluster.standby()->im_store()->Stats().coarse_invalidations, 0u);
  // The IMCS is still serving.
  ScanQuery q;
  q.object = im_table;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{4})}};
  const auto result = cluster.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.rows_from_imcs, 0u);
}

TEST(RestartTest, WithoutSpecializedRedoEveryStraddlerIsPessimistic) {
  AdgCluster cluster(RestartOptions(/*specialized_redo=*/false));
  cluster.Start();
  const ObjectId im_table =
      cluster.CreateTable("im", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  const ObjectId plain_table =
      cluster.CreateTable("plain", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kNone, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, im_table, &next_id, kRowsPerBlock);
  cluster.WaitForCatchup();

  Transaction straddler = cluster.primary()->Begin();
  ASSERT_TRUE(cluster.primary()
                  ->Insert(&straddler, plain_table,
                           Row{Value(int64_t{1}), Value(int64_t{1}),
                               Value(std::string("p"))},
                           nullptr)
                  .ok());
  Load(&cluster, im_table, &next_id, 1);
  cluster.WaitForCatchup();

  cluster.standby()->Restart();
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(im_table).ok());
  ASSERT_TRUE(cluster.primary()->Commit(&straddler).ok());
  cluster.WaitForCatchup();

  // Pessimistic: even a non-IM transaction coarse-invalidates.
  EXPECT_GE(cluster.standby()->im_store()->Stats().coarse_invalidations, 1u);
}

// --- One restart entry point, four modes --------------------------------------

std::string MakeTempDir() {
  std::string tmpl = testing::TempDir() + "stratus_restart_XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

bool WaitForCheckpoints(StandbyDb* standby, uint64_t n, int64_t timeout_us) {
  const uint64_t deadline = NowMicros() + static_cast<uint64_t>(timeout_us);
  while (standby->PersistStatsSnapshot().checkpoints < n) {
    if (NowMicros() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

class RestartModeTest : public ::testing::TestWithParam<RestartMode> {};

// Every restart mode replaces the link's shippers while v$transport and
// shipped_bytes() scrapes read them from another thread; the shipper lock
// keeps every read on a whole vector (TSan in the chaos stage).
TEST_P(RestartModeTest, TransportScrapeDuringRestartIsRaceFree) {
  const RestartMode mode = GetParam();
  DatabaseOptions options = RestartOptions(true);
  options.persist.enabled = true;
  options.persist.data_dir = MakeTempDir();
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const VTransportRow& row : CollectVTransport(&cluster))
        EXPECT_FALSE(row.channel.empty());
      (void)cluster.shipped_bytes();
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 4; ++i) {
    Load(&cluster, table, &next_id, 64);
    const Status st = cluster.RestartStandby(mode);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  stop.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  ASSERT_NE(cluster.WaitForCatchup(), kInvalidScn);
  EXPECT_EQ(CountRows(cluster.standby(), table),
            static_cast<uint64_t>(next_id));
  EXPECT_EQ(CollectVTransport(&cluster).size(),
            static_cast<size_t>(options.primary_redo_threads));
  cluster.Stop();
}

// Every mode through the one cluster entry point, with the background
// checkpoint thread running and a writer committing throughout: the counters
// move as the RestartMode table says, durability and health stay clean, the
// standby answers exactly as the primary's flashback read at the standby's
// QuerySCN, every row was applied exactly once, and checkpoints resume.
TEST_P(RestartModeTest, RestartsUnderWriterWithBackgroundCheckpoints) {
  const RestartMode mode = GetParam();
  DatabaseOptions options = RestartOptions(true);
  options.apply_accounting = true;
  options.persist.enabled = true;
  options.persist.data_dir = MakeTempDir();
  options.persist.checkpoint_interval_us = 500;
  AdgCluster cluster(options);
  cluster.Start();
  StandbyDb* standby = cluster.standby();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 4 * kRowsPerBlock);
  cluster.WaitForCatchup();
  ASSERT_TRUE(standby->PopulateNow(table).ok());
  ASSERT_TRUE(WaitForCheckpoints(standby, 2, 10'000'000));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Load(&cluster, table, &next_id, 8);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  for (int i = 0; i < 3; ++i) {
    const Status st = cluster.RestartStandby(mode);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(standby->restarts(), 3u);
  EXPECT_EQ(standby->crash_restarts(), mode.crash ? 3u : 0u);
  EXPECT_EQ(standby->disk_restarts(), mode.from_disk ? 3u : 0u);
  EXPECT_TRUE(standby->persist_status().ok())
      << standby->persist_status().ToString();
  EXPECT_FALSE(standby->degraded());

  ASSERT_NE(cluster.WaitForCatchup(), kInvalidScn);
  const Scn scn = standby->query_scn();
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 0}};
  const auto on_standby = standby->QueryAt(q, scn);
  const auto on_primary = cluster.primary()->QueryAt(q, scn);
  ASSERT_TRUE(on_standby.ok()) << on_standby.status().ToString();
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_EQ(on_standby->rows.size(), 1u);
  EXPECT_EQ(on_standby->rows, on_primary->rows);
  const int64_t rows = next_id;  // Ids 0..rows-1, each inserted once.
  EXPECT_EQ(on_standby->rows[0][0].as_int(), rows);
  EXPECT_EQ(on_standby->rows[0][1].as_int(), rows * (rows - 1) / 2);

  const auto applies = standby->ApplyAccountingSnapshot();
  EXPECT_EQ(applies.size(), static_cast<size_t>(rows));
  size_t not_once = 0;
  for (const auto& [key, count] : applies) {
    if (count != 1) ++not_once;
  }
  EXPECT_EQ(not_once, 0u) << "rows applied other than exactly once";

  // The restarts restarted the checkpoint thread too.
  const uint64_t checkpoints = standby->PersistStatsSnapshot().checkpoints;
  EXPECT_TRUE(WaitForCheckpoints(standby, checkpoints + 1, 10'000'000));
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RestartModeTest,
    ::testing::Values(RestartMode{}, RestartMode{.crash = true},
                      RestartMode{.from_disk = true},
                      RestartMode{.crash = true, .from_disk = true}),
    [](const ::testing::TestParamInfo<RestartMode>& info) -> std::string {
      const RestartMode& m = info.param;
      if (m.crash && m.from_disk) return "CrashFromDisk";
      if (m.crash) return "Crash";
      return m.from_disk ? "FromDisk" : "Clean";
    });

}  // namespace
}  // namespace stratus
