#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "db/database.h"
#include "db/introspection.h"
#include "fleet/fleet_cluster.h"

namespace stratus {
namespace {

std::string MakeTempDir() {
  std::string tmpl = testing::TempDir() + "stratus_recovery_XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

DatabaseOptions PersistClusterOptions(const std::string& dir) {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.population.manager_interval_us = 1'000'000;  // Manual population.
  options.shipping.heartbeat_interval_us = 500;
  options.apply_accounting = true;
  options.persist.enabled = true;
  options.persist.data_dir = dir;
  // kEveryBatch (the default): durable == delivered, so the link's
  // durable-floor gate lets its cursors follow the shippers closely.
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

TEST(PersistRecoveryTest, DiskRestartRecoversRowsFromCheckpointAndArchive) {
  AdgCluster cluster(PersistClusterOptions(MakeTempDir()));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 2 * kRowsPerBlock);
  cluster.WaitForCatchup();
  // The archive tee has been fsyncing all along.
  EXPECT_NE(cluster.standby()->DurableScn(0), kInvalidScn);

  ASSERT_TRUE(cluster.standby()->TakeCheckpoint().ok());
  // The link's shippers have been noting their cursor positions to META.
  EXPECT_GT(cluster.standby()->persist()->CursorSeq(0), 0u);
  // Post-checkpoint churn lives only in the archive: recovery must replay it.
  Load(&cluster, table, &next_id, 3 * kRowsPerBlock / 2);
  cluster.WaitForCatchup();
  const uint64_t expected = static_cast<uint64_t>(next_id);
  ASSERT_EQ(CountRows(cluster.standby(), table), expected);
  const Scn scn_before = cluster.standby()->published_query_scn();
  ASSERT_NE(scn_before, kInvalidScn);

  ASSERT_TRUE(cluster.RestartStandby({.from_disk = true}).ok());
  EXPECT_EQ(cluster.standby()->disk_restarts(), 1u);
  const persist::RecoveryResult recovery = cluster.standby()->last_recovery();
  EXPECT_TRUE(recovery.checkpoint_loaded);
  EXPECT_GT(recovery.restored_blocks, 0u);
  EXPECT_GT(recovery.replayed_records, 0u);
  EXPECT_GE(recovery.recovered_scn, recovery.checkpoint_scn);

  // QuerySCN must never regress across a disk restart, and the recovered row
  // store must answer exactly as before.
  Load(&cluster, table, &next_id, 8);
  ASSERT_GE(cluster.standby()->WaitForQueryScn(scn_before, 30'000'000),
            scn_before);
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(cluster.standby(), table), static_cast<uint64_t>(next_id));
}

TEST(PersistRecoveryTest, CrashDiskRestartRecoversWithoutCleanShutdown) {
  AdgCluster cluster(PersistClusterOptions(MakeTempDir()));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 2 * kRowsPerBlock);
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->TakeCheckpoint().ok());
  Load(&cluster, table, &next_id, kRowsPerBlock);
  cluster.WaitForCatchup();
  const Scn scn_before = cluster.standby()->published_query_scn();

  // Crash teardown: no final SyncAll, threads detached hard. With
  // fsync-per-batch everything delivered is already on disk.
  ASSERT_TRUE(
      cluster.RestartStandby({.crash = true, .from_disk = true}).ok());
  EXPECT_EQ(cluster.standby()->disk_restarts(), 1u);
  EXPECT_EQ(cluster.standby()->crash_restarts(), 1u);

  Load(&cluster, table, &next_id, 8);
  ASSERT_GE(cluster.standby()->WaitForQueryScn(scn_before, 30'000'000),
            scn_before);
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(cluster.standby(), table), static_cast<uint64_t>(next_id));
}

TEST(PersistRecoveryTest, SnapshotResumeSeedsImcsCoverage) {
  AdgCluster cluster(PersistClusterOptions(MakeTempDir()));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 4 * kRowsPerBlock);
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());
  const size_t ready_before = cluster.standby()->im_store()->Stats().smus_ready;
  ASSERT_GT(ready_before, 0u);
  ASSERT_TRUE(cluster.standby()->TakeCheckpoint().ok());

  ASSERT_TRUE(cluster.RestartStandby({.from_disk = true}).ok());
  const persist::RecoveryResult recovery = cluster.standby()->last_recovery();
  EXPECT_TRUE(recovery.snapshot_loaded);
  EXPECT_GT(recovery.restored_smus, 0u);
  // The store is scannable again WITHOUT a population pass: the snapshot
  // SMUs were reloaded and adopted as coverage.
  EXPECT_GT(cluster.standby()->im_store()->Stats().smus_ready, 0u);

  Load(&cluster, table, &next_id, 8);
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(cluster.standby(), table), static_cast<uint64_t>(next_id));

  // Coverage was adopted, not duplicated: population extends over the new
  // tail without rebuilding the restored chunks from scratch.
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(cluster.standby(), table), static_cast<uint64_t>(next_id));
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.rows_from_imcs, 0u);
}

TEST(PersistRecoveryTest, QueryScnNeverRegressesAcrossRepeatedCrashes) {
  AdgCluster cluster(PersistClusterOptions(MakeTempDir()));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Scn floor = kInvalidScn;
  for (int cycle = 0; cycle < 3; ++cycle) {
    Load(&cluster, table, &next_id, kRowsPerBlock);
    cluster.WaitForCatchup();
    if (cycle == 1) ASSERT_TRUE(cluster.standby()->TakeCheckpoint().ok());
    const Scn before = cluster.standby()->published_query_scn();
    ASSERT_NE(before, kInvalidScn);
    if (floor != kInvalidScn) EXPECT_GE(before, floor);
    floor = before;

    ASSERT_TRUE(cluster.RestartStandby(
        {.crash = cycle % 2 == 1, .from_disk = true}).ok());
    Load(&cluster, table, &next_id, 4);
    const Scn after = cluster.standby()->WaitForQueryScn(floor, 30'000'000);
    ASSERT_GE(after, floor) << "cycle " << cycle;
    cluster.WaitForCatchup();
    ASSERT_EQ(CountRows(cluster.standby(), table),
              static_cast<uint64_t>(next_id))
        << "cycle " << cycle;
  }
  EXPECT_EQ(cluster.standby()->disk_restarts(), 3u);
}

TEST(PersistRecoveryTest, ColdStartOnEmptyDirIsCleanBoot) {
  AdgCluster cluster(PersistClusterOptions(MakeTempDir()));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  EXPECT_TRUE(cluster.standby()->persist_status().ok());
  const persist::RecoveryResult recovery = cluster.standby()->last_recovery();
  EXPECT_FALSE(recovery.checkpoint_loaded);
  EXPECT_FALSE(recovery.snapshot_loaded);
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, kRowsPerBlock);
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(cluster.standby(), table), static_cast<uint64_t>(next_id));
}

TEST(PersistRecoveryTest, PersistViewReportsDurabilityState) {
  AdgCluster cluster(PersistClusterOptions(MakeTempDir()));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 2 * kRowsPerBlock);
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());
  ASSERT_TRUE(cluster.standby()->TakeCheckpoint().ok());

  const VPersistRow live = CollectVPersist(cluster.standby());
  EXPECT_TRUE(live.enabled);
  EXPECT_GT(live.archived_records, 0u);
  EXPECT_GT(live.fsyncs, 0u);
  EXPECT_GE(live.checkpoints, 1u);

  ASSERT_TRUE(cluster.RestartStandby({.from_disk = true}).ok());

  // The rebuilt controller reports disk truth: the archive scan restores the
  // record count and the meta seqs restore the checkpoint count. Only the
  // fsync counter is per-incarnation (no sync has happened yet).
  const VPersistRow row = CollectVPersist(cluster.standby());
  EXPECT_TRUE(row.enabled);
  EXPECT_EQ(row.disk_restarts, 1u);
  EXPECT_GT(row.archived_records, 0u);
  EXPECT_GE(row.checkpoints, 1u);
  EXPECT_GE(row.recoveries, 1u);
  EXPECT_TRUE(row.ckpt_loaded);
  EXPECT_NE(row.durable_scn, kInvalidScn);
  EXPECT_NE(row.recovered_scn, kInvalidScn);
  const std::string json = row.ToJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"disk_restarts\":1"), std::string::npos);

  ClusterObservability views(&cluster);
  const obs::HttpResponse resp = views.View("persist");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"restored_blocks\""), std::string::npos);

  // An all-RAM standby reports a disabled row instead of erroring.
  AdgCluster plain((DatabaseOptions()));
  plain.Start();
  EXPECT_FALSE(CollectVPersist(plain.standby()).enabled);
  plain.Stop();
  cluster.Stop();
}

TEST(PersistRecoveryTest, FleetNodeDiskRestartRedeliversFromDiskTruth) {
  fleet::FleetOptions options;
  options.num_standbys = 2;
  options.db = PersistClusterOptions(MakeTempDir());
  obs::MetricsRegistry registry;
  options.db.registry = &registry;
  fleet::FleetCluster fleet(options);
  fleet.Start();
  const ObjectId table =
      fleet.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                        ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  for (int batch = 0; batch < 4; ++batch) {
    Transaction txn = fleet.primary()->Begin();
    for (int i = 0; i < kRowsPerBlock / 2; ++i) {
      const int64_t id = next_id++;
      ASSERT_TRUE(fleet.primary()
                      ->Insert(&txn, table,
                               Row{Value(id), Value(id % 9),
                                   Value(std::string("x"))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(fleet.primary()->Commit(&txn).ok());
  }
  ASSERT_NE(fleet.WaitForCatchup(), kInvalidScn);
  ASSERT_TRUE(fleet.node(0)->db()->TakeCheckpoint().ok());

  // The durable-floor gate has been feeding cursor positions to META.
  ASSERT_NE(fleet.node(0)->db()->persist(), nullptr);
  EXPECT_GT(fleet.node(0)->db()->persist()->CursorSeq(0), 0u);

  const Scn scn_before = fleet.node(0)->db()->published_query_scn();
  ASSERT_TRUE(
      fleet.RestartStandby(0, {.crash = true, .from_disk = true}).ok());
  EXPECT_TRUE(fleet.node(0)->accepting());

  // The restarted node catches back up from its archive + redelivery; the
  // untouched sibling was never disturbed.
  ASSERT_NE(fleet.WaitForNodeCatchup(0), kInvalidScn);
  ASSERT_GE(fleet.node(0)->db()->WaitForQueryScn(scn_before, 30'000'000),
            scn_before);
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kCount, 0}};
  for (int i = 0; i < 2; ++i) {
    const auto result = fleet.node(i)->db()->Query(q);
    ASSERT_TRUE(result.ok()) << "node " << i << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->count, static_cast<uint64_t>(next_id)) << "node " << i;
  }
  // A node without persistence cannot take this path.
  fleet.Stop();
}

}  // namespace
}  // namespace stratus
