#include "obs/lag_monitor.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "db/database.h"

namespace stratus {
namespace {

// ---------------------------------------------------------------------------
// Unit level: synthetic sources, exact SCN/µs math.
// ---------------------------------------------------------------------------

struct SyntheticPipeline {
  std::atomic<Scn> primary{100};
  std::atomic<Scn> shipped{100};
  std::atomic<Scn> applied{100};
  std::atomic<Scn> query{100};

  obs::LagSources Sources() {
    return obs::LagSources{
        [this] { return primary.load(std::memory_order_acquire); },
        [this] { return shipped.load(std::memory_order_acquire); },
        [this] { return applied.load(std::memory_order_acquire); },
        [this] { return query.load(std::memory_order_acquire); },
    };
  }
};

TEST(LagMonitorTest, CaughtUpReadsZeroEverywhere) {
  SyntheticPipeline pipe;
  obs::LagMonitor monitor(pipe.Sources(), /*registry=*/nullptr);
  const obs::LagSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.primary_scn, 100u);
  EXPECT_EQ(snap.transport_lag_scn, 0u);
  EXPECT_EQ(snap.apply_lag_scn, 0u);
  EXPECT_EQ(snap.staleness_scn, 0u);
  EXPECT_EQ(snap.transport_lag_us, 0);
  EXPECT_EQ(snap.apply_lag_us, 0);
  EXPECT_EQ(snap.staleness_us, 0);
}

TEST(LagMonitorTest, StalledConsumersLagInScnAndWallClock) {
  SyntheticPipeline pipe;
  obs::LagMonitor monitor(pipe.Sources(), /*registry=*/nullptr);
  monitor.Snapshot();  // Timeline point at SCN 100.

  // Primary advances; every standby-side mark stalls at 100.
  pipe.primary.store(200, std::memory_order_release);
  monitor.Snapshot();  // Timeline point at SCN 200.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const obs::LagSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.transport_lag_scn, 100u);
  // shipped == applied == 100: nothing landed-but-unapplied.
  EXPECT_EQ(snap.apply_lag_scn, 0u);
  EXPECT_EQ(snap.staleness_scn, 100u);
  // The primary first exceeded SCN 100 roughly 20ms ago.
  EXPECT_GE(snap.transport_lag_us, 10'000);
  EXPECT_GE(snap.staleness_us, 10'000);
  EXPECT_EQ(snap.apply_lag_us, 0);

  // Shipping catches up but apply stays behind: the lag moves to the apply
  // stage.
  pipe.shipped.store(200, std::memory_order_release);
  const obs::LagSnapshot mid = monitor.Snapshot();
  EXPECT_EQ(mid.transport_lag_scn, 0u);
  EXPECT_EQ(mid.apply_lag_scn, 100u);
  EXPECT_GE(mid.apply_lag_us, 10'000);

  // Full catchup: everything reads zero again.
  pipe.applied.store(200, std::memory_order_release);
  pipe.query.store(200, std::memory_order_release);
  const obs::LagSnapshot done = monitor.Snapshot();
  EXPECT_EQ(done.transport_lag_scn, 0u);
  EXPECT_EQ(done.apply_lag_scn, 0u);
  EXPECT_EQ(done.staleness_scn, 0u);
  EXPECT_EQ(done.transport_lag_us, 0);
  EXPECT_EQ(done.apply_lag_us, 0);
  EXPECT_EQ(done.staleness_us, 0);
}

TEST(LagMonitorTest, HeartbeatScnsAheadOfPrimaryClampToZero) {
  // Heartbeat records carry SCNs above the primary's visible SCN, so the
  // shipped/applied/query marks can legitimately exceed primary_scn at idle.
  // That must read as caught up, not negative/huge lag.
  SyntheticPipeline pipe;
  pipe.shipped.store(150, std::memory_order_release);
  pipe.applied.store(150, std::memory_order_release);
  pipe.query.store(120, std::memory_order_release);
  obs::LagMonitor monitor(pipe.Sources(), /*registry=*/nullptr);
  const obs::LagSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.transport_lag_scn, 0u);
  EXPECT_EQ(snap.apply_lag_scn, 0u);
  EXPECT_EQ(snap.staleness_scn, 0u);
  // The snapshot remembers the clamp: these zeros are a genuine "caught up",
  // distinguishable from the no-data zeros below.
  EXPECT_TRUE(snap.heartbeat_clamped);
  EXPECT_TRUE(snap.primary_known);
  EXPECT_FALSE(snap.no_data);
}

TEST(LagMonitorTest, NoDataDistinguishedFromCaughtUp) {
  // Before the pipeline reports any consumer mark, every lag reads zero —
  // but those zeros mean "nothing to measure", not "caught up". The explicit
  // flag is the only way a dashboard can tell the states apart.
  SyntheticPipeline pipe;
  pipe.shipped.store(kInvalidScn, std::memory_order_release);
  pipe.applied.store(kInvalidScn, std::memory_order_release);
  pipe.query.store(kInvalidScn, std::memory_order_release);
  obs::LagMonitor monitor(pipe.Sources(), /*registry=*/nullptr);

  const obs::LagSnapshot empty = monitor.Snapshot();
  EXPECT_TRUE(empty.no_data);
  EXPECT_TRUE(empty.primary_known);
  EXPECT_FALSE(empty.heartbeat_clamped);
  // A missing consumer mark reads as position 0: the whole primary history
  // is outstanding. The flag says the marks are absent, not merely behind.
  EXPECT_EQ(empty.transport_lag_scn, 100u);
  EXPECT_EQ(empty.staleness_scn, 100u);

  // One consumer reporting is enough to leave the no-data state.
  pipe.shipped.store(100, std::memory_order_release);
  const obs::LagSnapshot partial = monitor.Snapshot();
  EXPECT_FALSE(partial.no_data);

  // A truly caught-up pipeline: all marks present, no flags.
  pipe.applied.store(100, std::memory_order_release);
  pipe.query.store(100, std::memory_order_release);
  const obs::LagSnapshot caught_up = monitor.Snapshot();
  EXPECT_FALSE(caught_up.no_data);
  EXPECT_FALSE(caught_up.heartbeat_clamped);
  EXPECT_EQ(caught_up.staleness_scn, 0u);
}

TEST(LagMonitorTest, UnknownPrimaryReportedExplicitly) {
  SyntheticPipeline pipe;
  pipe.primary.store(kInvalidScn, std::memory_order_release);
  obs::LagMonitor monitor(pipe.Sources(), /*registry=*/nullptr);
  const obs::LagSnapshot snap = monitor.Snapshot();
  EXPECT_FALSE(snap.primary_known);
  // Without a primary mark no SCN delta is computable; they read zero.
  EXPECT_EQ(snap.transport_lag_scn, 0u);
  EXPECT_EQ(snap.staleness_scn, 0u);
}

TEST(LagMonitorTest, NoDataAndClampStatesPublishAsGauges) {
  SyntheticPipeline pipe;
  pipe.shipped.store(kInvalidScn, std::memory_order_release);
  pipe.applied.store(kInvalidScn, std::memory_order_release);
  pipe.query.store(kInvalidScn, std::memory_order_release);
  obs::MetricsRegistry registry;
  const obs::Labels labels = {{"db", "nd"}};
  obs::LagMonitor monitor(pipe.Sources(), &registry, labels);

  monitor.Snapshot();
  EXPECT_EQ(registry.GetGauge("stratus_lag_no_data", labels)->Value(), 1);
  EXPECT_EQ(registry.GetGauge("stratus_lag_heartbeat_clamped", labels)->Value(),
            0);

  // Idle heartbeats push the consumer marks past the primary: the no-data
  // gauge drops, the clamp gauge rises.
  pipe.shipped.store(150, std::memory_order_release);
  pipe.applied.store(150, std::memory_order_release);
  pipe.query.store(150, std::memory_order_release);
  monitor.Snapshot();
  EXPECT_EQ(registry.GetGauge("stratus_lag_no_data", labels)->Value(), 0);
  EXPECT_EQ(registry.GetGauge("stratus_lag_heartbeat_clamped", labels)->Value(),
            1);
}

TEST(LagMonitorTest, PollerPublishesGaugesIntoRegistry) {
  SyntheticPipeline pipe;
  obs::MetricsRegistry registry;
  obs::LagMonitor monitor(pipe.Sources(), &registry, {{"db", "test"}},
                          /*poll_interval_us=*/1'000);
  monitor.Start();
  while (monitor.polls() < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  monitor.Stop();

  const std::string text = registry.ExportText();
  for (const char* name :
       {"stratus_lag_transport_scn", "stratus_lag_apply_scn",
        "stratus_lag_queryscn_scn", "stratus_lag_transport_us",
        "stratus_lag_apply_us", "stratus_lag_queryscn_us",
        "stratus_primary_scn", "stratus_query_scn", "stratus_lag_no_data",
        "stratus_lag_heartbeat_clamped"}) {
    EXPECT_NE(text.find(std::string(name) + "{db=\"test\"}"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(text.find("stratus_queryscn_staleness_us_count{db=\"test\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Cluster level: real pipeline, fault injection via shipping pause.
// ---------------------------------------------------------------------------

class LagMonitorClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.registry = &registry_;
    options.apply.num_workers = 2;
    options.shipping.heartbeat_interval_us = 500;
    options.lag_poll_interval_us = 1'000;
    cluster_ = std::make_unique<AdgCluster>(options);
    cluster_->Start();
    table_ = cluster_
                 ->CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                               ImService::kStandbyOnly, true)
                 .value();
  }

  void TearDown() override { cluster_->Stop(); }

  void CommitRows(int n) {
    Random rng(42);
    Transaction txn = cluster_->primary()->Begin();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster_->primary()
                      ->Insert(&txn, table_,
                               Row{Value(next_id_++),
                                   Value(static_cast<int64_t>(rng.Uniform(100))),
                                   Value(std::string("x"))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster_->primary()->Commit(&txn).ok());
  }

  obs::MetricsRegistry registry_;
  std::unique_ptr<AdgCluster> cluster_;
  ObjectId table_ = 0;
  int64_t next_id_ = 0;
};

TEST_F(LagMonitorClusterTest, LagDropsToZeroAfterFullApply) {
  CommitRows(512);
  ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);

  const obs::LagSnapshot snap = cluster_->lag_monitor()->Snapshot();
  EXPECT_NE(snap.primary_scn, kInvalidScn);
  EXPECT_EQ(snap.transport_lag_scn, 0u);
  EXPECT_EQ(snap.apply_lag_scn, 0u);
  EXPECT_EQ(snap.staleness_scn, 0u);
  EXPECT_EQ(snap.transport_lag_us, 0);
  EXPECT_EQ(snap.apply_lag_us, 0);
  EXPECT_EQ(snap.staleness_us, 0);
  // A real caught-up pipeline: the zeros are measurements, not absences.
  EXPECT_FALSE(snap.no_data);
  EXPECT_TRUE(snap.primary_known);
  EXPECT_GT(cluster_->lag_monitor()->polls(), 0u);
}

TEST_F(LagMonitorClusterTest, LagGrowsWhileShippingPausedThenRecovers) {
  CommitRows(64);
  ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);

  cluster_->SetShippingPaused(true);
  CommitRows(256);
  // Give the poller time to build wall-clock history past the stall point.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const obs::LagSnapshot stalled = cluster_->lag_monitor()->Snapshot();
  EXPECT_GT(stalled.transport_lag_scn, 0u);
  EXPECT_GT(stalled.staleness_scn, 0u);
  EXPECT_GT(stalled.transport_lag_us, 0);
  EXPECT_GT(stalled.staleness_us, 0);

  cluster_->SetShippingPaused(false);
  ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);
  const obs::LagSnapshot recovered = cluster_->lag_monitor()->Snapshot();
  EXPECT_EQ(recovered.transport_lag_scn, 0u);
  EXPECT_EQ(recovered.apply_lag_scn, 0u);
  EXPECT_EQ(recovered.staleness_scn, 0u);
  EXPECT_EQ(recovered.staleness_us, 0);
}

TEST_F(LagMonitorClusterTest, ClusterExportCoversPipelineAndLag) {
  CommitRows(128);
  ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);
  (void)cluster_->standby()->PopulateNow(table_);
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  ASSERT_TRUE(cluster_->standby()->Query(q).ok());

  // Acceptance floor from the issue: the unified export spans redo transport,
  // redo apply, journal, flush, scan and buffer cache — ≥30 distinct series.
  EXPECT_GE(registry_.SeriesCount(), 30u);
  const std::string text = cluster_->MetricsText();
  for (const char* name :
       {"stratus_redo_shipped_records", "stratus_redo_delivered_records",
        "stratus_apply_applied_cvs", "stratus_journal_anchors_created",
        "stratus_flush_txns", "stratus_scan_queries",
        "stratus_buffer_cache_logical_gets", "stratus_queryscn_advancements",
        "stratus_lag_queryscn_us", "stratus_visible_scn"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // JSON export is non-empty and well-formed at the edges.
  const std::string json = cluster_->MetricsJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"stratus_lag_apply_scn\""), std::string::npos);
}

}  // namespace
}  // namespace stratus
