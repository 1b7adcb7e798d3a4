#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_harness.h"
#include "chaos/crash_point.h"
#include "chaos/invariant_auditor.h"
#include "db/database.h"

namespace stratus {
namespace {

using chaos::ChaosController;
using chaos::CrashPoint;
using chaos::CrashSignal;

DatabaseOptions ChaosOptions(ChaosController* chaos,
                             obs::MetricsRegistry* registry) {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.population.manager_interval_us = 1'000'000;
  options.shipping.heartbeat_interval_us = 500;
  options.chaos = chaos;
  options.registry = registry;
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
  auto result = standby->Query(q);
  EXPECT_TRUE(result.ok());
  return result.ok() ? result.value().count : 0;
}

// --- Controller unit tests ---------------------------------------------------

TEST(CrashPointTest, NthHitFiresExactlyOnceThenDisarms) {
  ChaosController chaos;
  chaos.Arm(CrashPoint::kWorkerApply, 3);
  EXPECT_TRUE(chaos.armed());

  chaos.Hit(CrashPoint::kWorkerApply);
  chaos.Hit(CrashPoint::kWorkerApply);
  // A different point never fires the armed one.
  chaos.Hit(CrashPoint::kWorkerDequeue);
  EXPECT_FALSE(chaos.fired());

  bool threw = false;
  try {
    chaos.Hit(CrashPoint::kWorkerApply);
  } catch (const CrashSignal& signal) {
    threw = true;
    EXPECT_EQ(signal.point, CrashPoint::kWorkerApply);
    EXPECT_EQ(signal.hit, 3u);
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(chaos.fired());
  EXPECT_EQ(chaos.fired_point(), CrashPoint::kWorkerApply);
  EXPECT_EQ(chaos.fired_hit(), 3u);
  EXPECT_FALSE(chaos.armed());

  // One-shot: further hits never throw.
  chaos.Hit(CrashPoint::kWorkerApply);
  chaos.Hit(CrashPoint::kWorkerApply);
  EXPECT_GE(chaos.hits(CrashPoint::kWorkerApply), 5u);
}

TEST(CrashPointTest, WaitForFireBlocksUntilAnotherThreadFires) {
  ChaosController chaos;
  chaos.Arm(CrashPoint::kFlushStep, 1);
  EXPECT_FALSE(chaos.WaitForFire(10'000));  // Times out: nothing hit yet.

  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    try {
      chaos.Hit(CrashPoint::kFlushStep);
    } catch (const CrashSignal&) {
    }
  });
  EXPECT_TRUE(chaos.WaitForFire(5'000'000));
  firer.join();
  EXPECT_TRUE(chaos.fired());
}

TEST(CrashPointTest, NamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (size_t p = 0; p < chaos::kNumCrashPoints; ++p) {
    const char* name = chaos::CrashPointName(static_cast<CrashPoint>(p));
    ASSERT_NE(name, nullptr);
    for (const std::string& seen : names) EXPECT_NE(seen, name);
    names.push_back(name);
  }
  EXPECT_STREQ(chaos::CrashPointName(CrashPoint::kDispatchHandoff),
               "dispatch_handoff");
}

TEST(CrashPointTest, ApplyErrorInjectionIsOneShot) {
  ChaosController chaos;
  EXPECT_FALSE(chaos.ShouldFailApply());  // Disarmed.
  chaos.ArmApplyError(2);
  EXPECT_FALSE(chaos.ShouldFailApply());  // First data apply: not yet.
  EXPECT_TRUE(chaos.ShouldFailApply());   // Second: the armed one.
  EXPECT_FALSE(chaos.ShouldFailApply());  // Disarmed again.
  EXPECT_EQ(chaos.apply_errors_injected(), 1u);
}

// --- Satellite: WaitForQueryScn must return when the coordinator stops ------

TEST(ChaosTest, WaitForQueryScnReturnsPromptlyOnStop) {
  obs::MetricsRegistry registry;
  AdgCluster cluster(ChaosOptions(nullptr, &registry));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 16);
  const Scn reached = cluster.WaitForCatchup();
  ASSERT_NE(reached, kInvalidScn);

  // Wait for an SCN no redo will ever reach, with a generous timeout; a
  // Stop() must wake the waiter immediately instead of leaving it to hang
  // until the timeout (the pre-fix behavior).
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter([&] {
    cluster.standby()->WaitForQueryScn(reached + 1'000'000, 60'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cluster.standby()->coordinator()->Stop();
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  cluster.Stop();
}

// --- Satellite: a failed apply quarantines its IMCU, not silence ------------

TEST(ChaosTest, ApplyErrorQuarantinesImcuAndLatchesHealth) {
  ChaosController chaos;
  obs::MetricsRegistry registry;
  AdgCluster cluster(ChaosOptions(&chaos, &registry));
  cluster.Start();
  StandbyDb* standby = cluster.standby();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 2 * kRowsPerBlock);
  cluster.WaitForCatchup();
  ASSERT_TRUE(standby->PopulateNow(table).ok());
  ASSERT_GT(standby->im_store()->Stats().smus_ready, 0u);
  EXPECT_FALSE(standby->degraded());

  // The next data change vector's apply reports failure (after the physical
  // write, so row store and IMCS could silently diverge without quarantine).
  chaos.ArmApplyError(1);
  Transaction txn = cluster.primary()->Begin();
  ASSERT_TRUE(cluster.primary()
                  ->UpdateByKey(&txn, table, 3,
                                Row{Value(int64_t{3}), Value(int64_t{777}),
                                    Value(std::string("upd"))})
                  .ok());
  ASSERT_TRUE(cluster.primary()->Commit(&txn).ok());
  cluster.WaitForCatchup();

  EXPECT_TRUE(standby->degraded());
  const StandbyHealth health = standby->health();
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.apply_errors, 1u);
  EXPECT_GE(health.quarantined_imcus, 1u);
  EXPECT_NE(health.first_error.find("chaos"), std::string::npos);
  EXPECT_EQ(chaos.apply_errors_injected(), 1u);

  // The pipeline keeps applying after the error (degraded, not dead).
  Load(&cluster, table, &next_id, 8);
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(standby, table), static_cast<uint64_t>(next_id));

  // Queries stay correct: the quarantined IMCU is fully invalid, so the scan
  // falls back to the row store for every one of its rows.
  ScanQuery q;
  q.object = table;
  auto result = standby->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().count, static_cast<uint64_t>(next_id));
  EXPECT_EQ(result.value().stats.rows_from_imcs, 0u);
  auto fetched = standby->Fetch(table, 3);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched.value().has_value());
  EXPECT_EQ(fetched.value()->at(1), Value(int64_t{777}));

  // The error surfaces in metrics, and a restart clears the degraded latch
  // (the quarantined IMCS is discarded and rebuilt from consistent data).
  const std::string metrics = standby->MetricsText();
  EXPECT_NE(metrics.find("stratus_apply_errors_total"), std::string::npos);
  EXPECT_NE(metrics.find("stratus_standby_degraded"), std::string::npos);
  standby->Restart();
  EXPECT_FALSE(standby->degraded());
  EXPECT_EQ(standby->health().apply_errors, 1u);  // Counters stay monotonic.
  cluster.WaitForCatchup();
  EXPECT_EQ(CountRows(standby, table), static_cast<uint64_t>(next_id));
  cluster.Stop();
}

// --- Satellite: partial transactions discarded across a crash restart -------

TEST(ChaosTest, PartialTransactionJournalDiscardedOnCrashRestart) {
  ChaosController chaos;
  obs::MetricsRegistry registry;
  AdgCluster cluster(ChaosOptions(&chaos, &registry));
  cluster.Start();
  StandbyDb* standby = cluster.standby();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  int64_t next_id = 0;
  Load(&cluster, table, &next_id, 2 * kRowsPerBlock);
  cluster.WaitForCatchup();
  ASSERT_TRUE(standby->PopulateNow(table).ok());

  // A transaction updates the IM table but does not commit: its begin + DML
  // records sit in the journal (has_begin set, no commit yet).
  Transaction straddler = cluster.primary()->Begin();
  ASSERT_TRUE(cluster.primary()
                  ->UpdateByKey(&straddler, table, 3,
                                Row{Value(int64_t{3}), Value(int64_t{777}),
                                    Value(std::string("mid"))})
                  .ok());
  Load(&cluster, table, &next_id, 1);  // Marker commit pushes the QuerySCN.
  cluster.WaitForCatchup();

  if (chaos::CrashPointsCompiledIn()) {
    // Kill a pipeline thread mid-mine so the crash lands with the journal
    // populated, then crash-restart.
    chaos.Arm(CrashPoint::kJournalMine, 1);
    Load(&cluster, table, &next_id, 4);
    ASSERT_TRUE(chaos.WaitForFire(10'000'000));
    chaos.Disarm();
  }
  ASSERT_TRUE(standby->Restart({.crash = true}).ok());
  EXPECT_EQ(standby->crash_restarts(), 1u);
  cluster.WaitForCatchup();
  ASSERT_TRUE(standby->PopulateNow(table).ok());

  // The straddler commits after the restart. Its commit record carries the
  // IM flag but the rebuilt journal has no records for it (has_begin ==
  // false) — the flush must fall back to coarse invalidation, never apply a
  // partial record set.
  ASSERT_TRUE(cluster.primary()->Commit(&straddler).ok());
  cluster.WaitForCatchup();
  EXPECT_GE(standby->im_store()->Stats().coarse_invalidations, 1u);

  // And the data converges: standby equals primary, including the straddler.
  EXPECT_EQ(CountRows(standby, table), static_cast<uint64_t>(next_id));
  auto fetched = standby->Fetch(table, 3);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched.value().has_value());
  EXPECT_EQ(fetched.value()->at(1), Value(int64_t{777}));
  cluster.Stop();
}

// --- Satellite: watermark publication order (TSan regression) ---------------

// Run under TSan, this test catches any weakening of the release store in
// RecoveryWorker's watermark publication / the acquire load in
// applied_watermark(): a reader thread continuously folds the per-worker
// watermarks (CandidateScn) while the apply pipeline churns.
TEST(ChaosTest, WatermarkFoldIsRaceFreeAndMonotonic) {
  obs::MetricsRegistry registry;
  AdgCluster cluster(ChaosOptions(nullptr, &registry));
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();
  RecoveryCoordinator* coordinator = cluster.standby()->coordinator();
  ASSERT_NE(coordinator, nullptr);

  std::atomic<bool> stop{false};
  std::vector<std::string> violations;
  std::thread reader([&] {
    Scn last_candidate = kInvalidScn;
    while (!stop.load(std::memory_order_acquire)) {
      const Scn published = coordinator->query_scn();
      const Scn candidate = coordinator->CandidateScn();
      if (candidate != kInvalidScn && last_candidate != kInvalidScn &&
          candidate < last_candidate) {
        violations.push_back("candidate watermark regressed");
        break;
      }
      if (candidate != kInvalidScn) last_candidate = candidate;
      // Published-before-candidate read order: a published SCN can never be
      // ahead of the watermark fold taken afterwards.
      if (published != kInvalidScn && candidate != kInvalidScn &&
          published > candidate) {
        violations.push_back("published QuerySCN above the watermark fold");
        break;
      }
    }
  });

  int64_t next_id = 0;
  for (int batch = 0; batch < 40; ++batch) Load(&cluster, table, &next_id, 8);
  cluster.WaitForCatchup();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(CountRows(cluster.standby(), table), static_cast<uint64_t>(next_id));
  cluster.Stop();
}

// --- One full crash–restart cycle through the harness ------------------------

TEST(ChaosTest, SingleCrashCycleConvergesAndPassesAudit) {
  ChaosController chaos;
  obs::MetricsRegistry registry;
  DatabaseOptions options = ChaosOptions(&chaos, &registry);
  options.apply_accounting = true;
  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                          ImService::kStandbyOnly, true)
          .value();

  chaos::HarnessOptions harness;
  harness.seed = 42;
  chaos::CrashCycleDriver driver(&cluster, &chaos, table, harness);
  const chaos::CycleResult result = driver.RunCycle(CrashPoint::kWorkerApply);
  EXPECT_TRUE(result.report.ok()) << result.report.ToString();
  EXPECT_NE(result.query_scn, kInvalidScn);
  if (chaos::CrashPointsCompiledIn()) {
    EXPECT_TRUE(result.fired);
    EXPECT_EQ(cluster.standby()->crash_restarts(), 1u);
  }
  cluster.Stop();
}

}  // namespace
}  // namespace stratus
