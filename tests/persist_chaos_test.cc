// Chaos-matrix coverage for the durability subsystem: the same seeded
// crash-point cycles as chaos_matrix_test, but every fired crash is followed
// by a kill-and-recover-FROM-DISK cycle (crash teardown, archived-redo
// replay over the last fuzzy checkpoint, IMCS snapshot resume) instead of
// the in-memory crash restart. The I1-I7 auditor certifies the recovered
// state equals pre-crash state, and the QuerySCN floor carried across
// cycles proves a disk restart never regresses the published snapshot.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "chaos/chaos_harness.h"
#include "db/database.h"

namespace stratus {
namespace {

using chaos::ChaosController;
using chaos::CrashCycleDriver;
using chaos::CrashPoint;
using chaos::CycleResult;
using chaos::HarnessOptions;

// Disk cycles are heavier than in-memory ones (recovery replays the archive
// each fire), so the default seed count is lower than chaos_matrix_test's;
// STRATUS_CHAOS_SEEDS overrides both the same way.
int SeedCount() {
  if (const char* env = std::getenv("STRATUS_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

std::string MakeTempDir() {
  std::string tmpl = testing::TempDir() + "stratus_diskchaos_XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

DatabaseOptions DiskMatrixOptions(int dop, ChaosController* chaos,
                                  obs::MetricsRegistry* registry,
                                  const std::string& dir) {
  DatabaseOptions options;
  options.apply.num_workers = dop;
  options.shipping.heartbeat_interval_us = 500;
  options.population.blocks_per_imcu = 2;
  options.population.repop_invalid_threshold = 0.05;
  options.population.repop_staleness_us = 100'000;
  options.population.manager_interval_us = 2'000;
  options.chaos = chaos;
  options.apply_accounting = true;
  options.registry = registry;
  options.persist.enabled = true;
  options.persist.data_dir = dir;
  return options;
}

void RunDiskMatrixForDop(int dop) {
  const int seeds = SeedCount();
  for (int seed = 1; seed <= seeds; ++seed) {
    ChaosController chaos;
    obs::MetricsRegistry registry;
    AdgCluster cluster(
        DiskMatrixOptions(dop, &chaos, &registry, MakeTempDir()));
    cluster.Start();
    const ObjectId table =
        cluster
            .CreateTable("chaos", kDefaultTenant, Schema::WideTable(1, 1),
                         ImService::kStandbyOnly, true)
            .value();

    HarnessOptions harness;
    harness.seed =
        0xD1B54A32D192ED03ull * static_cast<uint64_t>(seed) + dop;
    harness.disk_restart = true;
    CrashCycleDriver driver(&cluster, &chaos, table, harness);

    for (size_t p = 0; p < chaos::kNumCrashPoints; ++p) {
      const CrashPoint point = static_cast<CrashPoint>(p);
      std::ostringstream trace;
      trace << "disk dop=" << dop << " seed=" << seed << " point="
            << chaos::CrashPointName(point);
      SCOPED_TRACE(trace.str());
      const CycleResult result = driver.RunCycle(point);
      EXPECT_TRUE(result.report.ok())
          << result.report.ToString() << "\n(fired=" << result.fired
          << " armed_nth=" << result.armed_nth << ")";
      EXPECT_NE(result.query_scn, kInvalidScn);
      if (!result.report.ok()) return;  // First failure tells the story.
      // Checkpoint between cycles so later recoveries exercise the
      // checkpoint + replay + segment-recycling combination, not just
      // replay-everything-from-scratch.
      if (p % 3 == 2)
        ASSERT_TRUE(cluster.standby()->TakeCheckpoint().ok());
    }
    if (chaos::CrashPointsCompiledIn()) {
      EXPECT_GE(driver.cycles_fired(), chaos::kNumCrashPoints / 2)
          << "disk dop=" << dop << " seed=" << seed;
      // Fired cycles actually went through disk recovery, not the in-memory
      // restart path. (The persist controller is rebuilt per restart, so its
      // own recovery counter resets; the db-level counter is cumulative.)
      EXPECT_EQ(cluster.standby()->disk_restarts(), driver.cycles_fired());
      if (driver.cycles_fired() > 0)
        EXPECT_GE(cluster.standby()->PersistStatsSnapshot().recoveries, 1u);
    }
    cluster.Stop();
  }
}

TEST(PersistChaosTest, DiskRecoveryMatrixDop1) { RunDiskMatrixForDop(1); }
TEST(PersistChaosTest, DiskRecoveryMatrixDop2) { RunDiskMatrixForDop(2); }

}  // namespace
}  // namespace stratus
