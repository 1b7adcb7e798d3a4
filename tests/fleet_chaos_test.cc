// Fleet chaos-matrix entry: kill one standby mid-stream under primary write
// churn. The router drains it and keeps the fleet serving; the restarted
// standby rejoins, catches up from its persistent redo cursors, and passes a
// full cross-layer invariant audit.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "chaos/invariant_auditor.h"
#include "common/clock.h"
#include "common/random.h"
#include "fleet/fleet_cluster.h"
#include "fleet/fleet_router.h"

namespace stratus {
namespace {

using fleet::FleetCluster;
using fleet::FleetOptions;
using fleet::FleetRouter;
using fleet::FreshnessContract;
using fleet::RouterOptions;

class FleetChaosTest : public ::testing::TestWithParam<uint64_t> {};

Row MakeRow(int64_t id, Random* rng) {
  return Row{Value(id), Value(static_cast<int64_t>(rng->Uniform(50))),
             Value(static_cast<int64_t>(rng->Uniform(50))),
             Value(std::string("s") + std::to_string(rng->Uniform(6)))};
}

TEST_P(FleetChaosTest, KillOneStandbyFleetKeepsServingRejoinAuditsClean) {
  const uint64_t seed = GetParam();

  FleetOptions options;
  options.num_standbys = 3;
  options.db.apply.num_workers = 2;
  options.db.population.blocks_per_imcu = 2;
  options.db.population.manager_interval_us = 2000;
  options.db.population.repop_invalid_threshold = 0.10;
  options.db.shipping.heartbeat_interval_us = 500;
  obs::MetricsRegistry registry;
  options.db.registry = &registry;
  FleetCluster fleet(options);
  fleet.Start();
  const ObjectId table =
      fleet
          .CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                       ImService::kStandbyOnly, true)
          .value();

  std::atomic<int64_t> next_id{0};
  {
    Transaction txn = fleet.primary()->Begin();
    Random rng(seed);
    for (int i = 0; i < 1024; ++i) {
      ASSERT_TRUE(fleet.primary()
                      ->Insert(&txn, table, MakeRow(next_id.fetch_add(1), &rng),
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(fleet.primary()->Commit(&txn).ok());
  }
  fleet.WaitForCatchup();
  for (int i = 0; i < fleet.num_standbys(); ++i)
    ASSERT_TRUE(fleet.node(i)->db()->PopulateNow(table).ok());

  // Primary churn for the whole scenario: the kill happens mid-stream.
  std::atomic<bool> stop_churn{false};
  std::thread writer([&] {
    Random rng(seed * 5 + 2);
    while (!stop_churn.load(std::memory_order_acquire)) {
      Transaction txn = fleet.primary()->Begin();
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        if (rng.Percent(70)) {
          const int64_t id = rng.UniformInt(0, next_id.load() - 1);
          Status st = fleet.primary()->UpdateByKey(&txn, table, id,
                                                   MakeRow(id, &rng));
          if (st.IsAborted()) ok = false;
        } else {
          (void)fleet.primary()->Insert(&txn, table,
                                        MakeRow(next_id.fetch_add(1), &rng),
                                        nullptr);
        }
      }
      if (ok) {
        (void)fleet.primary()->Commit(&txn);
      } else {
        fleet.primary()->Abort(&txn);
      }
    }
  });

  RouterOptions router_options;
  router_options.backoff_base_us = 1000;
  FleetRouter router(&fleet, router_options);
  ScanQuery q;
  q.object = table;
  q.aggregates = {{AggKind::kSum, 2}};
  const FreshnessContract bounded = FreshnessContract::BoundedScn(1'000'000);

  auto serve_burst = [&](int n) {
    int served = 0;
    for (int i = 0; i < n; ++i) {
      const auto routed = router.Query(q, bounded);
      if (routed.ok()) {
        ++served;
        EXPECT_NE(routed->decision.node_id, 1)
            << "query served by the killed standby";
      }
    }
    return served;
  };

  // Warm routing, then kill standby 1 mid-stream.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(router.Query(q, bounded).ok());
  fleet.StopStandby(1);
  EXPECT_TRUE(router.IsDrained(1));

  // The fleet keeps serving from the survivors throughout the outage.
  EXPECT_EQ(serve_burst(40), 40);

  // Rejoin: reopened streams + persistent cursors -> full catch-up.
  fleet.RestartStandby(1);
  const Scn caught_up = fleet.WaitForNodeCatchup(1);
  ASSERT_NE(caught_up, kInvalidScn);
  ASSERT_TRUE(fleet.node(1)->db()->PopulateNow(table).ok());

  // The rejoined standby serves strict traffic again.
  EXPECT_FALSE(router.IsDrained(1));
  const uint64_t served_before = fleet.node(1)->served();
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(router.Query(q, bounded).ok());
  EXPECT_GT(fleet.node(1)->served(), served_before);

  stop_churn.store(true, std::memory_order_release);
  writer.join();

  // Quiesce, then run the full cross-layer audit on every standby — the
  // rejoined one included.
  const Scn floor = fleet.WaitForCatchup();
  ASSERT_NE(floor, kInvalidScn);
  for (int i = 0; i < fleet.num_standbys(); ++i) {
    chaos::InvariantAuditor auditor(fleet.primary(), fleet.node(i)->db(),
                                    {table});
    chaos::AuditOptions audit;
    audit.min_query_scn = floor;
    const chaos::AuditReport report = auditor.Run(audit);
    EXPECT_TRUE(report.ok())
        << "standby " << i << " seed " << seed << "\n" << report.ToString();
  }
  EXPECT_EQ(router.stats().freshness_violations, 0u);

  fleet.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetChaosTest, ::testing::Values(1u, 2u));

}  // namespace
}  // namespace stratus
