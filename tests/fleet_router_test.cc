// Lag-aware routing over a 3-standby fleet: contract selection, the strict
// freshness floor, sticky pinned sessions, load spreading, and drain/rejoin.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "fleet/fleet_cluster.h"
#include "fleet/fleet_observability.h"
#include "fleet/fleet_router.h"
#include "obs/obs_server.h"

namespace stratus {
namespace {

using fleet::FleetCluster;
using fleet::FleetOptions;
using fleet::FleetRouter;
using fleet::FreshnessContract;
using fleet::RouterOptions;

/// Minimal blocking HTTP GET against the loopback ObsServer (same helper
/// shape as obs_server_test).
bool HttpGet(int port, const std::string& path, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string raw = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  *body = response.substr(header_end + 4);
  return true;
}

class FleetRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FleetOptions options;
    options.num_standbys = 3;
    options.db.apply.num_workers = 2;
    options.db.population.blocks_per_imcu = 2;
    options.db.population.manager_interval_us = 2000;
    options.db.shipping.heartbeat_interval_us = 500;
    options.db.registry = &registry_;
    fleet_ = std::make_unique<FleetCluster>(options);
    fleet_->Start();
    table_ = fleet_
                 ->CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                               ImService::kStandbyOnly, true)
                 .value();
    InsertRows(0, 512);
    fleet_->WaitForCatchup();
    for (int i = 0; i < fleet_->num_standbys(); ++i)
      ASSERT_TRUE(fleet_->node(i)->db()->PopulateNow(table_).ok());
  }

  void TearDown() override { fleet_->Stop(); }

  void InsertRows(int64_t from, int64_t count) {
    Random rng(static_cast<uint64_t>(from) + 7);
    Transaction txn = fleet_->primary()->Begin();
    for (int64_t id = from; id < from + count; ++id) {
      Row row{Value(id), Value(static_cast<int64_t>(rng.Uniform(50))),
              Value(static_cast<int64_t>(rng.Uniform(50))),
              Value(std::string("s") + std::to_string(rng.Uniform(6)))};
      ASSERT_TRUE(
          fleet_->primary()->Insert(&txn, table_, std::move(row), nullptr).ok());
    }
    ASSERT_TRUE(fleet_->primary()->Commit(&txn).ok());
  }

  ScanQuery SumQuery() const {
    ScanQuery q;
    q.object = table_;
    q.aggregates = {{AggKind::kSum, 2}};
    return q;
  }

  obs::MetricsRegistry registry_;
  std::unique_ptr<FleetCluster> fleet_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(FleetRouterTest, StrictServesAtOrAboveDecisionWatermark) {
  FleetRouter router(fleet_.get(), RouterOptions{});
  for (int i = 0; i < 20; ++i) {
    InsertRows(1000 + i * 8, 8);
    const auto routed = router.Query(SumQuery(), FreshnessContract::Strict());
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_NE(routed->decision.decision_watermark, kInvalidScn);
    // The strict contract: the served snapshot is never below the freshest
    // published QuerySCN observed at decision time.
    EXPECT_GE(routed->result.snapshot, routed->decision.decision_watermark);
    EXPECT_GE(routed->decision.node_id, 0);
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.strict_queries, 20u);
  EXPECT_EQ(stats.freshness_violations, 0u);
}

TEST_F(FleetRouterTest, BoundedSpreadsLoadAcrossFleet) {
  FleetRouter router(fleet_.get(), RouterOptions{});
  fleet_->WaitForCatchup();
  for (int i = 0; i < 60; ++i) {
    const auto routed =
        router.Query(SumQuery(), FreshnessContract::BoundedScn(1'000'000));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    // Within bound relative to the primary SCN the router decided against.
    EXPECT_LE(routed->decision.primary_scn,
              routed->result.snapshot + 1'000'000);
  }
  // Least-loaded spreading: with a generous bound every node takes traffic.
  for (int i = 0; i < fleet_->num_standbys(); ++i)
    EXPECT_GT(fleet_->node(i)->served(), 0u) << "node " << i << " idle";
  EXPECT_EQ(router.stats().freshness_violations, 0u);
}

TEST_F(FleetRouterTest, BoundedMsUsesLagMonitorStaleness) {
  FleetRouter router(fleet_.get(), RouterOptions{});
  fleet_->WaitForCatchup();
  for (int i = 0; i < 20; ++i) {
    // 10s staleness budget: every caught-up node qualifies.
    const auto routed =
        router.Query(SumQuery(), FreshnessContract::BoundedMs(10'000));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    // The bounded-ms audit floor: never staler than the chosen node's
    // published QuerySCN at decision time.
    EXPECT_GE(routed->result.snapshot, routed->decision.node_scn);
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.bounded_queries, 20u);
  EXPECT_EQ(stats.freshness_violations, 0u);
}

TEST_F(FleetRouterTest, PinnedIsStickyAndByteIdenticalAcrossSessions) {
  FleetRouter router(fleet_.get(), RouterOptions{});
  const Scn pin = fleet_->WaitForCatchup();
  ASSERT_NE(pin, kInvalidScn);
  // Churn past the pin so pinned reads are genuinely historical.
  InsertRows(5000, 256);

  // One session re-reading its pin sticks to one node...
  int first_node = -1;
  uint64_t baseline_count = 0;
  int64_t baseline_agg = 0;
  for (int i = 0; i < 5; ++i) {
    const auto routed =
        router.Query(SumQuery(), FreshnessContract::PinnedAt(pin, /*session=*/7));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed->result.snapshot, pin);
    if (first_node < 0) {
      first_node = routed->decision.node_id;
      baseline_count = routed->result.count;
      baseline_agg = routed->result.agg_int;
    } else {
      EXPECT_EQ(routed->decision.node_id, first_node);
      EXPECT_TRUE(routed->decision.sticky);
      EXPECT_EQ(routed->result.count, baseline_count);
      EXPECT_EQ(routed->result.agg_int, baseline_agg);
    }
  }
  EXPECT_GE(router.stats().sticky_hits, 4u);

  // ...and other sessions, wherever routed, read the identical snapshot.
  for (uint64_t session = 100; session < 110; ++session) {
    const auto routed =
        router.Query(SumQuery(), FreshnessContract::PinnedAt(pin, session));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed->result.snapshot, pin);
    EXPECT_EQ(routed->result.count, baseline_count);
    EXPECT_EQ(routed->result.agg_int, baseline_agg);
  }
  EXPECT_EQ(router.stats().freshness_violations, 0u);
}

// The fleet's one join route: a fact-to-dimension join under strict and
// pinned contracts returns exactly the primary's rows at the served SCN.
TEST_F(FleetRouterTest, MultiJoinMatchesPrimaryAtServedSnapshot) {
  const ObjectId dim =
      fleet_
          ->CreateTable("dim", kDefaultTenant, Schema::WideTable(1, 1),
                        ImService::kStandbyOnly, true)
          .value();
  Transaction txn = fleet_->primary()->Begin();
  for (int64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(fleet_->primary()
                    ->Insert(&txn, dim,
                             Row{Value(id), Value(id * 10),
                                 Value(std::string("d") + std::to_string(id))},
                             nullptr)
                    .ok());
  }
  ASSERT_TRUE(fleet_->primary()->Commit(&txn).ok());
  FleetRouter router(fleet_.get(), RouterOptions{});
  const Scn pin = fleet_->WaitForCatchup();
  ASSERT_NE(pin, kInvalidScn);
  InsertRows(5000, 256);

  MultiJoinQuery mj;
  mj.fact = table_;
  mj.joins = {JoinEdge{dim, 1, 0, {}}};  // fact.n1 (0..49) = dim.id (0..9).

  const auto strict = router.MultiJoin(mj, FreshnessContract::Strict());
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  const auto strict_primary =
      fleet_->primary()->MultiJoinAt(mj, strict->result.snapshot);
  ASSERT_TRUE(strict_primary.ok()) << strict_primary.status().ToString();
  EXPECT_FALSE(strict->result.rows.empty());
  EXPECT_EQ(strict->result.rows, strict_primary->rows);

  const auto at_pin = fleet_->primary()->MultiJoinAt(mj, pin);
  ASSERT_TRUE(at_pin.ok()) << at_pin.status().ToString();
  for (uint64_t session = 0; session < 6; ++session) {
    const auto routed =
        router.MultiJoin(mj, FreshnessContract::PinnedAt(pin, session));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed->result.snapshot, pin);
    EXPECT_EQ(routed->result.rows, at_pin->rows) << "session=" << session;
  }
  EXPECT_EQ(router.stats().freshness_violations, 0u);
}

TEST_F(FleetRouterTest, DrainsStoppedNodeAndServesFromRest) {
  FleetRouter router(fleet_.get(), RouterOptions{});
  fleet_->StopStandby(1);
  EXPECT_TRUE(router.IsDrained(1));

  for (int i = 0; i < 30; ++i) {
    const auto routed =
        router.Query(SumQuery(), FreshnessContract::BoundedScn(1'000'000));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_NE(routed->decision.node_id, 1) << "routed to a stopped standby";
  }

  // Rejoin: the node catches up and takes traffic again.
  fleet_->RestartStandby(1);
  ASSERT_NE(fleet_->WaitForNodeCatchup(1), kInvalidScn);
  ASSERT_TRUE(fleet_->node(1)->db()->PopulateNow(table_).ok());
  EXPECT_FALSE(router.IsDrained(1));
  const uint64_t served_before = fleet_->node(1)->served();
  for (int i = 0; i < 40; ++i) {
    const auto routed =
        router.Query(SumQuery(), FreshnessContract::BoundedScn(1'000'000));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  }
  EXPECT_GT(fleet_->node(1)->served(), served_before)
      << "rejoined standby got no traffic";
  EXPECT_EQ(router.stats().freshness_violations, 0u);
}

// A restart of a node that was never stopped, under a live writer: its
// shippers are replaced rather than joined by a second set on the same
// streams and cursors, and the node converges to exactly the primary's rows.
TEST_F(FleetRouterTest, RestartOfRunningNodeReplacesItsShippers) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int64_t from = 100'000; !stop.load(std::memory_order_acquire);
         from += 8) {
      InsertRows(from, 8);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Status st = fleet_->RestartStandby(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true, std::memory_order_release);
  writer.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(fleet_->node(1)->accepting());

  // Exactly one frames_sent series per (node, redo thread).
  const std::string text = fleet_->MetricsText();
  for (int i = 0; i < fleet_->num_standbys(); ++i) {
    for (int t = 0; t < fleet_->primary()->redo_threads(); ++t) {
      const std::string series =
          "stratus_net_frames_sent{channel=\"redo-" + std::to_string(t) +
          "\",role=\"transport\",standby=\"sb" + std::to_string(i) + "\"}";
      int found = 0;
      for (size_t pos = text.find(series); pos != std::string::npos;
           pos = text.find(series, pos + 1))
        ++found;
      EXPECT_EQ(found, 1) << series;
    }
  }

  ASSERT_NE(fleet_->WaitForNodeCatchup(1), kInvalidScn);
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto on_primary = fleet_->primary()->Query(q);
  const auto on_node = fleet_->node(1)->db()->Query(q);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_TRUE(on_node.ok()) << on_node.status().ToString();
  EXPECT_EQ(on_node->count, on_primary->count);
}

// Node restarts replace a node's shippers while the fleet's metrics callback
// iterates every node's shippers; a scrape racing them must read a whole
// vector, never one being swapped out (TSan reports the unguarded read).
TEST_F(FleetRouterTest, ScrapeDuringNodeRestartsIsRaceFree) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_NE(fleet_->MetricsText().find("stratus_redo_shipped_bytes"),
                std::string::npos);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int round = 0; round < 4; ++round) {
    InsertRows(200'000 + round * 64, 64);
    EXPECT_TRUE(fleet_->RestartStandby(1).ok());
    fleet_->StopStandby(2);
    EXPECT_TRUE(fleet_->RestartStandby(2).ok());
  }
  stop.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(std::memory_order_relaxed), 0u);
  EXPECT_TRUE(fleet_->node(1)->accepting());
  EXPECT_TRUE(fleet_->node(2)->accepting());
}

TEST_F(FleetRouterTest, NoCandidateWhenEveryStandbyDown) {
  RouterOptions options;
  options.backoff_base_us = 1000;
  options.max_attempts = 3;
  FleetRouter router(fleet_.get(), options);
  for (int i = 0; i < fleet_->num_standbys(); ++i) fleet_->StopStandby(i);

  const auto routed = router.Query(SumQuery(), FreshnessContract::Strict());
  EXPECT_FALSE(routed.ok());
  EXPECT_GE(router.stats().no_candidate, 1u);

  for (int i = 0; i < fleet_->num_standbys(); ++i) fleet_->RestartStandby(i);
  fleet_->WaitForCatchup();
  const auto recovered = router.Query(SumQuery(), FreshnessContract::Strict());
  EXPECT_TRUE(recovered.ok());
}

// Acceptance surface: /v/fleet over a real ObsServer socket reports
// per-standby lag, health, and load share plus the router counters.
TEST_F(FleetRouterTest, ObsServerServesFleetView) {
  FleetRouter router(fleet_.get(), RouterOptions{});
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        router.Query(SumQuery(), FreshnessContract::BoundedScn(1'000'000)).ok());
  }
  fleet::FleetObservability surface(fleet_.get(), &router);

  obs::ObsServer server;
  surface.Register(&server);
  ASSERT_TRUE(server.Start().ok());
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/v/fleet", &body));
  server.Stop();

  EXPECT_NE(body.find("\"nodes\":["), std::string::npos) << body;
  EXPECT_NE(body.find("\"name\":\"sb0\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"name\":\"sb2\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"load_share\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"staleness_us\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"router\":{\"decisions\":9"), std::string::npos) << body;
  EXPECT_NE(body.find("\"freshness_violations\":0"), std::string::npos) << body;
}

}  // namespace
}  // namespace stratus
