#include "obs/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/crash_point.h"
#include "common/random.h"
#include "db/database.h"
#include "db/introspection.h"

namespace stratus {
namespace {

/// Minimal blocking HTTP client: sends `raw` verbatim, reads to EOF, parses
/// the HTTP/1.0 status line and splits off the body.
bool HttpRaw(int port, const std::string& raw, int* status, std::string* body) {
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

  // "HTTP/1.0 NNN ...\r\n...\r\n\r\n<body>"
  if (response.compare(0, 5, "HTTP/") != 0) return false;
  const size_t sp = response.find(' ');
  if (sp == std::string::npos || response.size() < sp + 4) return false;
  *status = std::atoi(response.substr(sp + 1, 3).c_str());
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  *body = response.substr(header_end + 4);
  return true;
}

bool HttpGet(int port, const std::string& path, int* status, std::string* body) {
  return HttpRaw(port, "GET " + path + " HTTP/1.0\r\n\r\n", status, body);
}

TEST(ObsServerTest, DispatchesExactAndPrefixHandlers) {
  obs::ObsServer server;
  server.Handle("/echo", [](const obs::HttpRequest& req) {
    obs::HttpResponse resp;
    resp.body = req.path + "|" + req.query;
    return resp;
  });
  server.Handle("/v/exact", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain", "exact"};
  });
  server.HandlePrefix("/v/", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain", "short-prefix"};
  });
  server.HandlePrefix("/v/deep/", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain", "long-prefix"};
  });
  ASSERT_TRUE(server.Start().ok());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/echo?a=1&b=2", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "/echo|a=1&b=2");

  // Exact beats prefix; among prefixes the longest wins.
  ASSERT_TRUE(HttpGet(server.port(), "/v/exact", &status, &body));
  EXPECT_EQ(body, "exact");
  ASSERT_TRUE(HttpGet(server.port(), "/v/deep/x", &status, &body));
  EXPECT_EQ(body, "long-prefix");
  ASSERT_TRUE(HttpGet(server.port(), "/v/other", &status, &body));
  EXPECT_EQ(body, "short-prefix");

  server.Stop();
}

TEST(ObsServerTest, RejectsBadRequests) {
  obs::ObsServerOptions options;
  options.max_request_bytes = 256;
  obs::ObsServer server(options);
  server.Handle("/ok", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());

  int status = 0;
  std::string body;
  // Unknown path → 404.
  ASSERT_TRUE(HttpGet(server.port(), "/nope", &status, &body));
  EXPECT_EQ(status, 404);
  // Non-GET → 405.
  ASSERT_TRUE(HttpRaw(server.port(), "POST /ok HTTP/1.0\r\n\r\n", &status, &body));
  EXPECT_EQ(status, 405);
  // Malformed request line → 400.
  ASSERT_TRUE(HttpRaw(server.port(), "BOGUS\r\n\r\n", &status, &body));
  EXPECT_EQ(status, 400);
  // Oversized header block → 431.
  const std::string big =
      "GET /" + std::string(4096, 'x') + " HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(HttpRaw(server.port(), big, &status, &body));
  EXPECT_EQ(status, 431);

  EXPECT_EQ(server.requests_served(), 4u);
  server.Stop();
}

TEST(ObsServerTest, PublishesRequestCountersIntoRegistry) {
  obs::MetricsRegistry registry;
  obs::ObsServerOptions options;
  options.registry = &registry;
  obs::ObsServer server(options);
  server.Handle("/ok", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/ok", &status, &body));
  ASSERT_TRUE(HttpGet(server.port(), "/missing", &status, &body));
  server.Stop();

  EXPECT_EQ(registry.GetCounter("stratus_obs_http_requests")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("stratus_obs_http_errors")->Value(), 1u);
}

// ---------------------------------------------------------------------------
// Cluster-backed endpoints.
// ---------------------------------------------------------------------------

class ObsEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.registry = &registry_;
    options.shipping.heartbeat_interval_us = 500;
    options.lag_poll_interval_us = 1'000;
    options.chaos = &chaos_;
    cluster_ = std::make_unique<AdgCluster>(options);
    cluster_->Start();
    table_ = cluster_
                 ->CreateTable("orders", kDefaultTenant, Schema::WideTable(1, 1),
                               ImService::kStandbyOnly, true)
                 .value();
    CommitRows(512);
    ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);
    ASSERT_TRUE(cluster_->standby()->PopulateNow(table_).ok());

    views_ = std::make_unique<ClusterObservability>(cluster_.get());
    obs::ObsServerOptions server_options;
    server_options.registry = &registry_;
    server_ = std::make_unique<obs::ObsServer>(server_options);
    views_->Register(server_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    cluster_->Stop();
  }

  void CommitRows(int n) {
    Transaction txn = cluster_->primary()->Begin();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster_->primary()
                      ->Insert(&txn, table_,
                               Row{Value(next_id_++), Value(next_id_ % 16),
                                   Value(std::string("x"))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster_->primary()->Commit(&txn).ok());
  }

  chaos::ChaosController chaos_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<AdgCluster> cluster_;
  std::unique_ptr<ClusterObservability> views_;
  std::unique_ptr<obs::ObsServer> server_;
  ObjectId table_ = kInvalidObjectId;
  int64_t next_id_ = 0;
};

TEST_F(ObsEndpointsTest, GoldenEndpointPayloads) {
  // One standby query so /queries has a completed profile.
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  ASSERT_TRUE(cluster_->standby()->Query(q).ok());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server_->port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("stratus_build_info"), std::string::npos);
  EXPECT_NE(body.find("stratus_visible_scn"), std::string::npos);
  EXPECT_NE(body.find("stratus_lag_queryscn_scn"), std::string::npos);

  ASSERT_TRUE(HttpGet(server_->port(), "/metrics.json", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.front(), '[');

  ASSERT_TRUE(HttpGet(server_->port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("ok"), std::string::npos);

  ASSERT_TRUE(HttpGet(server_->port(), "/readyz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("ready"), std::string::npos);

  ASSERT_TRUE(HttpGet(server_->port(), "/traces", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.front(), '[');

  ASSERT_TRUE(HttpGet(server_->port(), "/queries", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"completed\":["), std::string::npos);
  EXPECT_NE(body.find("\"role\":\"standby\""), std::string::npos);

  ASSERT_TRUE(HttpGet(server_->port(), "/v/im_segments", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"orders\""), std::string::npos);
  EXPECT_NE(body.find("\"smus_ready\""), std::string::npos);

  ASSERT_TRUE(HttpGet(server_->port(), "/v/standby_apply", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"degraded\":false"), std::string::npos);

  ASSERT_TRUE(HttpGet(server_->port(), "/v/transport", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"channel\""), std::string::npos);

  ASSERT_TRUE(HttpGet(server_->port(), "/v/does_not_exist", &status, &body));
  EXPECT_EQ(status, 404);
}

TEST_F(ObsEndpointsTest, ConcurrentScrapesDuringWriterChurn) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rng(7);
    int64_t id = next_id_;
    while (!stop.load(std::memory_order_acquire)) {
      Transaction txn = cluster_->primary()->Begin();
      for (int i = 0; i < 4; ++i) {
        (void)cluster_->primary()->Insert(
            &txn, table_,
            Row{Value(id++), Value(static_cast<int64_t>(rng.Uniform(16))),
                Value(std::string("w"))},
            nullptr);
      }
      (void)cluster_->primary()->Commit(&txn);
    }
  });
  std::thread querier([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ScanQuery q;
      q.object = table_;
      q.aggregates = {{AggKind::kCount, 0}};
      (void)cluster_->standby()->Query(q);
    }
  });

  const std::vector<std::string> paths = {
      "/metrics",   "/metrics.json",  "/healthz",        "/readyz",
      "/traces",    "/queries",       "/v/im_segments",  "/v/standby_apply",
      "/v/transport"};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string& path = paths[(t + i) % paths.size()];
        int status = 0;
        std::string body;
        if (!HttpGet(server_->port(), path, &status, &body) || status != 200 ||
            body.empty()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& s : scrapers) s.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  querier.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->requests_served(), 100u);
  ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);
}

TEST_F(ObsEndpointsTest, HealthzFlipsToDegradedOnImcuQuarantine) {
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server_->port(), "/healthz", &status, &body));
  ASSERT_EQ(status, 200);

  // The next data-CV apply on the standby reports failure: its IMCU is
  // quarantined and the health latch flips.
  chaos_.ArmApplyError(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cluster_->standby()->degraded() &&
         std::chrono::steady_clock::now() < deadline) {
    CommitRows(4);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(cluster_->standby()->degraded());

  ASSERT_TRUE(HttpGet(server_->port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("degraded"), std::string::npos);
  ASSERT_TRUE(HttpGet(server_->port(), "/v/standby_apply", &status, &body));
  EXPECT_NE(body.find("\"degraded\":true"), std::string::npos);
  // /readyz keys on the QuerySCN, not health: still serving (stale) reads.
  ASSERT_TRUE(HttpGet(server_->port(), "/readyz", &status, &body));
  EXPECT_EQ(status, 200);
}

}  // namespace
}  // namespace stratus
