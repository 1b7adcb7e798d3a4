// Redo fan-out: one RedoLog feeding N shippers/standbys. Covers the
// multi-shipper regression surface — shared wakeups, independent Stop,
// cursor-min retention, rejoin catch-up from a persistent cursor, and
// per-channel metric identity.

#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "obs/metrics.h"
#include "redo/log_shipping.h"

namespace stratus {
namespace {

ChangeVector Cv(Dba dba) {
  ChangeVector cv;
  cv.kind = CvKind::kInsert;
  cv.dba = dba;
  return cv;
}

ShipperOptions QuietOptions() {
  ShipperOptions options;
  options.heartbeat_interval_us = 1'000'000;
  return options;
}

bool WaitForRecords(const ReceivedLog& dest, uint64_t n, int64_t timeout_us) {
  const uint64_t deadline = NowMicros() + static_cast<uint64_t>(timeout_us);
  while (dest.delivered_records() < n && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return dest.delivered_records() >= n;
}

TEST(FleetFanoutTest, OneLogFeedsThreeStandbys) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  ReceivedLog dest[3];
  std::vector<uint64_t> cursors;
  std::vector<std::unique_ptr<LogShipper>> shippers;
  for (auto& d : dest) {
    cursors.push_back(source.RegisterCursor(0));
    shippers.push_back(std::make_unique<LogShipper>(&source, &d, cursors.back(),
                                                    QuietOptions()));
  }
  for (auto& s : shippers) s->Start();

  for (int i = 0; i < 200; ++i) source.Append({Cv(static_cast<Dba>(i))});
  for (auto& d : dest) EXPECT_TRUE(WaitForRecords(d, 200, 5'000'000));
  for (auto& s : shippers) s->Stop();

  for (auto& d : dest) {
    EXPECT_EQ(d.delivered_records(), 200u);
    // Per-stream SCN order survives the fan-out.
    RedoRecord out;
    Scn last = 0;
    while (d.Pop(&out)) {
      EXPECT_GT(out.scn, last);
      last = out.scn;
    }
  }
  // Every cursor passed everything, so everything shipped was trimmed.
  for (uint64_t cursor : cursors) source.UnregisterCursor(cursor);
  std::vector<RedoRecord> leftover;
  source.ReadFrom(0, 1000, &leftover);
  EXPECT_TRUE(leftover.empty());
  EXPECT_EQ(source.cursor_count(), 0u);
}

TEST(FleetFanoutTest, SlowestCursorHoldsRetention) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  // A standby that is down: its persistent cursor sits at 0 with no shipper.
  const uint64_t parked = source.RegisterCursor(0);

  ReceivedLog dest;
  LogShipper shipper(&source, &dest, source.RegisterCursor(0), QuietOptions());
  shipper.Start();
  for (int i = 0; i < 150; ++i) source.Append({Cv(static_cast<Dba>(i))});
  shipper.Stop();
  EXPECT_EQ(dest.delivered_records(), 150u);

  // The fast shipper finished, but the parked cursor pins every record.
  std::vector<RedoRecord> retained;
  source.ReadFrom(0, 1000, &retained);
  EXPECT_EQ(retained.size(), 150u);

  // Releasing the parked standby's cursor releases retention.
  source.UnregisterCursor(parked);
  source.Trim(source.NextSeq());
  retained.clear();
  source.ReadFrom(0, 1000, &retained);
  EXPECT_TRUE(retained.empty());
}

// The regression the fleet depends on: stopping one shipper must not stall
// the others — Stop wakes only its own thread's waits, the rest keep pulling.
TEST(FleetFanoutTest, StopOneShipperOthersKeepShipping) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  ReceivedLog dest[3];
  std::vector<std::unique_ptr<LogShipper>> shippers;
  for (auto& d : dest)
    shippers.push_back(std::make_unique<LogShipper>(
        &source, &d, source.RegisterCursor(0), QuietOptions()));
  for (auto& s : shippers) s->Start();

  for (int i = 0; i < 50; ++i) source.Append({Cv(static_cast<Dba>(i))});
  for (auto& d : dest) ASSERT_TRUE(WaitForRecords(d, 50, 5'000'000));

  shippers[0]->Stop();
  EXPECT_TRUE(dest[0].closed());

  // Appends after the Stop still reach the surviving shippers promptly.
  for (int i = 50; i < 120; ++i) source.Append({Cv(static_cast<Dba>(i))});
  EXPECT_TRUE(WaitForRecords(dest[1], 120, 5'000'000));
  EXPECT_TRUE(WaitForRecords(dest[2], 120, 5'000'000));
  EXPECT_EQ(dest[0].delivered_records(), 50u);  // Stopped stream got no more.

  shippers[1]->Stop();
  shippers[2]->Stop();
  EXPECT_EQ(dest[1].delivered_records(), 120u);
  EXPECT_EQ(dest[2].delivered_records(), 120u);
}

// Concurrent Stop()s while the log is still being appended: no lost wakeups,
// no deadlock, every stopped stream has drained what preceded its Stop.
TEST(FleetFanoutTest, ConcurrentStopsUnderAppendLoad) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  constexpr int kShippers = 4;
  ReceivedLog dest[kShippers];
  std::vector<std::unique_ptr<LogShipper>> shippers;
  for (auto& d : dest)
    shippers.push_back(std::make_unique<LogShipper>(
        &source, &d, source.RegisterCursor(0), QuietOptions()));
  for (auto& s : shippers) s->Start();

  std::atomic<bool> stop_appends{false};
  std::thread appender([&] {
    int i = 0;
    while (!stop_appends.load(std::memory_order_acquire))
      source.Append({Cv(static_cast<Dba>(i++))});
  });

  std::vector<std::thread> stoppers;
  for (auto& s : shippers)
    stoppers.emplace_back([&s] { s->Stop(); });
  for (auto& t : stoppers) t.join();
  stop_appends.store(true, std::memory_order_release);
  appender.join();

  for (auto& d : dest) EXPECT_TRUE(d.closed());
}

// A killed standby rejoins: its persistent cursor survived the shipper, the
// reopened stream's watermark dedups the boundary, and a fresh shipper
// resumes exactly where the old one stopped — no redo lost, none duplicated.
TEST(FleetFanoutTest, RejoinResumesFromPersistentCursor) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  const uint64_t cursor = source.RegisterCursor(0);
  ReceivedLog dest;

  const ShipperOptions options = QuietOptions();
  {
    LogShipper shipper(&source, &dest, cursor, options);
    shipper.Start();
    for (int i = 0; i < 100; ++i) source.Append({Cv(static_cast<Dba>(i))});
    shipper.Stop();  // Drains: cursor now at 100.
  }
  EXPECT_EQ(dest.delivered_records(), 100u);
  EXPECT_TRUE(dest.closed());
  EXPECT_EQ(source.CursorSeq(cursor), 100u);

  // While the standby is down, the primary keeps writing — and the cursor
  // keeps it retained.
  for (int i = 100; i < 180; ++i) source.Append({Cv(static_cast<Dba>(i))});
  std::vector<RedoRecord> retained;
  source.ReadFrom(source.CursorSeq(cursor), 1000, &retained);
  EXPECT_EQ(retained.size(), 80u);

  dest.Reopen();
  EXPECT_FALSE(dest.closed());
  {
    LogShipper shipper(&source, &dest, cursor, options);
    shipper.Start();
    EXPECT_TRUE(WaitForRecords(dest, 180, 5'000'000));
    shipper.Stop();
  }
  EXPECT_EQ(dest.delivered_records(), 180u);  // Catch-up only: no replays.

  // Total order across the outage boundary.
  RedoRecord out;
  Scn last = 0;
  uint64_t popped = 0;
  while (dest.Pop(&out)) {
    EXPECT_GT(out.scn, last);
    last = out.scn;
    ++popped;
  }
  EXPECT_EQ(popped, 180u);
  source.UnregisterCursor(cursor);
}

// N idle shippers produce ONE heartbeat per quiet interval, not N: the
// log-level quiet check collapses their timers.
TEST(FleetFanoutTest, HeartbeatsDedupAcrossShippers) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  // Observer cursor parks retention at 0 so every heartbeat stays countable.
  const uint64_t observer = source.RegisterCursor(0);

  constexpr int64_t kIntervalUs = 20'000;
  ReceivedLog dest[3];
  std::vector<std::unique_ptr<LogShipper>> shippers;
  for (auto& d : dest) {
    ShipperOptions options;
    options.heartbeat_interval_us = kIntervalUs;
    shippers.push_back(std::make_unique<LogShipper>(
        &source, &d, source.RegisterCursor(0), options));
  }
  for (auto& s : shippers) s->Start();

  constexpr int64_t kRunUs = 300'000;
  std::this_thread::sleep_for(std::chrono::microseconds(kRunUs));
  for (auto& s : shippers) s->Stop();

  // Every standby's stream advanced (heartbeats flowed to all)...
  for (auto& d : dest) EXPECT_NE(d.DeliveredWatermark(), kInvalidScn);
  // ...but the log carries about one heartbeat per interval. 3 undeduped
  // shippers would append ~3x interval count; allow 2x for timing slop.
  const uint64_t appended = source.NextSeq();
  EXPECT_GE(appended, 2u);
  EXPECT_LE(appended, static_cast<uint64_t>(2 * kRunUs / kIntervalUs + 2));
  source.UnregisterCursor(observer);
}

// Satellite: with N shipper channels in one registry, per-channel series are
// distinguishable by the standby identity label.
TEST(FleetFanoutTest, ChannelMetricsCarryStandbyIdentity) {
  obs::MetricsRegistry registry;
  ScnAllocator scns;
  RedoLog source(0, &scns);
  ReceivedLog dest[2];
  std::vector<std::unique_ptr<LogShipper>> shippers;
  for (int i = 0; i < 2; ++i) {
    ShipperOptions options = QuietOptions();
    options.channel.name = "redo0";  // Same stream name on both channels...
    options.channel.peer = "sb" + std::to_string(i);  // ...distinct standby.
    options.channel.registry = &registry;
    shippers.push_back(std::make_unique<LogShipper>(
        &source, &dest[i], source.RegisterCursor(0), options));
  }
  for (auto& s : shippers) s->Start();
  for (int i = 0; i < 10; ++i) source.Append({Cv(static_cast<Dba>(i))});
  for (auto& d : dest) ASSERT_TRUE(WaitForRecords(d, 10, 5'000'000));
  for (auto& s : shippers) s->Stop();

  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("standby=\"sb0\""), std::string::npos) << text;
  EXPECT_NE(text.find("standby=\"sb1\""), std::string::npos) << text;
}

}  // namespace
}  // namespace stratus
