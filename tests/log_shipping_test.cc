#include "redo/log_shipping.h"

#include <gtest/gtest.h>

#include "common/clock.h"

namespace stratus {
namespace {

ChangeVector Cv(Dba dba) {
  ChangeVector cv;
  cv.kind = CvKind::kInsert;
  cv.dba = dba;
  return cv;
}

TEST(ReceivedLogTest, DeliverPopFifo) {
  ReceivedLog log;
  RedoRecord a, b;
  a.scn = 1;
  b.scn = 2;
  log.Deliver({a, b});
  EXPECT_EQ(log.Peek().head, 1u);
  RedoRecord out;
  ASSERT_TRUE(log.Pop(&out));
  EXPECT_EQ(out.scn, 1u);
  ASSERT_TRUE(log.Pop(&out));
  EXPECT_EQ(out.scn, 2u);
  EXPECT_FALSE(log.Pop(&out));
  EXPECT_EQ(log.DeliveredWatermark(), 2u);
}

TEST(ReceivedLogTest, CloseMarksStream) {
  ReceivedLog log;
  EXPECT_FALSE(log.closed());
  log.Close();
  EXPECT_TRUE(log.closed());
  EXPECT_TRUE(log.Peek().finished);
}

TEST(LogShipperTest, ShipsAppendedRecords) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  ReceivedLog dest;
  ShipperOptions options;
  options.heartbeat_interval_us = 1'000'000;  // Quiet heartbeats for the test.
  LogShipper shipper(&source, &dest, source.RegisterCursor(0), options);
  shipper.Start();
  for (int i = 0; i < 100; ++i) source.Append({Cv(static_cast<Dba>(i))});
  // Wait for delivery.
  const uint64_t deadline = NowMicros() + 2'000'000;
  while (dest.delivered_records() < 100 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  shipper.Stop();
  EXPECT_GE(dest.delivered_records(), 100u);
  EXPECT_GE(shipper.bytes_shipped(), 100u);  // Serialized bytes accounted.
  EXPECT_TRUE(dest.closed());
  // Records arrive in order.
  RedoRecord out;
  Scn last = 0;
  while (dest.Pop(&out)) {
    EXPECT_GT(out.scn, last);
    last = out.scn;
  }
}

TEST(LogShipperTest, HeartbeatsFlowWhenIdle) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  ReceivedLog dest;
  ShipperOptions options;
  options.heartbeat_interval_us = 500;
  LogShipper shipper(&source, &dest, source.RegisterCursor(0), options);
  shipper.Start();
  const uint64_t deadline = NowMicros() + 2'000'000;
  while (dest.DeliveredWatermark() == kInvalidScn && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  shipper.Stop();
  EXPECT_NE(dest.DeliveredWatermark(), kInvalidScn);
}

TEST(LogShipperTest, StopDrainsPendingRecords) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  ReceivedLog dest;
  LogShipper shipper(&source, &dest, source.RegisterCursor(0),
                     ShipperOptions{});
  shipper.Start();
  for (int i = 0; i < 500; ++i) source.Append({Cv(static_cast<Dba>(i))});
  shipper.Stop();
  EXPECT_EQ(dest.delivered_records(), 500u);
}

TEST(LogShipperTest, TrimsSourceAfterShipping) {
  ScnAllocator scns;
  RedoLog source(0, &scns);
  ReceivedLog dest;
  LogShipper shipper(&source, &dest, source.RegisterCursor(0),
                     ShipperOptions{});
  shipper.Start();
  for (int i = 0; i < 200; ++i) source.Append({Cv(static_cast<Dba>(i))});
  shipper.Stop();
  // Everything shipped was trimmed from the retained window.
  std::vector<RedoRecord> leftover;
  source.ReadFrom(0, 1000, &leftover);
  EXPECT_TRUE(leftover.empty());
}

}  // namespace
}  // namespace stratus
