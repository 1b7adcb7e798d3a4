#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "db/database.h"
#include "net/channel.h"
#include "net/codec.h"
#include "net/wire.h"
#include "obs/lag_monitor.h"

namespace stratus {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Wire primitives.
// ---------------------------------------------------------------------------

TEST(WireTest, Crc32cMatchesKnownVectors) {
  // The standard CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Incremental == one-shot.
  const std::string s = "the quick brown fox jumps over the lazy dog";
  uint32_t inc = 0;
  for (char c : s) inc = Crc32c(&c, 1, inc);
  EXPECT_EQ(inc, Crc32c(s.data(), s.size()));
}

TEST(WireTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,       1,          127,        128,
                            16383,   16384,      (1ull << 32) - 1,
                            1ull << 32, ~0ull};
  std::string buf;
  for (uint64_t v : cases) PutVarint64(&buf, v);
  size_t pos = 0;
  for (uint64_t v : cases) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
  // Truncated varints fail cleanly.
  std::string big;
  PutVarint64(&big, ~0ull);
  for (size_t cut = 0; cut < big.size(); ++cut) {
    size_t p = 0;
    uint64_t got = 0;
    EXPECT_FALSE(GetVarint64(big.data(), cut, &p, &got));
  }
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-12345},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(WireTest, FrameRoundTripAndIncrementalDecode) {
  std::vector<Frame> frames;
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.type = i % 2 == 0 ? FrameType::kRedoBatch : FrameType::kAck;
    f.stream = static_cast<uint32_t>(i);
    f.seq = 1000 + static_cast<uint64_t>(i);
    f.scn = 42 * static_cast<Scn>(i + 1);
    f.payload = std::string(static_cast<size_t>(i * 100), static_cast<char>('a' + i));
    frames.push_back(f);
  }
  std::string wire;
  for (const Frame& f : frames) EncodeFrame(f, &wire);

  // Feed the byte stream incrementally: every prefix either yields complete
  // frames or reports "incomplete", never an error.
  std::vector<Frame> decoded;
  std::string buf;
  for (char c : wire) {
    buf.push_back(c);
    size_t pos = 0;
    for (;;) {
      Frame f;
      size_t consumed = 0;
      Status s = DecodeFrame(buf.data() + pos, buf.size() - pos, &f, &consumed);
      if (IsIncomplete(s)) break;
      ASSERT_TRUE(s.ok()) << s.ToString();
      decoded.push_back(std::move(f));
      pos += consumed;
    }
    buf.erase(0, pos);
  }
  EXPECT_TRUE(buf.empty());
  ASSERT_EQ(decoded.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i].type, frames[i].type);
    EXPECT_EQ(decoded[i].stream, frames[i].stream);
    EXPECT_EQ(decoded[i].seq, frames[i].seq);
    EXPECT_EQ(decoded[i].scn, frames[i].scn);
    EXPECT_EQ(decoded[i].payload, frames[i].payload);
  }
}

// ---------------------------------------------------------------------------
// Redo batch codec: round-trip property + corruption robustness.
// ---------------------------------------------------------------------------

ChangeVector RandomCv(Random* rng) {
  static const CvKind kKinds[] = {CvKind::kInsert,   CvKind::kUpdate,
                                  CvKind::kDelete,   CvKind::kTxnBegin,
                                  CvKind::kTxnCommit, CvKind::kTxnAbort,
                                  CvKind::kDdlMarker, CvKind::kHeartbeat};
  ChangeVector cv;
  cv.kind = kKinds[rng->Uniform(8)];
  cv.scn = rng->Uniform(1u << 20) + 1;
  cv.xid = rng->Uniform(1u << 16);
  cv.dba = rng->Percent(10) ? kInvalidDba : rng->Uniform(1u << 24);
  cv.object_id = rng->Uniform(512);
  cv.tenant = static_cast<TenantId>(rng->Uniform(8) + 1);
  cv.slot = static_cast<SlotId>(rng->Uniform(1u << 12));
  cv.im_flag = rng->Percent(30);
  if (cv.kind == CvKind::kInsert || cv.kind == CvKind::kUpdate) {
    const size_t arity = 1 + rng->Uniform(4);
    for (size_t i = 0; i < arity; ++i) {
      const uint32_t pick = static_cast<uint32_t>(rng->Uniform(8));
      if (pick == 0) {
        cv.after.push_back(Value::Null());
      } else if (pick == 1) {
        cv.after.push_back(Value(static_cast<int64_t>(rng->Uniform(1u << 30)) -
                                 (1 << 29)));
      } else if (pick == 2) {
        cv.after.push_back(Value(rng->NextString(1 + rng->Uniform(12))));
      } else if (pick == 3) {
        // Huge payload: multi-KB string value.
        cv.after.push_back(Value(rng->NextString(2048 + rng->Uniform(4096))));
      } else if (pick == 4) {
        // The zigzag varint's extremes and its one-byte zero.
        cv.after.push_back(Value(std::numeric_limits<int64_t>::min()));
      } else if (pick == 5) {
        cv.after.push_back(Value(std::numeric_limits<int64_t>::max()));
      } else if (pick == 6) {
        cv.after.push_back(Value(int64_t{0}));
      } else {
        cv.after.push_back(Value(std::string()));
      }
    }
  }
  if (cv.kind == CvKind::kDdlMarker) {
    cv.ddl.op = static_cast<DdlOp>(1 + rng->Uniform(4));
    cv.ddl.object_id = rng->Uniform(512);
    cv.ddl.tenant = static_cast<TenantId>(rng->Uniform(8) + 1);
    cv.ddl.column_idx = static_cast<uint32_t>(rng->Uniform(16));
    cv.ddl.im_service = static_cast<uint8_t>(rng->Uniform(3));
  }
  return cv;
}

std::vector<RedoRecord> RandomBatch(Random* rng, size_t max_records) {
  std::vector<RedoRecord> batch(1 + rng->Uniform(max_records));
  Scn scn = 1 + rng->Uniform(1000);
  for (RedoRecord& rec : batch) {
    rec.scn = scn;
    scn += 1 + rng->Uniform(5);
    rec.thread = static_cast<RedoThreadId>(rng->Uniform(4));
    const size_t cvs = rng->Percent(10) ? 0 : 1 + rng->Uniform(6);
    for (size_t c = 0; c < cvs; ++c) {
      ChangeVector cv = RandomCv(rng);
      cv.scn = rec.scn;  // The common case: CVs share the record SCN.
      rec.cvs.push_back(std::move(cv));
    }
    if (rng->Percent(20) && !rec.cvs.empty()) {
      rec.cvs.back().scn = rec.scn + rng->Uniform(3);  // Exercise the delta.
    }
  }
  return batch;
}

void ExpectBatchesEqual(const std::vector<RedoRecord>& a,
                        const std::vector<RedoRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scn, b[i].scn);
    EXPECT_EQ(a[i].thread, b[i].thread);
    ASSERT_EQ(a[i].cvs.size(), b[i].cvs.size());
    for (size_t c = 0; c < a[i].cvs.size(); ++c) {
      const ChangeVector& x = a[i].cvs[c];
      const ChangeVector& y = b[i].cvs[c];
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.scn, y.scn);
      EXPECT_EQ(x.xid, y.xid);
      EXPECT_EQ(x.dba, y.dba);
      EXPECT_EQ(x.object_id, y.object_id);
      EXPECT_EQ(x.tenant, y.tenant);
      EXPECT_EQ(x.slot, y.slot);
      EXPECT_EQ(x.im_flag, y.im_flag);
      EXPECT_EQ(x.after, y.after);
      EXPECT_EQ(x.ddl.op, y.ddl.op);
      EXPECT_EQ(x.ddl.object_id, y.ddl.object_id);
      EXPECT_EQ(x.ddl.tenant, y.ddl.tenant);
      EXPECT_EQ(x.ddl.column_idx, y.ddl.column_idx);
      EXPECT_EQ(x.ddl.im_service, y.ddl.im_service);
    }
  }
}

TEST(CodecTest, RedoBatchRoundTripProperty) {
  Random rng(20260806);
  for (int iter = 0; iter < 200; ++iter) {
    const std::vector<RedoRecord> batch = RandomBatch(&rng, 16);
    std::string payload;
    EncodeRedoBatch(batch, &payload);

    std::vector<RedoRecord> decoded;
    ASSERT_TRUE(DecodeRedoBatch(payload, &decoded).ok());
    ExpectBatchesEqual(batch, decoded);

    // Encode/decode are exact inverses: re-encoding is byte-identical.
    std::string payload2;
    EncodeRedoBatch(decoded, &payload2);
    EXPECT_EQ(payload, payload2);
  }
}

TEST(CodecTest, HeartbeatOnlyBatchRoundTrips) {
  RedoRecord hb;
  hb.scn = 77;
  hb.thread = 1;
  ChangeVector cv;
  cv.kind = CvKind::kHeartbeat;
  cv.scn = 77;
  hb.cvs.push_back(cv);
  std::string payload;
  EncodeRedoBatch({hb}, &payload);
  std::vector<RedoRecord> decoded;
  ASSERT_TRUE(DecodeRedoBatch(payload, &decoded).ok());
  ExpectBatchesEqual({hb}, decoded);
}

TEST(CodecTest, InvalidationMessageRoundTrip) {
  Random rng(99);
  InvalidationMessage groups;
  groups.kind = InvalKind::kGroups;
  for (int g = 0; g < 5; ++g) {
    InvalidationGroup grp;
    grp.object_id = rng.Uniform(100);
    grp.tenant = static_cast<TenantId>(1 + rng.Uniform(4));
    for (int r = 0; r < 8; ++r) {
      grp.rows.emplace_back(rng.Uniform(1u << 20),
                            static_cast<SlotId>(rng.Uniform(512)));
    }
    groups.groups.push_back(std::move(grp));
  }
  InvalidationMessage coarse;
  coarse.kind = InvalKind::kCoarse;
  coarse.tenant = 3;
  InvalidationMessage drop;
  drop.kind = InvalKind::kObjectDrop;
  drop.object_id = 17;
  InvalidationMessage publish;
  publish.kind = InvalKind::kPublish;
  publish.scn = 123456;

  for (const InvalidationMessage& msg : {groups, coarse, drop, publish}) {
    std::string payload;
    EncodeInvalidationMessage(msg, &payload);
    InvalidationMessage decoded;
    ASSERT_TRUE(DecodeInvalidationMessage(payload, &decoded).ok());
    EXPECT_EQ(decoded.kind, msg.kind);
    EXPECT_EQ(decoded.tenant, msg.tenant);
    EXPECT_EQ(decoded.object_id, msg.object_id);
    EXPECT_EQ(decoded.scn, msg.scn);
    ASSERT_EQ(decoded.groups.size(), msg.groups.size());
    for (size_t g = 0; g < msg.groups.size(); ++g) {
      EXPECT_EQ(decoded.groups[g].object_id, msg.groups[g].object_id);
      EXPECT_EQ(decoded.groups[g].tenant, msg.groups[g].tenant);
      EXPECT_EQ(decoded.groups[g].rows, msg.groups[g].rows);
    }
  }
}

TEST(CodecTest, EverySingleBitCorruptionIsCaughtByTheFrameCrc) {
  Random rng(4242);
  Frame frame;
  frame.type = FrameType::kRedoBatch;
  frame.stream = 2;
  frame.seq = 777;
  frame.scn = 991;
  EncodeRedoBatch(RandomBatch(&rng, 6), &frame.payload);
  std::string wire;
  EncodeFrame(frame, &wire);

  // Flip every single bit: the decoder must never return OK (and never
  // crash). A flip in the length field may legitimately look "incomplete" —
  // that still never delivers a wrong frame.
  for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::string corrupt = wire;
    corrupt[bit / 8] = static_cast<char>(
        static_cast<uint8_t>(corrupt[bit / 8]) ^ (1u << (bit % 8)));
    Frame out;
    size_t consumed = 0;
    Status s = DecodeFrame(corrupt.data(), corrupt.size(), &out, &consumed);
    EXPECT_FALSE(s.ok()) << "undetected corruption at bit " << bit;
  }

  // Every truncation reads as "incomplete", never as success or a crash.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Frame out;
    size_t consumed = 0;
    Status s = DecodeFrame(wire.data(), cut, &out, &consumed);
    EXPECT_TRUE(IsIncomplete(s)) << "cut=" << cut << ": " << s.ToString();
  }
}

TEST(CodecTest, TruncatedPayloadYieldsTypedCorruption) {
  Random rng(7);
  std::string payload;
  EncodeRedoBatch(RandomBatch(&rng, 8), &payload);
  for (size_t cut = 0; cut < payload.size(); cut += 3) {
    std::vector<RedoRecord> out;
    Status s = DecodeRedoBatch(payload.substr(0, cut), &out);
    EXPECT_EQ(s.code(), Code::kCorruption) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Channels.
// ---------------------------------------------------------------------------

class CollectingSink : public FrameSink {
 public:
  void OnFrame(const Frame& frame) override {
    std::lock_guard<std::mutex> g(mu_);
    frames_.push_back(frame);
  }
  void OnChannelClose() override {
    closed_.store(true, std::memory_order_release);
  }

  std::vector<Frame> frames() const {
    std::lock_guard<std::mutex> g(mu_);
    return frames_;
  }
  size_t count() const {
    std::lock_guard<std::mutex> g(mu_);
    return frames_.size();
  }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::atomic<bool> closed_{false};
};

void ExpectExactlyOnceInOrder(const std::vector<Frame>& frames, size_t n) {
  ASSERT_EQ(frames.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(frames[i].seq, i + 1) << "at index " << i;
    EXPECT_EQ(frames[i].payload, "payload-" + std::to_string(i));
  }
}

TEST(LoopbackChannelTest, DeliversExactlyOnceInOrderUnderFaults) {
  CollectingSink sink;
  ChannelOptions options;
  options.kind = ChannelKind::kLoopback;
  options.name = "loop";
  options.faults.drop_pct = 10;
  options.faults.dup_pct = 10;
  options.faults.corrupt_pct = 5;
  auto channel = CreateChannel(options, &sink);
  ASSERT_TRUE(channel->Start().ok());
  const size_t kFrames = 300;
  for (size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel
                    ->Send(FrameType::kRedoBatch, 0, i + 1,
                           "payload-" + std::to_string(i))
                    .ok());
  }
  channel->Stop();
  EXPECT_TRUE(sink.closed());
  ExpectExactlyOnceInOrder(sink.frames(), kFrames);
  const ChannelStats stats = channel->stats();
  EXPECT_EQ(stats.frames_delivered, kFrames);
  EXPECT_GT(stats.retransmits, 0u);     // Some drops/corruptions happened...
  EXPECT_GT(stats.crc_errors, 0u);      // ...and the CRC caught the flips.
  EXPECT_GT(stats.dup_frames_discarded, 0u);
  EXPECT_EQ(stats.injected_drops + stats.crc_errors, stats.retransmits);
  EXPECT_FALSE(channel->Send(FrameType::kRedoBatch, 0, 1, "x").ok());
}

TEST(SocketChannelTest, ShipsFramesInOrderOverTcp) {
  CollectingSink sink;
  ChannelOptions options;
  options.kind = ChannelKind::kSocket;
  options.name = "sock";
  auto channel = CreateChannel(options, &sink);
  ASSERT_TRUE(channel->Start().ok());
  const size_t kFrames = 500;
  for (size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel
                    ->Send(FrameType::kRedoBatch, 1, i + 1,
                           "payload-" + std::to_string(i))
                    .ok());
  }
  channel->Stop();  // Drains: everything must be delivered and acked.
  EXPECT_TRUE(sink.closed());
  ExpectExactlyOnceInOrder(sink.frames(), kFrames);
  const ChannelStats stats = channel->stats();
  EXPECT_EQ(stats.frames_sent, kFrames);
  EXPECT_EQ(stats.frames_delivered, kFrames);
  EXPECT_GT(stats.acks_received, 0u);
  EXPECT_EQ(stats.send_queue_depth, 0u);
}

TEST(SocketChannelTest, SurvivesDropDupCorruptTruncateDelay) {
  CollectingSink sink;
  ChannelOptions options;
  options.kind = ChannelKind::kSocket;
  options.name = "faulty";
  options.retransmit_timeout_us = 5'000;  // Fast recovery for test pace.
  options.backoff_base_us = 200;
  options.faults.drop_pct = 8;
  options.faults.dup_pct = 8;
  options.faults.corrupt_pct = 4;
  options.faults.truncate_pct = 3;
  options.faults.delay_us = 50;
  options.faults.jitter_us = 100;
  auto channel = CreateChannel(options, &sink);
  ASSERT_TRUE(channel->Start().ok());
  const size_t kFrames = 400;
  for (size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel
                    ->Send(FrameType::kRedoBatch, 1, i + 1,
                           "payload-" + std::to_string(i))
                    .ok());
  }
  channel->Stop();
  EXPECT_TRUE(sink.closed());
  // The reliability layer masks every injected fault: exactly-once, in
  // order, nothing torn.
  ExpectExactlyOnceInOrder(sink.frames(), kFrames);
  const ChannelStats stats = channel->stats();
  EXPECT_GT(stats.retransmits, 0u);
  // Corrupt/truncated frames tear the connection down; we must have healed.
  EXPECT_GT(stats.reconnects, 0u);
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.injected_corrupts, 0u);
  EXPECT_GT(stats.injected_truncates, 0u);
}

TEST(SocketChannelTest, PartitionBlocksThenHealReplays) {
  CollectingSink sink;
  ChannelOptions options;
  options.kind = ChannelKind::kSocket;
  options.name = "part";
  options.retransmit_timeout_us = 5'000;
  options.backoff_base_us = 200;
  auto channel = CreateChannel(options, &sink);
  ASSERT_TRUE(channel->Start().ok());
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(channel
                    ->Send(FrameType::kRedoBatch, 0, i + 1,
                           "payload-" + std::to_string(i))
                    .ok());
  }
  // Let the first half land so a live connection exists to partition.
  const uint64_t connect_deadline = NowMicros() + 5'000'000;
  while (sink.count() < 50 && NowMicros() < connect_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(sink.count(), 50u);
  // Partition mid-stream (possibly mid-flush), keep sending into the queue,
  // then heal: everything must come out exactly once, in order.
  channel->SetPartitioned(true);
  for (size_t i = 50; i < 100; ++i) {
    ASSERT_TRUE(channel
                    ->Send(FrameType::kRedoBatch, 0, i + 1,
                           "payload-" + std::to_string(i))
                    .ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const size_t delivered_during_partition = sink.count();
  channel->SetPartitioned(false);
  channel->Stop();
  EXPECT_LT(delivered_during_partition, 100u);
  ExpectExactlyOnceInOrder(sink.frames(), 100);
  EXPECT_GT(channel->stats().reconnects, 0u);
}

TEST(SocketChannelTest, BackpressureBoundsTheSendWindow) {
  CollectingSink sink;
  ChannelOptions options;
  options.kind = ChannelKind::kSocket;
  options.name = "bp";
  options.send_window_frames = 4;
  options.faults.delay_us = 2'000;  // Slow wire: the window must fill.
  auto channel = CreateChannel(options, &sink);
  ASSERT_TRUE(channel->Start().ok());

  std::atomic<uint64_t> max_depth{0};
  std::atomic<bool> stop_sampling{false};
  std::thread sampler([&] {
    while (!stop_sampling.load(std::memory_order_acquire)) {
      const uint64_t depth = channel->stats().send_queue_depth;
      uint64_t prev = max_depth.load(std::memory_order_relaxed);
      while (depth > prev &&
             !max_depth.compare_exchange_weak(prev, depth)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const size_t kFrames = 40;
  Stopwatch elapsed;
  for (size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel
                    ->Send(FrameType::kRedoBatch, 0, i + 1,
                           "payload-" + std::to_string(i))
                    .ok());
  }
  // 40 frames at 2ms serialized wire delay with a 4-frame window: Send must
  // have blocked for most of the transfer.
  EXPECT_GT(elapsed.ElapsedMicros(), 30'000u);
  channel->Stop();
  stop_sampling.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_LE(max_depth.load(), options.send_window_frames);
  ExpectExactlyOnceInOrder(sink.frames(), kFrames);
}

// ---------------------------------------------------------------------------
// Full AdgCluster over the socket wire, with faults.
// ---------------------------------------------------------------------------

TEST(ClusterOverSocketTest, ConsistencyHoldsUnderWireFaults) {
  DatabaseOptions options;
  options.apply.num_workers = 2;
  options.population.blocks_per_imcu = 2;
  options.population.manager_interval_us = 2000;
  options.shipping.heartbeat_interval_us = 500;
  options.standby_instances = 2;  // Exercise the RAC interconnect wire too.
  // Real TCP under both the redo stream and the invalidation interconnect,
  // with drop + delay + duplicate injection.
  options.shipping.channel.kind = ChannelKind::kSocket;
  options.shipping.channel.retransmit_timeout_us = 5'000;
  options.shipping.channel.faults.drop_pct = 3;
  options.shipping.channel.faults.dup_pct = 3;
  options.shipping.channel.faults.delay_us = 100;
  options.shipping.channel.faults.jitter_us = 200;
  options.transport.channel.kind = ChannelKind::kSocket;
  options.transport.channel.retransmit_timeout_us = 5'000;
  options.transport.channel.faults.drop_pct = 3;
  options.transport.channel.faults.dup_pct = 3;

  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                          ImService::kStandbyOnly, true)
          .value();

  std::atomic<int64_t> next_id{0};
  {
    Transaction txn = cluster.primary()->Begin();
    Random rng(1);
    for (int i = 0; i < 2 * static_cast<int>(kRowsPerBlock); ++i) {
      const int64_t id = next_id.fetch_add(1);
      ASSERT_TRUE(cluster.primary()
                      ->Insert(&txn, table,
                               Row{Value(id),
                                   Value(static_cast<int64_t>(rng.Uniform(50))),
                                   Value(static_cast<int64_t>(rng.Uniform(50))),
                                   Value(std::string("s") +
                                         std::to_string(rng.Uniform(6)))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster.primary()->Commit(&txn).ok());
  }
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(table).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rng(17);
    while (!stop.load(std::memory_order_acquire)) {
      Transaction txn = cluster.primary()->Begin();
      bool ok = true;
      const uint32_t dice = static_cast<uint32_t>(rng.Uniform(100));
      if (dice < 70) {
        const int64_t id = rng.UniformInt(0, next_id.load() - 1);
        Status st = cluster.primary()->UpdateByKey(
            &txn, table, id,
            Row{Value(id), Value(static_cast<int64_t>(rng.Uniform(50))),
                Value(static_cast<int64_t>(rng.Uniform(50))),
                Value(std::string("s") + std::to_string(rng.Uniform(6)))});
        if (st.IsAborted()) ok = false;
      } else {
        const int64_t id = next_id.fetch_add(1);
        (void)cluster.primary()->Insert(
            &txn, table,
            Row{Value(id), Value(static_cast<int64_t>(rng.Uniform(50))),
                Value(static_cast<int64_t>(rng.Uniform(50))),
                Value(std::string("s") + std::to_string(rng.Uniform(6)))},
            nullptr);
      }
      if (ok) {
        (void)cluster.primary()->Commit(&txn);
      } else {
        cluster.primary()->Abort(&txn);
      }
    }
  });

  // Verifier: standby answers must equal the primary's at the standby's
  // QuerySCN, and the published QuerySCN must never regress — even with
  // frames being dropped, duplicated, and delayed on a real socket.
  Random qrng(23);
  int checks = 0;
  Scn last_query_scn = kInvalidScn;
  const uint64_t deadline = NowMicros() + 10'000'000;
  while (checks < 12 && NowMicros() < deadline) {
    const Scn published = cluster.standby()->query_scn();
    EXPECT_GE(published, last_query_scn) << "QuerySCN regressed";
    last_query_scn = std::max(last_query_scn, published);

    ScanQuery q;
    q.object = table;
    if (qrng.Percent(50)) {
      q.predicates = {
          {1, PredOp::kEq, Value(static_cast<int64_t>(qrng.Uniform(50)))}};
    }
    q.aggregates = {{AggKind::kSum, 2}};
    const auto standby = cluster.standby()->Query(q);
    if (!standby.ok()) continue;
    const auto primary = cluster.primary()->QueryAt(q, standby->snapshot);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(standby->count, primary->count) << "scn=" << standby->snapshot;
    EXPECT_EQ(standby->agg_int, primary->agg_int) << "scn=" << standby->snapshot;
    ++checks;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GE(checks, 6);

  // The wire really was lossy — and the channel masked it.
  const std::string metrics = cluster.MetricsText();
  EXPECT_NE(metrics.find("stratus_net_frames_sent"), std::string::npos);
  EXPECT_NE(metrics.find("stratus_net_bytes_sent"), std::string::npos);
  EXPECT_NE(metrics.find("stratus_net_send_queue_depth"), std::string::npos);
  cluster.Stop();
}

TEST(ClusterOverSocketTest, TransportLagReflectsInjectedWireDelay) {
  DatabaseOptions options;
  options.shipping.heartbeat_interval_us = 1'000;
  options.shipping.channel.kind = ChannelKind::kSocket;
  options.shipping.channel.faults.delay_us = 5'000;  // 5 ms per frame.
  options.lag_poll_interval_us = 1'000;

  AdgCluster cluster(options);
  cluster.Start();
  const ObjectId table =
      cluster.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 0),
                          ImService::kStandbyOnly, true)
          .value();

  // Sustained small commits: each batch pays the 5 ms wire delay, so the
  // shipped watermark trails the primary SCN by a nonzero wall-clock lag.
  int64_t max_transport_lag = 0;
  const uint64_t deadline = NowMicros() + 2'000'000;
  int64_t id = 0;
  while (NowMicros() < deadline) {
    Transaction txn = cluster.primary()->Begin();
    ASSERT_TRUE(cluster.primary()
                    ->Insert(&txn, table, Row{Value(id), Value(id * 2)}, nullptr)
                    .ok());
    ++id;
    (void)cluster.primary()->Commit(&txn);
    const auto snap = cluster.lag_monitor()->Snapshot();
    max_transport_lag = std::max(max_transport_lag, snap.transport_lag_us);
    if (max_transport_lag > 0) break;  // Observed: done committing.
  }
  EXPECT_GT(max_transport_lag, 0);

  const std::string metrics = cluster.MetricsText();
  EXPECT_NE(metrics.find("stratus_net_frames_delivered"), std::string::npos);
  cluster.Stop();
}

}  // namespace
}  // namespace net
}  // namespace stratus
