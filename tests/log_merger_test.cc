#include "redo/log_merger.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"

namespace stratus {
namespace {

RedoRecord Rec(Scn scn) {
  RedoRecord r;
  r.scn = scn;
  return r;
}

TEST(LogMergerTest, MergesTwoStreamsInScnOrder) {
  ReceivedLog a, b;
  a.Deliver({Rec(1), Rec(4), Rec(5)});
  b.Deliver({Rec(2), Rec(3), Rec(6)});
  a.Close();
  b.Close();
  LogMerger merger({&a, &b});
  Scn last = 0;
  RedoRecord out;
  int n = 0;
  while (!merger.Finished()) {
    if (!merger.Next(&out, 1000)) continue;
    EXPECT_GT(out.scn, last);
    last = out.scn;
    ++n;
  }
  EXPECT_EQ(n, 6);
  EXPECT_EQ(last, 6u);
}

TEST(LogMergerTest, StallsUntilLaggingStreamCatchesUp) {
  ReceivedLog a, b;
  a.Deliver({Rec(5)});
  LogMerger merger({&a, &b});
  RedoRecord out;
  // b has delivered nothing: a's record at SCN 5 cannot be emitted yet
  // because b might still produce SCN < 5.
  EXPECT_FALSE(merger.Next(&out, 1000));
  // A heartbeat on b (watermark 10 > 5) releases it.
  b.Deliver({Rec(10)});
  // Now 5 is safe (b's head is 10).
  ASSERT_TRUE(merger.Next(&out, 1000));
  EXPECT_EQ(out.scn, 5u);
}

TEST(LogMergerTest, ClosedEmptyStreamDoesNotBlock) {
  ReceivedLog a, b;
  a.Deliver({Rec(5)});
  b.Close();
  LogMerger merger({&a, &b});
  RedoRecord out;
  ASSERT_TRUE(merger.Next(&out, 1000));
  EXPECT_EQ(out.scn, 5u);
}

TEST(LogMergerTest, WatermarkReleasesWithoutRecords) {
  ReceivedLog a, b;
  a.Deliver({Rec(7)});
  b.Deliver({Rec(3)});  // b's head is 3 → emit 3 first.
  LogMerger merger({&a, &b});
  RedoRecord out;
  ASSERT_TRUE(merger.Next(&out, 1000));
  EXPECT_EQ(out.scn, 3u);
  // b drained but watermark=3 < 7: cannot emit 7 yet.
  EXPECT_FALSE(merger.Next(&out, 1000));
  b.Deliver({Rec(9)});
  ASSERT_TRUE(merger.Next(&out, 1000));
  EXPECT_EQ(out.scn, 7u);
}

TEST(LogMergerTest, FinishedOnlyWhenAllClosedAndDrained) {
  ReceivedLog a;
  a.Deliver({Rec(1)});
  LogMerger merger({&a});
  EXPECT_FALSE(merger.Finished());
  a.Close();
  EXPECT_FALSE(merger.Finished());
  RedoRecord out;
  ASSERT_TRUE(merger.Next(&out, 1000));
  EXPECT_TRUE(merger.Finished());
}

TEST(LogMergerTest, StallSleepsOnTheBlockingStream) {
  ReceivedLog a, b;
  a.Deliver({Rec(7)});
  b.Deliver({Rec(3)});
  LogMerger merger({&a, &b});
  RedoRecord out;
  ASSERT_TRUE(merger.Next(&out, 1000));
  ASSERT_EQ(out.scn, 3u);
  // a holds 7 and b (watermark 3) blocks it. The stall must sleep until b
  // moves, not return at once because a's queue is non-empty.
  const uint64_t start = NowMicros();
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    b.Deliver({Rec(9)});
  });
  const bool emitted = merger.Next(&out, 2'000'000);
  const uint64_t waited = NowMicros() - start;
  producer.join();
  EXPECT_FALSE(emitted);
  EXPECT_GE(waited, 30'000u);    // It slept...
  EXPECT_LT(waited, 1'500'000u);  // ...and woke on b's delivery.
  ASSERT_TRUE(merger.Next(&out, 1000));
  EXPECT_EQ(out.scn, 7u);
}

TEST(LogMergerTest, ConcurrentProducersMergeExactlyOnceInOrder) {
  // Two primary instances draw SCNs from one allocator, one at a time, and
  // ship them in random batches of 1..32 while the merger drains: every SCN
  // must come out exactly once, in strictly increasing order.
  constexpr Scn kTotal = 100'000;
  std::atomic<Scn> next_scn{1};
  ReceivedLog streams[2];
  const auto produce = [&](ReceivedLog* dest, uint64_t seed) {
    Random rng(seed);
    bool done = false;
    while (!done) {
      std::vector<RedoRecord> batch;
      const uint64_t n = 1 + rng.Uniform(32);
      while (batch.size() < n) {
        const Scn scn = next_scn.fetch_add(1);
        if (scn > kTotal) {
          done = true;
          break;
        }
        batch.push_back(Rec(scn));
      }
      dest->Deliver(std::move(batch));
    }
    dest->Close();
  };
  std::thread p0(produce, &streams[0], 1);
  std::thread p1(produce, &streams[1], 2);
  LogMerger merger({&streams[0], &streams[1]});
  RedoRecord out;
  Scn last = 0;
  Scn emitted = 0;
  bool ordered = true;
  while (!merger.Finished()) {
    if (!merger.Next(&out, 1000)) continue;
    ordered = ordered && out.scn > last;
    last = out.scn;
    ++emitted;
  }
  p0.join();
  p1.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(emitted, kTotal);
  EXPECT_EQ(last, kTotal);
}

TEST(LogMergerTest, SingleStreamPassesThrough) {
  ReceivedLog a;
  for (Scn s = 1; s <= 50; ++s) a.Deliver({Rec(s)});
  a.Close();
  LogMerger merger({&a});
  RedoRecord out;
  for (Scn s = 1; s <= 50; ++s) {
    ASSERT_TRUE(merger.Next(&out, 1000));
    EXPECT_EQ(out.scn, s);
  }
  EXPECT_TRUE(merger.Finished());
  EXPECT_EQ(merger.emitted_records(), 50u);
}

}  // namespace
}  // namespace stratus
