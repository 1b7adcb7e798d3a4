#include "adg/redo_apply.h"

#include <map>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"

namespace stratus {
namespace {

/// Records every applied CV, per DBA, in application order.
class RecordingSink : public ApplySink {
 public:
  Status ApplyCv(const ChangeVector& cv) override {
    std::lock_guard<std::mutex> g(mu_);
    applied_[cv.dba].push_back(cv.scn);
    ++total_;
    return Status::OK();
  }

  std::map<Dba, std::vector<Scn>> Applied() {
    std::lock_guard<std::mutex> g(mu_);
    return applied_;
  }
  uint64_t total() {
    std::lock_guard<std::mutex> g(mu_);
    return total_;
  }

 private:
  std::mutex mu_;
  std::map<Dba, std::vector<Scn>> applied_;
  uint64_t total_ = 0;
};

class HookCounter : public ApplyHooks {
 public:
  void OnCvApplied(const ChangeVector& cv, WorkerId worker) override {
    count_.fetch_add(1);
    (void)cv;
    (void)worker;
  }
  uint64_t count() const { return count_.load(); }

 private:
  std::atomic<uint64_t> count_{0};
};

RedoRecord Rec(Scn scn, std::vector<Dba> dbas) {
  RedoRecord r;
  r.scn = scn;
  for (Dba dba : dbas) {
    ChangeVector cv;
    cv.kind = CvKind::kUpdate;
    cv.scn = scn;
    cv.dba = dba;
    r.cvs.push_back(cv);
  }
  return r;
}

RedoRecord Heartbeat(Scn scn) {
  RedoRecord r;
  r.scn = scn;
  ChangeVector cv;
  cv.kind = CvKind::kHeartbeat;
  cv.scn = scn;
  r.cvs.push_back(cv);
  return r;
}

TEST(RedoApplyTest, AppliesEverythingOnce) {
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 4;
  options.barrier_interval = 8;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  engine.Start();
  Scn scn = 1;
  for (int i = 0; i < 200; ++i)
    stream.Deliver({Rec(scn++, {static_cast<Dba>(i % 13), static_cast<Dba>(100 + i % 7)})});
  stream.Deliver({Heartbeat(scn++)});
  stream.Close();

  const uint64_t deadline = NowMicros() + 5'000'000;
  while (sink.total() < 400 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  EXPECT_EQ(sink.total(), 400u);
}

TEST(RedoApplyTest, PerDbaScnOrderPreserved) {
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 4;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  engine.Start();
  Scn scn = 1;
  for (int i = 0; i < 500; ++i) stream.Deliver({Rec(scn++, {static_cast<Dba>(i % 10)})});
  stream.Close();
  const uint64_t deadline = NowMicros() + 5'000'000;
  while (sink.total() < 500 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  for (const auto& [dba, scns] : sink.Applied()) {
    for (size_t i = 1; i < scns.size(); ++i)
      EXPECT_LT(scns[i - 1], scns[i]) << "dba " << dba;
  }
}

TEST(RedoApplyTest, QueryScnAdvancesToHeartbeat) {
  ReceivedLog stream;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 2;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, nullptr, nullptr, nullptr, options);
  engine.Start();
  for (Scn s = 1; s <= 20; ++s) stream.Deliver({Rec(s, {s % 5})});
  stream.Deliver({Heartbeat(21)});

  const Scn reached = engine.coordinator()->WaitForQueryScn(21, 5'000'000);
  EXPECT_GE(reached, 21u);
  engine.Stop();
  stream.Close();
}

TEST(RedoApplyTest, QuietStreamCommitPublishesWithoutItsNextRecord) {
  // A commit at SCN 5 on one stream, passed by the other stream's heartbeat
  // at 6, then nothing: 6 cannot be merged until the first stream moves
  // again, so 5 must be published when the dispatcher runs dry.
  ReceivedLog s1, s2;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 2;
  RedoApplyEngine engine(
      std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&s1, &s2}), &sink,
      nullptr, nullptr, nullptr, options);
  engine.Start();
  s1.Deliver({Rec(5, {3})});
  s2.Deliver({Heartbeat(6)});
  const Scn reached = engine.coordinator()->WaitForQueryScn(5, 2'000'000);
  EXPECT_EQ(reached, 5u);
  engine.Stop();
}

TEST(RedoApplyTest, MiningHookSeesEveryCv) {
  ReceivedLog stream;
  RecordingSink sink;
  HookCounter hooks;
  RedoApplyOptions options;
  options.num_workers = 3;
  RedoApplyEngine engine(std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&stream}),
                         &sink, &hooks, nullptr, nullptr, options);
  engine.Start();
  Scn scn = 1;
  for (int i = 0; i < 100; ++i) stream.Deliver({Rec(scn++, {static_cast<Dba>(i)})});
  stream.Close();
  const uint64_t deadline = NowMicros() + 5'000'000;
  while (hooks.count() < 100 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  EXPECT_EQ(hooks.count(), 100u);
}

TEST(RedoApplyTest, TwoMergedStreams) {
  ReceivedLog s1, s2;
  RecordingSink sink;
  RedoApplyOptions options;
  options.num_workers = 2;
  RedoApplyEngine engine(
      std::make_unique<LogMerger>(std::vector<ReceivedLog*>{&s1, &s2}), &sink,
      nullptr, nullptr, nullptr, options);
  engine.Start();
  // Interleaved SCNs across two primary instances, same DBA: order matters.
  for (Scn s = 1; s <= 100; ++s) {
    if (s % 2 == 1) {
      s1.Deliver({Rec(s, {7})});
    } else {
      s2.Deliver({Rec(s, {7})});
    }
  }
  s1.Close();
  s2.Close();
  const uint64_t deadline = NowMicros() + 5'000'000;
  while (sink.total() < 100 && NowMicros() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Stop();
  const auto applied = sink.Applied();
  ASSERT_TRUE(applied.contains(7));
  const auto& scns = applied.at(7);
  ASSERT_EQ(scns.size(), 100u);
  for (size_t i = 0; i < scns.size(); ++i) EXPECT_EQ(scns[i], i + 1);
}

}  // namespace
}  // namespace stratus
