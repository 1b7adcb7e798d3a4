#include "adg/redo_apply.h"

#include "obs/trace.h"

namespace stratus {

RedoApplyEngine::RedoApplyEngine(std::unique_ptr<LogMerger> merger,
                                 ApplySink* sink, ApplyHooks* hooks,
                                 FlushParticipant* flush, FlushDriver* driver,
                                 const RedoApplyOptions& options)
    : merger_(std::move(merger)), sink_(sink), options_(options) {
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<RecoveryWorker>(
        static_cast<WorkerId>(i), sink_, hooks, flush,
        options_.worker_queue_capacity));
    workers_.back()->set_chaos(options_.chaos);
  }
  if (options_.create_coordinator) {
    std::vector<RecoveryWorker*> worker_ptrs;
    for (auto& w : workers_) worker_ptrs.push_back(w.get());
    coordinator_ = std::make_unique<RecoveryCoordinator>(
        std::move(worker_ptrs), driver);
    coordinator_->set_chaos(options_.chaos);
  }
}

RedoApplyEngine::~RedoApplyEngine() {
  if (dispatch_thread_.joinable()) Stop();
}

void RedoApplyEngine::Start() {
  stop_.store(false, std::memory_order_release);
  dispatcher_crashed_.store(false, std::memory_order_release);
  for (auto& w : workers_) w->Start();
  if (coordinator_ != nullptr) coordinator_->Start();
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
}

void RedoApplyEngine::Stop() {
  stop_.store(true, std::memory_order_release);
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  for (auto& w : workers_) w->Stop();
  if (coordinator_ != nullptr) coordinator_->Stop();
}

void RedoApplyEngine::CrashStop() {
  stop_.store(true, std::memory_order_release);
  // Wake first, join second: if a worker died on a CrashSignal with a full
  // queue, a dispatcher blocked in Enqueue would otherwise never return.
  for (auto& w : workers_) w->BeginShutdown();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  for (auto& w : workers_) w->Stop();
  if (coordinator_ != nullptr) coordinator_->CrashStop();
  // Every thread is down. Whatever a crashed worker left queued (including
  // the entry it popped but never applied, which it requeued on the way out)
  // is applied here — change vectors came off destructive ReceivedLog pops,
  // so this drain is the only thing standing between a crash and a skipped
  // change vector.
  for (auto& w : workers_) w->DrainQueueTo(sink_);
}

bool RedoApplyEngine::crashed() const {
  if (dispatcher_crashed_.load(std::memory_order_acquire)) return true;
  for (const auto& w : workers_)
    if (w->crashed()) return true;
  return coordinator_ != nullptr && coordinator_->crashed();
}

void RedoApplyEngine::BroadcastBarrier(Scn scn) {
  if (scn == kInvalidScn) return;
  for (auto& w : workers_) {
    ApplyEntry barrier;
    barrier.kind = ApplyEntry::Kind::kBarrier;
    barrier.scn = scn;
    w->Enqueue(std::move(barrier));
  }
}

void RedoApplyEngine::DispatchLoop() {
  // Records dispatched since the last barrier; nonzero means one is owed.
  int since_barrier = 0;
  Scn last_scn = kInvalidScn;
  try {
    while (!stop_.load(std::memory_order_acquire)) {
      // The hand-off point fires with no record in flight: the merger pops a
      // received log destructively only at emission, inside Next(). A crash
      // here therefore loses nothing — the restarted engine re-merges from
      // the surviving ReceivedLogs.
      STRATUS_CRASH_POINT(options_.chaos, chaos::CrashPoint::kDispatchHandoff);
      RedoRecord rec;
      // While a barrier is owed, only look: the moment the merger has nothing
      // more to emit, the barrier goes out instead of waiting for the next
      // record. Every dispatched SCN is a consistency point — the merger
      // emitted it only after every stream had passed it.
      if (!merger_->Next(&rec, since_barrier > 0 ? 0 : /*timeout_us=*/1000)) {
        if (since_barrier > 0) {
          BroadcastBarrier(last_scn);
          since_barrier = 0;
        } else if (merger_->Finished()) {
          break;
        }
        continue;
      }
      STRATUS_SPAN(obs::Stage::kLogMerge, rec.scn);
      for (ChangeVector& cv : rec.cvs) {
        if (cv.kind == CvKind::kHeartbeat) continue;
        ApplyEntry entry;
        entry.kind = ApplyEntry::Kind::kCv;
        entry.cv = std::move(cv);
        const size_t target = static_cast<size_t>(entry.cv.dba) % workers_.size();
        workers_[target]->Enqueue(std::move(entry));
      }
      last_scn = rec.scn;
      dispatched_scn_.store(rec.scn, std::memory_order_release);
      dispatched_records_.fetch_add(1, std::memory_order_relaxed);

      // A merger that keeps emitting still publishes in barrier-sized steps.
      if (++since_barrier >= options_.barrier_interval) {
        BroadcastBarrier(last_scn);
        since_barrier = 0;
      }
    }
    // Final barrier so watermarks (and thus the QuerySCN) cover everything
    // dispatched before shutdown.
    BroadcastBarrier(last_scn);
  } catch (const chaos::CrashSignal&) {
    // The dispatcher "process" dies here — mid-record state is impossible at
    // the hand-off point, and an Enqueue throw cannot happen (Enqueue does
    // not hit crash points). No final barrier: the restarted engine rebuilds
    // watermarks from scratch.
    dispatcher_crashed_.store(true, std::memory_order_release);
  }
}

}  // namespace stratus
