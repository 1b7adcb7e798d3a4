#include "adg/recovery_coordinator.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "obs/trace.h"

namespace stratus {

RecoveryCoordinator::RecoveryCoordinator(std::vector<RecoveryWorker*> workers,
                                         FlushDriver* driver)
    : workers_(std::move(workers)), driver_(driver) {
  for (RecoveryWorker* w : workers_) w->set_watermark_signal(&rises_);
}

RecoveryCoordinator::~RecoveryCoordinator() {
  if (thread_.joinable()) Stop();
}

void RecoveryCoordinator::Start() {
  stop_.store(false, std::memory_order_release);
  abort_advance_.store(false, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void RecoveryCoordinator::Stop() {
  stop_.store(true, std::memory_order_release);
  rises_.Notify();  // Ends the coordinator's wait for a watermark rise.
  // Release WaitForQueryScn waiters: once stopped, no publish will ever
  // satisfy them, and leaving them to sleep out their timeout stalls every
  // caller that raced with shutdown.
  {
    std::lock_guard<std::mutex> g(publish_mu_);
    published_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void RecoveryCoordinator::CrashStop() {
  abort_advance_.store(true, std::memory_order_release);
  Stop();
  // With the thread joined, any advancement it abandoned mid-flush left its
  // chopped worklink nodes behind; free them. Publishing never happened, so
  // those invalidations were never needed by any query snapshot.
  if (driver_ != nullptr) driver_->AbandonAdvance();
}

Scn RecoveryCoordinator::CandidateScn() const {
  Scn candidate = kMaxScn;
  for (const RecoveryWorker* w : workers_)
    candidate = std::min(candidate, w->applied_watermark());
  return candidate == kMaxScn ? kInvalidScn : candidate;
}

bool RecoveryCoordinator::TryAdvanceOnce() {
  const Scn target = CandidateScn();
  if (target == kInvalidScn || target <= query_scn()) return false;

  // QuerySCN advancement (Section III.D): inside the Quiesce Period, chop the
  // IM-ADG Commit Table at the target, drain the worklinks (cooperatively —
  // recovery workers pick up batches through their FlushParticipant hook
  // while we drive from here), then publish. Population cannot capture an
  // IMCU snapshot SCN anywhere in this window, which is exactly what makes
  // "SMU registered before the flush" / "snapshot taken after the publish"
  // the only two possible interleavings.
  STRATUS_SPAN(obs::Stage::kQueryScnAdvance, target);
  STRATUS_CRASH_POINT(chaos_, chaos::CrashPoint::kQuiesceBegin);
  const uint64_t t0 = NowNanos();
  quiesce_.BeginQuiesce();
  // The quiesce lock is held non-RAII; a CrashSignal escaping this window
  // must release it on the way out or the restarted pipeline's population
  // would deadlock against a lock owned by a dead "process".
  try {
    if (driver_ != nullptr) {
      driver_->PrepareAdvance(target);
      while (!driver_->AdvanceComplete()) {
        if (abort_advance_.load(std::memory_order_acquire)) {
          // Crash teardown while draining: a crashed worker can no longer
          // cooperate and the flush state is being discarded. Abandon without
          // publishing — the unflushed invalidations all belong to commits
          // above the still-current QuerySCN, so the published snapshot stays
          // consistent.
          driver_->AbandonAdvance();
          quiesce_.EndQuiesce();
          return false;
        }
        if (!driver_->FlushStep(/*invoker=*/kMaxWorkerId)) {
          // Nothing to grab but remote acks may still be pending.
          if (driver_->AdvanceComplete()) break;
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      }
    }
    STRATUS_CRASH_POINT(chaos_, chaos::CrashPoint::kQuiescePublish);
    if (publish_listener_) publish_listener_(target);
    query_scn_.store(target, std::memory_order_release);
  } catch (const chaos::CrashSignal&) {
    quiesce_.EndQuiesce();
    throw;
  }
  quiesce_.EndQuiesce();
  STRATUS_CRASH_POINT(chaos_, chaos::CrashPoint::kQuiesceEnd);
  quiesce_nanos_.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
  advancements_.fetch_add(1, std::memory_order_relaxed);
  if (driver_ != nullptr) driver_->OnPublished(target);
  {
    std::lock_guard<std::mutex> g(publish_mu_);
    published_.notify_all();
  }
  return true;
}

void RecoveryCoordinator::Run() {
  try {
    while (true) {
      // Only a worker watermark rise can move the candidate. Reading the
      // count before the attempt means a rise during it is never slept
      // through: the wait then returns at once. Stop() sets the flag before
      // bumping the count, so checking the flag after the read cannot miss it.
      const uint64_t seen = rises_.count();
      if (stop_.load(std::memory_order_acquire)) break;
      TryAdvanceOnce();
      rises_.WaitForChange(seen);
    }
  } catch (const chaos::CrashSignal&) {
    // The coordinator "process" dies here. If it died between FlushStep and
    // publish, CrashStop's AbandonAdvance reclaims the worklink remainder.
    crashed_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> g(publish_mu_);
    published_.notify_all();
  }
}

Scn RecoveryCoordinator::WaitForQueryScn(Scn scn, int64_t timeout_us) const {
  std::unique_lock<std::mutex> g(publish_mu_);
  published_.wait_for(g, std::chrono::microseconds(timeout_us), [&] {
    return query_scn() >= scn || stop_.load(std::memory_order_acquire) ||
           crashed_.load(std::memory_order_acquire);
  });
  return query_scn();
}

}  // namespace stratus
