#include "adg/recovery_worker.h"

#include <chrono>

#include "obs/trace.h"

namespace stratus {

void WatermarkSignal::Notify() {
  {
    std::lock_guard<std::mutex> g(mu_);
    ++count_;
  }
  cv_.notify_all();
}

uint64_t WatermarkSignal::count() const {
  std::lock_guard<std::mutex> g(mu_);
  return count_;
}

void WatermarkSignal::WaitForChange(uint64_t seen) const {
  std::unique_lock<std::mutex> g(mu_);
  cv_.wait(g, [&] { return count_ != seen; });
}

RecoveryWorker::RecoveryWorker(WorkerId id, ApplySink* sink, ApplyHooks* hooks,
                               FlushParticipant* flush, size_t queue_capacity)
    : id_(id), sink_(sink), hooks_(hooks), flush_(flush), capacity_(queue_capacity) {}

RecoveryWorker::~RecoveryWorker() {
  if (thread_.joinable()) Stop();
}

void RecoveryWorker::Start() {
  stop_.store(false, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void RecoveryWorker::BeginShutdown() {
  std::lock_guard<std::mutex> g(mu_);
  stop_.store(true, std::memory_order_release);
  not_empty_.notify_all();
  not_full_.notify_all();
}

void RecoveryWorker::Stop() {
  BeginShutdown();
  if (thread_.joinable()) thread_.join();
}

void RecoveryWorker::Enqueue(ApplyEntry entry) {
  std::unique_lock<std::mutex> g(mu_);
  not_full_.wait(g, [&] {
    return queue_.size() < capacity_ || stop_.load(std::memory_order_relaxed);
  });
  // Push even past capacity once stop is requested: the bound only exists for
  // backpressure, while a silently dropped change vector is unrecoverable
  // (its ReceivedLog pop was destructive). DrainQueueTo picks up anything a
  // crashed worker leaves behind.
  queue_.push_back(std::move(entry));
  not_empty_.notify_one();
}

void RecoveryWorker::RequeueFront(ApplyEntry entry) {
  std::lock_guard<std::mutex> g(mu_);
  queue_.push_front(std::move(entry));
}

bool RecoveryWorker::Pop(ApplyEntry* out, int64_t timeout_us) {
  std::unique_lock<std::mutex> g(mu_);
  not_empty_.wait_for(g, std::chrono::microseconds(timeout_us), [&] {
    return !queue_.empty() || stop_.load(std::memory_order_relaxed);
  });
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return true;
}

size_t RecoveryWorker::DrainQueueTo(ApplySink* sink) {
  std::deque<ApplyEntry> rest;
  {
    std::lock_guard<std::mutex> g(mu_);
    rest.swap(queue_);
  }
  size_t applied = 0;
  for (ApplyEntry& entry : rest) {
    if (entry.kind != ApplyEntry::Kind::kCv) continue;
    const Status st = sink->ApplyCv(entry.cv);
    if (!st.ok()) {
      apply_errors_.fetch_add(1, std::memory_order_relaxed);
      LatchError(st);
    }
    applied_cvs_.fetch_add(1, std::memory_order_relaxed);
    ++applied;
  }
  return applied;
}

void RecoveryWorker::LatchError(const Status& status) {
  std::lock_guard<std::mutex> g(err_mu_);
  if (first_error_.ok()) first_error_ = status;
}

Status RecoveryWorker::first_error() const {
  std::lock_guard<std::mutex> g(err_mu_);
  return first_error_;
}

void RecoveryWorker::Run() {
  uint64_t since_flush_check = 0;
  try {
    while (true) {
      ApplyEntry entry;
      if (!Pop(&entry, /*timeout_us=*/1000)) {
        if (stop_.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> g(mu_);
          if (queue_.empty()) break;
          continue;
        }
        // Idle: volunteer for cooperative flush (Section III.D.2).
        if (flush_ != nullptr && flush_->WantsHelp()) flush_->FlushStep(id_);
        continue;
      }
      // The popped entry is the one piece of state only this thread holds; a
      // crash before it is applied must put it back so DrainQueueTo recovers
      // it, and a crash after must NOT (block apply prepends a version — it
      // is not idempotent, so a re-apply would corrupt the row).
      bool applied = false;
      try {
        STRATUS_CRASH_POINT(chaos_, chaos::CrashPoint::kWorkerDequeue);
        if (entry.kind == ApplyEntry::Kind::kBarrier) {
          // Single writer: only this thread stores watermark_, so the guard
          // load may be relaxed. The store is a release, paired with the
          // acquire load in applied_watermark(), so the QuerySCN the
          // coordinator publishes from it happens-after every block change
          // the barrier covers.
          if (entry.scn > watermark_.load(std::memory_order_relaxed)) {
            watermark_.store(entry.scn, std::memory_order_release);
            if (rises_ != nullptr) rises_->Notify();
          }
          continue;
        }
        {
          STRATUS_SPAN(obs::Stage::kRecoveryApply, entry.cv.xid);
          STRATUS_CRASH_POINT(chaos_, chaos::CrashPoint::kWorkerApply);
          const Status st = sink_->ApplyCv(entry.cv);
          applied = true;
          if (!st.ok()) {
            apply_errors_.fetch_add(1, std::memory_order_relaxed);
            LatchError(st);
          }
          applied_cvs_.fetch_add(1, std::memory_order_relaxed);
          if (hooks_ != nullptr) hooks_->OnCvApplied(entry.cv, id_);
        }
      } catch (const chaos::CrashSignal&) {
        if (!applied) RequeueFront(std::move(entry));
        throw;
      }

      // Periodically lend a hand to a pending invalidation flush, without
      // starving redo apply (one batch every few applies).
      if (flush_ != nullptr && ++since_flush_check >= 16) {
        since_flush_check = 0;
        if (flush_->WantsHelp()) flush_->FlushStep(id_);
      }
    }
  } catch (const chaos::CrashSignal&) {
    // The worker "process" dies here. Queued work survives in queue_ for the
    // lifecycle driver's DrainQueueTo; mining state is lost with the journal.
    crashed_.store(true, std::memory_order_release);
  }
}

}  // namespace stratus
