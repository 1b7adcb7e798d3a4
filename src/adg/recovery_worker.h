#ifndef STRATUS_ADG_RECOVERY_WORKER_H_
#define STRATUS_ADG_RECOVERY_WORKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "chaos/crash_point.h"
#include "common/status.h"
#include "common/types.h"
#include "redo/change_vector.h"

namespace stratus {

/// Where the standby applies change vectors (implemented by the standby
/// database: block store, tables, indexes, transaction table).
class ApplySink {
 public:
  virtual ~ApplySink() = default;
  virtual Status ApplyCv(const ChangeVector& cv) = 0;
};

/// Per-CV hook invoked by recovery workers after applying a change vector.
/// The DBIM-on-ADG Mining Component "piggybacks on the recovery workers to
/// sniff each CV" (Section III.B) through this interface.
class ApplyHooks {
 public:
  virtual ~ApplyHooks() = default;
  virtual void OnCvApplied(const ChangeVector& cv, WorkerId worker) = 0;
};

/// Re-bases worker ids before forwarding to an inner hook. Under MIRA every
/// apply instance numbers its workers 0..k-1; the shared Mining Component
/// needs globally unique ids so each worker keeps its own journal area.
class OffsetApplyHooks : public ApplyHooks {
 public:
  OffsetApplyHooks(ApplyHooks* inner, WorkerId offset)
      : inner_(inner), offset_(offset) {}
  void OnCvApplied(const ChangeVector& cv, WorkerId worker) override {
    inner_->OnCvApplied(cv, offset_ + worker);
  }

 private:
  ApplyHooks* inner_;
  WorkerId offset_;
};

/// Cooperative-flush participation (Section III.D.2): between applies,
/// recovery workers poll for a pending worklink and help drain it.
class FlushParticipant {
 public:
  virtual ~FlushParticipant() = default;
  /// True if a flush is pending and workers are allowed to help.
  virtual bool WantsHelp() const = 0;
  /// Performs one batch of flush work; returns true if more remains.
  virtual bool FlushStep(WorkerId invoker) = 0;
};

/// Counts applied-watermark rises across a set of recovery workers, so the
/// recovery coordinator sleeps until one happens instead of polling. The
/// counter sits under the mutex: a waiter that read it before an attempt
/// returns at once if a rise landed during the attempt.
class WatermarkSignal {
 public:
  void Notify();
  uint64_t count() const;
  /// Blocks until count() differs from `seen`.
  void WaitForChange(uint64_t seen) const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  uint64_t count_ = 0;  ///< Guarded by mu_.
};

/// One entry in a recovery worker's queue: either a change vector to apply or
/// a barrier announcing that every CV with SCN <= `scn` assigned to this
/// worker has already been enqueued (so once drained, the worker's applied
/// watermark advances to `scn`).
struct ApplyEntry {
  enum class Kind : uint8_t { kCv, kBarrier } kind = Kind::kBarrier;
  ChangeVector cv;
  Scn scn = kInvalidScn;  ///< Barrier SCN.
};

/// A recovery worker process (Section II.A, Figure 3): applies the change
/// vectors hashed to it, in SCN order, and advertises an applied watermark
/// the recovery coordinator folds into the QuerySCN.
class RecoveryWorker {
 public:
  RecoveryWorker(WorkerId id, ApplySink* sink, ApplyHooks* hooks,
                 FlushParticipant* flush, size_t queue_capacity = 8192);
  ~RecoveryWorker();

  RecoveryWorker(const RecoveryWorker&) = delete;
  RecoveryWorker& operator=(const RecoveryWorker&) = delete;

  /// Optional crash injection; must be set before Start().
  void set_chaos(chaos::ChaosController* chaos) { chaos_ = chaos; }
  /// Notified whenever a barrier raises applied_watermark(); installed by the
  /// recovery coordinator before Start().
  void set_watermark_signal(WatermarkSignal* signal) { rises_ = signal; }

  void Start();
  /// Drains the queue, then stops the thread.
  void Stop();
  /// Requests stop and wakes everything (including a dispatcher blocked in
  /// Enqueue) WITHOUT joining — crash teardown uses this first so the
  /// dispatcher can never deadlock against a worker whose thread already died
  /// on a CrashSignal.
  void BeginShutdown();

  /// Enqueues an entry; blocks when the queue is full (backpressure on the
  /// dispatcher, as Oracle's recovery slaves throttle the merger). Never
  /// drops: change vectors come from destructive ReceivedLog pops, so a
  /// discarded entry would be lost forever. Entries enqueued after stop are
  /// either applied by the draining worker thread or recovered by
  /// DrainQueueTo().
  void Enqueue(ApplyEntry entry);

  /// After the worker thread has been joined: applies every change vector
  /// still queued directly to `sink` (no mining hooks — the journal is being
  /// discarded anyway) so no CV is skipped across a crash. Returns the number
  /// of CVs applied. Single-threaded by contract.
  size_t DrainQueueTo(ApplySink* sink);

  WorkerId id() const { return id_; }

  /// Highest SCN up to which this worker has applied everything assigned to
  /// it (advanced by barriers).
  Scn applied_watermark() const {
    // Acquire pairs with the release store in Run(): a coordinator folding
    // this watermark into the QuerySCN observes every block change the
    // barrier covers.
    return watermark_.load(std::memory_order_acquire);
  }

  /// True when the worker thread was terminated by a CrashSignal.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// First non-OK apply status, latched (OK when none occurred). The counter
  /// alone proved too easy to ignore — the quarantine path and the degraded
  /// health report both start from this.
  Status first_error() const;

  uint64_t applied_cvs() const { return applied_cvs_.load(std::memory_order_relaxed); }
  uint64_t apply_errors() const { return apply_errors_.load(std::memory_order_relaxed); }

 private:
  void Run();
  bool Pop(ApplyEntry* out, int64_t timeout_us);
  void RequeueFront(ApplyEntry entry);
  void LatchError(const Status& status);

  WorkerId id_;
  ApplySink* sink_;
  ApplyHooks* hooks_;
  FlushParticipant* flush_;
  size_t capacity_;
  chaos::ChaosController* chaos_ = nullptr;
  WatermarkSignal* rises_ = nullptr;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> crashed_{false};

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<ApplyEntry> queue_;

  std::atomic<Scn> watermark_{kInvalidScn};
  std::atomic<uint64_t> applied_cvs_{0};
  std::atomic<uint64_t> apply_errors_{0};

  mutable std::mutex err_mu_;
  Status first_error_;  ///< Guarded by err_mu_.
};

}  // namespace stratus

#endif  // STRATUS_ADG_RECOVERY_WORKER_H_
