#ifndef STRATUS_ADG_RECOVERY_COORDINATOR_H_
#define STRATUS_ADG_RECOVERY_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "chaos/crash_point.h"
#include "common/latch.h"
#include "common/types.h"
#include "adg/recovery_worker.h"

namespace stratus {

/// Work the DBIM-on-ADG infrastructure contributes to a QuerySCN advancement
/// (Section III.D). Implemented by `imadg::InvalidationFlushComponent`; when
/// DBIM-on-ADG is disabled the coordinator advances without a driver.
class FlushDriver {
 public:
  virtual ~FlushDriver() = default;

  /// Chops the IM-ADG Commit Table at `target` and builds the worklinks.
  /// Called inside the Quiesce Period, before any flush step.
  virtual void PrepareAdvance(Scn target) = 0;

  /// Performs one batch of invalidation flush; returns true if more remains.
  virtual bool FlushStep(WorkerId invoker) = 0;

  /// True once every worklink node has been flushed and every remote
  /// instance has acknowledged its invalidation groups.
  virtual bool AdvanceComplete() const = 0;

  /// Called after the new QuerySCN has been published (outside the Quiesce
  /// Period); used to propagate the QuerySCN to non-master RAC instances.
  virtual void OnPublished(Scn published) = 0;

  /// Discards a prepared-but-unfinished advancement (crash teardown): frees
  /// any chopped-but-unflushed worklink nodes. The abandoned invalidations
  /// all belong to commits above the still-current QuerySCN, so no published
  /// consistency point ever needed them.
  virtual void AbandonAdvance() {}
};

/// The recovery coordinator (Section II.A): tracks recovery workers' applied
/// watermarks, establishes consistency points, and publishes the QuerySCN.
/// During each advancement it runs the DBIM-on-ADG invalidation flush inside
/// the Quiesce Period so queries at the new QuerySCN find every stale IMCU
/// row marked invalid.
class RecoveryCoordinator {
 public:
  /// `workers` outlive the coordinator and are not yet started; each gets the
  /// coordinator's watermark signal, so a barrier that raises a worker's
  /// watermark wakes the coordinator. `driver` may be null.
  RecoveryCoordinator(std::vector<RecoveryWorker*> workers, FlushDriver* driver);
  ~RecoveryCoordinator();

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Optional crash injection; must be set before Start().
  void set_chaos(chaos::ChaosController* chaos) { chaos_ = chaos; }

  void Start();
  void Stop();
  /// Crash teardown: additionally abandons an in-progress advancement
  /// (without publishing) instead of waiting for its flush to drain — a
  /// crashed recovery worker can no longer help, and the restart discards the
  /// flush state anyway.
  void CrashStop();

  /// The published QuerySCN: the Consistent Read snapshot for every query on
  /// the standby.
  Scn query_scn() const { return query_scn_.load(std::memory_order_acquire); }

  /// Blocks until query_scn() >= scn, the coordinator stops, or timeout.
  /// Returns the QuerySCN seen. Waiters are released immediately on Stop() —
  /// a stopped coordinator can never publish, so sleeping out the timeout
  /// would only stall shutdown.
  Scn WaitForQueryScn(Scn scn, int64_t timeout_us) const;

  /// The Quiesce lock population synchronizes with (Section III.A).
  QuiesceLock* quiesce() { return &quiesce_; }

  /// Candidate consistency point: min applied watermark across workers.
  Scn CandidateScn() const;

  /// Forces one advancement attempt synchronously (used by tests to step the
  /// protocol deterministically; the background thread does the same).
  bool TryAdvanceOnce();

  /// True when the coordinator thread was terminated by a CrashSignal.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  uint64_t advancements() const { return advancements_.load(std::memory_order_relaxed); }

  /// Total wall time spent inside Quiesce Periods, for redo-apply impact
  /// accounting (Section IV.C).
  uint64_t quiesce_nanos() const { return quiesce_nanos_.load(std::memory_order_relaxed); }

  /// Observer invoked (from the coordinator thread) with every new QuerySCN,
  /// inside the Quiesce Period and before query_scn() changes — so a copy it
  /// keeps is never below query_scn(), and a WaitForQueryScn waiter that
  /// wakes sees it. Must be cheap and must not block; set before Start().
  void set_publish_listener(std::function<void(Scn)> fn) {
    publish_listener_ = std::move(fn);
  }

 private:
  void Run();

  std::vector<RecoveryWorker*> workers_;
  FlushDriver* driver_;
  chaos::ChaosController* chaos_ = nullptr;
  WatermarkSignal rises_;  ///< Worker watermark rises; Stop() bumps it too.

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> abort_advance_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<Scn> query_scn_{kInvalidScn};
  QuiesceLock quiesce_;

  mutable std::mutex publish_mu_;
  mutable std::condition_variable published_;

  std::atomic<uint64_t> advancements_{0};
  std::atomic<uint64_t> quiesce_nanos_{0};
  std::function<void(Scn)> publish_listener_;
};

}  // namespace stratus

#endif  // STRATUS_ADG_RECOVERY_COORDINATOR_H_
