#ifndef STRATUS_ADG_REDO_APPLY_H_
#define STRATUS_ADG_REDO_APPLY_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "chaos/crash_point.h"
#include "common/types.h"
#include "adg/recovery_coordinator.h"
#include "adg/recovery_worker.h"
#include "redo/log_merger.h"

namespace stratus {

/// Options for the parallel redo apply pipeline.
struct RedoApplyOptions {
  int num_workers = 4;
  /// Broadcast a watermark barrier to all workers whenever the merger has
  /// nothing more to emit, and at least every this many dispatched records
  /// while it keeps emitting (the QuerySCN "leapfrogs" in barrier-sized
  /// steps under load).
  int barrier_interval = 64;
  size_t worker_queue_capacity = 8192;
  /// MIRA: when several apply engines share one *global* recovery
  /// coordinator (built over the union of their workers), the per-engine
  /// coordinator is not created.
  bool create_coordinator = true;
  /// Optional crash injection, threaded into the dispatcher, every recovery
  /// worker and the coordinator. Null in production wiring.
  chaos::ChaosController* chaos = nullptr;
};

/// Parallel Redo Apply / Media Recovery on the standby (Section II.A,
/// Figure 3): a merge thread consumes the SCN-ordered stream from the
/// `LogMerger` and distributes change vectors to recovery workers by hashing
/// the DBA; a recovery coordinator folds worker watermarks into the QuerySCN.
class RedoApplyEngine {
 public:
  /// `sink`, `hooks`, `flush` and `driver` outlive the engine; `hooks`,
  /// `flush` and `driver` may be null (plain ADG without DBIM).
  RedoApplyEngine(std::unique_ptr<LogMerger> merger, ApplySink* sink,
                  ApplyHooks* hooks, FlushParticipant* flush,
                  FlushDriver* driver, const RedoApplyOptions& options);
  ~RedoApplyEngine();

  RedoApplyEngine(const RedoApplyEngine&) = delete;
  RedoApplyEngine& operator=(const RedoApplyEngine&) = delete;

  void Start();
  /// Stops dispatching and drains workers. Records still queued in the
  /// received logs remain there (a later engine instance can resume — the
  /// standby "restart" scenario of Section III.E).
  void Stop();
  /// Crash teardown: some pipeline threads may already be dead on a
  /// CrashSignal. Wakes everything first (so no live thread blocks on a dead
  /// one), joins, abandons any in-progress QuerySCN advancement, then drains
  /// every worker queue straight into the sink so no dispatched change vector
  /// is ever lost (exactly-once across restart).
  void CrashStop();

  RecoveryCoordinator* coordinator() { return coordinator_.get(); }

  /// SCN of the last record handed to the dispatcher.
  Scn dispatched_scn() const { return dispatched_scn_.load(std::memory_order_acquire); }

  uint64_t dispatched_records() const {
    return dispatched_records_.load(std::memory_order_relaxed);
  }

  /// True when any pipeline thread (dispatcher, worker, coordinator) was
  /// terminated by a CrashSignal.
  bool crashed() const;

  const std::vector<std::unique_ptr<RecoveryWorker>>& workers() const {
    return workers_;
  }

 private:
  void DispatchLoop();
  void BroadcastBarrier(Scn scn);

  std::unique_ptr<LogMerger> merger_;
  ApplySink* sink_;
  RedoApplyOptions options_;

  std::vector<std::unique_ptr<RecoveryWorker>> workers_;
  std::unique_ptr<RecoveryCoordinator> coordinator_;

  std::thread dispatch_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> dispatcher_crashed_{false};
  std::atomic<Scn> dispatched_scn_{kInvalidScn};
  std::atomic<uint64_t> dispatched_records_{0};
};

}  // namespace stratus

#endif  // STRATUS_ADG_REDO_APPLY_H_
