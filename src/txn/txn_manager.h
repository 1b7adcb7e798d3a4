#ifndef STRATUS_TXN_TXN_MANAGER_H_
#define STRATUS_TXN_TXN_MANAGER_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "redo/redo_log.h"
#include "storage/block_store.h"
#include "storage/table.h"
#include "txn/txn_table.h"

namespace stratus {

/// A transaction handle on the primary. Bound to one redo thread (RAC
/// instance) and one tenant, as in Oracle.
struct Transaction {
  Xid xid = kInvalidXid;
  RedoThreadId thread = 0;
  TenantId tenant = kDefaultTenant;
  bool begun = false;        ///< Begin control CV emitted (lazily, on first DML).
  bool touched_im = false;   ///< Modified an object enabled for the standby IMCS.
  bool finished = false;
  /// Rows modified in objects populated in the *primary's* IMCS; the DBIM
  /// Transaction Manager invalidates them in the column store at commit.
  std::vector<std::pair<ObjectId, RowId>> im_touches;
};

/// Commit-time integration of the primary's DBIM Transaction Manager: marking
/// the committed rows invalid in the primary IMCS must be mutually exclusive
/// with a population snapshot capture (see `PrimaryImSync`). The three calls
/// are made in order, all inside the commit critical section, with the
/// commitSCN already assigned when OnCommit runs.
class CommitHooks {
 public:
  virtual ~CommitHooks() = default;
  virtual void PreCommitLock() = 0;
  virtual void OnCommit(const Transaction& txn, Scn commit_scn) = 0;
  virtual void PostCommitUnlock() = 0;
};

/// Tracks snapshots held open by running queries so version-chain GC never
/// prunes a version a live query could still need.
class SnapshotRegistry {
 public:
  void Register(Scn scn);
  void Unregister(Scn scn);
  /// Smallest registered snapshot, or kMaxScn when none is active.
  Scn LowWatermark() const;

 private:
  mutable std::mutex mu_;
  std::multiset<Scn> active_;
};

/// RAII registration of a query snapshot.
class SnapshotGuard {
 public:
  SnapshotGuard(SnapshotRegistry* reg, Scn scn) : reg_(reg), scn_(scn) {
    if (reg_ != nullptr) reg_->Register(scn_);
  }
  ~SnapshotGuard() {
    if (reg_ != nullptr) reg_->Unregister(scn_);
  }
  SnapshotGuard(const SnapshotGuard&) = delete;
  SnapshotGuard& operator=(const SnapshotGuard&) = delete;

 private:
  SnapshotRegistry* reg_;
  Scn scn_;
};

/// The primary database's transaction manager: begins transactions, applies
/// DML to blocks under row locks (no-wait), generates the redo change vectors
/// the standby consumes, and commits/aborts through the transaction table.
///
/// Specialized redo generation (Section III.E): commit records carry the
/// `im_flag` annotation when the transaction modified any object enabled for
/// population into an IMCS, so the standby can avoid pessimistic coarse
/// invalidation after a restart. Controlled by `set_specialized_redo`.
class TxnManager {
 public:
  /// `logs[i]` is redo thread i's stream. `im_object_checker` answers "is
  /// this object enabled for population into any In-Memory Column Store?".
  TxnManager(ScnAllocator* scns, TxnTable* txn_table, BlockStore* store,
             std::vector<RedoLog*> logs,
             std::function<bool(ObjectId)> im_object_checker);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  Transaction Begin(RedoThreadId thread = 0, TenantId tenant = kDefaultTenant);

  /// Inserts `row` into `table`; returns the new row's address via `*rid`.
  Status Insert(Transaction* txn, Table* table, Row row, RowId* rid);

  /// Updates the row at `rid` to the full after-image `row`. Fails with
  /// Aborted on a row-lock conflict (no-wait), leaving the transaction alive.
  Status Update(Transaction* txn, Table* table, RowId rid, Row row);

  /// Deletes the row at `rid`.
  Status Delete(Transaction* txn, Table* table, RowId rid);

  /// Commits; returns the commitSCN.
  StatusOr<Scn> Commit(Transaction* txn);
  void Abort(Transaction* txn);

  /// Highest SCN whose commits are guaranteed visible to new snapshots.
  Scn visible_scn() const { return visible_scn_.load(std::memory_order_acquire); }

  /// A read view for a new query (or for `txn`'s own reads).
  ReadView MakeReadView(const Transaction* txn = nullptr) const;

  TxnTable* txn_table() const { return txn_table_; }

  void set_specialized_redo(bool on) { specialized_redo_ = on; }
  bool specialized_redo() const { return specialized_redo_; }

  /// Failover bootstrap: resume visibility at the promoted database's last
  /// QuerySCN and XID allocation above everything the redo stream carried.
  void Bootstrap(Scn visible_scn, Xid next_xid) {
    visible_scn_.store(visible_scn, std::memory_order_release);
    next_xid_.store(next_xid, std::memory_order_release);
  }

  /// Wires the primary-IMCS commit integration. `touch_checker` answers "is
  /// this object populated in the primary's own IMCS?" (touch collection);
  /// `hooks` performs the commit-time invalidation. Set before traffic starts.
  void SetPrimaryImIntegration(std::function<bool(ObjectId)> touch_checker,
                               CommitHooks* hooks) {
    touch_checker_ = std::move(touch_checker);
    commit_hooks_ = hooks;
  }

  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t aborts() const { return aborts_.load(std::memory_order_relaxed); }

 private:
  Status EnsureBegun(Transaction* txn);
  RedoLog* LogFor(const Transaction& txn) const { return logs_[txn.thread]; }
  void NoteImTouch(Transaction* txn, ObjectId object_id, RowId rid);

  ScnAllocator* scns_;
  TxnTable* txn_table_;
  BlockStore* store_;
  std::vector<RedoLog*> logs_;
  std::function<bool(ObjectId)> im_object_checker_;
  std::function<bool(ObjectId)> touch_checker_;
  CommitHooks* commit_hooks_ = nullptr;

  std::atomic<Xid> next_xid_{1};
  std::atomic<Scn> visible_scn_{kInvalidScn};
  std::mutex commit_mu_;
  bool specialized_redo_ = true;

  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
};

}  // namespace stratus

#endif  // STRATUS_TXN_TXN_MANAGER_H_
