#include "txn/txn_manager.h"

#include <algorithm>

#include "obs/trace.h"

namespace stratus {

void SnapshotRegistry::Register(Scn scn) {
  std::lock_guard<std::mutex> g(mu_);
  active_.insert(scn);
}

void SnapshotRegistry::Unregister(Scn scn) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = active_.find(scn);
  if (it != active_.end()) active_.erase(it);
}

Scn SnapshotRegistry::LowWatermark() const {
  std::lock_guard<std::mutex> g(mu_);
  return active_.empty() ? kMaxScn : *active_.begin();
}

TxnManager::TxnManager(ScnAllocator* scns, TxnTable* txn_table, BlockStore* store,
                       std::vector<RedoLog*> logs,
                       std::function<bool(ObjectId)> im_object_checker)
    : scns_(scns),
      txn_table_(txn_table),
      store_(store),
      logs_(std::move(logs)),
      im_object_checker_(std::move(im_object_checker)) {}

Transaction TxnManager::Begin(RedoThreadId thread, TenantId tenant) {
  Transaction txn;
  txn.xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  txn.thread = thread;
  txn.tenant = tenant;
  return txn;
}

Status TxnManager::EnsureBegun(Transaction* txn) {
  if (txn->finished) return Status::FailedPrecondition("transaction finished");
  if (txn->begun) return Status::OK();
  txn_table_->Begin(txn->xid);
  ChangeVector cv;
  cv.kind = CvKind::kTxnBegin;
  cv.xid = txn->xid;
  cv.dba = TxnTableDbaFor(txn->xid);
  cv.tenant = txn->tenant;
  LogFor(*txn)->Append({std::move(cv)});
  txn->begun = true;
  return Status::OK();
}

void TxnManager::NoteImTouch(Transaction* txn, ObjectId object_id, RowId rid) {
  if (!txn->touched_im && im_object_checker_ && im_object_checker_(object_id))
    txn->touched_im = true;
  if (touch_checker_ && touch_checker_(object_id))
    txn->im_touches.emplace_back(object_id, rid);
}

Status TxnManager::Insert(Transaction* txn, Table* table, Row row, RowId* rid) {
  STRATUS_RETURN_IF_ERROR(EnsureBegun(txn));
  STRATUS_RETURN_IF_ERROR(table->schema()->ValidateRow(row));
  const RowId target = table->AllocateInsertSlot();
  Block* block = store_->GetBlock(target.dba);
  if (block == nullptr) return Status::Internal("allocated block missing");
  STRATUS_RETURN_IF_ERROR(
      block->ApplyInsert(target.slot, txn->xid, row, /*scn=*/kInvalidScn));
  if (table->index() != nullptr && !row.empty() && row[0].type() == ValueType::kInt)
    table->index()->Insert(row[0].as_int(), target);

  ChangeVector cv;
  cv.kind = CvKind::kInsert;
  cv.xid = txn->xid;
  cv.dba = target.dba;
  cv.object_id = table->object_id();
  cv.tenant = txn->tenant;
  cv.slot = target.slot;
  cv.after = std::move(row);
  LogFor(*txn)->Append({std::move(cv)});
  NoteImTouch(txn, table->object_id(), target);
  if (rid != nullptr) *rid = target;
  return Status::OK();
}

Status TxnManager::Update(Transaction* txn, Table* table, RowId rid, Row row) {
  STRATUS_RETURN_IF_ERROR(EnsureBegun(txn));
  STRATUS_RETURN_IF_ERROR(table->schema()->ValidateRow(row));
  Block* block = store_->GetBlock(rid.dba);
  if (block == nullptr) return Status::NotFound("no block at dba");
  STRATUS_RETURN_IF_ERROR(block->UpdateChecked(rid.slot, txn->xid, row,
                                               /*scn=*/kInvalidScn, *txn_table_));
  ChangeVector cv;
  cv.kind = CvKind::kUpdate;
  cv.xid = txn->xid;
  cv.dba = rid.dba;
  cv.object_id = table->object_id();
  cv.tenant = txn->tenant;
  cv.slot = rid.slot;
  cv.after = std::move(row);
  LogFor(*txn)->Append({std::move(cv)});
  NoteImTouch(txn, table->object_id(), rid);
  return Status::OK();
}

Status TxnManager::Delete(Transaction* txn, Table* table, RowId rid) {
  STRATUS_RETURN_IF_ERROR(EnsureBegun(txn));
  Block* block = store_->GetBlock(rid.dba);
  if (block == nullptr) return Status::NotFound("no block at dba");
  STRATUS_RETURN_IF_ERROR(
      block->DeleteChecked(rid.slot, txn->xid, /*scn=*/kInvalidScn, *txn_table_));
  ChangeVector cv;
  cv.kind = CvKind::kDelete;
  cv.xid = txn->xid;
  cv.dba = rid.dba;
  cv.object_id = table->object_id();
  cv.tenant = txn->tenant;
  cv.slot = rid.slot;
  LogFor(*txn)->Append({std::move(cv)});
  NoteImTouch(txn, table->object_id(), rid);
  return Status::OK();
}

StatusOr<Scn> TxnManager::Commit(Transaction* txn) {
  if (txn->finished) return Status::FailedPrecondition("transaction finished");
  txn->finished = true;
  if (!txn->begun) {
    // Read-only transaction: nothing to commit, no redo.
    return visible_scn();
  }
  ChangeVector cv;
  cv.kind = CvKind::kTxnCommit;
  cv.xid = txn->xid;
  cv.dba = TxnTableDbaFor(txn->xid);
  cv.tenant = txn->tenant;
  // Specialized redo generation (Section III.E): annotate the commit record.
  // When disabled, the standby must pessimistically assume every transaction
  // may have touched IMCS objects.
  cv.im_flag = specialized_redo_ ? txn->touched_im : true;

  // The commit mutex serializes (append commit CV → mark committed → advance
  // the visible SCN) so snapshots taken at visible_scn() always see a prefix
  // of commits in commitSCN order.
  STRATUS_SPAN(obs::Stage::kRedoGenerate, txn->xid);
  std::lock_guard<std::mutex> g(commit_mu_);
  if (commit_hooks_ != nullptr) commit_hooks_->PreCommitLock();
  const Scn commit_scn = LogFor(*txn)->Append({std::move(cv)});
  txn_table_->Commit(txn->xid, commit_scn);
  // Primary DBIM maintenance: invalidate the committed rows in the primary's
  // own column store before the commit becomes visible to new snapshots.
  if (commit_hooks_ != nullptr) commit_hooks_->OnCommit(*txn, commit_scn);
  visible_scn_.store(commit_scn, std::memory_order_release);
  if (commit_hooks_ != nullptr) commit_hooks_->PostCommitUnlock();
  commits_.fetch_add(1, std::memory_order_relaxed);
  return commit_scn;
}

void TxnManager::Abort(Transaction* txn) {
  if (txn->finished) return;
  txn->finished = true;
  if (!txn->begun) return;
  ChangeVector cv;
  cv.kind = CvKind::kTxnAbort;
  cv.xid = txn->xid;
  cv.dba = TxnTableDbaFor(txn->xid);
  cv.tenant = txn->tenant;
  LogFor(*txn)->Append({std::move(cv)});
  txn_table_->Abort(txn->xid);
  aborts_.fetch_add(1, std::memory_order_relaxed);
}

ReadView TxnManager::MakeReadView(const Transaction* txn) const {
  ReadView view;
  view.snapshot_scn = visible_scn();
  view.self_xid = txn != nullptr ? txn->xid : kInvalidXid;
  view.resolver = txn_table_;
  return view;
}

}  // namespace stratus
