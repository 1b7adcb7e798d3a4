#include "txn/txn_manager.h"

#include <gtest/gtest.h>

#include "storage/table.h"

namespace stratus {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  TxnTest()
      : log_(0, &scns_),
        mgr_(&scns_, &txns_, &store_, {&log_}, /*im_object_checker=*/nullptr),
        table_(10, kDefaultTenant, "t", Schema::WideTable(1, 1), &store_) {
    table_.CreateIdentityIndex();
  }

  Row MakeRow(int64_t id, int64_t n, const std::string& c) {
    return Row{Value(id), Value(n), Value(c)};
  }

  ScnAllocator scns_;
  TxnTable txns_;
  BlockStore store_;
  RedoLog log_;
  TxnManager mgr_;
  Table table_;
};

TEST_F(TxnTest, CommitMakesInsertVisible) {
  Transaction txn = mgr_.Begin();
  RowId rid;
  ASSERT_TRUE(mgr_.Insert(&txn, &table_, MakeRow(1, 2, "x"), &rid).ok());
  // Not visible to a fresh view before commit.
  Row out;
  Block* block = store_.GetBlock(rid.dba);
  EXPECT_TRUE(block->ReadRow(rid.slot, mgr_.MakeReadView(), &out).IsNotFound());
  StatusOr<Scn> scn = mgr_.Commit(&txn);
  ASSERT_TRUE(scn.ok());
  EXPECT_TRUE(block->ReadRow(rid.slot, mgr_.MakeReadView(), &out).ok());
  EXPECT_EQ(mgr_.visible_scn(), *scn);
}

TEST_F(TxnTest, AbortHidesChanges) {
  Transaction txn = mgr_.Begin();
  RowId rid;
  ASSERT_TRUE(mgr_.Insert(&txn, &table_, MakeRow(1, 2, "x"), &rid).ok());
  mgr_.Abort(&txn);
  Row out;
  Block* block = store_.GetBlock(rid.dba);
  EXPECT_TRUE(block->ReadRow(rid.slot, mgr_.MakeReadView(), &out).IsNotFound());
  EXPECT_EQ(mgr_.aborts(), 1u);
}

TEST_F(TxnTest, ReadOnlyCommitEmitsNoRedo) {
  Transaction txn = mgr_.Begin();
  const uint64_t before = log_.TotalRecords();
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  EXPECT_EQ(log_.TotalRecords(), before);
}

TEST_F(TxnTest, BeginCvEmittedLazilyOnce) {
  Transaction txn = mgr_.Begin();
  ASSERT_TRUE(mgr_.Insert(&txn, &table_, MakeRow(1, 2, "x"), nullptr).ok());
  ASSERT_TRUE(mgr_.Insert(&txn, &table_, MakeRow(2, 3, "y"), nullptr).ok());
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  // begin + 2 inserts + commit.
  EXPECT_EQ(log_.TotalRecords(), 4u);
}

TEST_F(TxnTest, WriteConflictSurfacesAsAborted) {
  Transaction t1 = mgr_.Begin();
  RowId rid;
  ASSERT_TRUE(mgr_.Insert(&t1, &table_, MakeRow(1, 2, "x"), &rid).ok());
  ASSERT_TRUE(mgr_.Commit(&t1).ok());

  Transaction t2 = mgr_.Begin();
  ASSERT_TRUE(mgr_.Update(&t2, &table_, rid, MakeRow(1, 5, "y")).ok());
  Transaction t3 = mgr_.Begin();
  EXPECT_TRUE(mgr_.Update(&t3, &table_, rid, MakeRow(1, 7, "z")).IsAborted());
  ASSERT_TRUE(mgr_.Commit(&t2).ok());
  EXPECT_TRUE(mgr_.Update(&t3, &table_, rid, MakeRow(1, 7, "z")).ok());
  ASSERT_TRUE(mgr_.Commit(&t3).ok());
}

TEST_F(TxnTest, SnapshotIsolationAcrossCommits) {
  Transaction t1 = mgr_.Begin();
  RowId rid;
  ASSERT_TRUE(mgr_.Insert(&t1, &table_, MakeRow(1, 100, "x"), &rid).ok());
  ASSERT_TRUE(mgr_.Commit(&t1).ok());
  const ReadView old_view = mgr_.MakeReadView();

  Transaction t2 = mgr_.Begin();
  ASSERT_TRUE(mgr_.Update(&t2, &table_, rid, MakeRow(1, 200, "y")).ok());
  ASSERT_TRUE(mgr_.Commit(&t2).ok());

  Row out;
  Block* block = store_.GetBlock(rid.dba);
  ASSERT_TRUE(block->ReadRow(rid.slot, old_view, &out).ok());
  EXPECT_EQ(out[1].as_int(), 100);
  ASSERT_TRUE(block->ReadRow(rid.slot, mgr_.MakeReadView(), &out).ok());
  EXPECT_EQ(out[1].as_int(), 200);
}

TEST_F(TxnTest, FinishedTransactionRejectsFurtherWork) {
  Transaction txn = mgr_.Begin();
  ASSERT_TRUE(mgr_.Insert(&txn, &table_, MakeRow(1, 2, "x"), nullptr).ok());
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  EXPECT_FALSE(mgr_.Insert(&txn, &table_, MakeRow(2, 3, "y"), nullptr).ok());
  EXPECT_FALSE(mgr_.Commit(&txn).ok());
}

TEST_F(TxnTest, SchemaValidationEnforced) {
  Transaction txn = mgr_.Begin();
  EXPECT_FALSE(mgr_.Insert(&txn, &table_, Row{Value(int64_t{1})}, nullptr).ok());
}

TEST_F(TxnTest, ImFlagSetOnlyWhenCheckerMatches) {
  // Reconfigure with a checker that flags object 10.
  TxnManager mgr2(&scns_, &txns_, &store_, {&log_},
                  [](ObjectId oid) { return oid == 10; });
  Transaction txn = mgr2.Begin();
  ASSERT_TRUE(mgr2.Insert(&txn, &table_, MakeRow(9, 2, "x"), nullptr).ok());
  EXPECT_TRUE(txn.touched_im);

  Table other(11, kDefaultTenant, "u", Schema::WideTable(1, 1), &store_);
  Transaction txn2 = mgr2.Begin();
  ASSERT_TRUE(mgr2.Insert(&txn2, &other, MakeRow(1, 2, "x"), nullptr).ok());
  EXPECT_FALSE(txn2.touched_im);
}

TEST_F(TxnTest, SpecializedRedoOffFlagsEverything) {
  TxnManager mgr2(&scns_, &txns_, &store_, {&log_},
                  [](ObjectId) { return false; });
  mgr2.set_specialized_redo(false);
  Transaction txn = mgr2.Begin();
  ASSERT_TRUE(mgr2.Insert(&txn, &table_, MakeRow(1, 2, "x"), nullptr).ok());
  ASSERT_TRUE(mgr2.Commit(&txn).ok());
  // Inspect the commit CV in the log.
  std::vector<RedoRecord> records;
  log_.ReadFrom(0, 1000, &records);
  bool found = false;
  for (const auto& rec : records) {
    for (const auto& cv : rec.cvs) {
      if (cv.kind == CvKind::kTxnCommit && cv.xid == txn.xid) {
        EXPECT_TRUE(cv.im_flag);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace stratus
