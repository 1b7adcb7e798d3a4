#include "imcs/scan_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "imcs/population.h"
#include "imcs/scan_kernels.h"
#include "txn/txn_manager.h"

namespace stratus {
namespace {

/// Fixture with a populated table; every scan result is cross-checked against
/// a pure row-path scan at the same snapshot (the ground truth).
class ScanEngineTest : public ::testing::Test {
 protected:
  ScanEngineTest()
      : log_(0, &scns_),
        mgr_(&scns_, &txns_, &store_, {&log_}, nullptr),
        cache_(&store_),
        table_(10, kDefaultTenant, "t", Schema::WideTable(1, 1), &store_),
        im_store_(0, 64u << 20),
        snapshot_(&mgr_, &sync_) {
    PopulationOptions options;
    options.blocks_per_imcu = 2;
    populator_ = std::make_unique<Populator>(&im_store_, &snapshot_, &store_, options);
    populator_->EnableObject(&table_);
  }

  void InsertRows(int n, Random* rng) {
    Transaction txn = mgr_.Begin();
    for (int i = 0; i < n; ++i) {
      Row row{Value(static_cast<int64_t>(next_id_++)),
              Value(static_cast<int64_t>(rng->Uniform(20))),
              Value(std::string("s") + std::to_string(rng->Uniform(5)))};
      ASSERT_TRUE(mgr_.Insert(&txn, &table_, std::move(row), nullptr).ok());
    }
    ASSERT_TRUE(mgr_.Commit(&txn).ok());
  }

  ReadView ViewNow() {
    ReadView v;
    v.snapshot_scn = mgr_.visible_scn();
    v.resolver = &txns_;
    return v;
  }

  std::multiset<int64_t> ScanIds(const std::vector<Predicate>& preds,
                                 bool use_imcs, ScanStats* stats = nullptr) {
    std::multiset<int64_t> ids;
    std::vector<const ImStore*> stores;
    if (use_imcs) stores.push_back(&im_store_);
    ScanEngine engine;
    EXPECT_TRUE(engine
                    .Scan(table_, preds, ViewNow(), stores, cache_,
                          [&](const Row& row) { ids.insert(row[0].as_int()); },
                          stats)
                    .ok());
    return ids;
  }

  /// Ids of the rows a scan of `table` emits, in emission order.
  std::vector<int64_t> OrderedIds(const Table& table,
                                  const std::vector<Predicate>& preds,
                                  const std::vector<const ImStore*>& stores,
                                  size_t dop, ScanStats* stats = nullptr) {
    std::vector<int64_t> ids;
    ScanOptions options;
    options.dop = dop;
    ScanEngine engine;
    const RowSink sink = [&](const Row& row) {
      ids.push_back(row[0].as_int());
    };
    EXPECT_TRUE(engine
                    .Scan(table, preds, ViewNow(), stores, cache_, sink, stats,
                          /*needs_rows=*/true, /*expressions=*/nullptr,
                          ScanAggregate{}, nullptr, options)
                    .ok());
    return ids;
  }

  ScnAllocator scns_;
  TxnTable txns_;
  BlockStore store_;
  RedoLog log_;
  TxnManager mgr_;
  BufferCache cache_;
  Table table_;
  ImStore im_store_;
  PrimaryImSync sync_;
  PrimarySnapshotSource snapshot_;
  std::unique_ptr<Populator> populator_;
  int64_t next_id_ = 0;
};

TEST_F(ScanEngineTest, ImcsScanMatchesRowScan) {
  Random rng(1);
  InsertRows(3 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  const std::vector<Predicate> preds = {{1, PredOp::kEq, Value(int64_t{7})}};
  ScanStats stats;
  const auto imcs = ScanIds(preds, /*use_imcs=*/true, &stats);
  const auto rows = ScanIds(preds, /*use_imcs=*/false);
  EXPECT_EQ(imcs, rows);
  EXPECT_FALSE(imcs.empty());
  EXPECT_GT(stats.rows_from_imcs, 0u);
  EXPECT_EQ(stats.invalid_rowpath, 0u);
}

TEST_F(ScanEngineTest, StringPredicate) {
  Random rng(2);
  InsertRows(2 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  const std::vector<Predicate> preds = {{2, PredOp::kEq, Value(std::string("s3"))}};
  EXPECT_EQ(ScanIds(preds, true), ScanIds(preds, false));
}

TEST_F(ScanEngineTest, UnfilteredScanReturnsAllRows) {
  Random rng(3);
  InsertRows(2 * kRowsPerBlock + 10, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  EXPECT_EQ(ScanIds({}, true).size(), static_cast<size_t>(next_id_));
}

TEST_F(ScanEngineTest, InvalidRowsServedFromRowStore) {
  Random rng(4);
  InsertRows(2 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());

  // Update some rows after population; simulate the invalidation flush.
  Transaction txn = mgr_.Begin();
  const Dba first_block = table_.SnapshotBlocks()[0];
  for (int64_t id = 0; id < 20; ++id) {
    const RowId rid{first_block, static_cast<SlotId>(id)};
    Row row{Value(id), Value(int64_t{100}), Value(std::string("fresh"))};
    ASSERT_TRUE(mgr_.Update(&txn, &table_, rid, std::move(row)).ok());
  }
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  for (int64_t id = 0; id < 20; ++id)
    im_store_.MarkRowInvalid(table_.SnapshotBlocks()[0], static_cast<SlotId>(id));

  // The new value (100 > domain of 20) is only findable through reconciliation.
  ScanStats stats;
  const std::vector<Predicate> preds = {{1, PredOp::kEq, Value(int64_t{100})}};
  const auto ids = ScanIds(preds, true, &stats);
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_GT(stats.invalid_rowpath, 0u);
  EXPECT_EQ(ScanIds(preds, false), ids);

  // And the stale IMCS values must NOT surface.
  ScanStats stats2;
  std::multiset<int64_t> all = ScanIds({}, true, &stats2);
  EXPECT_EQ(all.size(), static_cast<size_t>(next_id_));
}

TEST_F(ScanEngineTest, StorageIndexPrunesImcus) {
  Random rng(5);
  InsertRows(2 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  ScanStats stats;
  // Values are in [0,20): nothing can match 1000.
  const std::vector<Predicate> preds = {{1, PredOp::kEq, Value(int64_t{1000})}};
  const auto ids = ScanIds(preds, true, &stats);
  EXPECT_TRUE(ids.empty());
  EXPECT_GT(stats.imcus_pruned, 0u);
  // A pruned IMCU must not also be counted as scanned.
  EXPECT_EQ(stats.imcus_scanned, 0u);
  EXPECT_EQ(stats.rows_from_imcs, 0u);
}

TEST_F(ScanEngineTest, NeOnConstantColumnPrunedByStorageIndex) {
  // Every row carries the same value in column 1: `!= 5` can't match, and the
  // storage index (min == max == probe) must prune without touching vectors.
  Transaction txn = mgr_.Begin();
  for (int i = 0; i < 2 * static_cast<int>(kRowsPerBlock); ++i) {
    Row row{Value(static_cast<int64_t>(next_id_++)), Value(int64_t{5}),
            Value(std::string("const"))};
    ASSERT_TRUE(mgr_.Insert(&txn, &table_, std::move(row), nullptr).ok());
  }
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  ASSERT_TRUE(populator_->PopulateNow(10).ok());

  ScanStats stats;
  const std::vector<Predicate> ne5 = {{1, PredOp::kNe, Value(int64_t{5})}};
  EXPECT_TRUE(ScanIds(ne5, true, &stats).empty());
  EXPECT_EQ(stats.imcus_scanned, 0u);
  EXPECT_GT(stats.imcus_pruned, 0u);
  EXPECT_TRUE(ScanIds(ne5, false).empty());

  // A probe the column never equals still matches every row.
  ScanStats stats6;
  const std::vector<Predicate> ne6 = {{1, PredOp::kNe, Value(int64_t{6})}};
  EXPECT_EQ(ScanIds(ne6, true, &stats6).size(), static_cast<size_t>(next_id_));
  EXPECT_GT(stats6.imcus_scanned, 0u);
  EXPECT_EQ(stats6.imcus_pruned, 0u);
}

TEST_F(ScanEngineTest, PopulatingSmuFallsBackToRowPath) {
  Random rng(6);
  InsertRows(kRowsPerBlock, &rng);
  // Register an SMU but never attach an IMCU (population in flight).
  auto smu = std::make_shared<Smu>(10, kDefaultTenant, mgr_.visible_scn(),
                                   table_.SnapshotBlocks());
  ASSERT_TRUE(im_store_.RegisterSmu(smu, nullptr).ok());
  ScanStats stats;
  const auto ids = ScanIds({}, true, &stats);
  EXPECT_EQ(ids.size(), static_cast<size_t>(next_id_));
  EXPECT_EQ(stats.rows_from_imcs, 0u);
  EXPECT_GT(stats.blocks_rowpath, 0u);
  EXPECT_GE(stats.imcus_skipped, 1u);
}

TEST_F(ScanEngineTest, TooNewImcuSkipped) {
  Random rng(7);
  InsertRows(kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  // A view older than the IMCU snapshot must not use the IMCS.
  ReadView old_view;
  old_view.snapshot_scn = 1;  // Before any commit completed… except begin CVs.
  old_view.resolver = &txns_;
  ScanEngine engine;
  ScanStats stats;
  size_t n = 0;
  ASSERT_TRUE(engine
                  .Scan(table_, {}, old_view, {&im_store_}, cache_,
                        [&](const Row&) { ++n; }, &stats)
                  .ok());
  EXPECT_EQ(stats.rows_from_imcs, 0u);
  EXPECT_GE(stats.imcus_skipped, 1u);
}

TEST_F(ScanEngineTest, CoarseInvalidatedImcuBypassed) {
  Random rng(8);
  InsertRows(kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  im_store_.CoarseInvalidateTenant(kDefaultTenant);
  ScanStats stats;
  const auto ids = ScanIds({}, true, &stats);
  EXPECT_EQ(ids.size(), static_cast<size_t>(next_id_));
  EXPECT_EQ(stats.rows_from_imcs, 0u);
}

TEST_F(ScanEngineTest, MultiplePredicatesConjunction) {
  Random rng(9);
  InsertRows(2 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  const std::vector<Predicate> preds = {
      {1, PredOp::kGe, Value(int64_t{5})},
      {1, PredOp::kLt, Value(int64_t{10})},
      {2, PredOp::kNe, Value(std::string("s0"))},
  };
  EXPECT_EQ(ScanIds(preds, true), ScanIds(preds, false));
}

// --- Property sweep: random workloads, random predicates, IMCS ≡ row path ---

class ScanProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScanProperty, ImcsAlwaysMatchesRowPath) {
  const uint64_t seed = GetParam();
  ScnAllocator scns;
  TxnTable txns;
  BlockStore store;
  RedoLog log(0, &scns);
  TxnManager mgr(&scns, &txns, &store, {&log}, nullptr);
  BufferCache cache(&store);
  Table table(10, kDefaultTenant, "t", Schema::WideTable(1, 1), &store);
  ImStore im_store(0, 64u << 20);
  PrimaryImSync sync;
  PrimarySnapshotSource snapshot(&mgr, &sync);
  PopulationOptions options;
  options.blocks_per_imcu = 2;
  Populator populator(&im_store, &snapshot, &store, options);
  populator.EnableObject(&table);

  Random rng(seed);
  std::vector<RowId> rids;
  // Load.
  {
    Transaction txn = mgr.Begin();
    for (int i = 0; i < 3 * static_cast<int>(kRowsPerBlock); ++i) {
      RowId rid;
      Row row{Value(static_cast<int64_t>(i)),
              Value(static_cast<int64_t>(rng.Uniform(10))),
              Value(std::string(1, static_cast<char>('a' + rng.Uniform(4))))};
      ASSERT_TRUE(mgr.Insert(&txn, &table, std::move(row), &rid).ok());
      rids.push_back(rid);
    }
    ASSERT_TRUE(mgr.Commit(&txn).ok());
  }
  ASSERT_TRUE(populator.PopulateNow(10).ok());

  // Random post-population churn: updates + deletes, mirrored into the SMU
  // bitmap exactly as the invalidation flush would.
  for (int round = 0; round < 3; ++round) {
    Transaction txn = mgr.Begin();
    for (int i = 0; i < 40; ++i) {
      const RowId rid = rids[rng.Uniform(rids.size())];
      if (rng.Percent(80)) {
        Row row{Value(static_cast<int64_t>(rng.Uniform(rids.size()))),
                Value(static_cast<int64_t>(rng.Uniform(10))),
                Value(std::string(1, static_cast<char>('a' + rng.Uniform(4))))};
        (void)mgr.Update(&txn, &table, rid, std::move(row));
      } else {
        (void)mgr.Delete(&txn, &table, rid);
      }
      im_store.MarkRowInvalid(rid.dba, rid.slot);
    }
    ASSERT_TRUE(mgr.Commit(&txn).ok());
  }

  // Random predicates, both paths must agree exactly.
  ScanEngine engine;
  ReadView view;
  view.snapshot_scn = mgr.visible_scn();
  view.resolver = &txns;
  for (int q = 0; q < 12; ++q) {
    std::vector<Predicate> preds;
    const PredOp op = static_cast<PredOp>(rng.Uniform(6));
    if (rng.Percent(50)) {
      preds.push_back({1, op, Value(static_cast<int64_t>(rng.Uniform(12)))});
    } else {
      preds.push_back({2, op, Value(std::string(1, static_cast<char>('a' + rng.Uniform(5))))});
    }
    std::multiset<int64_t> imcs, rows;
    ASSERT_TRUE(engine
                    .Scan(table, preds, view, {&im_store}, cache,
                          [&](const Row& r) { imcs.insert(r[0].as_int()); },
                          nullptr)
                    .ok());
    ASSERT_TRUE(engine
                    .Scan(table, preds, view, {}, cache,
                          [&](const Row& r) { rows.insert(r[0].as_int()); },
                          nullptr)
                    .ok());
    EXPECT_EQ(imcs, rows) << "seed=" << seed << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// --- Predicate three-valued logic: the row path and the columnar recheck ---
// --- share EvalPredicateValue; this pins down its semantics for every op ---

Value RandomValue(Random* rng) {
  const uint32_t kind = static_cast<uint32_t>(rng->Uniform(5));
  if (kind == 0) return Value();  // NULL.
  if (kind < 3) return Value(static_cast<int64_t>(rng->UniformInt(-5, 5)));
  return Value(std::string(1, static_cast<char>('a' + rng->Uniform(4))));
}

TEST(PredicateProperty, ThreeValuedLogicAndOperatorIdentities) {
  Random rng(20260806);
  for (int iter = 0; iter < 20000; ++iter) {
    const Value v = RandomValue(&rng);
    Predicate pred;
    pred.column = 0;
    pred.op = static_cast<PredOp>(rng.Uniform(6));
    pred.value = RandomValue(&rng);

    const bool got = EvalPredicateValue(v, pred);

    // The row path is exactly the shared helper plus a bounds check.
    EXPECT_EQ(EvalPredicate(Row{v}, pred), got);
    Predicate out_of_range = pred;
    out_of_range.column = 1;
    EXPECT_FALSE(EvalPredicate(Row{v}, out_of_range));

    // SQL 3VL: NULL on either side never matches — not even for kNe.
    if (v.is_null() || pred.value.is_null()) {
      EXPECT_FALSE(got) << "op=" << static_cast<int>(pred.op);
      continue;
    }
    // Type mismatch never matches.
    if (v.type() != pred.value.type()) {
      EXPECT_FALSE(got) << "op=" << static_cast<int>(pred.op);
      continue;
    }

    // Non-null, same type: ordinary total-order comparison semantics. These
    // identities are exactly what licenses the single-comparison kLe/kGe
    // (`!(b < a)` / `!(a < b)`) in CompareValues.
    const bool eq = v == pred.value;
    const bool lt = v < pred.value;
    const bool gt = pred.value < v;
    bool expected = false;
    switch (pred.op) {
      case PredOp::kEq: expected = eq; break;
      case PredOp::kNe: expected = !eq; break;
      case PredOp::kLt: expected = lt; break;
      case PredOp::kLe: expected = lt || eq; break;
      case PredOp::kGt: expected = gt; break;
      case PredOp::kGe: expected = gt || eq; break;
    }
    EXPECT_EQ(got, expected) << "op=" << static_cast<int>(pred.op)
                             << " v=" << v.ToString()
                             << " rhs=" << pred.value.ToString();
    // Complement identities (hold only after the NULL/type gate).
    Predicate flip = pred;
    flip.op = PredOp::kGe;
    EXPECT_EQ(EvalPredicateValue(v, flip), !lt);
    flip.op = PredOp::kLe;
    EXPECT_EQ(EvalPredicateValue(v, flip), !gt);
  }
}

// --- DOP sweep (quiescent): rows, order, stats, aggregates identical ---

TEST_F(ScanEngineTest, DopSweepProducesIdenticalResults) {
  Random rng(99);
  InsertRows(3 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());

  // Invalidate a slice (reconciliation path) and append uncovered blocks
  // (row-path chunks), so every execution path participates in the sweep.
  Transaction txn = mgr_.Begin();
  const Dba first_block = table_.SnapshotBlocks()[0];
  for (int64_t id = 0; id < 30; ++id) {
    const RowId rid{first_block, static_cast<SlotId>(id)};
    Row row{Value(id), Value(int64_t{7}), Value(std::string("fresh"))};
    ASSERT_TRUE(mgr_.Update(&txn, &table_, rid, std::move(row)).ok());
  }
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  for (int64_t id = 0; id < 30; ++id)
    im_store_.MarkRowInvalid(first_block, static_cast<SlotId>(id));
  InsertRows(kRowsPerBlock + 17, &rng);

  ScanEngine engine;
  const ReadView view = ViewNow();
  const std::vector<std::vector<Predicate>> queries = {
      {},                                              // Unfiltered.
      {{1, PredOp::kEq, Value(int64_t{7})}},           // Int, hits fresh rows.
      {{2, PredOp::kNe, Value(std::string("s0"))}},    // String.
      {{1, PredOp::kLe, Value(int64_t{9})},            // Conjunction.
       {2, PredOp::kGt, Value(std::string("s1"))}},
  };
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<Row> base_rows;
    ScanStats base_stats;
    AggState base_agg;
    for (const size_t dop : {size_t{1}, size_t{2}, size_t{8}}) {
      std::vector<Row> rows;
      ScanStats stats;
      AggState agg;
      ScanOptions options;
      options.dop = dop;
      ASSERT_TRUE(engine
                      .Scan(table_, queries[qi], view, {&im_store_}, cache_,
                            [&](const Row& r) { rows.push_back(r); }, &stats,
                            /*needs_rows=*/true, /*expressions=*/nullptr,
                            ScanAggregate{}, nullptr, options)
                      .ok());
      AggState sum_agg;
      ASSERT_TRUE(engine
                      .Scan(table_, queries[qi], view, {&im_store_}, cache_,
                            [](const Row&) {}, nullptr, /*needs_rows=*/false,
                            /*expressions=*/nullptr,
                            ScanAggregate{AggKind::kSum, 1}, &sum_agg, options)
                      .ok());
      if (dop == 1) {
        base_rows = std::move(rows);
        base_stats = stats;
        base_agg = sum_agg;
        EXPECT_FALSE(base_rows.empty()) << "q=" << qi;
        continue;
      }
      // Not just the same multiset: identical rows in identical order.
      EXPECT_EQ(rows, base_rows) << "q=" << qi << " dop=" << dop;
      // Quiescent, so the full stats — including the path split and the task
      // decomposition — must be reproduced exactly.
      EXPECT_EQ(stats.rows_from_imcs, base_stats.rows_from_imcs) << "q=" << qi;
      EXPECT_EQ(stats.rows_from_rowstore, base_stats.rows_from_rowstore);
      EXPECT_EQ(stats.imcus_scanned, base_stats.imcus_scanned);
      EXPECT_EQ(stats.imcus_pruned, base_stats.imcus_pruned);
      EXPECT_EQ(stats.imcus_skipped, base_stats.imcus_skipped);
      EXPECT_EQ(stats.blocks_rowpath, base_stats.blocks_rowpath);
      EXPECT_EQ(stats.invalid_rowpath, base_stats.invalid_rowpath);
      EXPECT_EQ(stats.parallel_tasks, base_stats.parallel_tasks);
      EXPECT_GT(stats.parallel_tasks, 1u);
      // Aggregation push-down merges partials back to the serial answer.
      EXPECT_EQ(sum_agg.count, base_agg.count) << "q=" << qi << " dop=" << dop;
      EXPECT_EQ(sum_agg.acc, base_agg.acc) << "q=" << qi << " dop=" << dop;
      EXPECT_EQ(sum_agg.started, base_agg.started);
    }
    // Cross-check the pushed-down sum against folding the materialized rows.
    int64_t expected_sum = 0;
    for (const Row& r : base_rows) expected_sum += r[1].as_int();
    EXPECT_EQ(base_agg.count, base_rows.size()) << "q=" << qi;
    if (!base_rows.empty()) {
      EXPECT_EQ(base_agg.acc, expected_sum) << "q=" << qi;
    }
  }
}

// --- Kernel sweep: scalar, SWAR, and AVX2 must be byte-identical at every
// --- DOP. Kernel attribution counters are the only stats allowed to differ.

TEST_F(ScanEngineTest, KernelSweepByteIdenticalAcrossDop) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;

  Random rng(2024);
  InsertRows(3 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  // Churn: invalidated rows (reconciliation) and uncovered appended blocks
  // (row-path chunks), so every execution path runs under every kernel.
  Transaction txn = mgr_.Begin();
  const Dba first_block = table_.SnapshotBlocks()[0];
  for (int64_t id = 0; id < 25; ++id) {
    const RowId rid{first_block, static_cast<SlotId>(id)};
    Row row{Value(id), Value(int64_t{7}), Value(std::string("fresh"))};
    ASSERT_TRUE(mgr_.Update(&txn, &table_, rid, std::move(row)).ok());
  }
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  for (int64_t id = 0; id < 25; ++id)
    im_store_.MarkRowInvalid(first_block, static_cast<SlotId>(id));
  InsertRows(kRowsPerBlock + 11, &rng);

  ScanEngine engine;
  const ReadView view = ViewNow();
  const std::vector<std::vector<Predicate>> queries = {
      {{1, PredOp::kEq, Value(int64_t{7})}},
      {{1, PredOp::kNe, Value(int64_t{3})}},
      {{2, PredOp::kGe, Value(std::string("s2"))}},
      {{1, PredOp::kLt, Value(int64_t{12})},
       {2, PredOp::kNe, Value(std::string("s4"))}},
  };
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<Row> base_rows;
    ScanStats base_stats;
    AggState base_agg;
    bool have_base = false;
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
      ForceScanKernel(kernel);
      for (const size_t dop : {size_t{1}, size_t{2}, size_t{8}}) {
        std::vector<Row> rows;
        ScanStats stats;
        ScanOptions options;
        options.dop = dop;
        ASSERT_TRUE(engine
                        .Scan(table_, queries[qi], view, {&im_store_}, cache_,
                              [&](const Row& r) { rows.push_back(r); }, &stats,
                              /*needs_rows=*/true, /*expressions=*/nullptr,
                              ScanAggregate{}, nullptr, options)
                        .ok());
        AggState agg;
        ASSERT_TRUE(engine
                        .Scan(table_, queries[qi], view, {&im_store_}, cache_,
                              [](const Row&) {}, nullptr, /*needs_rows=*/false,
                              /*expressions=*/nullptr,
                              ScanAggregate{AggKind::kSum, 1}, &agg, options)
                        .ok());
        if (!have_base) {
          base_rows = std::move(rows);
          base_stats = stats;
          base_agg = agg;
          have_base = true;
          EXPECT_FALSE(base_rows.empty()) << "q=" << qi;
          continue;
        }
        const std::string ctx = "q=" + std::to_string(qi) +
                                " kernel=" + ScanKernelName(kernel) +
                                " dop=" + std::to_string(dop);
        EXPECT_EQ(rows, base_rows) << ctx;
        EXPECT_EQ(stats.rows_from_imcs, base_stats.rows_from_imcs) << ctx;
        EXPECT_EQ(stats.rows_from_rowstore, base_stats.rows_from_rowstore) << ctx;
        EXPECT_EQ(stats.imcus_scanned, base_stats.imcus_scanned) << ctx;
        EXPECT_EQ(stats.imcus_pruned, base_stats.imcus_pruned) << ctx;
        EXPECT_EQ(stats.imcus_skipped, base_stats.imcus_skipped) << ctx;
        EXPECT_EQ(stats.blocks_rowpath, base_stats.blocks_rowpath) << ctx;
        EXPECT_EQ(stats.invalid_rowpath, base_stats.invalid_rowpath) << ctx;
        EXPECT_EQ(agg.count, base_agg.count) << ctx;
        EXPECT_EQ(agg.acc, base_agg.acc) << ctx;
        EXPECT_EQ(agg.started, base_agg.started) << ctx;
        // The forced kernel must actually be attributed (AVX2 falls back to
        // SWAR on machines without it — still nonzero vector words).
        if (kernel == ScanKernel::kScalar) {
          EXPECT_GT(stats.kernel_scalar_rows, 0u) << ctx;
          EXPECT_EQ(stats.kernel_swar_words + stats.kernel_avx2_words, 0u) << ctx;
        } else {
          EXPECT_GT(stats.kernel_swar_words + stats.kernel_avx2_words, 0u) << ctx;
          EXPECT_EQ(stats.kernel_scalar_rows, 0u) << ctx;
        }
      }
    }
  }
}

TEST_F(ScanEngineTest, AggregatePushdownMinMaxAtHighDop) {
  Random rng(7);
  InsertRows(3 * kRowsPerBlock + 40, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());

  ScanEngine engine;
  const ReadView view = ViewNow();
  int64_t expected_min = 0, expected_max = 0;
  bool first = true;
  ASSERT_TRUE(engine
                  .Scan(table_, {}, view, {}, cache_,
                        [&](const Row& r) {
                          const int64_t x = r[1].as_int();
                          expected_min = first ? x : std::min(expected_min, x);
                          expected_max = first ? x : std::max(expected_max, x);
                          first = false;
                        },
                        nullptr)
                  .ok());
  ASSERT_FALSE(first);
  for (const AggKind kind : {AggKind::kMin, AggKind::kMax}) {
    for (const size_t dop : {size_t{1}, size_t{4}}) {
      AggState agg;
      ScanOptions options;
      options.dop = dop;
      ASSERT_TRUE(engine
                      .Scan(table_, {}, view, {&im_store_}, cache_,
                            [](const Row&) {}, nullptr, /*needs_rows=*/false,
                            /*expressions=*/nullptr, ScanAggregate{kind, 1},
                            &agg, options)
                      .ok());
      EXPECT_TRUE(agg.started);
      EXPECT_EQ(agg.acc, kind == AggKind::kMin ? expected_min : expected_max)
          << "dop=" << dop;
    }
  }
}

// Two stores whose SMUs cover the same blocks: the SMU gathered second
// overlaps an accepted one and is skipped, so every block is scanned once, in
// block order, whichever store comes first.
TEST_F(ScanEngineTest, OverlappingSmusScanEachBlockOnce) {
  Random rng(6);
  InsertRows(6 * kRowsPerBlock + 40, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  ImStore second(0, 64u << 20);
  PopulationOptions options;
  options.blocks_per_imcu = 3;  // Straddles the first store's 2-block IMCUs.
  Populator second_populator(&second, &snapshot_, &store_, options);
  second_populator.EnableObject(&table_);
  ASSERT_TRUE(second_populator.PopulateNow(10).ok());
  ASSERT_FALSE(second.SmusForObject(10).empty());

  const std::vector<Predicate> preds = {{1, PredOp::kGe, Value(int64_t{5})}};
  const std::vector<int64_t> want = OrderedIds(table_, preds, {}, 1);
  ASSERT_FALSE(want.empty());
  ScanStats alone;
  EXPECT_EQ(OrderedIds(table_, preds, {&im_store_}, 1, &alone), want);
  EXPECT_GT(alone.rows_from_imcs, 0u);
  for (const size_t dop : {size_t{1}, size_t{2}, size_t{8}}) {
    ScanStats both;
    EXPECT_EQ(OrderedIds(table_, preds, {&im_store_, &second}, dop, &both),
              want)
        << "dop=" << dop;
    EXPECT_EQ(both.imcus_scanned + both.imcus_pruned,
              alone.imcus_scanned + alone.imcus_pruned);
    EXPECT_EQ(both.parallel_tasks, alone.parallel_tasks);
    EXPECT_EQ(both.rows_from_imcs, alone.rows_from_imcs);
    EXPECT_EQ(both.blocks_rowpath, alone.blocks_rowpath);

    ScanStats reversed;
    EXPECT_EQ(OrderedIds(table_, preds, {&second, &im_store_}, dop, &reversed),
              want)
        << "dop=" << dop;
    EXPECT_EQ(reversed.rows_from_imcs + reversed.rows_from_rowstore,
              want.size());
  }
}

// An SMU none of whose blocks the table's block list holds (here another
// table's, under the same object id) anchors past every listed block: its
// rows come last, even when its store is consulted first.
TEST_F(ScanEngineTest, SmusOfUnlistedBlocksSortLast) {
  Random rng(5);
  InsertRows(3 * kRowsPerBlock, &rng);
  ASSERT_TRUE(populator_->PopulateNow(10).ok());
  Table other(10, kDefaultTenant, "other", Schema::WideTable(1, 1), &store_);
  Transaction txn = mgr_.Begin();
  for (int i = 0; i < 2 * static_cast<int>(kRowsPerBlock); ++i) {
    Row row{Value(static_cast<int64_t>(next_id_++)),
            Value(static_cast<int64_t>(rng.Uniform(20))),
            Value(std::string("o") + std::to_string(rng.Uniform(5)))};
    ASSERT_TRUE(mgr_.Insert(&txn, &other, std::move(row), nullptr).ok());
  }
  ASSERT_TRUE(mgr_.Commit(&txn).ok());
  ImStore other_store(0, 64u << 20);
  PopulationOptions options;
  options.blocks_per_imcu = 2;
  Populator other_populator(&other_store, &snapshot_, &store_, options);
  other_populator.EnableObject(&other);
  ASSERT_TRUE(other_populator.PopulateNow(10).ok());
  ASSERT_FALSE(other_store.SmusForObject(10).empty());

  const std::vector<Predicate> preds = {{1, PredOp::kLe, Value(int64_t{9})}};
  std::vector<int64_t> want = OrderedIds(table_, preds, {}, 1);
  const std::vector<int64_t> unlisted = OrderedIds(other, preds, {}, 1);
  ASSERT_FALSE(want.empty());
  ASSERT_FALSE(unlisted.empty());
  want.insert(want.end(), unlisted.begin(), unlisted.end());
  for (const size_t dop : {size_t{1}, size_t{2}, size_t{8}}) {
    ScanStats stats;
    EXPECT_EQ(
        OrderedIds(table_, preds, {&other_store, &im_store_}, dop, &stats),
        want)
        << "dop=" << dop;
    EXPECT_GE(stats.rows_from_imcs, unlisted.size()) << "dop=" << dop;
  }
}

}  // namespace
}  // namespace stratus
