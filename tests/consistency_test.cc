#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "db/database.h"
#include "fleet/fleet_cluster.h"
#include "fleet/fleet_router.h"
#include "imcs/scan_kernels.h"

namespace stratus {
namespace {

/// The one loop condition of every churn check in this file. A test checks
/// until it reaches the minimum its `EXPECT_GE(checks, …)` asserts, then
/// keeps checking toward `max_checks` only while the 15 s soft deadline
/// lasts: a slow host (a sanitizer build under load takes seconds per check)
/// makes the test slower, not failed. The 120 s hard stop keeps a standby
/// that never publishes from hanging the suite; the `EXPECT_GE` then fails.
bool KeepChecking(int checks, int min_checks, int max_checks,
                  uint64_t start_us) {
  const uint64_t elapsed_us = NowMicros() - start_us;
  if (elapsed_us >= 120'000'000) return false;
  return checks < min_checks ||
         (checks < max_checks && elapsed_us < 15'000'000);
}

/// Shared harness for the end-to-end consistency properties: an AdgCluster
/// with a populated standby IMCS and two writer threads hammering updates /
/// inserts / deletes on the primary, so every check below runs while the
/// invalidation, flush, repopulation, and QuerySCN machinery is hot. With
/// `redo_threads` > 1 the writers commit on alternating primary redo threads,
/// so the standby's log merger assembles every QuerySCN from several streams.
class ChurnHarness {
 public:
  explicit ChurnHarness(uint64_t seed, int redo_threads = 1)
      : seed_(seed), redo_threads_(redo_threads),
        cluster_(MakeOptions(redo_threads)) {
    cluster_.Start();
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                              ImService::kStandbyOnly, true)
                 .value();
    Transaction txn = cluster_.primary()->Begin();
    Random rng(seed_);
    for (int i = 0; i < 3 * static_cast<int>(kRowsPerBlock); ++i) {
      EXPECT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_, MakeRow(next_id_.fetch_add(1), &rng),
                               nullptr)
                      .ok());
    }
    EXPECT_TRUE(cluster_.primary()->Commit(&txn).ok());
    cluster_.WaitForCatchup();
    EXPECT_TRUE(cluster_.standby()->PopulateNow(table_).ok());
  }

  ~ChurnHarness() {
    StopChurn();
    cluster_.Stop();
  }

  AdgCluster* cluster() { return &cluster_; }
  ObjectId table() const { return table_; }

  void StartChurn() {
    // Writer i commits on redo thread i % redo_threads_.
    const auto second = static_cast<RedoThreadId>(1 % redo_threads_);
    writers_.emplace_back([this] { WriterLoop(seed_ * 3 + 1, 0); });
    writers_.emplace_back([this, second] { WriterLoop(seed_ * 5 + 2, second); });
  }

  void StopChurn() {
    stop_.store(true, std::memory_order_release);
    for (auto& w : writers_) w.join();
    writers_.clear();
  }

 private:
  Row MakeRow(int64_t id, Random* rng) const {
    return Row{Value(id), Value(static_cast<int64_t>(rng->Uniform(50))),
               Value(static_cast<int64_t>(rng->Uniform(50))),
               Value(std::string("s") + std::to_string(rng->Uniform(6)))};
  }

  static DatabaseOptions MakeOptions(int redo_threads) {
    DatabaseOptions options;
    options.primary_redo_threads = redo_threads;
    options.apply.num_workers = 3;
    options.apply.barrier_interval = 8;
    options.population.blocks_per_imcu = 2;
    options.population.manager_interval_us = 2000;
    options.population.repop_invalid_threshold = 0.10;
    options.shipping.heartbeat_interval_us = 500;
    options.commit_table_partitions = 2;
    options.journal_buckets = 8;
    return options;
  }

  void WriterLoop(uint64_t wseed, RedoThreadId thread) {
    Random rng(wseed);
    while (!stop_.load(std::memory_order_acquire)) {
      Transaction txn = cluster_.primary()->Begin(thread);
      bool ok = true;
      const int ops = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < ops && ok; ++i) {
        const uint32_t dice = static_cast<uint32_t>(rng.Uniform(100));
        if (dice < 60) {
          const int64_t id = rng.UniformInt(0, next_id_.load() - 1);
          Status st = cluster_.primary()->UpdateByKey(&txn, table_, id,
                                                      MakeRow(id, &rng));
          if (st.IsAborted()) ok = false;  // Row-lock conflict: roll back.
        } else if (dice < 85) {
          const int64_t id = next_id_.fetch_add(1);
          (void)cluster_.primary()->Insert(&txn, table_, MakeRow(id, &rng),
                                           nullptr);
        } else {
          const int64_t id = rng.UniformInt(0, next_id_.load() - 1);
          Table* t = cluster_.primary()->table(table_);
          const auto rid = t->index()->Lookup(id);
          if (rid.has_value()) {
            Status st = cluster_.primary()->Delete(&txn, table_, *rid);
            if (st.IsAborted()) ok = false;
          }
        }
      }
      if (ok) {
        (void)cluster_.primary()->Commit(&txn);
      } else {
        cluster_.primary()->Abort(&txn);
      }
    }
  }

  const uint64_t seed_;
  const int redo_threads_;
  AdgCluster cluster_;
  ObjectId table_ = kInvalidObjectId;
  std::atomic<int64_t> next_id_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> writers_;
};

/// Draws a random Q1/Q2/unfiltered scan shape (no aggregate set).
ScanQuery RandomQuery(ObjectId table, Random* rng) {
  ScanQuery q;
  q.object = table;
  const uint32_t kind = static_cast<uint32_t>(rng->Uniform(3));
  if (kind == 0) {
    q.predicates = {{1, PredOp::kEq, Value(static_cast<int64_t>(rng->Uniform(50)))}};
  } else if (kind == 1) {
    q.predicates = {{3, PredOp::kEq,
                     Value(std::string("s") + std::to_string(rng->Uniform(6)))}};
  }  // kind == 2: unfiltered.
  return q;
}

/// The flagship end-to-end property of DBIM-on-ADG: a standby query at the
/// published QuerySCN returns *exactly* what the primary would return at that
/// SCN — under continuous OLTP churn, with the standby IMCS populated and
/// being invalidated, repopulated, and extended throughout. A violation means
/// the IMCS served stale data (or the QuerySCN protocol exposed a torn
/// transaction).
class ConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConsistencyTest, StandbyEqualsPrimaryAtEveryQueryScn) {
  const uint64_t seed = GetParam();
  ChurnHarness harness(seed);
  AdgCluster& cluster = *harness.cluster();
  harness.StartChurn();

  // Verifier: compare standby and primary at the standby's QuerySCN.
  Random qrng(seed * 7 + 3);
  int checks = 0;
  const uint64_t start = NowMicros();
  while (KeepChecking(checks, /*min_checks=*/10, /*max_checks=*/25, start)) {
    ScanQuery q = RandomQuery(harness.table(), &qrng);
    q.aggregates = {{AggKind::kSum, 2}};

    const auto standby = cluster.standby()->Query(q);
    if (!standby.ok()) continue;  // QuerySCN not yet published.
    const auto primary = cluster.primary()->QueryAt(q, standby->snapshot);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(standby->count, primary->count)
        << "seed=" << seed << " scn=" << standby->snapshot;
    EXPECT_EQ(standby->agg_int, primary->agg_int)
        << "seed=" << seed << " scn=" << standby->snapshot;
    ++checks;
  }
  harness.StopChurn();
  EXPECT_GE(checks, 10);

  // The machinery really ran: invalidations flushed, IMCUs possibly repopulated.
  EXPECT_GT(cluster.standby()->flush()->stats().flushed_txns, 0u);
}

/// The parallel-scan determinism property: with the snapshot SCN pinned, the
/// QueryResult — rows, their order, count, aggregate — is byte-identical at
/// every DOP *and every scan kernel* (scalar, SWAR, AVX2), even while churn
/// keeps invalidating rows and population keeps reshaping IMCU coverage
/// between executions. The scan's global (block, slot) emission order makes
/// the result independent of which path serves a row; only the path *split*
/// in the stats may move (their sum must not).
TEST_P(ConsistencyTest, DopSweepByteIdenticalUnderChurn) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;
  const uint64_t seed = GetParam();
  ChurnHarness harness(seed);
  AdgCluster& cluster = *harness.cluster();
  harness.StartChurn();

  Random qrng(seed * 11 + 5);
  int checks = 0;
  const uint64_t start = NowMicros();
  while (KeepChecking(checks, /*min_checks=*/6, /*max_checks=*/12, start)) {
    ScanQuery q = RandomQuery(harness.table(), &qrng);
    if (qrng.Percent(50)) {
      q.aggregates = {{AggKind::kSum, 2}};
    }
    const Scn scn = cluster.standby()->query_scn();
    if (scn == kInvalidScn) continue;

    q.dop = 1;
    ForceScanKernel(ScanKernel::kScalar);
    const auto base = cluster.standby()->QueryAt(q, scn);
    ASSERT_TRUE(base.ok());
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
      ForceScanKernel(kernel);
      for (uint32_t dop : {1u, 2u, 8u}) {
        if (kernel == ScanKernel::kScalar && dop == 1) continue;  // The base.
        q.dop = dop;
        const auto result = cluster.standby()->QueryAt(q, scn);
        ASSERT_TRUE(result.ok());
        const std::string ctx = std::string(" seed=") + std::to_string(seed) +
                                " scn=" + std::to_string(scn) +
                                " kernel=" + ScanKernelName(kernel) +
                                " dop=" + std::to_string(dop);
        EXPECT_EQ(result->rows, base->rows) << ctx;
        EXPECT_EQ(result->count, base->count) << ctx;
        EXPECT_EQ(result->agg_int, base->agg_int) << ctx;
        EXPECT_EQ(result->agg_valid, base->agg_valid) << ctx;
        // Between executions a concurrent flush may move rows from the
        // columnar pass to reconciliation (never the data, only the path), so
        // only the per-path *sum* is invariant under churn.
        EXPECT_EQ(result->stats.rows_from_imcs + result->stats.rows_from_rowstore,
                  base->stats.rows_from_imcs + base->stats.rows_from_rowstore)
            << ctx;
      }
    }
    ClearScanKernelOverride();
    // Cross-check the pinned snapshot against the primary as well.
    q.dop = 1;
    const auto primary = cluster.primary()->QueryAt(q, scn);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(primary->count, base->count) << "seed=" << seed << " scn=" << scn;
    EXPECT_EQ(primary->agg_int, base->agg_int);
    ++checks;
  }
  harness.StopChurn();
  EXPECT_GE(checks, 6);
}

/// The pinned-SCN property on two primary redo threads: every QuerySCN the
/// standby publishes is a cut the log merger assembled from both streams
/// while writers commit on each. At that SCN the standby, at every DOP, must
/// equal the primary's flashback read.
TEST_P(ConsistencyTest, TwoRedoThreadsPinnedScnEqualsPrimary) {
  const uint64_t seed = GetParam();
  ChurnHarness harness(seed, /*redo_threads=*/2);
  AdgCluster& cluster = *harness.cluster();
  harness.StartChurn();

  Random qrng(seed * 19 + 11);
  int checks = 0;
  Scn last_checked = kInvalidScn;
  const uint64_t start = NowMicros();
  while (KeepChecking(checks, /*min_checks=*/6, /*max_checks=*/12, start)) {
    // Each check pins a fresh QuerySCN, so the checks span the advance.
    const Scn scn = cluster.standby()->query_scn();
    if (scn == kInvalidScn || scn == last_checked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    last_checked = scn;
    ScanQuery q = RandomQuery(harness.table(), &qrng);
    if (qrng.Percent(50)) {
      q.aggregates = {{AggKind::kSum, 2}};
    }

    q.dop = 1;
    const auto primary = cluster.primary()->QueryAt(q, scn);
    ASSERT_TRUE(primary.ok());
    for (uint32_t dop : {1u, 2u, 8u}) {
      q.dop = dop;
      const auto result = cluster.standby()->QueryAt(q, scn);
      ASSERT_TRUE(result.ok());
      const std::string ctx = std::string(" seed=") + std::to_string(seed) +
                              " scn=" + std::to_string(scn) +
                              " dop=" + std::to_string(dop);
      EXPECT_EQ(result->rows, primary->rows) << ctx;
      EXPECT_EQ(result->count, primary->count) << ctx;
      EXPECT_EQ(result->agg_int, primary->agg_int) << ctx;
      EXPECT_EQ(result->agg_valid, primary->agg_valid) << ctx;
    }
    ++checks;
  }
  harness.StopChurn();
  EXPECT_GE(checks, 6);
  EXPECT_GT(cluster.standby()->flush()->stats().flushed_txns, 0u);
}

/// The determinism property, extended to the hash-aggregate operator: a
/// grouped aggregation at a pinned QuerySCN is byte-identical — group rows,
/// their sort order, counts, sums — at every DOP, on both access paths, and
/// under every scan kernel, while churn keeps invalidating and repopulating
/// the standby IMCS. Cross-checked against the primary's flashback read at
/// the same SCN.
TEST_P(ConsistencyTest, GroupedAggByteIdenticalUnderChurn) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;
  const uint64_t seed = GetParam();
  ChurnHarness harness(seed);
  AdgCluster& cluster = *harness.cluster();
  harness.StartChurn();

  Random qrng(seed * 13 + 7);
  int checks = 0;
  const uint64_t start = NowMicros();
  while (KeepChecking(checks, /*min_checks=*/4, /*max_checks=*/8, start)) {
    ScanQuery q = RandomQuery(harness.table(), &qrng);
    q.group_by = {static_cast<uint32_t>(qrng.Percent(50) ? 1 : 3)};
    q.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 2}};
    const Scn scn = cluster.standby()->query_scn();
    if (scn == kInvalidScn) continue;

    q.dop = 1;
    q.force_row_store = false;
    ForceScanKernel(ScanKernel::kScalar);
    const auto base = cluster.standby()->QueryAt(q, scn);
    ASSERT_TRUE(base.ok());
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
      ForceScanKernel(kernel);
      for (const bool force_row : {false, true}) {
        for (uint32_t dop : {1u, 2u, 8u}) {
          q.dop = dop;
          q.force_row_store = force_row;
          const auto result = cluster.standby()->QueryAt(q, scn);
          ASSERT_TRUE(result.ok());
          const std::string ctx = std::string(" seed=") + std::to_string(seed) +
                                  " scn=" + std::to_string(scn) +
                                  " kernel=" + ScanKernelName(kernel) +
                                  " force_row=" + std::to_string(force_row) +
                                  " dop=" + std::to_string(dop);
          EXPECT_EQ(result->rows, base->rows) << ctx;
          EXPECT_EQ(result->count, base->count) << ctx;
          EXPECT_EQ(result->agg_overflow, base->agg_overflow) << ctx;
        }
      }
    }
    ClearScanKernelOverride();
    q.dop = 1;
    q.force_row_store = false;
    const auto primary = cluster.primary()->QueryAt(q, scn);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(primary->rows, base->rows) << "seed=" << seed << " scn=" << scn;
    ++checks;
  }
  harness.StopChurn();
  EXPECT_GE(checks, 4);
}

/// And to the full operator tree: a 3-table star join (churning fact table
/// joined to two static dimensions) with grouped aggregation on top, at a
/// pinned QuerySCN, is byte-identical across DOP / access path / kernel and
/// equals the primary's MultiJoinAt at the same SCN.
TEST_P(ConsistencyTest, MultiJoinByteIdenticalUnderChurn) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;
  const uint64_t seed = GetParam();
  ChurnHarness harness(seed);
  AdgCluster& cluster = *harness.cluster();

  // Two dimension tables keyed over the fact's n1/n2 domains ([0, 50)),
  // created before churn starts so they stay static.
  const ObjectId dim1 =
      cluster.CreateTable("dim1", kDefaultTenant,
                          Schema(std::vector<ColumnDef>{
                              {"key", ValueType::kInt},
                              {"label", ValueType::kString}}),
                          ImService::kStandbyOnly, true)
          .value();
  const ObjectId dim2 =
      cluster.CreateTable("dim2", kDefaultTenant,
                          Schema(std::vector<ColumnDef>{
                              {"key", ValueType::kInt},
                              {"tag", ValueType::kString}}),
                          ImService::kStandbyOnly, true)
          .value();
  Transaction txn = cluster.primary()->Begin();
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(cluster.primary()
                    ->Insert(&txn, dim1,
                             Row{Value(k), Value(std::string("d") + std::to_string(k % 5))},
                             nullptr)
                    .ok());
    ASSERT_TRUE(cluster.primary()
                    ->Insert(&txn, dim2,
                             Row{Value(k), Value(std::string("t") + std::to_string(k % 3))},
                             nullptr)
                    .ok());
  }
  ASSERT_TRUE(cluster.primary()->Commit(&txn).ok());
  cluster.WaitForCatchup();
  ASSERT_TRUE(cluster.standby()->PopulateNow(dim1).ok());
  ASSERT_TRUE(cluster.standby()->PopulateNow(dim2).ok());
  harness.StartChurn();

  MultiJoinQuery mj;
  mj.fact = harness.table();
  // Fact layout: id, n1, n2, c1 (4 columns); after hop 1 the joined layout is
  // 6 wide, so hop 2 still probes fact.n2 at index 2.
  mj.joins = {{dim1, /*probe_column=*/1, /*build_column=*/0, {}},
              {dim2, /*probe_column=*/2, /*build_column=*/0, {}}};
  mj.group_by = {5};  // dim1.label.
  mj.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 2}};

  Random qrng(seed * 17 + 9);
  int checks = 0;
  const uint64_t start = NowMicros();
  while (KeepChecking(checks, /*min_checks=*/3, /*max_checks=*/4, start)) {
    const Scn scn = cluster.standby()->query_scn();
    if (scn == kInvalidScn) continue;

    mj.dop = 1;
    mj.force_row_store = false;
    ForceScanKernel(ScanKernel::kScalar);
    const auto base = cluster.standby()->MultiJoinAt(mj, scn);
    ASSERT_TRUE(base.ok());
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
      ForceScanKernel(kernel);
      for (const bool force_row : {false, true}) {
        for (uint32_t dop : {1u, 2u, 8u}) {
          mj.dop = dop;
          mj.force_row_store = force_row;
          const auto result = cluster.standby()->MultiJoinAt(mj, scn);
          ASSERT_TRUE(result.ok());
          const std::string ctx = std::string(" seed=") + std::to_string(seed) +
                                  " scn=" + std::to_string(scn) +
                                  " kernel=" + ScanKernelName(kernel) +
                                  " force_row=" + std::to_string(force_row) +
                                  " dop=" + std::to_string(dop);
          EXPECT_EQ(result->rows, base->rows) << ctx;
          EXPECT_EQ(result->count, base->count) << ctx;
        }
      }
    }
    ClearScanKernelOverride();
    mj.dop = 1;
    mj.force_row_store = false;
    const auto primary = cluster.primary()->MultiJoinAt(mj, scn);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(primary->rows, base->rows) << "seed=" << seed << " scn=" << scn;
    ++checks;
  }
  harness.StopChurn();
  EXPECT_GE(checks, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyTest, ::testing::Values(1, 2, 3));

/// The ChurnHarness, scaled out: one primary fanned to a 3-standby fleet,
/// same writer mix, queries routed by freshness contract. The consistency
/// properties must hold no matter WHICH standby serves.
class FleetChurnHarness {
 public:
  explicit FleetChurnHarness(uint64_t seed) : seed_(seed), fleet_(MakeOptions()) {
    fleet_.Start();
    table_ = fleet_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                              ImService::kStandbyOnly, true)
                 .value();
    Transaction txn = fleet_.primary()->Begin();
    Random rng(seed_);
    for (int i = 0; i < 3 * static_cast<int>(kRowsPerBlock); ++i) {
      EXPECT_TRUE(fleet_.primary()
                      ->Insert(&txn, table_, MakeRow(next_id_.fetch_add(1), &rng),
                               nullptr)
                      .ok());
    }
    EXPECT_TRUE(fleet_.primary()->Commit(&txn).ok());
    fleet_.WaitForCatchup();
    for (int i = 0; i < fleet_.num_standbys(); ++i)
      EXPECT_TRUE(fleet_.node(i)->db()->PopulateNow(table_).ok());
  }

  ~FleetChurnHarness() {
    StopChurn();
    fleet_.Stop();
  }

  fleet::FleetCluster* fleet() { return &fleet_; }
  ObjectId table() const { return table_; }

  void StartChurn() {
    writers_.emplace_back([this] { WriterLoop(seed_ * 3 + 1); });
    writers_.emplace_back([this] { WriterLoop(seed_ * 5 + 2); });
  }

  void StopChurn() {
    stop_.store(true, std::memory_order_release);
    for (auto& w : writers_) w.join();
    writers_.clear();
  }

 private:
  Row MakeRow(int64_t id, Random* rng) const {
    return Row{Value(id), Value(static_cast<int64_t>(rng->Uniform(50))),
               Value(static_cast<int64_t>(rng->Uniform(50))),
               Value(std::string("s") + std::to_string(rng->Uniform(6)))};
  }

  fleet::FleetOptions MakeOptions() {
    fleet::FleetOptions options;
    options.num_standbys = 3;
    options.db.apply.num_workers = 2;
    options.db.apply.barrier_interval = 8;
    options.db.population.blocks_per_imcu = 2;
    options.db.population.manager_interval_us = 2000;
    options.db.population.repop_invalid_threshold = 0.10;
    options.db.shipping.heartbeat_interval_us = 500;
    options.db.commit_table_partitions = 2;
    options.db.journal_buckets = 8;
    options.db.registry = &registry_;
    return options;
  }

  void WriterLoop(uint64_t wseed) {
    Random rng(wseed);
    while (!stop_.load(std::memory_order_acquire)) {
      Transaction txn = fleet_.primary()->Begin();
      bool ok = true;
      const int ops = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < ops && ok; ++i) {
        const uint32_t dice = static_cast<uint32_t>(rng.Uniform(100));
        if (dice < 60) {
          const int64_t id = rng.UniformInt(0, next_id_.load() - 1);
          Status st = fleet_.primary()->UpdateByKey(&txn, table_, id,
                                                    MakeRow(id, &rng));
          if (st.IsAborted()) ok = false;
        } else if (dice < 85) {
          const int64_t id = next_id_.fetch_add(1);
          (void)fleet_.primary()->Insert(&txn, table_, MakeRow(id, &rng),
                                         nullptr);
        } else {
          const int64_t id = rng.UniformInt(0, next_id_.load() - 1);
          Table* t = fleet_.primary()->table(table_);
          const auto rid = t->index()->Lookup(id);
          if (rid.has_value()) {
            Status st = fleet_.primary()->Delete(&txn, table_, *rid);
            if (st.IsAborted()) ok = false;
          }
        }
      }
      if (ok) {
        (void)fleet_.primary()->Commit(&txn);
      } else {
        fleet_.primary()->Abort(&txn);
      }
    }
  }

  const uint64_t seed_;
  obs::MetricsRegistry registry_;
  fleet::FleetCluster fleet_;
  ObjectId table_ = kInvalidObjectId;
  std::atomic<int64_t> next_id_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> writers_;
};

class FleetConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

// Pinned-SCN reads are standby-agnostic: the SAME QueryAt on every standby of
// the fleet — and on the primary — returns byte-identical results, under
// churn, regardless of which node the router would have picked.
TEST_P(FleetConsistencyTest, PinnedQueryByteIdenticalOnEveryStandby) {
  const uint64_t seed = GetParam();
  FleetChurnHarness harness(seed);
  fleet::FleetCluster* fleet = harness.fleet();
  harness.StartChurn();
  Random qrng(seed * 11 + 3);

  int checks = 0;
  const uint64_t start = NowMicros();
  while (KeepChecking(checks, /*min_checks=*/5, /*max_checks=*/10, start)) {
    ScanQuery q = RandomQuery(harness.table(), &qrng);
    q.aggregates = {{AggKind::kSum, 2}};

    // Pin at an SCN every standby has published (so none must wait).
    Scn pin = kInvalidScn;
    for (int i = 0; i < fleet->num_standbys(); ++i) {
      const Scn scn = fleet->node(i)->db()->query_scn();
      if (scn == kInvalidScn) {
        pin = kInvalidScn;
        break;
      }
      if (pin == kInvalidScn || scn < pin) pin = scn;
    }
    if (pin == kInvalidScn) continue;

    const auto base = fleet->node(0)->db()->QueryAt(q, pin);
    ASSERT_TRUE(base.ok());
    for (int i = 1; i < fleet->num_standbys(); ++i) {
      const auto result = fleet->node(i)->db()->QueryAt(q, pin);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->rows, base->rows)
          << "seed=" << seed << " scn=" << pin << " standby=" << i;
      EXPECT_EQ(result->count, base->count)
          << "seed=" << seed << " scn=" << pin << " standby=" << i;
      EXPECT_EQ(result->agg_int, base->agg_int)
          << "seed=" << seed << " scn=" << pin << " standby=" << i;
      EXPECT_EQ(result->agg_valid, base->agg_valid);
    }
    const auto primary = fleet->primary()->QueryAt(q, pin);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(primary->count, base->count) << "seed=" << seed << " scn=" << pin;
    EXPECT_EQ(primary->agg_int, base->agg_int);
    ++checks;
  }
  harness.StopChurn();
  EXPECT_GE(checks, 5);
}

// Strict routing's freshness floor under churn: the served snapshot is never
// below the freshest standby's published QuerySCN observed at decision time,
// and the result matches the primary at that snapshot.
TEST_P(FleetConsistencyTest, StrictRoutingNeverBelowFreshestWatermark) {
  const uint64_t seed = GetParam();
  FleetChurnHarness harness(seed);
  fleet::FleetCluster* fleet = harness.fleet();
  fleet::FleetRouter router(fleet, fleet::RouterOptions{});
  harness.StartChurn();
  Random qrng(seed * 13 + 5);

  int checks = 0;
  const uint64_t start = NowMicros();
  while (KeepChecking(checks, /*min_checks=*/8, /*max_checks=*/15, start)) {
    ScanQuery q = RandomQuery(harness.table(), &qrng);
    q.aggregates = {{AggKind::kSum, 2}};

    // An independently observed pre-decision floor: whatever some standby
    // has already published before the router even looks must be covered.
    Scn observed_floor = kInvalidScn;
    for (int i = 0; i < fleet->num_standbys(); ++i) {
      const Scn scn = fleet->node(i)->db()->query_scn();
      if (scn != kInvalidScn && (observed_floor == kInvalidScn ||
                                 scn > observed_floor)) {
        observed_floor = scn;
      }
    }

    const auto routed = router.Query(q, fleet::FreshnessContract::Strict());
    if (!routed.ok()) continue;
    ASSERT_NE(routed->decision.decision_watermark, kInvalidScn);
    EXPECT_GE(routed->result.snapshot, routed->decision.decision_watermark)
        << "seed=" << seed;
    if (observed_floor != kInvalidScn) {
      EXPECT_GE(routed->result.snapshot, observed_floor) << "seed=" << seed;
    }
    // And strict freshness never costs correctness: match the primary.
    const auto primary = fleet->primary()->QueryAt(q, routed->result.snapshot);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(routed->result.count, primary->count)
        << "seed=" << seed << " scn=" << routed->result.snapshot;
    EXPECT_EQ(routed->result.agg_int, primary->agg_int);
    ++checks;
  }
  harness.StopChurn();
  EXPECT_GE(checks, 8);
  EXPECT_EQ(router.stats().freshness_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetConsistencyTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace stratus
