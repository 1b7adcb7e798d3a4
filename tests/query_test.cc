#include "db/query.h"

#include <gtest/gtest.h>

#include "db/database.h"

namespace stratus {
namespace {

/// Primary-only query tests (no standby wiring needed).
class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : db_(DatabaseOptions{}) {
    db_.Start();
    table_ = db_.CreateTable("t", kDefaultTenant, Schema::WideTable(1, 1),
                             ImService::kPrimaryOnly, /*identity_index=*/true)
                 .value();
    Transaction txn = db_.Begin();
    for (int64_t id = 0; id < 100; ++id) {
      Row row{Value(id), Value(id % 10), Value(std::string("g") + std::to_string(id % 4))};
      EXPECT_TRUE(db_.Insert(&txn, table_, std::move(row), nullptr).ok());
    }
    EXPECT_TRUE(db_.Commit(&txn).ok());
  }

  DatabaseOptions MakeOptions() { return DatabaseOptions{}; }

  PrimaryDb db_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(QueryTest, FilteredScan) {
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{3})}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 10u);
  for (const Row& row : result->rows) EXPECT_EQ(row[1].as_int(), 3);
}

TEST_F(QueryTest, CountAggregate) {
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 100u);
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(QueryTest, SumMinMaxAggregates) {
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kSum, 0}};
  auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_int, 99 * 100 / 2);
  EXPECT_TRUE(result->agg_valid);

  q.aggregates = {{AggKind::kMin, 0}};
  EXPECT_EQ(db_.Query(q)->agg_int, 0);
  q.aggregates = {{AggKind::kMax, 0}};
  EXPECT_EQ(db_.Query(q)->agg_int, 99);
}

TEST_F(QueryTest, AggregateOverEmptyResult) {
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{12345})}};
  q.aggregates = {{AggKind::kMax, 0}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->agg_valid);
}

TEST_F(QueryTest, IndexFetch) {
  const auto row = db_.Fetch(table_, 42);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[0].as_int(), 42);
  const auto missing = db_.Fetch(table_, 424242);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

TEST_F(QueryTest, UnknownTableIsNotFound) {
  ScanQuery q;
  q.object = 999999;
  EXPECT_TRUE(db_.Query(q).status().IsNotFound());
}

TEST_F(QueryTest, ForceRowStoreBypassesImcs) {
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{3})}};
  auto with_im = db_.Query(q);
  ASSERT_TRUE(with_im.ok());
  EXPECT_GT(with_im->stats.rows_from_imcs, 0u);

  q.force_row_store = true;
  auto without = db_.Query(q);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->stats.rows_from_imcs, 0u);
  EXPECT_EQ(without->count, with_im->count);
}

TEST_F(QueryTest, HashJoin) {
  // Dimension table: 4 groups with labels.
  const ObjectId dims =
      db_.CreateTable("dims", kDefaultTenant,
                      Schema(std::vector<ColumnDef>{
                          {"gid", ValueType::kInt},
                          {"label", ValueType::kString}}),
                      ImService::kNone, false)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t g = 0; g < 4; ++g) {
    ASSERT_TRUE(db_.Insert(&txn, dims,
                           Row{Value(g), Value(std::string("grp") + std::to_string(g))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());

  MultiJoinQuery join;
  join.fact = table_;
  // n1 in [0,10); only 0..3 match dims' gid.
  join.joins = {JoinEdge{dims, 1, 0, {}}};
  const auto result = db_.MultiJoin(join);
  ASSERT_TRUE(result.ok());
  // Rows with n1 in {0,1,2,3}: 10 each → 40 joined rows.
  EXPECT_EQ(result->count, 40u);
  for (const Row& row : result->rows) {
    ASSERT_EQ(row.size(), 3u + 2u);
    EXPECT_EQ(row[1].as_int(), row[3].as_int());
  }
}

TEST_F(QueryTest, JoinWithPredicates) {
  const ObjectId dims =
      db_.CreateTable("dims2", kDefaultTenant,
                      Schema(std::vector<ColumnDef>{
                          {"gid", ValueType::kInt},
                          {"label", ValueType::kString}}),
                      ImService::kNone, false)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t g = 0; g < 10; ++g) {
    ASSERT_TRUE(db_.Insert(&txn, dims,
                           Row{Value(g), Value(std::string("grp"))}, nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  MultiJoinQuery join;
  join.fact = table_;
  join.fact_predicates = {{0, PredOp::kLt, Value(int64_t{50})}};
  join.joins = {JoinEdge{dims, 1, 0, {{0, PredOp::kEq, Value(int64_t{7})}}}};
  const auto result = db_.MultiJoin(join);
  ASSERT_TRUE(result.ok());
  // n1 == 7 among ids 0..49 → 5 rows (7,17,27,37,47).
  EXPECT_EQ(result->count, 5u);
}

TEST_F(QueryTest, JoinForceRowStoreBypassesImcsOnBothSides) {
  const ObjectId dims =
      db_.CreateTable("dims3", kDefaultTenant,
                      Schema(std::vector<ColumnDef>{
                          {"gid", ValueType::kInt},
                          {"label", ValueType::kString}}),
                      ImService::kPrimaryOnly, false)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t g = 0; g < 4; ++g) {
    ASSERT_TRUE(db_.Insert(&txn, dims,
                           Row{Value(g), Value(std::string("grp") + std::to_string(g))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  // Both sides IMCS-resident, so an un-forced join serves rows columnar.
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  ASSERT_TRUE(db_.PopulateNow(dims).ok());

  MultiJoinQuery join;
  join.fact = table_;
  join.joins = {JoinEdge{dims, 1, 0, {}}};
  const auto with_im = db_.MultiJoin(join);
  ASSERT_TRUE(with_im.ok());
  EXPECT_EQ(with_im->count, 40u);
  EXPECT_GT(with_im->stats.rows_from_imcs, 0u);

  join.force_row_store = true;
  const auto forced = db_.MultiJoin(join);
  ASSERT_TRUE(forced.ok());
  // The hint must cover the build side AND the probe side.
  EXPECT_EQ(forced->stats.rows_from_imcs, 0u);
  EXPECT_GT(forced->stats.rows_from_rowstore, 0u);
  EXPECT_EQ(forced->count, with_im->count);
  EXPECT_EQ(forced->rows, with_im->rows);
}

TEST_F(QueryTest, ScanDopSweepIdenticalThroughQueryEngine) {
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  for (const AggKind agg : {AggKind::kNone, AggKind::kSum}) {
    ScanQuery q;
    q.object = table_;
    q.predicates = {{1, PredOp::kLt, Value(int64_t{5})}};
    if (agg != AggKind::kNone) q.aggregates = {{agg, 0}};
    q.dop = 1;
    const auto base = db_.Query(q);
    ASSERT_TRUE(base.ok());
    for (const uint32_t dop : {2u, 8u}) {
      q.dop = dop;
      const auto result = db_.Query(q);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->rows, base->rows) << "dop=" << dop;
      EXPECT_EQ(result->count, base->count) << "dop=" << dop;
      EXPECT_EQ(result->agg_int, base->agg_int) << "dop=" << dop;
      EXPECT_EQ(result->agg_valid, base->agg_valid) << "dop=" << dop;
      EXPECT_EQ(result->stats.parallel_tasks, base->stats.parallel_tasks);
    }
  }
}

TEST_F(QueryTest, JoinDopSweepIdentical) {
  const ObjectId dims =
      db_.CreateTable("dims4", kDefaultTenant,
                      Schema(std::vector<ColumnDef>{
                          {"gid", ValueType::kInt},
                          {"label", ValueType::kString}}),
                      ImService::kNone, false)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t g = 0; g < 4; ++g) {
    ASSERT_TRUE(db_.Insert(&txn, dims,
                           Row{Value(g), Value(std::string("grp") + std::to_string(g))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  ASSERT_TRUE(db_.PopulateNow(table_).ok());

  MultiJoinQuery join;
  join.fact = table_;
  join.joins = {JoinEdge{dims, 1, 0, {}}};
  join.dop = 1;
  const auto base = db_.MultiJoin(join);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->count, 40u);
  for (const uint32_t dop : {2u, 8u}) {
    join.dop = dop;
    const auto result = db_.MultiJoin(join);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows, base->rows) << "dop=" << dop;
    EXPECT_EQ(result->count, base->count) << "dop=" << dop;
  }
}

TEST_F(QueryTest, QueryAtOldSnapshotSeesOldData) {
  const Scn before = db_.current_scn();
  Transaction txn = db_.Begin();
  ASSERT_TRUE(db_.UpdateByKey(&txn, table_, 0,
                              Row{Value(int64_t{0}), Value(int64_t{777}),
                                  Value(std::string("new"))})
                  .ok());
  ASSERT_TRUE(db_.Commit(&txn).ok());

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{777})}};
  EXPECT_EQ(db_.Query(q)->count, 1u);
  EXPECT_EQ(db_.QueryAt(q, before)->count, 0u);
}

// Version GC runs below the live read SCN and below every running query's
// snapshot: the version a registered snapshot reads survives a prune.
TEST_F(QueryTest, PruneVersionsKeepsWhatRunningQueriesRead) {
  const Scn before = db_.current_scn();
  Transaction txn = db_.Begin();
  ASSERT_TRUE(db_.UpdateByKey(&txn, table_, 0,
                              Row{Value(int64_t{0}), Value(int64_t{777}),
                                  Value(std::string("new"))})
                  .ok());
  ASSERT_TRUE(db_.Commit(&txn).ok());

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{0})}};
  {
    const QueryContext ctx = db_.MakeQueryContext();
    SnapshotGuard running(ctx.snapshots, before);
    EXPECT_EQ(db_.PruneVersions(), 0u);
    EXPECT_EQ(db_.QueryAt(q, before)->count, 10u);  // Ids 0, 10, ..., 90.
  }
  EXPECT_EQ(db_.PruneVersions(), 1u);  // Id 0's pre-update version.
  EXPECT_EQ(db_.Query(q)->count, 9u);
}

// Regression: a join's probe-side scan once ran with a null expression
// registry, so a join predicate on a registered In-Memory Expression virtual
// column was silently dropped (the probe rows simply had no column at that
// index and nothing matched — or, worse, everything did). Both join sides
// must resolve virtual columns exactly like plain scans.
TEST_F(QueryTest, JoinHonorsVirtualColumnPredicates) {
  // Virtual column 3 = n1 * 2 on the fact table (WideTable(1, 1) has 3
  // schema columns).
  const auto vcol = db_.RegisterImExpression(
      table_, Expression::Mul(Expression::Column(1),
                              Expression::Const(Value(int64_t{2}))));
  ASSERT_TRUE(vcol.ok());
  ASSERT_EQ(*vcol, 3u);

  const ObjectId dims =
      db_.CreateTable("dimsv", kDefaultTenant,
                      Schema(std::vector<ColumnDef>{
                          {"gid", ValueType::kInt},
                          {"label", ValueType::kString}}),
                      ImService::kNone, false)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t g = 0; g < 4; ++g) {
    ASSERT_TRUE(db_.Insert(&txn, dims,
                           Row{Value(g), Value(std::string("grp") + std::to_string(g))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());

  MultiJoinQuery join;
  join.fact = table_;
  join.joins = {JoinEdge{dims, 1, 0, {}}};
  // n1 * 2 == 6 → n1 == 3 → 10 fact rows, each matching exactly one dims row.
  join.fact_predicates = {{3, PredOp::kEq, Value(int64_t{6})}};
  const auto result = db_.MultiJoin(join);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 10u);
  for (const Row& row : result->rows) EXPECT_EQ(row[1].as_int(), 3);

  // Same contract on the forced row path.
  join.force_row_store = true;
  const auto row_path = db_.MultiJoin(join);
  ASSERT_TRUE(row_path.ok());
  EXPECT_EQ(row_path->rows, result->rows);
}

// Regression: aggregate-only scans must not materialize result rows the
// caller never sees — on either access path.
TEST_F(QueryTest, AggregateScanMaterializesNoRows) {
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  for (const bool force_row : {false, true}) {
    ScanQuery q;
    q.object = table_;
    q.aggregates = {{AggKind::kSum, 1}};
    q.force_row_store = force_row;
    const auto result = db_.Query(q);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->rows.empty()) << "force_row=" << force_row;
    EXPECT_TRUE(result->agg_valid);
    EXPECT_EQ(result->agg_int, 450);
    EXPECT_EQ(result->count, 100u);
  }
}

}  // namespace
}  // namespace stratus
