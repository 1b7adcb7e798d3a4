#include "imcs/expression.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/plan.h"

namespace stratus {
namespace {

Row SampleRow() {
  return Row{Value(int64_t{10}), Value(int64_t{4}), Value(std::string("abc"))};
}

TEST(ExpressionTest, ColumnAndConst) {
  EXPECT_EQ(Expression::Column(0).Eval(SampleRow()).as_int(), 10);
  EXPECT_EQ(Expression::Const(Value(int64_t{7})).Eval(SampleRow()).as_int(), 7);
  EXPECT_TRUE(Expression::Column(9).Eval(SampleRow()).is_null());
}

TEST(ExpressionTest, Arithmetic) {
  const Row row = SampleRow();
  EXPECT_EQ(Expression::Add(Expression::Column(0), Expression::Column(1)).Eval(row).as_int(), 14);
  EXPECT_EQ(Expression::Sub(Expression::Column(0), Expression::Column(1)).Eval(row).as_int(), 6);
  EXPECT_EQ(Expression::Mul(Expression::Column(0), Expression::Column(1)).Eval(row).as_int(), 40);
  EXPECT_EQ(Expression::Div(Expression::Column(0), Expression::Column(1)).Eval(row).as_int(), 2);
  EXPECT_EQ(Expression::Mod(Expression::Column(0), Expression::Column(1)).Eval(row).as_int(), 2);
}

TEST(ExpressionTest, DivisionByZeroIsNull) {
  const Row row = SampleRow();
  EXPECT_TRUE(Expression::Div(Expression::Column(0), Expression::Const(Value(int64_t{0})))
                  .Eval(row).is_null());
  EXPECT_TRUE(Expression::Mod(Expression::Column(0), Expression::Const(Value(int64_t{0})))
                  .Eval(row).is_null());
}

TEST(ExpressionTest, StringOperators) {
  const Row row = SampleRow();
  EXPECT_EQ(Expression::Length(Expression::Column(2)).Eval(row).as_int(), 3);
  EXPECT_EQ(Expression::Concat(Expression::Column(2),
                               Expression::Const(Value(std::string("!"))))
                .Eval(row).as_string(),
            "abc!");
}

TEST(ExpressionTest, NullPropagation) {
  Row row{Value::Null(), Value(int64_t{4}), Value::Null()};
  EXPECT_TRUE(Expression::Add(Expression::Column(0), Expression::Column(1)).Eval(row).is_null());
  EXPECT_TRUE(Expression::Length(Expression::Column(2)).Eval(row).is_null());
}

TEST(ExpressionTest, TypeMismatchIsNull) {
  const Row row = SampleRow();
  // length(int column), int + string.
  EXPECT_TRUE(Expression::Length(Expression::Column(0)).Eval(row).is_null());
  EXPECT_TRUE(Expression::Add(Expression::Column(0), Expression::Column(2)).Eval(row).is_null());
}

TEST(ExpressionTest, ValidationAgainstSchema) {
  const Schema schema = Schema::WideTable(1, 1);  // id, n1, c1.
  EXPECT_TRUE(Expression::Add(Expression::Column(0), Expression::Column(1))
                  .Validate(schema).ok());
  EXPECT_FALSE(Expression::Column(5).Validate(schema).ok());
  const Schema dropped = schema.WithDroppedColumn(1);
  EXPECT_FALSE(Expression::Column(1).Validate(dropped).ok());
}

TEST(ExpressionTest, ResultTypeAndToString) {
  const Schema schema = Schema::WideTable(1, 1);
  const Expression e = Expression::Mul(Expression::Column(1),
                                       Expression::Const(Value(int64_t{3})));
  EXPECT_EQ(e.ResultType(schema), ValueType::kInt);
  EXPECT_EQ(e.ToString(schema), "(n1 * 3)");
  EXPECT_EQ(Expression::Length(Expression::Column(2)).ToString(schema), "length(c1)");
}

TEST(ExpressionRegistryTest, VirtualIndexesStack) {
  ImExpressionRegistry registry;
  const Schema schema = Schema::WideTable(1, 1);  // 3 columns.
  EXPECT_EQ(registry.Register(10, schema, Expression::Column(1)).value(), 3u);
  EXPECT_EQ(registry.Register(10, schema, Expression::Column(2)).value(), 4u);
  EXPECT_EQ(registry.CountFor(10), 2u);
  EXPECT_EQ(registry.For(10).size(), 2u);
  registry.Drop(10);
  EXPECT_EQ(registry.CountFor(10), 0u);
}

TEST(ExpressionRegistryTest, RejectsInvalidExpression) {
  ImExpressionRegistry registry;
  EXPECT_FALSE(registry.Register(10, Schema::WideTable(1, 1),
                                 Expression::Column(99)).ok());
}

// --- End-to-end: expression populated in standby IMCUs ----------------------

class ImExpressionClusterTest : public ::testing::Test {
 protected:
  ImExpressionClusterTest() : cluster_(Options()) {
    cluster_.Start();
    table_ = cluster_
                 .CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                              ImService::kStandbyOnly, true)
                 .value();
    Transaction txn = cluster_.primary()->Begin();
    for (int64_t id = 0; id < 2 * kRowsPerBlock; ++id) {
      EXPECT_TRUE(cluster_.primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 10), Value(id % 7),
                                   Value(std::string("abc"))},
                               nullptr)
                      .ok());
    }
    EXPECT_TRUE(cluster_.primary()->Commit(&txn).ok());
    cluster_.WaitForCatchup();
  }

  static DatabaseOptions Options() {
    DatabaseOptions options;
    options.apply.num_workers = 2;
    options.population.blocks_per_imcu = 2;
    options.shipping.heartbeat_interval_us = 500;
    return options;
  }

  AdgCluster cluster_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(ImExpressionClusterTest, ExpressionServedFromImcs) {
  // n1 * 100 + n2.
  const Expression expr = Expression::Add(
      Expression::Mul(Expression::Column(1), Expression::Const(Value(int64_t{100}))),
      Expression::Column(2));
  const uint32_t vcol = cluster_.RegisterImExpression(table_, expr).value();
  EXPECT_EQ(vcol, 4u);
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  ScanQuery q;
  q.object = table_;
  q.predicates = {{vcol, PredOp::kEq, Value(int64_t{305})}};  // n1=3, n2=5.
  q.aggregates = {{AggKind::kCount, 0}};
  const auto imcs = cluster_.standby()->Query(q);
  ASSERT_TRUE(imcs.ok());
  EXPECT_GT(imcs->count, 0u);
  // Virtual column evaluated at population (unless STRATUS_FORCE_ROWPATH
  // sends every plan down the row path).
  if (!ForceRowPathEnv()) {
    EXPECT_GT(imcs->stats.rows_from_imcs, 0u);
  }

  // Row path agrees (expression evaluated per row there).
  q.force_row_store = true;
  const auto rows = cluster_.standby()->Query(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(imcs->count, rows->count);
}

TEST_F(ImExpressionClusterTest, PreExpressionImcusFallBackToRowPath) {
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());
  // Register AFTER population: old IMCUs lack the virtual column…
  const uint32_t vcol =
      cluster_.RegisterImExpression(table_, Expression::Mul(Expression::Column(1),
                                                            Expression::Const(Value(int64_t{2}))))
          .value();
  // RegisterImExpression drops the old IMCUs, so until repopulation the rows
  // are row-path — but results stay correct.
  ScanQuery q;
  q.object = table_;
  q.predicates = {{vcol, PredOp::kEq, Value(int64_t{6})}};  // n1 == 3.
  q.aggregates = {{AggKind::kCount, 0}};
  const auto before = cluster_.standby()->Query(q);
  ASSERT_TRUE(before.ok());
  // n1 cycles 0..9 over 512 rows → ~51 rows with n1==3.
  EXPECT_GT(before->count, 0u);

  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());
  const auto after = cluster_.standby()->Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->count, before->count);
  if (!ForceRowPathEnv()) {
    EXPECT_GT(after->stats.rows_from_imcs, 0u);
  }
}

TEST_F(ImExpressionClusterTest, InvalidatedRowsReevaluateExpressions) {
  const uint32_t vcol =
      cluster_.RegisterImExpression(table_, Expression::Mul(Expression::Column(1),
                                                            Expression::Const(Value(int64_t{10}))))
          .value();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  // Change n1 of row 0 from 0 to 42: the expression value becomes 420, which
  // only reconciliation (row path re-evaluation) can discover.
  Transaction txn = cluster_.primary()->Begin();
  ASSERT_TRUE(cluster_.primary()
                  ->UpdateByKey(&txn, table_, 0,
                                Row{Value(int64_t{0}), Value(int64_t{42}),
                                    Value(int64_t{1}), Value(std::string("x"))})
                  .ok());
  ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  cluster_.WaitForCatchup();

  ScanQuery q;
  q.object = table_;
  q.predicates = {{vcol, PredOp::kEq, Value(int64_t{420})}};
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster_.standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 1u);
}

TEST_F(ImExpressionClusterTest, AggregationPushdownOnExpression) {
  const uint32_t vcol =
      cluster_.RegisterImExpression(table_, Expression::Add(Expression::Column(1),
                                                            Expression::Column(2)))
          .value();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kSum, vcol}};
  const auto imcs = cluster_.standby()->Query(q);
  ASSERT_TRUE(imcs.ok());
  q.force_row_store = true;
  const auto rows = cluster_.standby()->Query(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(imcs->agg_int, rows->agg_int);
  EXPECT_TRUE(imcs->agg_valid);
}

TEST_F(ImExpressionClusterTest, AggregationPushdownMatchesMaterializedPath) {
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());
  // SUM over a base column, IMCS pushdown vs row path.
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kGe, Value(int64_t{5})}};
  q.aggregates = {{AggKind::kSum, 2}};
  const auto imcs = cluster_.standby()->Query(q);
  ASSERT_TRUE(imcs.ok());
  q.force_row_store = true;
  const auto rows = cluster_.standby()->Query(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(imcs->agg_int, rows->agg_int);
  EXPECT_EQ(imcs->count, rows->count);
}

// GROUP BY an IM-expression virtual column and SUM over one: the IMCS path
// folds both on the virtual column's codes and must match the row path,
// which evaluates the expression per row.
TEST_F(ImExpressionClusterTest, GroupByAndSumOverExpression) {
  const Expression id_mod_6 = Expression::Mod(
      Expression::Column(0), Expression::Const(Value(int64_t{6})));
  const Expression n1_plus_n2 =
      Expression::Add(Expression::Column(1), Expression::Column(2));
  const uint32_t bucket = cluster_.RegisterImExpression(table_, id_mod_6).value();
  const uint32_t total =
      cluster_.RegisterImExpression(table_, n1_plus_n2).value();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  ScanQuery q;
  q.object = table_;
  q.group_by = {bucket};
  q.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, total}};
  for (const uint32_t dop : {1u, 2u}) {
    q.dop = dop;
    q.force_row_store = false;
    const auto imcs = cluster_.standby()->Query(q);
    ASSERT_TRUE(imcs.ok());
    if (!ForceRowPathEnv()) {
      EXPECT_GT(imcs->stats.rows_from_imcs, 0u);
    }
    q.force_row_store = true;
    const auto rows = cluster_.standby()->Query(q);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->stats.rows_from_imcs, 0u);
    ASSERT_EQ(imcs->rows.size(), 6u) << "dop=" << dop;
    EXPECT_EQ(imcs->rows, rows->rows) << "dop=" << dop;
    int64_t sum = 0;
    for (const Row& row : imcs->rows) sum += row[2].as_int();
    // Sum over ids of (id % 10 + id % 7).
    int64_t want = 0;
    for (int64_t id = 0; id < 2 * kRowsPerBlock; ++id) want += id % 10 + id % 7;
    EXPECT_EQ(sum, want);
  }
}

// A join probing on an IM-expression virtual column, grouped by a joinee
// column: the IMCS path reads the probe key off the virtual column's codes
// inside the fact scan, the row path off the expression evaluated per row.
TEST_F(ImExpressionClusterTest, JoinOnExpressionColumn) {
  const uint32_t bucket =
      cluster_
          .RegisterImExpression(
              table_, Expression::Mod(Expression::Column(0),
                                      Expression::Const(Value(int64_t{6}))))
          .value();
  const ObjectId dim =
      cluster_
          .CreateTable("dim", kDefaultTenant,
                       Schema(std::vector<ColumnDef>{
                           {"key", ValueType::kInt},
                           {"label", ValueType::kString}}),
                       ImService::kNone, false)
          .value();
  Transaction txn = cluster_.primary()->Begin();
  // Bucket 2 has two dim rows, bucket 5 none.
  for (const int64_t key : {0, 1, 2, 2, 3, 4}) {
    ASSERT_TRUE(cluster_.primary()
                    ->Insert(&txn, dim,
                             Row{Value(key), Value(key % 2 == 0
                                                       ? std::string("even")
                                                       : std::string("odd"))},
                             nullptr)
                    .ok());
  }
  ASSERT_TRUE(cluster_.primary()->Commit(&txn).ok());
  cluster_.WaitForCatchup();
  ASSERT_TRUE(cluster_.standby()->PopulateNow(table_).ok());

  // Joined layout: id, n1, n2, c1, bucket ++ key, label.
  MultiJoinQuery q;
  q.fact = table_;
  q.joins = {JoinEdge{dim, bucket, 0, {}}};
  const auto joined = cluster_.standby()->MultiJoin(q);
  ASSERT_TRUE(joined.ok());
  q.group_by = {6};
  q.aggregates = {{AggKind::kCount, 0},
                  {AggKind::kSum, bucket},
                  {AggKind::kMax, 2}};
  for (const uint32_t dop : {1u, 2u}) {
    q.dop = dop;
    q.force_row_store = false;
    const auto imcs = cluster_.standby()->MultiJoin(q);
    ASSERT_TRUE(imcs.ok());
    if (!ForceRowPathEnv()) {
      EXPECT_GT(imcs->stats.rows_from_imcs, 0u);
    }
    EXPECT_NE(imcs->profile.Explain().find("fold=join"), std::string::npos);
    q.force_row_store = true;
    const auto rows = cluster_.standby()->MultiJoin(q);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->stats.rows_from_imcs, 0u);
    ASSERT_EQ(imcs->rows.size(), 2u) << "dop=" << dop;
    EXPECT_EQ(imcs->rows, rows->rows) << "dop=" << dop;
    EXPECT_EQ(imcs->rows[0][0].as_string(), "even");
    // Every id with bucket != 5 joins once, bucket 2 twice.
    int64_t want_rows = 0;
    for (int64_t id = 0; id < 2 * kRowsPerBlock; ++id)
      want_rows += id % 6 == 5 ? 0 : id % 6 == 2 ? 2 : 1;
    EXPECT_EQ(imcs->rows[0][1].as_int() + imcs->rows[1][1].as_int(),
              want_rows);
    EXPECT_EQ(static_cast<int64_t>(joined->rows.size()), want_rows);
  }
}

}  // namespace
}  // namespace stratus
