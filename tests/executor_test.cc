// Operator-tree executor tests: hash group-by, multi-way joins, the
// cost-based IMCS/row access-path planner, and the determinism contract —
// results are byte-identical at any DOP, on either access path, under every
// scan kernel.

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "db/database.h"
#include "db/query.h"
#include "imcs/column_vector.h"
#include "imcs/group_fold.h"
#include "imcs/imcu.h"
#include "imcs/join_table.h"
#include "imcs/scan_kernels.h"

namespace stratus {
namespace {

/// a + b modulo 2^64 (no signed overflow).
int64_t Wrapped(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Hand fold of `rows` under the row semantics every fold path must keep: a
/// key column past the row's arity is NULL, COUNT counts every row, and
/// SUM/MIN/MAX skip NULL and non-int inputs (NULL when nothing folded).
/// SUM adds modulo 2^64, so it is exact for every group whose total fits
/// int64 however far its running sum strays. Output is key ++ aggregates per
/// group, sorted by key tuple.
std::vector<Row> OracleFold(const std::vector<Row>& rows,
                            const std::vector<uint32_t>& group_by,
                            const std::vector<AggSpec>& specs) {
  struct Acc {
    int64_t count = 0, value = 0;
    bool started = false;
  };
  std::map<Row, std::vector<Acc>> groups;
  for (const Row& row : rows) {
    Row key;
    for (uint32_t g : group_by)
      key.push_back(g < row.size() ? row[g] : Value());
    std::vector<Acc>& accs = groups[key];
    accs.resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      Acc& a = accs[i];
      ++a.count;
      const uint32_t c = specs[i].column;
      if (specs[i].kind == AggKind::kCount || c >= row.size() ||
          row[c].type() != ValueType::kInt)
        continue;
      const int64_t v = row[c].as_int();
      a.value = !a.started                       ? v
                : specs[i].kind == AggKind::kSum ? Wrapped(a.value, v)
                : specs[i].kind == AggKind::kMin ? std::min(a.value, v)
                                                 : std::max(a.value, v);
      a.started = true;
    }
  }
  if (group_by.empty() && groups.empty()) groups[Row{}].resize(specs.size());
  std::vector<Row> out;
  for (const auto& [key, accs] : groups) {
    Row row = key;
    for (size_t i = 0; i < specs.size(); ++i) {
      const Acc& a = accs[i];
      if (specs[i].kind == AggKind::kCount) {
        row.push_back(Value(a.count));
      } else {
        row.push_back(a.started ? Value(a.value) : Value());
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// Primary-only fixture: WideTable(2, 1) — id, n1, n2, c1 — with 200 rows,
/// n1 = id % 10, n2 = id % 7, c1 = "g<id % 4>". The population manager never
/// starts: PopulateNow builds IMCUs synchronously, so no background pass can
/// land inside a load transaction (whose commit would invalidate the IMCU it
/// built) or populate a table a test expects uncovered. Repopulation is
/// disabled so the planner's invalidity view is exactly what the tests
/// created.
class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : db_(MakeOptions()) {
    table_ = db_.CreateTable("t", kDefaultTenant, Schema::WideTable(2, 1),
                             ImService::kPrimaryOnly, /*identity_index=*/true)
                 .value();
    Transaction txn = db_.Begin();
    for (int64_t id = 0; id < 200; ++id) {
      Row row{Value(id), Value(id % 10), Value(id % 7),
              Value(std::string("g") + std::to_string(id % 4))};
      EXPECT_TRUE(db_.Insert(&txn, table_, std::move(row), nullptr).ok());
    }
    EXPECT_TRUE(db_.Commit(&txn).ok());
  }

  static DatabaseOptions MakeOptions() {
    DatabaseOptions options;
    // Keep repopulation out of the picture: planner tests control invalidity.
    options.population.repop_invalid_threshold = 2.0;
    options.population.repop_staleness_us = 0;
    return options;
  }

  ObjectId MakeDims(const std::string& name, int64_t keys,
                    const std::string& prefix) {
    const ObjectId dims =
        db_.CreateTable(name, kDefaultTenant,
                        Schema(std::vector<ColumnDef>{
                            {"key", ValueType::kInt},
                            {"label", ValueType::kString}}),
                        ImService::kNone, false)
            .value();
    Transaction txn = db_.Begin();
    for (int64_t k = 0; k < keys; ++k) {
      EXPECT_TRUE(db_.Insert(&txn, dims,
                             Row{Value(k), Value(prefix + std::to_string(k))},
                             nullptr)
                      .ok());
    }
    EXPECT_TRUE(db_.Commit(&txn).ok());
    return dims;
  }

  /// The scan leaf's stage for `object` out of a result profile.
  static const OperatorStage* ScanStage(const QueryResult& result,
                                        ObjectId object) {
    for (const OperatorStage& s : result.profile.stages) {
      if (s.op == "scan" && s.object == object) return &s;
    }
    return nullptr;
  }

  PrimaryDb db_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(ExecutorTest, GroupedCountSumPerGroup) {
  ScanQuery q;
  q.object = table_;
  q.group_by = {1};
  q.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 0}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 10u);
  EXPECT_EQ(result->count, 10u);
  EXPECT_EQ(result->profile.matches, 200u);  // Input rows, not groups.
  for (int64_t k = 0; k < 10; ++k) {
    const Row& row = result->rows[static_cast<size_t>(k)];
    ASSERT_EQ(row.size(), 3u);  // key ++ COUNT ++ SUM.
    EXPECT_EQ(row[0].as_int(), k);  // Sorted by key tuple.
    EXPECT_EQ(row[1].as_int(), 20);
    // ids {k, k+10, ..., k+190}: sum = 20k + 10*(0+...+19)*... = 20k + 1900.
    EXPECT_EQ(row[2].as_int(), 20 * k + 1900);
  }
}

TEST_F(ExecutorTest, GroupByStringKeySorted) {
  ScanQuery q;
  q.object = table_;
  q.group_by = {3};
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 4u);
  for (int64_t g = 0; g < 4; ++g) {
    EXPECT_EQ(result->rows[static_cast<size_t>(g)][0].as_string(),
              "g" + std::to_string(g));
    EXPECT_EQ(result->rows[static_cast<size_t>(g)][1].as_int(), 50);
  }
}

TEST_F(ExecutorTest, UngroupedMultiAggregateReturnsOneRow) {
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0},
                  {AggKind::kSum, 1},
                  {AggKind::kMin, 0},
                  {AggKind::kMax, 0}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  const Row& row = result->rows[0];
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0].as_int(), 200);
  EXPECT_EQ(row[1].as_int(), 20 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9));
  EXPECT_EQ(row[2].as_int(), 0);
  EXPECT_EQ(row[3].as_int(), 199);
  EXPECT_TRUE(result->agg_valid);  // First aggregate (COUNT) is defined.
}

TEST_F(ExecutorTest, GroupedAggOverEmptyInput) {
  ScanQuery q;
  q.object = table_;
  q.predicates = {{0, PredOp::kGt, Value(int64_t{100000})}};
  q.group_by = {1};
  q.aggregates = {{AggKind::kCount, 0}};
  const auto grouped = db_.Query(q);
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE(grouped->rows.empty());  // Grouped: zero groups.
  EXPECT_EQ(grouped->count, 0u);

  // Ungrouped multi-aggregate: SQL semantics give ONE row (COUNT = 0,
  // SUM = NULL) even over zero input rows.
  q.group_by.clear();
  q.aggregates = {{AggKind::kSum, 1}, {AggKind::kCount, 0}};
  const auto ungrouped = db_.Query(q);
  ASSERT_TRUE(ungrouped.ok());
  ASSERT_EQ(ungrouped->rows.size(), 1u);
  EXPECT_TRUE(ungrouped->rows[0][0].is_null());
  EXPECT_EQ(ungrouped->rows[0][1].as_int(), 0);
}

TEST_F(ExecutorTest, GroupByRequiresAggregates) {
  ScanQuery q;
  q.object = table_;
  q.group_by = {1};
  EXPECT_TRUE(db_.Query(q).status().code() == Code::kInvalidArgument);
}

// The grouped-aggregation oracle property: random group keys and aggregate
// inputs (both with NULLs), folded by hand over the row-store rows, must
// match the hash-aggregate operator exactly — at every DOP, on both access
// paths, under every kernel. The table spans nine IMCUs, so at DOP 2 and 3
// every lane folds several: n1's frame of reference moves with each IMCU and
// c1's dictionary with each pair of IMCUs, so one code is another key
// elsewhere. n3 pairs rows across IMCUs 2p and 2p + 1 (ids 2q and 2q + 1 in
// the ninth, which spans the whole int64 range): each even IMCU's n3 sums
// past INT64_MAX and each odd one's past INT64_MIN, so partials leave the
// int64 range in both directions while every group's total fits. Rows
// updated after population reconcile from the row store inside the lanes.
TEST_F(ExecutorTest, GroupedAggMatchesRowOracleWithNulls) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;
  const ObjectId rnd =
      db_.CreateTable("rnd", kDefaultTenant, Schema::WideTable(3, 1),
                      ImService::kPrimaryOnly, true)
          .value();
  const int64_t imcu_rows =
      int64_t{DatabaseOptions().population.blocks_per_imcu} * kRowsPerBlock;
  const int64_t num_rows = 8 * imcu_rows + imcu_rows / 2;
  Random rng(2024);
  std::vector<Row> loaded;
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < num_rows; ++id) {
    const int64_t imcu = id / imcu_rows;
    const bool last = imcu == 8;
    // Paired rows share j, hence c1, n3's NULLs and its magnitude.
    const int64_t j = last ? id % imcu_rows / 2 : id % imcu_rows;
    const Value key = rng.Percent(15)
                          ? Value()
                          : Value(imcu + static_cast<int64_t>(rng.Uniform(8)));
    const Value v = rng.Percent(10) ? Value() : Value(rng.UniformInt(-50, 50));
    const int64_t magnitude = (int64_t{1} << 61) + j * 7919;
    Value big;
    if (j % 17 != 0 && last) {
      big = Value(id % 2 == 0 ? std::numeric_limits<int64_t>::max() - j
                              : std::numeric_limits<int64_t>::min() + 1 + j);
    } else if (j % 17 != 0) {
      big = Value(imcu % 2 == 0 ? magnitude : j % 23 - 11 - magnitude);
    }
    const Value label = j % 13 == 0 ? Value()
                                    : Value("p" + std::to_string(imcu / 2) +
                                            "_" + std::to_string(j % 3));
    loaded.push_back(Row{Value(id), key, v, big, label});
    ASSERT_TRUE(db_.Insert(&txn, rnd, loaded.back(), nullptr).ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  ASSERT_TRUE(db_.PopulateNow(rnd).ok());
  ASSERT_GE(db_.im_store()->SmusForObject(rnd).size(), 8u);
  // n1 and n2 move; c1 and n3 stay, so the pairs still cancel.
  Transaction update = db_.Begin();
  for (int64_t id = 5; id < num_rows; id += 97) {
    Row row = loaded[static_cast<size_t>(id)];
    row[1] = id % 3 == 0 ? Value() : Value(int64_t{-7});
    row[2] = Value(1000 + id % 5);
    ASSERT_TRUE(db_.UpdateByKey(&update, rnd, id, std::move(row)).ok());
  }
  ASSERT_TRUE(db_.Commit(&update).ok());

  ScanQuery raw;
  raw.object = rnd;
  raw.force_row_store = true;
  const auto all = db_.Query(raw);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->rows.size(), static_cast<size_t>(num_rows));
  const std::vector<std::pair<std::vector<uint32_t>, std::vector<AggSpec>>>
      shapes = {{{1},
                 {{AggKind::kCount, 0},
                  {AggKind::kSum, 2},
                  {AggKind::kMin, 2},
                  {AggKind::kMax, 2}}},
                {{4},
                 {{AggKind::kCount, 0},
                  {AggKind::kSum, 3},
                  {AggKind::kMin, 3},
                  {AggKind::kMax, 3},
                  {AggKind::kSum, 2}}},
                {{},
                 {{AggKind::kSum, 3},
                  {AggKind::kCount, 0},
                  {AggKind::kMin, 3},
                  {AggKind::kMax, 3}}}};
  for (const auto& [group_by, specs] : shapes) {
    const std::vector<Row> want = OracleFold(all->rows, group_by, specs);
    ScanQuery q;
    q.object = rnd;
    q.group_by = group_by;
    q.aggregates = specs;
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
      ForceScanKernel(kernel);
      for (const bool force_row : {false, true}) {
        for (const uint32_t dop : {1u, 2u, 3u, 8u}) {
          q.force_row_store = force_row;
          q.dop = dop;
          const auto result = db_.Query(q);
          ASSERT_TRUE(result.ok());
          const std::string ctx =
              " keys=" + std::to_string(group_by.size()) +
              " kernel=" + ScanKernelName(kernel) +
              " force_row=" + std::to_string(force_row) +
              " dop=" + std::to_string(dop);
          EXPECT_EQ(result->rows, want) << ctx;
          EXPECT_FALSE(result->agg_overflow) << ctx;
          if (!force_row && !ForceRowPathEnv()) {
            EXPECT_GT(result->stats.rows_from_imcs, 0u) << ctx;
            EXPECT_GT(result->stats.invalid_rowpath, 0u) << ctx;
          }
        }
      }
    }
  }
}

TEST_F(ExecutorTest, ThreeTableMultiJoin) {
  const ObjectId dims1 = MakeDims("dims1", 4, "d");
  const ObjectId dims2 = MakeDims("dims2", 7, "t");

  MultiJoinQuery mj;
  mj.fact = table_;
  mj.joins = {{dims1, /*probe_column=*/1, /*build_column=*/0, {}},
              {dims2, /*probe_column=*/2, /*build_column=*/0, {}}};
  const auto result = db_.MultiJoin(mj);
  ASSERT_TRUE(result.ok());
  // n1 in {0..3}: 20 rows each → 80 fact rows survive hop 1; n2 in [0, 7)
  // always matches dims2, so 80 joined rows of width 4 + 2 + 2.
  EXPECT_EQ(result->count, 80u);
  ASSERT_EQ(result->rows.size(), 80u);
  for (const Row& row : result->rows) {
    ASSERT_EQ(row.size(), 8u);
    EXPECT_EQ(row[1], row[4]);  // fact.n1 == dims1.key.
    EXPECT_EQ(row[5].as_string(), "d" + std::to_string(row[1].as_int()));
    EXPECT_EQ(row[2], row[6]);  // fact.n2 == dims2.key.
  }
  EXPECT_EQ(result->profile.kind, "join");
}

TEST_F(ExecutorTest, MultiJoinGroupedAggregation) {
  const ObjectId dims1 = MakeDims("dims1g", 4, "d");
  MultiJoinQuery mj;
  mj.fact = table_;
  mj.joins = {{dims1, 1, 0, {}}};
  mj.group_by = {5};  // dims1.label in the joined layout.
  mj.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 0}};
  const auto result = db_.MultiJoin(mj);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 4u);
  for (int64_t g = 0; g < 4; ++g) {
    const Row& row = result->rows[static_cast<size_t>(g)];
    EXPECT_EQ(row[0].as_string(), "d" + std::to_string(g));
    EXPECT_EQ(row[1].as_int(), 20);
  }
}

TEST_F(ExecutorTest, MultiJoinResidualPredicateAndProjection) {
  const ObjectId dims1 = MakeDims("dims1r", 4, "d");
  MultiJoinQuery mj;
  mj.fact = table_;
  mj.joins = {{dims1, 1, 0, {}}};
  // Residual filter over the joined layout, then project (fact.id, label).
  mj.joined_predicates = {{0, PredOp::kLt, Value(int64_t{50})}};
  mj.projection = {0, 5};
  const auto result = db_.MultiJoin(mj);
  ASSERT_TRUE(result.ok());
  // ids 0..49 with n1 = id % 10 in {0..3}: 20 rows.
  EXPECT_EQ(result->count, 20u);
  for (const Row& row : result->rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_LT(row[0].as_int(), 50);
    EXPECT_EQ(row[1].as_string(),
              "d" + std::to_string(row[0].as_int() % 10));
  }
}

TEST_F(ExecutorTest, MultiJoinNeedsAtLeastOneEdge) {
  MultiJoinQuery mj;
  mj.fact = table_;
  EXPECT_TRUE(db_.MultiJoin(mj).status().code() == Code::kInvalidArgument);
}

TEST_F(ExecutorTest, NullJoinKeyNeverMatches) {
  const ObjectId facts =
      db_.CreateTable("nulls", kDefaultTenant,
                      Schema(std::vector<ColumnDef>{
                          {"id", ValueType::kInt}, {"k", ValueType::kInt}}),
                      ImService::kNone, false)
          .value();
  const ObjectId dims =
      db_.CreateTable("nulldims", kDefaultTenant,
                      Schema(std::vector<ColumnDef>{
                          {"k", ValueType::kInt},
                          {"label", ValueType::kString}}),
                      ImService::kNone, false)
          .value();
  Transaction txn = db_.Begin();
  ASSERT_TRUE(db_.Insert(&txn, facts, Row{Value(int64_t{0}), Value(int64_t{1})},
                         nullptr)
                  .ok());
  ASSERT_TRUE(db_.Insert(&txn, facts, Row{Value(int64_t{1}), Value()}, nullptr)
                  .ok());
  ASSERT_TRUE(db_.Insert(&txn, facts, Row{Value(int64_t{2}), Value(int64_t{2})},
                         nullptr)
                  .ok());
  ASSERT_TRUE(db_.Insert(&txn, dims,
                         Row{Value(int64_t{1}), Value(std::string("a"))},
                         nullptr)
                  .ok());
  // A NULL build key must not pair with the NULL probe key (SQL equi-join).
  ASSERT_TRUE(
      db_.Insert(&txn, dims, Row{Value(), Value(std::string("x"))}, nullptr)
          .ok());
  ASSERT_TRUE(db_.Insert(&txn, dims,
                         Row{Value(int64_t{2}), Value(std::string("b"))},
                         nullptr)
                  .ok());
  ASSERT_TRUE(db_.Commit(&txn).ok());

  MultiJoinQuery join;
  join.fact = facts;
  join.joins = {JoinEdge{dims, 1, 0, {}}};
  const auto result = db_.MultiJoin(join);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 2u);
  for (const Row& row : result->rows) {
    EXPECT_FALSE(row[1].is_null());
    EXPECT_EQ(row[1], row[2]);
  }
}

// kSum overflow saturates at the int64 bound and raises agg_overflow — and
// because the fold carries an exact 128-bit sum, the surfaced value is
// identical at every DOP, on both access paths, under every kernel (a
// wrapping i64 accumulator would make the result depend on fold order).
TEST_F(ExecutorTest, SumOverflowSaturatesIdenticallyEverywhere) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;
  const ObjectId big =
      db_.CreateTable("big", kDefaultTenant, Schema::WideTable(2, 1),
                      ImService::kPrimaryOnly, true)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < 6; ++id) {
    const int64_t v = std::numeric_limits<int64_t>::max() - 2;
    ASSERT_TRUE(db_.Insert(&txn, big,
                           Row{Value(id), Value(v), Value(int64_t{1}),
                               Value(std::string("x"))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  ASSERT_TRUE(db_.PopulateNow(big).ok());

  // Push-down (single ungrouped SUM), grouped, and multi-aggregate shapes.
  for (const ScanKernel kernel :
       {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
    ForceScanKernel(kernel);
    for (const bool force_row : {false, true}) {
      for (const uint32_t dop : {1u, 2u, 8u}) {
        const std::string ctx = std::string(" kernel=") +
                                ScanKernelName(kernel) +
                                " force_row=" + std::to_string(force_row) +
                                " dop=" + std::to_string(dop);
        ScanQuery q;
        q.object = big;
        q.aggregates = {{AggKind::kSum, 1}};
        q.force_row_store = force_row;
        q.dop = dop;
        const auto pushdown = db_.Query(q);
        ASSERT_TRUE(pushdown.ok()) << ctx;
        EXPECT_TRUE(pushdown->agg_valid) << ctx;
        EXPECT_TRUE(pushdown->agg_overflow) << ctx;
        EXPECT_EQ(pushdown->agg_int, std::numeric_limits<int64_t>::max())
            << ctx;

        ScanQuery grouped = q;
        grouped.group_by = {2};  // All six rows share n2 = 1: one group.
        grouped.aggregates = {{AggKind::kSum, 1}, {AggKind::kCount, 0}};
        const auto hashed = db_.Query(grouped);
        ASSERT_TRUE(hashed.ok()) << ctx;
        ASSERT_EQ(hashed->rows.size(), 1u) << ctx;
        EXPECT_EQ(hashed->rows[0][1].as_int(),
                  std::numeric_limits<int64_t>::max())
            << ctx;
        EXPECT_EQ(hashed->rows[0][2].as_int(), 6) << ctx;
        EXPECT_TRUE(hashed->agg_overflow) << ctx;
      }
    }
  }

  // Negative overflow saturates at the minimum.
  Transaction neg = db_.Begin();
  for (int64_t id = 6; id < 20; ++id) {
    ASSERT_TRUE(db_.Insert(&neg, big,
                           Row{Value(id),
                               Value(std::numeric_limits<int64_t>::min() + 2),
                               Value(int64_t{1}), Value(std::string("x"))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&neg).ok());
  ScanQuery q;
  q.object = big;
  q.predicates = {{0, PredOp::kGe, Value(int64_t{6})}};
  q.aggregates = {{AggKind::kSum, 1}};
  const auto low = db_.Query(q);
  ASSERT_TRUE(low.ok());
  EXPECT_TRUE(low->agg_overflow);
  EXPECT_EQ(low->agg_int, std::numeric_limits<int64_t>::min());
}

TEST_F(ExecutorTest, PlannerChoosesImcsWhenCoveredAndFresh) {
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  ScanQuery q;
  q.object = table_;
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  const OperatorStage* scan = ScanStage(*result, table_);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->path, "imcs");
  EXPECT_EQ(scan->reason, "imcs-covered");
  EXPECT_GT(result->stats.rows_from_imcs, 0u);
}

TEST_F(ExecutorTest, PlannerFallsBackWithoutCoverage) {
  // No PopulateNow: zero ready IMCUs.
  ScanQuery q;
  q.object = table_;
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  const OperatorStage* scan = ScanStage(*result, table_);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->path, "row");
  EXPECT_EQ(scan->reason, "no-imcs-coverage");
}

// The tentpole planner property: once churn pushes a table's SMU invalidity
// past the threshold, the planner flips its scans to the row path — visible
// in the profile stage — and flips back semantics-free (results identical).
TEST_F(ExecutorTest, PlannerCrossesToRowPathOnInvalidity) {
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  ScanQuery q;
  q.object = table_;
  const auto before = db_.Query(q);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(ScanStage(*before, table_)->path, "imcs");

  // Invalidate 60% of the rows (repopulation is disabled in this fixture).
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < 120; ++id) {
    ASSERT_TRUE(db_.UpdateByKey(&txn, table_, id,
                                Row{Value(id), Value(id % 10), Value(id % 7),
                                    Value(std::string("u"))})
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());

  const auto after = db_.Query(q);
  ASSERT_TRUE(after.ok());
  const OperatorStage* scan = ScanStage(*after, table_);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->path, "row");
  EXPECT_EQ(scan->reason, "invalidity-crossover");
  EXPECT_GE(scan->invalid_fraction, 0.40);
  EXPECT_EQ(after->stats.rows_from_imcs, 0u);
  EXPECT_EQ(after->count, before->count);
}

TEST_F(ExecutorTest, ForceRowpathEnvOverridesPlanner) {
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  ScanQuery q;
  q.object = table_;

  ::setenv("STRATUS_FORCE_ROWPATH", "1", 1);
  const auto forced = db_.Query(q);
  ::unsetenv("STRATUS_FORCE_ROWPATH");
  ASSERT_TRUE(forced.ok());
  const OperatorStage* scan = ScanStage(*forced, table_);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->path, "row");
  EXPECT_EQ(scan->reason, "env:STRATUS_FORCE_ROWPATH");
  EXPECT_EQ(forced->stats.rows_from_imcs, 0u);

  // "0" disables the override; query-level force_row_store still wins.
  ::setenv("STRATUS_FORCE_ROWPATH", "0", 1);
  const auto unforced = db_.Query(q);
  ::unsetenv("STRATUS_FORCE_ROWPATH");
  ASSERT_TRUE(unforced.ok());
  EXPECT_EQ(ScanStage(*unforced, table_)->path, "imcs");

  q.force_row_store = true;
  const auto explicit_force = db_.Query(q);
  ASSERT_TRUE(explicit_force.ok());
  EXPECT_EQ(ScanStage(*explicit_force, table_)->reason, "force_row_store");
  EXPECT_EQ(explicit_force->rows, forced->rows);
}

TEST_F(ExecutorTest, PlannerPathPinnedAcrossDopAndKernels) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kLt, Value(int64_t{5})}};
  q.dop = 1;
  ForceScanKernel(ScanKernel::kScalar);
  const auto base = db_.Query(q);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(ScanStage(*base, table_)->path, "imcs");
  for (const ScanKernel kernel :
       {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
    ForceScanKernel(kernel);
    for (const uint32_t dop : {1u, 2u, 8u}) {
      q.dop = dop;
      const auto result = db_.Query(q);
      ASSERT_TRUE(result.ok());
      // The planner's decision is a function of (context, query, snapshot)
      // only — never of DOP or kernel dispatch.
      EXPECT_EQ(ScanStage(*result, table_)->path, "imcs")
          << ScanKernelName(kernel) << " dop=" << dop;
      EXPECT_EQ(result->rows, base->rows)
          << ScanKernelName(kernel) << " dop=" << dop;
    }
  }
}

TEST_F(ExecutorTest, JoinBuildsOnSmallerInput) {
  const ObjectId dims = MakeDims("dimsb", 4, "d");
  MultiJoinQuery join;
  join.fact = table_;                       // 200 rows.
  join.joins = {JoinEdge{dims, 1, 0, {}}};  // 4 rows → build side.
  const auto big_left = db_.MultiJoin(join);
  ASSERT_TRUE(big_left.ok());
  const OperatorStage* stage = nullptr;
  for (const OperatorStage& s : big_left->profile.stages) {
    if (s.op == "hash_join") stage = &s;
  }
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->build_side, "right");
  EXPECT_EQ(stage->build_rows, 4u);
  EXPECT_EQ(stage->probe_rows, 200u);

  // Swapped: the smaller side is now the left (probe) input — the executor
  // hashes it instead, and the canonical output order hides the difference.
  MultiJoinQuery swapped;
  swapped.fact = dims;
  swapped.joins = {JoinEdge{table_, 0, 1, {}}};
  const auto small_left = db_.MultiJoin(swapped);
  ASSERT_TRUE(small_left.ok());
  stage = nullptr;
  for (const OperatorStage& s : small_left->profile.stages) {
    if (s.op == "hash_join") stage = &s;
  }
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->build_side, "left");
  EXPECT_EQ(small_left->count, big_left->count);
}

TEST_F(ExecutorTest, ProjectionSelectsColumns) {
  ScanQuery q;
  q.object = table_;
  q.predicates = {{0, PredOp::kLt, Value(int64_t{3})}};
  q.projection = {3, 0};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  for (int64_t id = 0; id < 3; ++id) {
    const Row& row = result->rows[static_cast<size_t>(id)];
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].as_string(), "g" + std::to_string(id % 4));
    EXPECT_EQ(row[1].as_int(), id);
  }
}

TEST_F(ExecutorTest, StagesVisibleInProfileExplainAndJson) {
  ASSERT_TRUE(db_.PopulateNow(table_).ok());
  ScanQuery q;
  q.object = table_;
  q.group_by = {1};
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->profile.stages.size(), 2u);
  EXPECT_EQ(result->profile.stages[0].op, "scan");
  EXPECT_EQ(result->profile.stages[1].op, "hash_agg");
  EXPECT_EQ(result->profile.stages[1].groups, 10u);
  EXPECT_EQ(result->profile.stages[1].rows_in, 200u);

  const std::string explain = result->profile.Explain();
  EXPECT_NE(explain.find("hash_agg"), std::string::npos);
  EXPECT_NE(explain.find("imcs"), std::string::npos);
  const std::string json = result->profile.ToJson();
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("\"groups\":10"), std::string::npos);
}

TEST_F(ExecutorTest, MultiJoinDopSweepIdentical) {
  const ObjectId dims1 = MakeDims("dims1d", 4, "d");
  const ObjectId dims2 = MakeDims("dims2d", 7, "t");
  ASSERT_TRUE(db_.PopulateNow(table_).ok());

  MultiJoinQuery mj;
  mj.fact = table_;
  mj.joins = {{dims1, 1, 0, {}}, {dims2, 2, 0, {}}};
  mj.group_by = {5};
  mj.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 0}};
  mj.dop = 1;
  const auto base = db_.MultiJoin(mj);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->rows.size(), 4u);
  for (const uint32_t dop : {2u, 8u}) {
    for (const bool force_row : {false, true}) {
      mj.dop = dop;
      mj.force_row_store = force_row;
      const auto result = db_.MultiJoin(mj);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->rows, base->rows)
          << "dop=" << dop << " force_row=" << force_row;
      EXPECT_EQ(result->count, base->count);
    }
  }
}

// ---------------------------------------------------------------------------
// GroupFold: aggregates fold on IMCU codes inside the scan tasks — through
// the join chain when joins feed them — or off materialized rows: one fold,
// one set of row semantics.
// ---------------------------------------------------------------------------

/// Two IMCUs (16 blocks of 256 rows each) whose key codes mean different
/// values: ids [0, 4096) hold n1 in [0, 8) and c1 in {a0..a3}, ids
/// [4096, 8192) hold n1 in [1000, 1008) and c1 in {b0..b3}, every (c1, n1)
/// pair occurring; both halves carry NULL keys and NULL aggregate inputs.
class GroupFoldTest : public ExecutorTest {
 protected:
  static constexpr int64_t kRows = 2 * 16 * kRowsPerBlock;

  GroupFoldTest() {
    two_ = db_.CreateTable("two", kDefaultTenant, Schema::WideTable(2, 1),
                           ImService::kPrimaryOnly, /*identity_index=*/true)
               .value();
    Transaction txn = db_.Begin();
    for (int64_t id = 0; id < kRows; ++id) {
      EXPECT_TRUE(db_.Insert(&txn, two_, MakeRow(id, 0), nullptr).ok());
    }
    EXPECT_TRUE(db_.Commit(&txn).ok());
    EXPECT_TRUE(db_.PopulateNow(two_).ok());
    const auto smus = db_.im_store()->SmusForObject(two_);
    EXPECT_EQ(smus.size(), 2u);
    for (const auto& smu : smus) EXPECT_EQ(smu->invalid_count(), 0u);
  }

  /// Row `id` (id, n1, n2, c1); `bump` shifts n2 so an update changes the
  /// aggregate input but keeps the row's group.
  static Row MakeRow(int64_t id, int64_t bump) {
    const bool second = id >= kRows / 2;
    const Value n1 = id % 9 == 0 ? Value()
                                 : Value((second ? 1000 : 0) + id / 3 % 8);
    const Value n2 = id % 5 == 0 ? Value() : Value(id % 13 - 6 + bump);
    const Value c1 =
        id % 11 == 0 ? Value()
                     : Value(std::string(second ? "b" : "a") +
                             std::to_string(id % 4));
    return Row{Value(id), n1, n2, c1};
  }

  /// Every row of `object` at the current snapshot, off the row store.
  std::vector<Row> AllRows(ObjectId object) {
    ScanQuery raw;
    raw.object = object;
    raw.force_row_store = true;
    const auto all = db_.Query(raw);
    EXPECT_TRUE(all.ok());
    return all.ok() ? all->rows : std::vector<Row>{};
  }

  static const OperatorStage* AggStage(const QueryResult& result) {
    for (const OperatorStage& s : result.profile.stages) {
      if (s.op == "hash_agg") return &s;
    }
    return nullptr;
  }

  /// Runs `q` on both access paths at DOP 1/2/8 under every kernel; every
  /// run must return `want` and fold in the scan leaf (the row-store leaf
  /// folds inside its scan tasks too).
  void ExpectEverywhere(ScanQuery q, const std::vector<Row>& want) {
    struct OverrideGuard {
      ~OverrideGuard() { ClearScanKernelOverride(); }
    } guard;
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
      ForceScanKernel(kernel);
      for (const bool force_row : {false, true}) {
        for (const uint32_t dop : {1u, 2u, 8u}) {
          q.force_row_store = force_row;
          q.dop = dop;
          const auto result = db_.Query(q);
          ASSERT_TRUE(result.ok());
          const std::string ctx = std::string(" kernel=") +
                                  ScanKernelName(kernel) +
                                  " force_row=" + std::to_string(force_row) +
                                  " dop=" + std::to_string(dop);
          EXPECT_EQ(result->rows, want) << ctx;
          EXPECT_EQ(result->count, want.size()) << ctx;
          const OperatorStage* agg = AggStage(*result);
          ASSERT_NE(agg, nullptr) << ctx;
          EXPECT_EQ(agg->fold, "scan") << ctx;
        }
      }
    }
  }

  /// A table of `schema` holding `rows`, outside the IMCS (a joinee is read
  /// as rows on either path).
  ObjectId MakeTable(const std::string& name, Schema schema,
                     const std::vector<Row>& rows) {
    const ObjectId object =
        db_.CreateTable(name, kDefaultTenant, std::move(schema),
                        ImService::kNone, false)
            .value();
    Transaction txn = db_.Begin();
    for (const Row& row : rows)
      EXPECT_TRUE(db_.Insert(&txn, object, row, nullptr).ok());
    EXPECT_TRUE(db_.Commit(&txn).ok());
    return object;
  }

  /// Runs the grouped join `mj` on both access paths at DOP 1/2/8 under
  /// every kernel. Every run must fold through the join chain and return
  /// OracleFold over the row-returning join's rows, with the aggregate's
  /// input, the profile's matches and the outermost join's output all equal
  /// to that join's row count. Returns the expected rows.
  std::vector<Row> ExpectJoinEverywhere(MultiJoinQuery mj,
                                        const std::string& what) {
    struct OverrideGuard {
      ~OverrideGuard() { ClearScanKernelOverride(); }
    } guard;
    MultiJoinQuery raw = mj;
    raw.group_by.clear();
    raw.aggregates.clear();
    const auto joined = db_.MultiJoin(raw);
    EXPECT_TRUE(joined.ok()) << what;
    if (!joined.ok()) return {};
    const std::vector<Row> want =
        OracleFold(joined->rows, mj.group_by, mj.aggregates);
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
      ForceScanKernel(kernel);
      for (const bool force_row : {false, true}) {
        for (const uint32_t dop : {1u, 2u, 8u}) {
          mj.force_row_store = force_row;
          mj.dop = dop;
          const auto result = db_.MultiJoin(mj);
          const std::string ctx = what + " kernel=" + ScanKernelName(kernel) +
                                  " force_row=" + std::to_string(force_row) +
                                  " dop=" + std::to_string(dop);
          EXPECT_TRUE(result.ok()) << ctx;
          if (!result.ok()) continue;
          EXPECT_EQ(result->rows, want) << ctx;
          const OperatorStage* agg = AggStage(*result);
          const OperatorStage* join = nullptr;  // The outermost join.
          for (const OperatorStage& s : result->profile.stages) {
            if (s.op == "hash_join") join = &s;
          }
          EXPECT_TRUE(agg != nullptr && join != nullptr) << ctx;
          if (agg == nullptr || join == nullptr) continue;
          EXPECT_EQ(agg->fold, "join") << ctx;
          EXPECT_EQ(agg->rows_in, joined->rows.size()) << ctx;
          EXPECT_EQ(result->profile.matches, joined->rows.size()) << ctx;
          EXPECT_EQ(join->rows_out, joined->rows.size()) << ctx;
          if (!force_row && !ForceRowPathEnv()) {
            EXPECT_EQ(ScanStage(*result, mj.fact)->path, "imcs") << ctx;
          }
        }
      }
    }
    return want;
  }

  ObjectId two_ = kInvalidObjectId;
};

// Codes are per IMCU: the same code is a different key in the other IMCU,
// and NULL keys take their own code in each.
TEST_F(GroupFoldTest, KeysDecodedPerImcu) {
  const std::vector<Row> rows = AllRows(two_);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  const std::vector<AggSpec> specs = {{AggKind::kCount, 0},
                                      {AggKind::kSum, 2},
                                      {AggKind::kMin, 2},
                                      {AggKind::kMax, 2}};
  for (const std::vector<uint32_t>& keys :
       std::vector<std::vector<uint32_t>>{{1}, {3}, {3, 1}}) {
    ScanQuery q;
    q.object = two_;
    q.group_by = keys;
    q.aggregates = specs;
    const std::vector<Row> want = OracleFold(rows, keys, specs);
    // n1: 16 values + NULL; c1: 8 + NULL; (c1, n1): each half's 4 x 8
    // pairs plus NULL-bearing ones.
    EXPECT_GE(want.size(), keys.size() == 2 ? 64u : 9u);
    ExpectEverywhere(q, want);
  }
  // A predicate selects a subset of each IMCU: groups still decode per IMCU.
  ScanQuery q;
  q.object = two_;
  q.predicates = {{2, PredOp::kGe, Value(int64_t{0})}};
  q.group_by = {3, 1};
  q.aggregates = specs;
  std::vector<Row> matching;
  for (const Row& row : rows) {
    if (row[2].type() == ValueType::kInt && row[2].as_int() >= 0)
      matching.push_back(row);
  }
  ExpectEverywhere(q, OracleFold(matching, q.group_by, q.aggregates));
}

// A key whose code space is past the slot cap — a composite with the id, or
// one column spread over +-2^40 — decodes per matched row; so does a narrow
// key over fewer matched rows than it has codes.
TEST_F(GroupFoldTest, WideKeyDecodesPerRow) {
  const ObjectId wide =
      db_.CreateTable("wide", kDefaultTenant, Schema::WideTable(2, 1),
                      ImService::kPrimaryOnly, /*identity_index=*/true)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < kRows / 2; ++id) {
    const int64_t spread = (id % 3 - 1) * (int64_t{1} << 40) + id % 5;
    ASSERT_TRUE(db_.Insert(&txn, wide,
                           Row{Value(id), Value(spread), Value(id % 7),
                               Value("w" + std::to_string(id % 3))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  ASSERT_TRUE(db_.PopulateNow(wide).ok());
  const std::vector<AggSpec> specs = {{AggKind::kCount, 0}, {AggKind::kSum, 2}};

  ScanQuery spread;
  spread.object = wide;
  spread.group_by = {1};
  spread.aggregates = specs;
  const std::vector<Row> want = OracleFold(AllRows(wide), {1}, specs);
  EXPECT_EQ(want.size(), 15u);
  ExpectEverywhere(spread, want);

  ScanQuery composite;
  composite.object = two_;
  composite.group_by = {3, 0};
  composite.aggregates = specs;
  ExpectEverywhere(composite, OracleFold(AllRows(two_), {3, 0}, specs));

  ScanQuery few;
  few.object = two_;
  few.predicates = {{0, PredOp::kLt, Value(int64_t{3})}};
  few.group_by = {1};
  few.aggregates = specs;
  std::vector<Row> first3 = AllRows(two_);
  first3.resize(3);
  ExpectEverywhere(few, OracleFold(first3, {1}, specs));
}

// Rows changed after population reconcile from the row store and fold into
// the same groups as the columnar rows of their IMCU.
TEST_F(GroupFoldTest, SmuInvalidRowsFoldIntoSameGroups) {
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < kRows; id += 10) {
    ASSERT_TRUE(db_.UpdateByKey(&txn, two_, id, MakeRow(id, 100)).ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());

  ScanQuery q;
  q.object = two_;
  q.group_by = {3, 1};
  q.aggregates = {{AggKind::kCount, 0},
                  {AggKind::kSum, 2},
                  {AggKind::kMin, 2},
                  {AggKind::kMax, 2}};
  const auto imcs = db_.Query(q);
  ASSERT_TRUE(imcs.ok());
  EXPECT_GT(imcs->stats.rows_from_rowstore, 0u);
  if (!ForceRowPathEnv()) {  // The row-path sweep pass forces every plan.
    EXPECT_EQ(ScanStage(*imcs, two_)->path, "imcs")
        << ScanStage(*imcs, two_)->reason;
    EXPECT_GT(imcs->stats.rows_from_imcs, 0u);
    EXPECT_GT(imcs->stats.invalid_rowpath, 0u);
  }
  ExpectEverywhere(q, OracleFold(AllRows(two_), q.group_by, q.aggregates));
}

// SUM over a string column is NULL with its rows still counted; a group key
// past the table's arity makes one NULL-key group.
TEST_F(GroupFoldTest, RowSemanticsKept) {
  const std::vector<Row> rows = AllRows(two_);
  ScanQuery string_sum;
  string_sum.object = two_;
  string_sum.group_by = {1};
  string_sum.aggregates = {{AggKind::kSum, 3}, {AggKind::kCount, 0}};
  const std::vector<Row> want = OracleFold(rows, {1}, string_sum.aggregates);
  for (const Row& row : want) EXPECT_TRUE(row[1].is_null());
  ExpectEverywhere(string_sum, want);

  ScanQuery past;
  past.object = two_;
  past.group_by = {50};
  past.aggregates = {{AggKind::kCount, 0}, {AggKind::kMax, 0}};
  const std::vector<Row> one = OracleFold(rows, {50}, past.aggregates);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0][0].is_null());
  EXPECT_EQ(one[0][1].as_int(), kRows);
  ExpectEverywhere(past, one);
}

// One join + group-by folded three ways — through the join chain inside the
// fact scan, off the rows a residual filter passes, and with both leaves on
// the row store — gives the same rows; the joined rows outnumber the array
// slot cap.
TEST_F(GroupFoldTest, JoinFoldMatchesRowFold) {
  struct OverrideGuard {
    ~OverrideGuard() { ClearScanKernelOverride(); }
  } guard;
  const ObjectId dims = MakeDims("fold_dims", 1008, "d");
  MultiJoinQuery mj;
  mj.fact = two_;
  mj.joins = {JoinEdge{dims, 1, 0, {}}};
  mj.group_by = {3, 5};  // fact.c1, dims.label.
  mj.aggregates = {{AggKind::kCount, 0},
                   {AggKind::kSum, 2},
                   {AggKind::kMin, 0},
                   {AggKind::kMax, 4}};
  mj.dop = 1;
  const auto base = db_.MultiJoin(mj);
  ASSERT_TRUE(base.ok());
  ASSERT_FALSE(base->rows.empty());
  MultiJoinQuery raw = mj;
  raw.group_by.clear();
  raw.aggregates.clear();
  const auto joined = db_.MultiJoin(raw);
  ASSERT_TRUE(joined.ok());
  EXPECT_GT(joined->rows.size(), 4096u);
  EXPECT_EQ(base->rows, OracleFold(joined->rows, mj.group_by, mj.aggregates));

  for (const ScanKernel kernel :
       {ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2}) {
    ForceScanKernel(kernel);
    for (const uint32_t dop : {1u, 2u, 8u}) {
      const std::string ctx = std::string(" kernel=") +
                              ScanKernelName(kernel) +
                              " dop=" + std::to_string(dop);
      MultiJoinQuery q = mj;
      q.dop = dop;
      const auto pairs = db_.MultiJoin(q);
      ASSERT_TRUE(pairs.ok()) << ctx;
      EXPECT_EQ(pairs->rows, base->rows) << ctx;
      EXPECT_EQ(AggStage(*pairs)->fold, "join") << ctx;
      EXPECT_EQ(AggStage(*pairs)->rows_in, joined->rows.size()) << ctx;

      q.joined_predicates = {{0, PredOp::kGe, Value(int64_t{0})}};
      const auto filtered = db_.MultiJoin(q);
      ASSERT_TRUE(filtered.ok()) << ctx;
      EXPECT_EQ(filtered->rows, base->rows) << ctx;
      EXPECT_EQ(AggStage(*filtered)->fold, "rows") << ctx;

      q.joined_predicates.clear();
      q.force_row_store = true;
      const auto row_store = db_.MultiJoin(q);
      ASSERT_TRUE(row_store.ok()) << ctx;
      EXPECT_EQ(row_store->rows, base->rows) << ctx;
      EXPECT_EQ(row_store->stats.rows_from_imcs, 0u) << ctx;
    }
  }
}

// The join chain folds fact codes through every edge exactly as the
// row-returning join pairs rows: duplicate keys on both sides, NULL and
// string probe keys, NULL and string joinee keys, a probe column past the
// fact, an empty joinee, a second edge probing the first joinee, a wide fact
// key beside a joinee key, aggregates over joinee columns, and SMU-invalid
// fact rows.
TEST_F(GroupFoldTest, JoinChainMatchesRowJoin) {
  const Schema dup_schema(std::vector<ColumnDef>{{"key", ValueType::kInt},
                                                 {"label", ValueType::kString},
                                                 {"weight", ValueType::kInt}});
  // Keys of both fact halves (plus one no fact row has), k % 3 + 1 rows
  // each; a weight NULL on every third copy; three NULL-key rows.
  std::vector<Row> dup_rows;
  for (int64_t half : {int64_t{0}, int64_t{1000}}) {
    for (int64_t k = half; k < half + 9; ++k) {
      for (int64_t copy = 0; copy <= k % 3; ++copy) {
        dup_rows.push_back(Row{Value(k),
                               Value("d" + std::to_string(k % 6)),
                               copy == 2 ? Value() : Value(k % 4)});
      }
    }
  }
  for (int64_t i = 0; i < 3; ++i)
    dup_rows.push_back(Row{Value(), Value(std::string("nullkey")), Value(i)});
  const ObjectId dup = MakeTable("dup", dup_schema, dup_rows);
  const ObjectId empty = MakeTable("empty", dup_schema, {});
  // Second-edge joinee on dup.weight: key 1 twice, a NULL key.
  const ObjectId weights = MakeTable(
      "weights",
      Schema(std::vector<ColumnDef>{{"key", ValueType::kInt},
                                    {"name", ValueType::kString}}),
      {Row{Value(int64_t{0}), Value(std::string("w0"))},
       Row{Value(int64_t{1}), Value(std::string("w1"))},
       Row{Value(int64_t{1}), Value(std::string("w1b"))},
       Row{Value(int64_t{3}), Value(std::string("w3"))},
       Row{Value(), Value(std::string("wnull"))}});

  // Joined layout: two (id, n1, n2, c1) ++ dup (key 4, label 5, weight 6)
  // ++ weights (key 7, name 8).
  MultiJoinQuery nm;
  nm.fact = two_;
  nm.joins = {JoinEdge{dup, 1, 0, {}}};
  nm.group_by = {3, 5};
  nm.aggregates = {{AggKind::kCount, 0},
                   {AggKind::kSum, 2},
                   {AggKind::kMin, 6},
                   {AggKind::kMax, 6},
                   {AggKind::kSum, 4}};
  const std::vector<Row> nm_rows = ExpectJoinEverywhere(nm, "n:m");
  EXPECT_GT(nm_rows.size(), 8u);

  MultiJoinQuery wide = nm;  // Fact id spans 4,097 codes per IMCU.
  wide.group_by = {0, 5};
  wide.aggregates = {{AggKind::kCount, 0}, {AggKind::kMax, 6}};
  EXPECT_GT(ExpectJoinEverywhere(wide, "wide").size(), 4096u);

  // A fact key holding INT64_MIN and INT64_MAX in one IMCU saturates its
  // code count: it decodes per row, beside a joinee key or alone.
  const ObjectId extremes =
      db_.CreateTable("extremes", kDefaultTenant, Schema::WideTable(2, 1),
                      ImService::kPrimaryOnly, /*identity_index=*/true)
          .value();
  Transaction load = db_.Begin();
  for (int64_t id = 0; id < 60; ++id) {
    const int64_t spread[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), -1, 0, 1};
    const Value n1 = id % 6 == 5 ? Value() : Value(spread[id % 6]);
    ASSERT_TRUE(db_.Insert(&load, extremes,
                           Row{Value(id), n1, Value(id % 9),
                               Value(std::string("x"))},
                           nullptr)
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&load).ok());
  ASSERT_TRUE(db_.PopulateNow(extremes).ok());
  MultiJoinQuery full_range;
  full_range.fact = extremes;
  full_range.joins = {JoinEdge{dup, 2, 0, {}}};
  full_range.aggregates = {{AggKind::kCount, 0},
                           {AggKind::kMin, 1},
                           {AggKind::kMax, 1},
                           {AggKind::kSum, 6}};
  for (const std::vector<uint32_t>& keys :
       std::vector<std::vector<uint32_t>>{{1, 5}, {5, 1}, {1}}) {
    full_range.group_by = keys;
    EXPECT_GE(ExpectJoinEverywhere(full_range, "full int64 range").size(), 6u);
  }

  MultiJoinQuery chain = nm;
  chain.joins.push_back(JoinEdge{weights, 6, 0, {}});
  chain.group_by = {8, 5};
  chain.aggregates = {{AggKind::kCount, 0},
                      {AggKind::kSum, 2},
                      {AggKind::kMax, 7},
                      {AggKind::kMin, 4}};
  EXPECT_FALSE(ExpectJoinEverywhere(chain, "two edges").empty());

  // Joins that match nothing: grouped they have no rows, ungrouped one row
  // (COUNT 0, the rest NULL).
  const std::vector<Row> none = {Row{Value(int64_t{0}), Value()}};
  for (const auto& [edge, what] : std::vector<std::pair<JoinEdge, std::string>>{
           {JoinEdge{dup, 3, 0, {}}, "string probe key"},
           {JoinEdge{dup, 1, 1, {}}, "string joinee key"},
           {JoinEdge{dup, 6, 0, {}}, "probe past the fact"},
           {JoinEdge{empty, 1, 0, {}}, "empty joinee"}}) {
    MultiJoinQuery q = nm;
    q.joins = {edge};
    EXPECT_TRUE(ExpectJoinEverywhere(q, what).empty()) << what;
    q.group_by.clear();
    q.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 6}};
    EXPECT_EQ(ExpectJoinEverywhere(q, what + " ungrouped"), none) << what;
  }

  // Fact rows changed after population (n2 moves, the group does not)
  // reconcile from the row store and join through the same chain.
  Transaction txn = db_.Begin();
  for (int64_t id = 1; id < kRows; id += 10) {
    ASSERT_TRUE(db_.UpdateByKey(&txn, two_, id, MakeRow(id, 100)).ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  const auto reconciled = db_.MultiJoin(nm);
  ASSERT_TRUE(reconciled.ok());
  if (!ForceRowPathEnv()) {  // The row-path sweep pass forces every plan.
    EXPECT_GT(reconciled->stats.invalid_rowpath, 0u);
    EXPECT_GT(reconciled->stats.rows_from_imcs, 0u);
  }
  EXPECT_NE(ExpectJoinEverywhere(nm, "invalid n:m"), nm_rows);
  ExpectJoinEverywhere(chain, "invalid two edges");
}

// A grouped scan folds in the scan leaf, and the leaf's matches, the
// aggregate's input, the profile's matches and an ungrouped COUNT agree.
TEST_F(GroupFoldTest, ScanFoldStageContract) {
  ScanQuery q;
  q.object = two_;
  q.predicates = {{2, PredOp::kGt, Value(int64_t{-3})}};
  q.group_by = {1};
  q.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 2}};
  ScanQuery count = q;
  count.group_by.clear();
  count.aggregates = {{AggKind::kCount, 0}};
  for (const bool force_row : {false, true}) {
    q.force_row_store = count.force_row_store = force_row;
    const auto grouped = db_.Query(q);
    const auto counted = db_.Query(count);
    ASSERT_TRUE(grouped.ok());
    ASSERT_TRUE(counted.ok());
    ASSERT_EQ(grouped->profile.stages.size(), 2u);
    const OperatorStage& scan = grouped->profile.stages[0];
    const OperatorStage& agg = grouped->profile.stages[1];
    EXPECT_EQ(scan.op, "scan");
    EXPECT_EQ(agg.fold, "scan");
    EXPECT_GT(counted->count, 0u);
    EXPECT_EQ(scan.rows_out, counted->count) << "force_row=" << force_row;
    EXPECT_EQ(agg.rows_in, counted->count) << "force_row=" << force_row;
    EXPECT_EQ(grouped->profile.matches, counted->count)
        << "force_row=" << force_row;
    EXPECT_NE(grouped->profile.Explain().find("fold=scan"), std::string::npos);
    EXPECT_NE(grouped->profile.ToJson().find("\"fold\":\"scan\""),
              std::string::npos);
  }
}

// A joinee whose rows differ in width fits no one column plan (an
// IMCS-served joinee reads that way when some of its IMCUs predate an IM
// expression): FoldImcu then joins each matched fact row materialized, as
// FoldRow does. Both folds equal OracleFold over the joined rows and count
// the join's rows alike.
TEST(GroupFoldChainTest, RaggedJoineeJoinsMaterializedRows) {
  // One block of fact rows (id, n1): rows 0..11 present, n1 = id % 4, NULL
  // at id 7; row 5 does not match.
  Imcu imcu(1, kDefaultTenant, /*snapshot_scn=*/1, std::vector<Dba>{100},
            Schema::WideTable(1, 0));
  std::vector<std::optional<int64_t>> ids(imcu.num_rows()), n1(imcu.num_rows());
  std::vector<uint64_t> match(BitmapWords(imcu.num_rows()));
  std::vector<Row> fact;
  for (uint32_t r = 0; r < 12; ++r) {
    ids[r] = r;
    if (r != 7) n1[r] = r % 4;
    imcu.SetPresent(r);
    if (r == 5) continue;
    match[r >> 6] |= uint64_t{1} << (r & 63);
  }
  std::vector<std::unique_ptr<ColumnVector>> cols;
  cols.push_back(std::make_unique<IntColumnVector>(ids));
  cols.push_back(std::make_unique<IntColumnVector>(n1));
  imcu.SetColumns(std::move(cols));
  for (uint32_t r = 0; r < 12; ++r) {
    if (r != 5) fact.push_back(imcu.Materialize(r));
  }

  // Joinee (key, label[, weight]): key 1 twice, a NULL key.
  const std::vector<Row> joinee = {
      Row{Value(int64_t{0}), Value(std::string("a"))},
      Row{Value(int64_t{1}), Value(std::string("b")), Value(int64_t{10})},
      Row{Value(int64_t{1}), Value(std::string("c"))},
      Row{Value(int64_t{3}), Value(std::string("d")), Value(int64_t{30})},
      Row{Value(), Value(std::string("n")), Value(int64_t{5})}};
  const JoinTable table(joinee, 0);
  std::vector<Row> joined;  // fact (id, n1) ++ joinee, in fact order.
  for (const Row& f : fact) {
    for (const Row& j : joinee) {
      if (f[1].type() == ValueType::kInt && j[0].type() == ValueType::kInt &&
          f[1].as_int() == j[0].as_int()) {
        Row row = f;
        row.insert(row.end(), j.begin(), j.end());
        joined.push_back(std::move(row));
      }
    }
  }
  // n1 0 (ids 0, 4, 8) joins once, 1 (1, 9) twice, 3 (3, 11) once; 2 and
  // NULL join nothing.
  ASSERT_EQ(joined.size(), 9u);

  const std::vector<AggSpec> specs = {{AggKind::kCount, 0},
                                      {AggKind::kSum, 4},
                                      {AggKind::kMax, 1}};
  const auto rows_of = [&](GroupFold& fold) {
    std::vector<Row> out;
    for (auto& [key, states] : fold.TakeSorted()) {
      Row row = key;
      for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].kind == AggKind::kCount) {
          row.push_back(Value(static_cast<int64_t>(states[i].count)));
        } else {
          row.push_back(states[i].started ? Value(states[i].acc) : Value());
        }
      }
      out.push_back(std::move(row));
    }
    return out;
  };
  for (const std::vector<uint32_t>& keys :
       std::vector<std::vector<uint32_t>>{{3}, {4, 1}, {}}) {
    GroupFold by_codes(keys, specs);
    const size_t step = by_codes.AddJoin(&table, 1);
    EXPECT_EQ(by_codes.FoldImcu(imcu, match.data()), fact.size());
    GroupFold by_rows(keys, specs);
    by_rows.AddJoin(&table, 1);
    for (const Row& f : fact) by_rows.FoldRow(f);
    for (GroupFold* fold : {&by_codes, &by_rows}) {
      EXPECT_EQ(fold->ProbedRows(step), fact.size());
      EXPECT_EQ(fold->JoinedRows(step), joined.size());
      EXPECT_EQ(fold->rows(), joined.size());
    }
    const std::vector<Row> want = OracleFold(joined, keys, specs);
    EXPECT_EQ(rows_of(by_codes), want) << keys.size() << " keys";
    EXPECT_EQ(rows_of(by_rows), want) << keys.size() << " keys";
  }
}

}  // namespace
}  // namespace stratus
