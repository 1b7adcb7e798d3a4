#include "imcs/column_vector.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"

namespace stratus {
namespace {

bool NaiveMatch(const Value& v, PredOp op, const Value& pivot) {
  if (v.is_null()) return false;
  switch (op) {
    case PredOp::kEq: return v == pivot;
    case PredOp::kNe: return !(v == pivot);
    case PredOp::kLt: return v < pivot;
    case PredOp::kLe: return v < pivot || v == pivot;
    case PredOp::kGt: return pivot < v;
    case PredOp::kGe: return pivot < v || v == pivot;
  }
  return false;
}

std::set<uint32_t> NaiveFilter(const ColumnVector& col, PredOp op,
                               const Value& pivot) {
  std::set<uint32_t> out;
  for (size_t i = 0; i < col.size(); ++i) {
    if (NaiveMatch(col.Get(i), op, pivot)) out.insert(static_cast<uint32_t>(i));
  }
  return out;
}

std::set<uint32_t> KernelFilter(const ColumnVector& col, PredOp op,
                                const Value& pivot) {
  std::vector<uint32_t> v;
  col.Filter(op, pivot, &v);
  return {v.begin(), v.end()};
}

TEST(BitPackedArrayTest, WidthForBoundaries) {
  EXPECT_EQ(BitPackedArray::WidthFor(0), 0);
  EXPECT_EQ(BitPackedArray::WidthFor(1), 1);
  EXPECT_EQ(BitPackedArray::WidthFor(2), 2);
  EXPECT_EQ(BitPackedArray::WidthFor(255), 8);
  EXPECT_EQ(BitPackedArray::WidthFor(256), 9);
}

TEST(BitPackedArrayTest, RoundTripAcrossWordBoundaries) {
  for (uint8_t width : {1, 3, 7, 13, 31, 33, 63}) {
    std::vector<uint64_t> values;
    Random rng(width);
    const uint64_t mask = width >= 64 ? ~0ull : (1ull << width) - 1;
    for (int i = 0; i < 300; ++i) values.push_back(rng.Next() & mask);
    const BitPackedArray arr = BitPackedArray::Pack(values, width);
    ASSERT_EQ(arr.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i)
      EXPECT_EQ(arr.Get(i), values[i]) << "width=" << int(width) << " i=" << i;
  }
}

TEST(IntColumnVectorTest, FrameOfReferenceAndNulls) {
  std::vector<std::optional<int64_t>> values = {1000, std::nullopt, 1002, 999};
  IntColumnVector col(values);
  EXPECT_EQ(col.min_value(), 999);
  EXPECT_EQ(col.max_value(), 1002);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetInt(0), 1000);
  EXPECT_EQ(col.GetInt(3), 999);
  EXPECT_TRUE(col.Get(1).is_null());
}

TEST(IntColumnVectorTest, ConstantColumnUsesZeroWidth) {
  std::vector<std::optional<int64_t>> values(100, 7);
  IntColumnVector col(values);
  // A constant column compresses to (essentially) nothing beyond headers.
  EXPECT_LT(col.ApproxBytes(), 200u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(col.GetInt(i), 7);
}

TEST(IntColumnVectorTest, NegativeValues) {
  std::vector<std::optional<int64_t>> values = {-100, -1, -50};
  IntColumnVector col(values);
  EXPECT_EQ(col.GetInt(0), -100);
  EXPECT_EQ(col.GetInt(1), -1);
  auto matches = KernelFilter(col, PredOp::kGe, Value(int64_t{-50}));
  EXPECT_EQ(matches, (std::set<uint32_t>{1, 2}));
}

// A column spanning the whole int64 range packs 64-bit offsets from
// INT64_MIN; its code count saturates at UINT64_MAX.
TEST(IntColumnVectorTest, FullInt64Range) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::optional<int64_t>> values = {kMax, std::nullopt, kMin, -1, 0};
  IntColumnVector col(values);
  EXPECT_EQ(col.GetInt(0), kMax);
  EXPECT_EQ(col.GetInt(2), kMin);
  EXPECT_EQ(col.GetInt(3), -1);
  EXPECT_EQ(col.Get(4), Value(int64_t{0}));
  EXPECT_TRUE(col.Get(1).is_null());
  EXPECT_EQ(col.num_codes(), UINT64_MAX);
  EXPECT_EQ(col.DecodeCode(col.codes().Get(0)), Value(kMax));
  EXPECT_EQ(KernelFilter(col, PredOp::kLt, Value(int64_t{0})),
            (std::set<uint32_t>{2, 3}));
}

TEST(StringColumnVectorTest, DictionaryEncoding) {
  std::string a = "aa", b = "bb";
  StringColumnVector col({&a, &b, &a, nullptr});
  EXPECT_EQ(col.Get(0).as_string(), "aa");
  EXPECT_EQ(col.Get(1).as_string(), "bb");
  EXPECT_EQ(col.Get(2).as_string(), "aa");
  EXPECT_TRUE(col.IsNull(3));
  EXPECT_EQ(col.dictionary().size(), 2u);
}

TEST(StorageIndexTest, MightMatchPrunes) {
  std::vector<std::optional<int64_t>> values = {10, 20, 30};
  IntColumnVector col(values);
  EXPECT_FALSE(col.MightMatch(PredOp::kEq, Value(int64_t{5})));
  EXPECT_FALSE(col.MightMatch(PredOp::kGt, Value(int64_t{30})));
  EXPECT_TRUE(col.MightMatch(PredOp::kGe, Value(int64_t{30})));
  EXPECT_FALSE(col.MightMatch(PredOp::kLt, Value(int64_t{10})));
  EXPECT_TRUE(col.MightMatch(PredOp::kEq, Value(int64_t{20})));
  EXPECT_FALSE(col.MightMatch(PredOp::kEq, Value(std::string("20"))));
  // != prunes only the constant-column case: min == max == probe.
  EXPECT_TRUE(col.MightMatch(PredOp::kNe, Value(int64_t{20})));
  std::vector<std::optional<int64_t>> constant(50, 20);
  IntColumnVector ccol(constant);
  EXPECT_FALSE(ccol.MightMatch(PredOp::kNe, Value(int64_t{20})));
  EXPECT_TRUE(ccol.MightMatch(PredOp::kNe, Value(int64_t{21})));
  std::vector<uint32_t> rows;
  ccol.Filter(PredOp::kNe, Value(int64_t{20}), &rows);
  EXPECT_TRUE(rows.empty());
}

TEST(StorageIndexTest, NeMightMatchPrunesConstantStringDict) {
  const std::string solo = "only";
  std::vector<const std::string*> values(20, &solo);
  StringColumnVector col(values);
  EXPECT_FALSE(col.MightMatch(PredOp::kNe, Value(std::string("only"))));
  EXPECT_TRUE(col.MightMatch(PredOp::kNe, Value(std::string("other"))));
  std::vector<uint32_t> rows;
  col.Filter(PredOp::kNe, Value(std::string("only")), &rows);
  EXPECT_TRUE(rows.empty());
  const std::string two = "two";
  std::vector<const std::string*> mixed = {&solo, &two};
  StringColumnVector mcol(mixed);
  EXPECT_TRUE(mcol.MightMatch(PredOp::kNe, Value(std::string("only"))));
}

// --- Property sweep: kernel filter ≡ naive row-at-a-time filter -------------

struct FilterCase {
  uint64_t seed;
  PredOp op;
};

class IntFilterProperty : public ::testing::TestWithParam<FilterCase> {};

TEST_P(IntFilterProperty, KernelMatchesNaive) {
  const FilterCase c = GetParam();
  Random rng(c.seed);
  std::vector<std::optional<int64_t>> values;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Percent(10)) {
      values.push_back(std::nullopt);
    } else {
      values.push_back(rng.UniformInt(-50, 50));
    }
  }
  IntColumnVector col(values);
  // Pivots inside, at, and outside the value frame.
  for (int64_t pivot : {-200ll, -51ll, -50ll, 0ll, 13ll, 50ll, 51ll, 400ll}) {
    EXPECT_EQ(KernelFilter(col, c.op, Value(pivot)),
              NaiveFilter(col, c.op, Value(pivot)))
        << "op=" << static_cast<int>(c.op) << " pivot=" << pivot;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndSeeds, IntFilterProperty,
    ::testing::Values(FilterCase{1, PredOp::kEq}, FilterCase{2, PredOp::kNe},
                      FilterCase{3, PredOp::kLt}, FilterCase{4, PredOp::kLe},
                      FilterCase{5, PredOp::kGt}, FilterCase{6, PredOp::kGe},
                      FilterCase{7, PredOp::kEq}, FilterCase{8, PredOp::kLe}));

class StringFilterProperty : public ::testing::TestWithParam<FilterCase> {};

TEST_P(StringFilterProperty, KernelMatchesNaive) {
  const FilterCase c = GetParam();
  Random rng(c.seed);
  std::vector<std::string> storage;
  storage.reserve(2000);
  std::vector<const std::string*> ptrs;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Percent(10)) {
      ptrs.push_back(nullptr);
    } else {
      storage.push_back(rng.NextString(2));  // Small alphabet → duplicates.
      ptrs.push_back(&storage.back());
    }
  }
  StringColumnVector col(ptrs);
  for (const char* pivot : {"", "aa", "mm", "zz", "m", "zzz"}) {
    EXPECT_EQ(KernelFilter(col, c.op, Value(std::string(pivot))),
              NaiveFilter(col, c.op, Value(std::string(pivot))))
        << "op=" << static_cast<int>(c.op) << " pivot=" << pivot;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndSeeds, StringFilterProperty,
    ::testing::Values(FilterCase{11, PredOp::kEq}, FilterCase{12, PredOp::kNe},
                      FilterCase{13, PredOp::kLt}, FilterCase{14, PredOp::kLe},
                      FilterCase{15, PredOp::kGt}, FilterCase{16, PredOp::kGe}));

}  // namespace
}  // namespace stratus
