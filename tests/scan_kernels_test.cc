#include "imcs/scan_kernels.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "imcs/column_vector.h"

namespace stratus {
namespace {

/// Restores env/CPU dispatch no matter how a test exits.
struct KernelOverrideGuard {
  ~KernelOverrideGuard() { ClearScanKernelOverride(); }
};

/// All kernels a test must prove bit-identical. kAvx2 is always included:
/// on a CPU without AVX2 the request must fall back to SWAR and still be
/// correct.
const std::vector<ScanKernel>& AllKernels() {
  static const std::vector<ScanKernel> ks = {
      ScanKernel::kScalar, ScanKernel::kSwar, ScanKernel::kAvx2};
  return ks;
}

/// Per-row Get() oracle for a raw code range.
std::vector<uint64_t> OracleBitmap(const BitPackedArray& arr, size_t n,
                                   const CodeRange& r) {
  std::vector<uint64_t> bm(BitmapWords(n), 0);
  for (size_t i = 0; i < n; ++i) {
    const bool in_range =
        !r.empty && arr.Get(i) >= r.lo && arr.Get(i) <= r.hi;
    if (in_range != r.negate) bm[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return bm;
}

void ExpectKernelsMatchOracle(const BitPackedArray& arr, size_t n,
                              const CodeRange& r, const std::string& what) {
  const std::vector<uint64_t> expect = OracleBitmap(arr, n, r);
  for (ScanKernel k : AllKernels()) {
    // Dirty fill: FilterCodesBitmap must fully overwrite, tail included.
    std::vector<uint64_t> bm(BitmapWords(n), ~uint64_t{0});
    KernelCounters kc;
    FilterCodesBitmap(arr, n, r, k, bm.data(), &kc);
    ASSERT_EQ(bm, expect) << what << " kernel=" << ScanKernelName(k)
                          << " lo=" << r.lo << " hi=" << r.hi
                          << " negate=" << r.negate << " empty=" << r.empty;
  }
}

TEST(ScanKernelDispatchTest, NamesAndOverride) {
  KernelOverrideGuard guard;
  EXPECT_STREQ(ScanKernelName(ScanKernel::kScalar), "scalar");
  EXPECT_STREQ(ScanKernelName(ScanKernel::kSwar), "swar");
  EXPECT_STREQ(ScanKernelName(ScanKernel::kAvx2), "avx2");
  for (ScanKernel k : AllKernels()) {
    ForceScanKernel(k);
    EXPECT_EQ(ActiveScanKernel(), k);
  }
  ClearScanKernelOverride();
  // Unforced dispatch is stable within a process and never scalar unless the
  // environment forced it before the first scan.
  const ScanKernel a = ActiveScanKernel();
  EXPECT_EQ(a, ActiveScanKernel());
  if (Avx2Supported()) {
    EXPECT_NE(a, ScanKernel::kSwar);
  }
}

TEST(FilterCodesBitmapTest, AllWidthsAllKernelsAgainstOracle) {
  // Every width: each per-width kernel instantiation meets the oracle.
  for (unsigned width = 1; width <= 64; ++width) {
    Random rng(1000 + width);
    const uint64_t mask =
        width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                     size_t{173}, size_t{640}}) {
      std::vector<uint64_t> values(n);
      for (auto& v : values) v = rng.Next() & mask;
      // Make lo/hi hits certain regardless of width.
      values[0] = 0;
      values[n - 1] = mask;
      const BitPackedArray arr = BitPackedArray::Pack(values, width);
      const uint64_t mid = values[rng.Uniform(n)];
      const std::vector<CodeRange> ranges = {
          CodeRange::Exact(mid),
          CodeRange{0, mask, false, false},
          CodeRange{mask / 3, (mask / 3) * 2, false, false},
          CodeRange{0, 0, false, false},
          CodeRange{mask, mask, false, false},
          CodeRange{mid, mid, true, false},  // negated point
          CodeRange::All(),
          CodeRange::None(),
      };
      for (const CodeRange& r : ranges) {
        ExpectKernelsMatchOracle(
            arr, n, r, "width=" + std::to_string(width) + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(FilterCodesBitmapTest, TailFieldStraddlesLastWord) {
  // Width 13, 173 rows: the last field starts at bit 2236 = word 34 bit 60,
  // straddling into the trailing guard word. The tail group must be read by
  // the guarded block kernel — under ASan this test also proves no overread.
  const unsigned width = 13;
  const size_t n = 173;
  std::vector<uint64_t> values(n);
  Random rng(7);
  for (auto& v : values) v = rng.Next() & 0x1FFF;
  values[n - 1] = 0x1ABC;  // straddled value, recovered exactly
  const BitPackedArray arr = BitPackedArray::Pack(values, width);
  ASSERT_EQ(arr.Get(n - 1), 0x1ABCu);
  for (ScanKernel k : AllKernels()) {
    std::vector<uint64_t> bm(BitmapWords(n), 0);
    FilterCodesBitmap(arr, n, CodeRange::Exact(0x1ABC), k, bm.data(), nullptr);
    EXPECT_TRUE((bm[(n - 1) >> 6] >> ((n - 1) & 63)) & 1)
        << ScanKernelName(k);
  }
  ExpectKernelsMatchOracle(arr, n, CodeRange{0x1000, 0x1FFF, false, false},
                           "tail straddle");
}

TEST(FilterCodesBitmapTest, WidthZeroConstantColumn) {
  const BitPackedArray arr =
      BitPackedArray::Pack(std::vector<uint64_t>(100, 0), 0);
  for (ScanKernel k : AllKernels()) {
    std::vector<uint64_t> bm(BitmapWords(100), 0);
    FilterCodesBitmap(arr, 100, CodeRange::Exact(0), k, bm.data(), nullptr);
    EXPECT_EQ(BitmapCount(bm.data(), bm.size()), 100u);
    FilterCodesBitmap(arr, 100, CodeRange::Exact(1), k, bm.data(), nullptr);
    EXPECT_EQ(BitmapCount(bm.data(), bm.size()), 0u);
    CodeRange neg = CodeRange::Exact(0);
    neg.negate = true;
    FilterCodesBitmap(arr, 100, neg, k, bm.data(), nullptr);
    EXPECT_EQ(BitmapCount(bm.data(), bm.size()), 0u);
  }
}

TEST(FilterCodesBitmapTest, CountersCreditTheKernelThatRan) {
  Random rng(42);
  std::vector<uint64_t> values(1000);
  for (auto& v : values) v = rng.Next() & 0xFF;
  const BitPackedArray w8 = BitPackedArray::Pack(values, 8);
  const size_t nwords = BitmapWords(values.size());
  std::vector<uint64_t> bm(nwords);
  const CodeRange r{10, 20, false, false};

  KernelCounters kc;
  FilterCodesBitmap(w8, values.size(), r, ScanKernel::kScalar, bm.data(), &kc);
  EXPECT_EQ(kc.scalar_rows, values.size());
  EXPECT_EQ(kc.swar_words + kc.avx2_words, 0u);

  kc = {};
  FilterCodesBitmap(w8, values.size(), r, ScanKernel::kSwar, bm.data(), &kc);
  EXPECT_EQ(kc.swar_words, nwords);
  EXPECT_EQ(kc.avx2_words + kc.scalar_rows, 0u);

  kc = {};
  FilterCodesBitmap(w8, values.size(), r, ScanKernel::kAvx2, bm.data(), &kc);
  if (Avx2Supported()) {
    EXPECT_EQ(kc.avx2_words, nwords);
    EXPECT_EQ(kc.swar_words, 0u);
  } else {
    EXPECT_EQ(kc.swar_words, nwords);  // truthful fallback attribution
    EXPECT_EQ(kc.avx2_words, 0u);
  }

  // An AVX2-unfriendly width is credited to SWAR even when AVX2 was asked.
  const BitPackedArray w33 = BitPackedArray::Pack(values, 33);
  kc = {};
  FilterCodesBitmap(w33, values.size(), r, ScanKernel::kAvx2, bm.data(), &kc);
  EXPECT_EQ(kc.swar_words, nwords);
  EXPECT_EQ(kc.avx2_words, 0u);
}

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

std::vector<uint64_t> OracleColumnBitmap(const ColumnVector& col, PredOp op,
                                         const Value& pivot) {
  std::vector<uint64_t> bm(BitmapWords(col.size()), 0);
  for (size_t i = 0; i < col.size(); ++i) {
    if (NaiveMatch(col.Get(i), op, pivot))
      bm[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return bm;
}

void ExpectColumnKernelsMatchOracle(const ColumnVector& col, PredOp op,
                                    const Value& pivot,
                                    const std::string& what) {
  const std::vector<uint64_t> expect = OracleColumnBitmap(col, op, pivot);
  for (ScanKernel k : AllKernels()) {
    std::vector<uint64_t> bm(BitmapWords(col.size()), ~uint64_t{0});
    col.FilterBitmap(op, pivot, k, bm.data(), nullptr);
    ASSERT_EQ(bm, expect) << what << " kernel=" << ScanKernelName(k)
                          << " op=" << static_cast<int>(op);
  }
  // Filter() is the same bitmap flattened to row ids.
  std::vector<uint32_t> rows;
  col.Filter(op, pivot, &rows);
  std::vector<uint32_t> expect_rows;
  BitmapToRows(expect.data(), expect.size(), &expect_rows);
  ASSERT_EQ(rows, expect_rows) << what;
}

TEST(ScanKernelPropertyTest, IntColumnBitmapMatchesGetOracle) {
  Random rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.Uniform(700);
    const int null_pct = static_cast<int>(rng.Uniform(4)) * 33;  // 0/33/66/99
    // Domains spanning every packed width 0..40, unaligned ones included.
    const uint64_t domain = uint64_t{1} << rng.Uniform(41);
    const int64_t base = rng.UniformInt(-1000000, 1000000);
    std::vector<std::optional<int64_t>> vals(n);
    for (auto& v : vals) {
      if (static_cast<int>(rng.Uniform(100)) >= null_pct)
        v = base + static_cast<int64_t>(rng.Uniform(domain));
    }
    IntColumnVector col(vals);
    for (int probe = 0; probe < 8; ++probe) {
      const PredOp op = static_cast<PredOp>(rng.Uniform(6));
      // Pivots inside, at, and just outside the frame.
      const Value pivot(base + rng.UniformInt(-2, static_cast<int64_t>(domain) + 2));
      ExpectColumnKernelsMatchOracle(
          col, op, pivot, "trial=" + std::to_string(trial));
    }
    // NULL pivots and type-mismatched pivots never match any row (the
    // pre-bitmap Filter contract), even under kNe, for every kernel.
    ExpectColumnKernelsMatchOracle(col, PredOp::kEq, Value::Null(), "null pivot");
    for (ScanKernel k : AllKernels()) {
      std::vector<uint64_t> bm(BitmapWords(n), ~uint64_t{0});
      col.FilterBitmap(PredOp::kNe, Value("zzz"), k, bm.data(), nullptr);
      EXPECT_FALSE(BitmapAny(bm.data(), bm.size()))
          << "type mismatch kernel=" << ScanKernelName(k);
    }
  }
}

TEST(ScanKernelPropertyTest, StringColumnBitmapMatchesGetOracle) {
  Random rng(917);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t pool_size = 1 + rng.Uniform(60);
    std::vector<std::string> pool;
    for (size_t i = 0; i < pool_size; ++i) {
      pool.push_back("k" + std::to_string(rng.Uniform(100000)));
    }
    const size_t n = 1 + rng.Uniform(500);
    const int null_pct = static_cast<int>(rng.Uniform(3)) * 40;
    std::vector<const std::string*> vals(n, nullptr);
    for (auto& v : vals) {
      if (static_cast<int>(rng.Uniform(100)) >= null_pct)
        v = &pool[rng.Uniform(pool.size())];
    }
    StringColumnVector col(vals);
    for (int probe = 0; probe < 8; ++probe) {
      const PredOp op = static_cast<PredOp>(rng.Uniform(6));
      // Present probes and absent ones (prefix/suffix mutations) both matter:
      // the lower-bound translation differs.
      std::string s = pool[rng.Uniform(pool.size())];
      if (rng.Uniform(2) == 0) s += "x";
      ExpectColumnKernelsMatchOracle(col, op, Value(s),
                                     "trial=" + std::to_string(trial));
    }
  }
}

TEST(ScanKernelPropertyTest, ImcuShapedWidth8Sweep) {
  // The dictionary-code shape the AVX2 fast path targets: 16384 rows
  // (an IMCU's worth), byte-wide codes, every op.
  Random rng(5);
  std::vector<std::optional<int64_t>> vals(16384);
  for (auto& v : vals) {
    if (rng.Uniform(50) != 0) v = static_cast<int64_t>(rng.Uniform(256));
  }
  IntColumnVector col(vals);
  for (PredOp op : {PredOp::kEq, PredOp::kNe, PredOp::kLt, PredOp::kLe,
                    PredOp::kGt, PredOp::kGe}) {
    for (int64_t pivot : {int64_t{0}, int64_t{17}, int64_t{255}}) {
      ExpectColumnKernelsMatchOracle(col, op, Value(pivot), "imcu sweep");
    }
  }
}

TEST(StorageIndexTest, NeOnConstantColumnPrunesAndFiltersEmpty) {
  std::vector<std::optional<int64_t>> values(100, 7);
  IntColumnVector col(values);
  // != probe on a constant column equal to the probe can't match a row.
  EXPECT_FALSE(col.MightMatch(PredOp::kNe, Value(int64_t{7})));
  EXPECT_TRUE(col.MightMatch(PredOp::kNe, Value(int64_t{8})));
  std::vector<uint32_t> rows;
  col.Filter(PredOp::kNe, Value(int64_t{7}), &rows);
  EXPECT_TRUE(rows.empty());
  col.Filter(PredOp::kNe, Value(int64_t{8}), &rows);
  EXPECT_EQ(rows.size(), 100u);

  // Non-constant columns must keep matching !=.
  std::vector<std::optional<int64_t>> mixed = {7, 7, 9};
  IntColumnVector mixed_col(mixed);
  EXPECT_TRUE(mixed_col.MightMatch(PredOp::kNe, Value(int64_t{7})));
  rows.clear();
  mixed_col.Filter(PredOp::kNe, Value(int64_t{7}), &rows);
  EXPECT_EQ(rows, (std::vector<uint32_t>{2}));

  const std::string only = "solo";
  std::vector<const std::string*> svals(50, &only);
  StringColumnVector scol(svals);
  EXPECT_FALSE(scol.MightMatch(PredOp::kNe, Value("solo")));
  EXPECT_TRUE(scol.MightMatch(PredOp::kNe, Value("other")));
  rows.clear();
  scol.Filter(PredOp::kNe, Value("solo"), &rows);
  EXPECT_TRUE(rows.empty());
}

TEST(BitmapHelpersTest, Basics) {
  std::vector<uint64_t> bm(BitmapWords(70));
  ASSERT_EQ(bm.size(), 2u);
  BitmapFill(bm.data(), 70, true);
  EXPECT_EQ(BitmapCount(bm.data(), 2), 70u);
  EXPECT_EQ(bm[1], 0x3Full);  // tail cleared past row 69
  std::vector<uint64_t> other = {0x5ull, ~uint64_t{0}};
  BitmapAnd(bm.data(), other.data(), 2);
  EXPECT_EQ(bm[0], 0x5ull);
  BitmapAndNot(bm.data(), other.data(), 1);
  EXPECT_EQ(bm[0], 0u);
  EXPECT_TRUE(BitmapAny(bm.data(), 2));
  std::vector<uint32_t> rows;
  BitmapToRows(bm.data(), 2, &rows);
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows.front(), 64u);
  EXPECT_EQ(rows.back(), 69u);
  BitmapFill(bm.data(), 70, false);
  EXPECT_FALSE(BitmapAny(bm.data(), 2));
}

}  // namespace
}  // namespace stratus
