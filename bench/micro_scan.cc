// Microbenchmarks of the scan paths (Section II.B's raw IMCS advantage):
// row-store scan vs In-Memory Scan Engine over the same table, plus the cost
// of SMU reconciliation (fraction of rows invalid) and of population itself.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <functional>

#include "bench_util.h"
#include "common/random.h"
#include "imcs/population.h"
#include "imcs/scan_engine.h"
#include "imcs/scan_kernels.h"
#include "obs/metrics.h"
#include "txn/txn_manager.h"

namespace stratus {
namespace {

/// Shared fixture: one table with N rows, populated once.
class ScanFixture {
 public:
  static constexpr int64_t kDomain = 1000;

  /// `rows` rows of (id, n1..n10, c1..c10), values uniform over kDomain, in
  /// IMCUs of 32 blocks.
  explicit ScanFixture(size_t rows)
      : ScanFixture(rows, 32, Schema::WideTable(10, 10),
                    [](size_t id, Random* rng) {
                      Row row;
                      row.push_back(Value(static_cast<int64_t>(id)));
                      for (int c = 0; c < 10; ++c) {
                        row.push_back(Value(
                            static_cast<int64_t>(rng->Uniform(kDomain))));
                      }
                      for (int c = 0; c < 10; ++c) {
                        row.push_back(
                            Value("v" + std::to_string(rng->Uniform(kDomain))));
                      }
                      return row;
                    }) {}

  /// `rows` rows `make_row(id, rng)` of `schema`, in IMCUs of
  /// `blocks_per_imcu` blocks.
  ScanFixture(size_t rows, int blocks_per_imcu, Schema schema,
              const std::function<Row(size_t, Random*)>& make_row)
      : log_(0, &scns_),
        mgr_(&scns_, &txns_, &store_, {&log_}, nullptr),
        cache_(&store_),
        table_(10, kDefaultTenant, "t", std::move(schema), &store_),
        im_store_(0, 4ull << 30),
        snapshot_(&mgr_, &sync_) {
    Random rng(42);
    size_t loaded = 0;
    while (loaded < rows) {
      Transaction txn = mgr_.Begin();
      for (int i = 0; i < 1024 && loaded < rows; ++i, ++loaded)
        (void)mgr_.Insert(&txn, &table_, make_row(loaded, &rng), nullptr);
      (void)mgr_.Commit(&txn);
    }
    PopulationOptions options;
    options.blocks_per_imcu = blocks_per_imcu;
    populator_ = std::make_unique<Populator>(&im_store_, &snapshot_, &store_, options);
    populator_->EnableObject(&table_);
    (void)populator_->PopulateNow(10);
  }

  uint64_t Scan(bool use_imcs, int64_t pivot) {
    ReadView view;
    view.snapshot_scn = mgr_.visible_scn();
    view.resolver = &txns_;
    std::vector<Predicate> preds = {{1, PredOp::kEq, Value(pivot)}};
    std::vector<const ImStore*> stores;
    if (use_imcs) stores.push_back(&im_store_);
    uint64_t n = 0;
    ScanEngine engine;
    (void)engine.Scan(table_, preds, view, stores, cache_,
                      [&](const Row&) { ++n; }, nullptr);
    return n;
  }

  /// Full-table SUM(n1) with aggregation push-down at the given DOP — the
  /// heaviest per-row columnar work the engine does, so the DOP sweep
  /// measures the parallel decomposition rather than dispatch overhead.
  uint64_t ScanSumAtDop(bool use_imcs, size_t dop) {
    ReadView view;
    view.snapshot_scn = mgr_.visible_scn();
    view.resolver = &txns_;
    std::vector<const ImStore*> stores;
    if (use_imcs) stores.push_back(&im_store_);
    ScanEngine engine;
    ScanOptions options;
    options.dop = dop;
    AggState agg;
    (void)engine.Scan(table_, {}, view, stores, cache_, [](const Row&) {},
                      nullptr, /*needs_rows=*/false, /*expressions=*/nullptr,
                      ScanAggregate{AggKind::kSum, 1}, &agg, options);
    return agg.count;
  }

  /// GROUP BY n1 with COUNT and SUM(n2) over the rows whose n3 lies in
  /// [lo, hi), folded inside the scan at the given DOP (GroupTable's shape).
  uint64_t GroupedFoldAtDop(size_t dop, int64_t lo, int64_t hi) {
    ReadView view;
    view.snapshot_scn = mgr_.visible_scn();
    view.resolver = &txns_;
    GroupFold fold({1},
                   {AggSpec{AggKind::kCount, 0}, AggSpec{AggKind::kSum, 2}});
    ScanOptions options;
    options.dop = dop;
    options.fold = &fold;
    const std::vector<Predicate> preds = {{3, PredOp::kGe, Value(lo)},
                                          {3, PredOp::kLt, Value(hi)}};
    ScanEngine engine;
    (void)engine.Scan(table_, preds, view, {&im_store_}, cache_,
                      [](const Row&) {}, nullptr, /*needs_rows=*/false,
                      /*expressions=*/nullptr, ScanAggregate{}, nullptr,
                      options);
    return fold.rows();
  }

  void InvalidateFraction(double fraction) {
    Random rng(7);
    for (const auto& smu : im_store_.SmusForObject(10)) {
      const size_t target = static_cast<size_t>(fraction * smu->num_rows());
      for (size_t i = 0; i < target; ++i) {
        const Dba dba = smu->dbas()[rng.Uniform(smu->dbas().size())];
        smu->MarkRowInvalid(dba, static_cast<SlotId>(rng.Uniform(kRowsPerBlock)));
      }
    }
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
};

ScanFixture& Fixture() {
  static auto* fixture = new ScanFixture(64 * kRowsPerBlock);  // 16384 rows.
  return *fixture;
}

// The grouped-fold table, shaped like the standby benchmark's fact table:
// 32 IMCUs of 16 blocks (131,072 rows) of (id, n1, n2, n3) with n1 a
// 100-value key, n2 the SUM input and n3 a 10-bit filter column that
// [250, 750) halves.
constexpr int kGroupImcus = 32;
constexpr int kGroupBlocksPerImcu = 16;
constexpr size_t kGroupRows =
    size_t{kGroupImcus} * kGroupBlocksPerImcu * kRowsPerBlock;
constexpr int64_t kGroupKeys = 100;
constexpr int64_t kGroupFilterLo = 250, kGroupFilterHi = 750;

ScanFixture& GroupTable() {
  static auto* fixture = new ScanFixture(
      kGroupRows, kGroupBlocksPerImcu, Schema::WideTable(3, 0),
      [](size_t id, Random* rng) {
        return Row{Value(static_cast<int64_t>(id)),
                   Value(static_cast<int64_t>(rng->Uniform(kGroupKeys))),
                   Value(rng->UniformInt(-1000, 1000)),
                   Value(static_cast<int64_t>(rng->Uniform(1000)))};
      });
  return *fixture;
}

void BM_RowStoreScan(benchmark::State& state) {
  ScanFixture& f = Fixture();
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.Scan(false, static_cast<int64_t>(rng.Uniform(ScanFixture::kDomain))));
  }
  state.SetItemsProcessed(state.iterations() * 64 * kRowsPerBlock);
}
BENCHMARK(BM_RowStoreScan)->Unit(benchmark::kMillisecond);

void BM_ImcsScan(benchmark::State& state) {
  ScanFixture& f = Fixture();
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.Scan(true, static_cast<int64_t>(rng.Uniform(ScanFixture::kDomain))));
  }
  state.SetItemsProcessed(state.iterations() * 64 * kRowsPerBlock);
}
BENCHMARK(BM_ImcsScan)->Unit(benchmark::kMicrosecond);

// DOP sweep over the parallel scan (per-IMCU tasks + row-path chunks merged
// in task order). Speedup requires cores; on a 1-core host the sweep mostly
// measures decomposition overhead staying flat.
void BM_ImcsScanParallel(benchmark::State& state) {
  ScanFixture& f = Fixture();
  const size_t dop = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ScanSumAtDop(true, dop));
  }
  state.SetItemsProcessed(state.iterations() * 64 * kRowsPerBlock);
}
BENCHMARK(BM_ImcsScanParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_RowStoreScanParallel(benchmark::State& state) {
  ScanFixture& f = Fixture();
  const size_t dop = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ScanSumAtDop(false, dop));
  }
  state.SetItemsProcessed(state.iterations() * 64 * kRowsPerBlock);
}
BENCHMARK(BM_RowStoreScanParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// DOP sweep of the grouped aggregate folded inside the scan: one fold
// partial per lane, merged by the caller. ROADMAP item 3 asks ≥2.5× at DOP 4
// on 4 threads; the exit report prints the measured ratio.
void BM_GroupedFoldParallel(benchmark::State& state) {
  ScanFixture& f = GroupTable();
  const size_t dop = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.GroupedFoldAtDop(dop, kGroupFilterLo, kGroupFilterHi));
  }
  state.SetItemsProcessed(state.iterations() * kGroupRows);
}
BENCHMARK(BM_GroupedFoldParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_ImcsScanStorageIndexMiss(benchmark::State& state) {
  // Pivot outside every IMCU's min/max: pure storage-index pruning.
  ScanFixture& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Scan(true, ScanFixture::kDomain + 12345));
  }
}
BENCHMARK(BM_ImcsScanStorageIndexMiss)->Unit(benchmark::kMicrosecond);

void BM_ImcsScanWithInvalidRows(benchmark::State& state) {
  // One-time fixture mutation: ~5% invalid rows → SMU reconciliation cost.
  static bool invalidated = [] {
    Fixture().InvalidateFraction(0.05);
    return true;
  }();
  (void)invalidated;
  ScanFixture& f = Fixture();
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.Scan(true, static_cast<int64_t>(rng.Uniform(ScanFixture::kDomain))));
  }
}
BENCHMARK(BM_ImcsScanWithInvalidRows)->Unit(benchmark::kMicrosecond);

// --- Scan-kernel sweep (scalar vs SWAR vs AVX2) ----------------------------
//
// The column-level predicate kernel in isolation: 1M rows of byte-wide
// dictionary codes (domain 256 → width 8, the shape the paper's Q1
// `WHERE n1 = :1` encodes to), selective equality probe, bitmap output.
// This is the number the vectorization tentpole is judged on. A 10-bit
// column (domain 1024, a width that does not divide 64) runs the per-width
// unaligned kernel instead of the word-parallel compare.

constexpr size_t kKernelRows = 1u << 20;
constexpr int64_t kKernelDomain = 256;

/// 1M uniform codes of `width` bits (8 or 10).
const IntColumnVector& KernelColumn(unsigned width) {
  static const auto make = [](int64_t domain) {
    Random rng(11);
    std::vector<std::optional<int64_t>> values(kKernelRows);
    for (auto& v : values) v = static_cast<int64_t>(rng.Uniform(domain));
    return new IntColumnVector(values);
  };
  static auto* byte_wide = make(kKernelDomain);
  static auto* ten_bit = make(1024);
  return width == 10 ? *ten_bit : *byte_wide;
}

void BM_FilterBitmapKernel(benchmark::State& state) {
  const ScanKernel kernel = static_cast<ScanKernel>(state.range(0));
  const unsigned width = static_cast<unsigned>(state.range(1));
  if (kernel == ScanKernel::kAvx2 && !Avx2Supported()) {
    state.SkipWithError("AVX2 not supported on this host");
    return;
  }
  const IntColumnVector& col = KernelColumn(width);
  std::vector<uint64_t> bm(BitmapWords(col.size()));
  const Value pivot(int64_t{42});
  for (auto _ : state) {
    col.FilterBitmap(PredOp::kEq, pivot, kernel, bm.data(), nullptr);
    benchmark::DoNotOptimize(bm.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
  state.SetLabel(std::string(ScanKernelName(kernel)) + " width=" +
                 std::to_string(col.codes().width()));
}
BENCHMARK(BM_FilterBitmapKernel)
    ->ArgsProduct({{0, 1, 2}, {8, 10}})
    ->Unit(benchmark::kMicrosecond);

// The same sweep end-to-end: a selective encoded-predicate scan through the
// whole engine (storage index, bitmap conjunction, merge) per kernel.
void BM_ImcsScanKernel(benchmark::State& state) {
  const ScanKernel kernel = static_cast<ScanKernel>(state.range(0));
  if (kernel == ScanKernel::kAvx2 && !Avx2Supported()) {
    state.SkipWithError("AVX2 not supported on this host");
    return;
  }
  ScanFixture& f = Fixture();
  ForceScanKernel(kernel);
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.Scan(true, static_cast<int64_t>(rng.Uniform(ScanFixture::kDomain))));
  }
  ClearScanKernelOverride();
  state.SetItemsProcessed(state.iterations() * 64 * kRowsPerBlock);
  state.SetLabel(ScanKernelName(kernel));
}
BENCHMARK(BM_ImcsScanKernel)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

/// Best-of-k wall time of one FilterBitmap pass over the 1M-row column.
uint64_t TimeKernelNs(ScanKernel kernel, int reps) {
  const IntColumnVector& col = KernelColumn(8);
  std::vector<uint64_t> bm(BitmapWords(col.size()));
  const Value pivot(int64_t{42});
  uint64_t best = ~uint64_t{0};
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNanos();
    col.FilterBitmap(PredOp::kEq, pivot, kernel, bm.data(), nullptr);
    benchmark::DoNotOptimize(bm.data());
    best = std::min(best, NowNanos() - t0);
  }
  return best;
}

void BM_Population(benchmark::State& state) {
  // Cost of building IMCUs for a 4-block chunk (encoding + dictionaries).
  ScanFixture& f = Fixture();
  for (auto _ : state) {
    state.PauseTiming();
    ImStore scratch(0, 4ull << 30);
    PopulationOptions options;
    options.blocks_per_imcu = 4;
    Populator populator(&scratch, &f.snapshot_, &f.store_, options);
    populator.EnableObject(&f.table_);
    state.ResumeTiming();
    populator.RunOnePass();
    benchmark::DoNotOptimize(scratch.used_bytes());
  }
}
BENCHMARK(BM_Population)->Unit(benchmark::kMillisecond);

/// At exit, dumps the global registry — including the shared scan pool's
/// `stratus_scan_*` task/latency series exercised by the DOP sweep — to
/// micro_scan_metrics.json, mirroring the harness binaries' dumps, plus the
/// unified BENCH_micro_scan.json report (google-benchmark owns main(), so the
/// report rides the same static destructor; its per-case timings stay in the
/// benchmark's own stdout). The registry is heap-allocated and never
/// destroyed, so exporting from a static destructor is safe.
struct MetricsDumper {
  ~MetricsDumper() {
    std::ofstream out("micro_scan_metrics.json", std::ios::trunc);
    if (out) out << obs::MetricsRegistry::Global().ExportJson();
    BenchReport report("micro_scan");
    report.Config("rows", static_cast<int64_t>(64 * kRowsPerBlock));
    report.Config("domain", ScanFixture::kDomain);
    report.Config("kernel_rows", static_cast<int64_t>(kKernelRows));
    report.Config("kernel_domain", kKernelDomain);
    report.Config("avx2_supported", static_cast<int64_t>(Avx2Supported()));
    report.Metric("scan_pool_tasks",
                  obs::MetricsRegistry::Global()
                      .GetCounter("stratus_scan_tasks", {})
                      ->Value());
    // Single-thread kernel sweep on the selective encoded predicate: the
    // vectorization acceptance numbers (speedup_* are vs the scalar Get()
    // baseline over identical data, best-of-7 each).
    const uint64_t scalar_ns = TimeKernelNs(ScanKernel::kScalar, 7);
    const uint64_t swar_ns = TimeKernelNs(ScanKernel::kSwar, 7);
    report.Metric("filter_scalar_ns", scalar_ns);
    report.Metric("filter_swar_ns", swar_ns);
    report.Metric("kernel_speedup_swar",
                  static_cast<double>(scalar_ns) / static_cast<double>(swar_ns));
    if (Avx2Supported()) {
      const uint64_t avx2_ns = TimeKernelNs(ScanKernel::kAvx2, 7);
      report.Metric("filter_avx2_ns", avx2_ns);
      report.Metric("kernel_speedup_avx2", static_cast<double>(scalar_ns) /
                                               static_cast<double>(avx2_ns));
    }
    // Grouped fold DOP sweep (best-of-7 each): the DOP-4 speedup against
    // ROADMAP item 3's "≥2.5× at DOP 4 on 4 threads" acceptance.
    report.Config("group_rows", static_cast<int64_t>(kGroupRows));
    report.Config("group_imcus", static_cast<int64_t>(kGroupImcus));
    report.Config("group_keys", kGroupKeys);
    uint64_t group_ns[3] = {};
    const size_t dops[3] = {1, 2, 4};
    for (int d = 0; d < 3; ++d) {
      group_ns[d] = ~uint64_t{0};
      for (int r = 0; r < 7; ++r) {
        const uint64_t t0 = NowNanos();
        benchmark::DoNotOptimize(GroupTable().GroupedFoldAtDop(
            dops[d], kGroupFilterLo, kGroupFilterHi));
        group_ns[d] = std::min(group_ns[d], NowNanos() - t0);
      }
    }
    report.Metric("group_fold_dop1_ns", group_ns[0]);
    report.Metric("group_fold_dop2_ns", group_ns[1]);
    report.Metric("group_fold_dop4_ns", group_ns[2]);
    const double dop4_speedup =
        static_cast<double>(group_ns[0]) / static_cast<double>(group_ns[2]);
    report.Metric("group_fold_dop4_speedup", dop4_speedup);
    std::fprintf(stderr,
                 "grouped fold: DOP 1 %.3f ms, DOP 2 %.3f ms, DOP 4 %.3f ms; "
                 "DOP-4 speedup %.2fx (ROADMAP item 3 acceptance: >= 2.5x)\n",
                 group_ns[0] / 1e6, group_ns[1] / 1e6, group_ns[2] / 1e6,
                 dop4_speedup);
    report.Write();
  }
} g_metrics_dumper;

}  // namespace
}  // namespace stratus
