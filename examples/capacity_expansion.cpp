// Capacity expansion (Figure 2): partition the IMCS *across* the primary and
// standby databases. The SALES fact table is partitioned by month; only the
// latest month is populated in the primary's IMCS (hot OLTP + current-month
// reports), while the standby populates the whole year for deep analytics.
// Dimension tables are populated on BOTH instances for efficient joins.
//
// Build & run:   ./build/examples/capacity_expansion

#include <cstdio>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "db/database.h"

using namespace stratus;

namespace {

constexpr int kMonths = 12;
constexpr int kRowsPerMonth = 2'000;

Schema SalesSchema() {
  return Schema(std::vector<ColumnDef>{{"id", ValueType::kInt},
                                       {"product_id", ValueType::kInt},
                                       {"amount", ValueType::kInt}});
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.apply.num_workers = 4;
  options.population.blocks_per_imcu = 8;
  AdgCluster cluster(options);
  cluster.Start();

  // SALES partitions: months 1..11 → standby-only IMCS, month 12 (latest) →
  // both. Dimension table PRODUCTS → both (join processing on each side).
  std::vector<ObjectId> sales(kMonths);
  for (int m = 0; m < kMonths; ++m) {
    const ImService service =
        m == kMonths - 1 ? ImService::kBoth : ImService::kStandbyOnly;
    sales[m] = cluster
                   .CreateTable("sales_2019_" + std::to_string(m + 1),
                                kDefaultTenant, SalesSchema(), service, true)
                   .value();
  }
  const ObjectId products =
      cluster
          .CreateTable("products", kDefaultTenant,
                       Schema(std::vector<ColumnDef>{{"product_id", ValueType::kInt},
                                                     {"category", ValueType::kString}}),
                       ImService::kBoth, true)
          .value();

  // Load dimensions + a year of sales.
  Random rng(2019);
  {
    Transaction txn = cluster.primary()->Begin();
    for (int64_t p = 0; p < 50; ++p) {
      (void)cluster.primary()->Insert(
          &txn, products,
          Row{Value(p), Value(std::string("cat") + std::to_string(p % 5))},
          nullptr);
    }
    (void)cluster.primary()->Commit(&txn);
  }
  std::printf("Loading %d months x %d sales rows...\n", kMonths, kRowsPerMonth);
  for (int m = 0; m < kMonths; ++m) {
    Transaction txn = cluster.primary()->Begin();
    for (int i = 0; i < kRowsPerMonth; ++i) {
      (void)cluster.primary()->Insert(
          &txn, sales[m],
          Row{Value(static_cast<int64_t>(m * kRowsPerMonth + i)),
              Value(static_cast<int64_t>(rng.Uniform(50))),
              Value(static_cast<int64_t>(rng.Uniform(1000)))},
          nullptr);
    }
    (void)cluster.primary()->Commit(&txn);
  }
  cluster.WaitForCatchup();

  // Populate per the service placement.
  for (int m = 0; m < kMonths; ++m)
    (void)cluster.standby()->PopulateNow(sales[m]);
  (void)cluster.standby()->PopulateNow(products);
  (void)cluster.primary()->PopulateNow(sales[kMonths - 1]);
  (void)cluster.primary()->PopulateNow(products);

  const auto pri = cluster.primary()->im_store()->Stats();
  const auto stb = cluster.standby()->im_store()->Stats();
  std::printf("\nIMCS placement (capacity expansion):\n");
  std::printf("  primary IMCS: %zu IMCUs, %zu KiB  (latest month + dimensions)\n",
              pri.smus_ready, pri.used_bytes / 1024);
  std::printf("  standby IMCS: %zu IMCUs, %zu KiB  (entire year + dimensions)\n",
              stb.smus_ready, stb.used_bytes / 1024);

  // Deep analytics on the standby: full-year join SALES ⋈ PRODUCTS.
  std::printf("\nFull-year analytics on the STANDBY (category = 'cat3'):\n");
  uint64_t year_total = 0;
  uint64_t t0 = NowNanos();
  for (int m = 0; m < kMonths; ++m) {
    MultiJoinQuery join;
    join.fact = sales[m];
    // sales.product_id = products.product_id AND category = 'cat3'.
    join.joins = {JoinEdge{products, 1, 0,
                           {{1, PredOp::kEq, Value(std::string("cat3"))}}}};
    auto result = cluster.standby()->MultiJoin(join);
    if (result.ok()) year_total += result->count;
  }
  std::printf("  matched %llu sales across 12 partitions in %.2f ms\n",
              static_cast<unsigned long long>(year_total),
              static_cast<double>(NowNanos() - t0) / 1e6);

  // Current-month report on the PRIMARY, from its own IMCS.
  std::printf("\nCurrent-month report on the PRIMARY:\n");
  ScanQuery current;
  current.object = sales[kMonths - 1];
  current.aggregates = {{AggKind::kSum, 2}};
  t0 = NowNanos();
  auto result = cluster.primary()->Query(current);
  std::printf("  SUM(amount) December = %lld in %.2f ms (%llu rows from IMCS)\n",
              result.ok() ? static_cast<long long>(result->agg_int) : -1,
              static_cast<double>(NowNanos() - t0) / 1e6,
              result.ok() ? static_cast<unsigned long long>(result->stats.rows_from_imcs)
                          : 0ull);

  // Workload isolation: the January partition is NOT in the primary's IMCS —
  // the same query there runs the row path on the primary, IMCS on standby.
  ScanQuery jan;
  jan.object = sales[0];
  jan.aggregates = {{AggKind::kSum, 2}};
  auto pri_jan = cluster.primary()->Query(jan);
  auto stb_jan = cluster.standby()->Query(jan);
  if (pri_jan.ok() && stb_jan.ok()) {
    std::printf("\nJanuary partition: primary served %llu rows from IMCS (expected 0),\n"
                "                   standby served %llu rows from IMCS. Sums agree: %s\n",
                static_cast<unsigned long long>(pri_jan->stats.rows_from_imcs),
                static_cast<unsigned long long>(stb_jan->stats.rows_from_imcs),
                pri_jan->agg_int == stb_jan->agg_int ? "yes" : "NO");
  }

  cluster.Stop();
  std::printf("\nDone.\n");
  return 0;
}
