// Quickstart: stand up a primary + standby pair (Figure 1's topology), run
// OLTP on the primary, and watch the standby serve transactionally consistent
// analytics from its In-Memory Column Store — the paper's core promise.
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "common/clock.h"
#include "db/database.h"

using namespace stratus;

int main() {
  // 1. A cluster: primary + standby connected by redo shipping.
  DatabaseOptions options;
  options.apply.num_workers = 4;        // Parallel redo apply on the standby.
  options.population.blocks_per_imcu = 16;
  AdgCluster cluster(options);
  cluster.Start();

  // 2. A table whose INMEMORY attribute targets the *standby* service: the
  //    standby builds IMCUs for it, the primary keeps only the row store.
  const ObjectId orders =
      cluster
          .CreateTable("orders", kDefaultTenant,
                       Schema(std::vector<ColumnDef>{{"id", ValueType::kInt},
                                                     {"amount", ValueType::kInt},
                                                     {"region", ValueType::kString}}),
                       ImService::kStandbyOnly, /*identity_index=*/true)
          .value();

  // 3. OLTP on the primary: insert 20k orders.
  std::printf("Loading 20,000 orders on the primary...\n");
  for (int batch = 0; batch < 20; ++batch) {
    Transaction txn = cluster.primary()->Begin();
    for (int i = 0; i < 1000; ++i) {
      const int64_t id = batch * 1000 + i;
      Row row{Value(id), Value(id % 500),
              Value(std::string(id % 3 == 0 ? "emea" : id % 3 == 1 ? "amer" : "apac"))};
      if (!cluster.primary()->Insert(&txn, orders, std::move(row), nullptr).ok())
        return 1;
    }
    if (!cluster.primary()->Commit(&txn).ok()) return 1;
  }

  // 4. The standby applies redo continuously; wait for it to catch up, then
  //    populate its column store (normally a background activity).
  cluster.WaitForCatchup();
  if (Status st = cluster.standby()->PopulateNow(orders); !st.ok()) {
    std::fprintf(stderr, "population failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Standby QuerySCN: %llu (primary SCN: %llu)\n",
              static_cast<unsigned long long>(cluster.standby()->query_scn()),
              static_cast<unsigned long long>(cluster.primary()->current_scn()));

  // 5. Analytics on the standby — IMCS path vs forced row path.
  ScanQuery q;
  q.object = orders;
  q.predicates = {{2, PredOp::kEq, Value(std::string("emea"))}};
  q.aggregates = {{AggKind::kSum, 1}};

  uint64_t t0 = NowNanos();
  auto imcs = cluster.standby()->Query(q);
  const double imcs_ms = static_cast<double>(NowNanos() - t0) / 1e6;
  q.force_row_store = true;
  t0 = NowNanos();
  auto rowpath = cluster.standby()->Query(q);
  const double row_ms = static_cast<double>(NowNanos() - t0) / 1e6;
  if (!imcs.ok() || !rowpath.ok()) return 1;

  std::printf("\nSELECT SUM(amount) FROM orders WHERE region = 'emea'  (on standby)\n");
  std::printf("  IMCS path : sum=%lld over %llu rows in %.2f ms "
              "(%llu rows served from IMCUs)\n",
              static_cast<long long>(imcs->agg_int),
              static_cast<unsigned long long>(imcs->count), imcs_ms,
              static_cast<unsigned long long>(imcs->stats.rows_from_imcs));
  std::printf("  Row path  : sum=%lld over %llu rows in %.2f ms\n",
              static_cast<long long>(rowpath->agg_int),
              static_cast<unsigned long long>(rowpath->count), row_ms);
  std::printf("  Agreement : %s, speedup %.1fx\n",
              imcs->agg_int == rowpath->agg_int ? "EXACT" : "MISMATCH!",
              imcs_ms > 0 ? row_ms / imcs_ms : 0.0);

  // 6. Keep transacting: updates on the primary invalidate standby IMCU rows
  //    through the mining → journal → flush pipeline, never serving stale data.
  std::printf("\nUpdating 200 orders on the primary...\n");
  Transaction txn = cluster.primary()->Begin();
  for (int64_t id = 0; id < 200; ++id) {
    (void)cluster.primary()->UpdateByKey(
        &txn, orders, id, Row{Value(id), Value(int64_t{999'999}),
                              Value(std::string("emea"))});
  }
  (void)cluster.primary()->Commit(&txn);
  cluster.WaitForCatchup();

  ScanQuery fresh;
  fresh.object = orders;
  fresh.predicates = {{1, PredOp::kEq, Value(int64_t{999'999})}};
  fresh.aggregates = {{AggKind::kCount, 0}};
  auto result = cluster.standby()->Query(fresh);
  std::printf("Standby sees %llu updated rows (expected 200); "
              "%llu invalidation records were flushed to SMUs.\n",
              static_cast<unsigned long long>(result.ok() ? result->count : 0),
              static_cast<unsigned long long>(
                  cluster.standby()->flush()->stats().flushed_records));

  cluster.Stop();
  std::printf("\nDone.\n");
  return 0;
}
