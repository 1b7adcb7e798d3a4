// Disaster recovery walkthrough (Section III.E): the standby instance
// restarts, losing every non-persistent structure — the IMCS, the IM-ADG
// Journal and Commit Table — while a transaction is in flight on the primary.
// Specialized redo generation lets the standby detect the partially-mined
// transaction and coarse-invalidate only when necessary; queries stay correct
// throughout, and repopulation restores in-memory performance.
//
// Build & run:   ./build/examples/disaster_recovery

#include <cstdio>

#include "common/clock.h"
#include "db/database.h"

using namespace stratus;

namespace {

double TimeQ1Ms(StandbyDb* standby, ObjectId table, uint64_t* from_imcs) {
  ScanQuery q;
  q.object = table;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{7})}};
  q.aggregates = {{AggKind::kCount, 0}};
  const uint64_t t0 = NowNanos();
  auto result = standby->Query(q);
  if (from_imcs != nullptr)
    *from_imcs = result.ok() ? result->stats.rows_from_imcs : 0;
  return static_cast<double>(NowNanos() - t0) / 1e6;
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.apply.num_workers = 4;
  options.population.manager_interval_us = 500'000;  // Manual control below.
  AdgCluster cluster(options);
  cluster.Start();

  const ObjectId accounts =
      cluster
          .CreateTable("accounts", kDefaultTenant, Schema::WideTable(5, 5),
                       ImService::kStandbyOnly, true)
          .value();
  std::printf("[t0] Loading 10,000 accounts...\n");
  for (int batch = 0; batch < 10; ++batch) {
    Transaction txn = cluster.primary()->Begin();
    for (int64_t i = 0; i < 1000; ++i) {
      const int64_t id = batch * 1000 + i;
      Row row{Value(id)};
      for (int c = 0; c < 5; ++c) row.push_back(Value(id % (10 + c)));
      for (int c = 0; c < 5; ++c) row.push_back(Value(std::string("acct")));
      (void)cluster.primary()->Insert(&txn, accounts, std::move(row), nullptr);
    }
    (void)cluster.primary()->Commit(&txn);
  }
  cluster.WaitForCatchup();
  (void)cluster.standby()->PopulateNow(accounts);

  uint64_t from_imcs = 0;
  double ms = TimeQ1Ms(cluster.standby(), accounts, &from_imcs);
  std::printf("[t1] Steady state: Q1 on standby = %.2f ms (%llu rows via IMCS)\n",
              ms, static_cast<unsigned long long>(from_imcs));

  // An OLTP transaction is mid-flight when disaster strikes.
  std::printf("[t2] A transaction updates account 1 on the primary (not yet committed)...\n");
  Transaction in_flight = cluster.primary()->Begin();
  Row update{Value(int64_t{1})};
  for (int c = 0; c < 5; ++c) update.push_back(Value(int64_t{c}));
  for (int c = 0; c < 5; ++c) update.push_back(Value(std::string("dirty")));
  (void)cluster.primary()->UpdateByKey(&in_flight, accounts, 1, std::move(update));
  {
    Transaction marker = cluster.primary()->Begin();
    Row row{Value(int64_t{10'000})};
    for (int c = 0; c < 5; ++c) row.push_back(Value(int64_t{0}));
    for (int c = 0; c < 5; ++c) row.push_back(Value(std::string("m")));
    (void)cluster.primary()->Insert(&marker, accounts, std::move(row), nullptr);
    (void)cluster.primary()->Commit(&marker);
  }
  cluster.WaitForCatchup();

  std::printf("[t3] *** STANDBY INSTANCE RESTART *** "
              "(IMCS, journal, commit table: all lost)\n");
  cluster.standby()->Restart();
  cluster.WaitForCatchup();
  std::printf("      QuerySCN re-established: %llu\n",
              static_cast<unsigned long long>(cluster.standby()->query_scn()));

  // Population resumes immediately — the risky timing.
  (void)cluster.standby()->PopulateNow(accounts);
  std::printf("[t4] IMCS repopulated right after restart.\n");

  std::printf("[t5] The in-flight transaction commits on the primary...\n");
  (void)cluster.primary()->Commit(&in_flight);
  cluster.WaitForCatchup();

  const auto stats = cluster.standby()->im_store()->Stats();
  std::printf("      Coarse invalidations on standby: %llu "
              "(the commit record's IM flag + missing 'begin' forced it)\n",
              static_cast<unsigned long long>(stats.coarse_invalidations));

  ms = TimeQ1Ms(cluster.standby(), accounts, &from_imcs);
  std::printf("[t6] Q1 right after coarse invalidation = %.2f ms "
              "(%llu rows via IMCS — the row store serves everything, still "
              "CORRECT, just slower)\n",
              ms, static_cast<unsigned long long>(from_imcs));

  // Repopulation heals the IMCS.
  for (int i = 0; i < 3; ++i) cluster.standby()->populator()->RunOnePass();
  ms = TimeQ1Ms(cluster.standby(), accounts, &from_imcs);
  std::printf("[t7] Q1 after repopulation = %.2f ms (%llu rows via IMCS)\n", ms,
              static_cast<unsigned long long>(from_imcs));

  // Correctness check: the dirty update is visible exactly once.
  ScanQuery q;
  q.object = accounts;
  q.predicates = {{6, PredOp::kEq, Value(std::string("dirty"))}};
  q.aggregates = {{AggKind::kCount, 0}};
  auto result = cluster.standby()->Query(q);
  std::printf("[t8] Rows with the straddling transaction's value: %llu (expected 1)\n",
              static_cast<unsigned long long>(result.ok() ? result->count : 0));

  // Final act: the primary site is declared lost — FAILOVER. The standby
  // becomes a read-write primary; its IMCS survives the role transition and
  // is maintained by commit-time invalidation from here on.
  std::printf("[t9] *** FAILOVER: promoting the standby to primary ***\n");
  if (!cluster.standby()->Promote().ok()) return 1;
  Transaction txn = cluster.standby()->Begin();
  Row fresh{Value(int64_t{1})};
  for (int c = 0; c < 5; ++c) fresh.push_back(Value(int64_t{c}));
  for (int c = 0; c < 5; ++c) fresh.push_back(Value(std::string("new-era")));
  (void)cluster.standby()->UpdateByKey(&txn, accounts, 1, std::move(fresh));
  if (!cluster.standby()->Commit(&txn).ok()) return 1;
  ScanQuery post;
  post.object = accounts;
  post.predicates = {{6, PredOp::kEq, Value(std::string("new-era"))}};
  post.aggregates = {{AggKind::kCount, 0}};
  auto promoted = cluster.standby()->Query(post);
  std::printf("[t10] Write on the promoted database visible: %llu row(s). "
              "Business continues.\n",
              static_cast<unsigned long long>(promoted.ok() ? promoted->count : 0));

  cluster.Stop();
  std::printf("\nDone.\n");
  return 0;
}
