#include "db/query_profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "db/database.h"

namespace stratus {
namespace {

// ---------------------------------------------------------------------------
// SlowQueryLog unit level: ring bound, threshold, in-flight registry.
// ---------------------------------------------------------------------------

QueryProfile MakeProfile(uint64_t wall_us) {
  QueryProfile p;
  p.kind = "scan";
  p.role = "primary";
  p.wall_us = wall_us;
  return p;
}

TEST(SlowQueryLogTest, RingIsBoundedAndOrdered) {
  SlowQueryLog log(/*capacity=*/2, /*threshold_us=*/0);
  for (int i = 0; i < 5; ++i) {
    const uint64_t id = log.Begin("scan", /*object=*/10, /*snapshot=*/100);
    log.End(id, MakeProfile(/*wall_us=*/i));
  }
  EXPECT_EQ(log.total_completed(), 5u);
  const std::vector<QueryProfile> done = log.Completed();
  ASSERT_EQ(done.size(), 2u);
  // Oldest → newest; ids 4 and 5 survive.
  EXPECT_EQ(done[0].query_id, 4u);
  EXPECT_EQ(done[1].query_id, 5u);
}

TEST(SlowQueryLogTest, ThresholdKeepsOnlySlowQueries) {
  SlowQueryLog log(/*capacity=*/16, /*threshold_us=*/1'000);
  const uint64_t fast = log.Begin("scan", 10, 100);
  log.End(fast, MakeProfile(/*wall_us=*/10));
  const uint64_t slow = log.Begin("scan", 10, 100);
  log.End(slow, MakeProfile(/*wall_us=*/5'000));

  // Both completed; only the slow one entered the ring.
  EXPECT_EQ(log.total_completed(), 2u);
  const std::vector<QueryProfile> done = log.Completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].query_id, slow);
  EXPECT_EQ(done[0].wall_us, 5'000u);
}

TEST(SlowQueryLogTest, InFlightRegistersAndClears) {
  SlowQueryLog log;
  const uint64_t a = log.Begin("scan", 10, 100);
  const uint64_t b = log.Begin("join", 11, 100);
  std::vector<InFlightQuery> inflight = log.InFlight();
  ASSERT_EQ(inflight.size(), 2u);
  EXPECT_EQ(inflight[0].query_id, a);
  EXPECT_EQ(inflight[0].kind, "scan");
  EXPECT_EQ(inflight[1].query_id, b);
  EXPECT_EQ(inflight[1].kind, "join");

  log.End(a, MakeProfile(0));
  inflight = log.InFlight();
  ASSERT_EQ(inflight.size(), 1u);
  EXPECT_EQ(inflight[0].query_id, b);
  log.End(b, MakeProfile(0));
  EXPECT_TRUE(log.InFlight().empty());

  const std::string json = log.ToJson();
  EXPECT_NE(json.find("\"in_flight\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":["), std::string::npos);
}

// ---------------------------------------------------------------------------
// Primary level: ground-truth pruning / reconciliation / lanes / joins.
// ---------------------------------------------------------------------------

/// 2048 rows over 8 blocks, 2 blocks per IMCU → exactly 4 IMCUs, with
/// column 1 holding the row ordinal so every IMCU's storage-index range on
/// that column is disjoint by construction. That makes pruning exact: a
/// kEq pivot lands in precisely one IMCU's [min,max]. The population manager
/// never starts (PopulateNow builds synchronously), so no background pass
/// can build an IMCU inside the load transaction for its commit to
/// invalidate.
class QueryProfileTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 8 * kRowsPerBlock;  // 2048.

  QueryProfileTest() : db_(MakeOptions()) {
    table_ = db_.CreateTable("fact", kDefaultTenant, Schema::WideTable(1, 1),
                             ImService::kPrimaryOnly, /*identity_index=*/true)
                 .value();
    Transaction txn = db_.Begin();
    for (int64_t id = 0; id < kRows; ++id) {
      Row row{Value(id), Value(id), Value(std::string("g"))};
      EXPECT_TRUE(db_.Insert(&txn, table_, std::move(row), nullptr).ok());
    }
    EXPECT_TRUE(db_.Commit(&txn).ok());
    EXPECT_TRUE(db_.PopulateNow(table_).ok());
  }

  DatabaseOptions MakeOptions() {
    DatabaseOptions options;
    options.registry = &registry_;
    options.population.blocks_per_imcu = 2;
    // No repopulation: the invalid-row ground truth below must not be
    // repaired between the updating commit and the measuring scan.
    options.population.repop_invalid_threshold = 1.1;
    options.population.repop_staleness_us = 0;
    return options;
  }

  size_t NumImcus() { return db_.im_store()->SmusForObject(table_).size(); }

  obs::MetricsRegistry registry_;
  PrimaryDb db_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(QueryProfileTest, GroundTruthStorageIndexPruning) {
  const size_t imcus = NumImcus();
  ASSERT_EQ(imcus, 4u);

  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{5})}};
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->count, 1u);

  const QueryProfile& prof = result->profile;
  EXPECT_EQ(prof.kind, "scan");
  EXPECT_EQ(prof.role, "primary");
  EXPECT_EQ(prof.object, table_);
  EXPECT_NE(prof.query_id, 0u);
  EXPECT_NE(prof.snapshot, kInvalidScn);
  // The pivot lives in IMCU 0's range, so the other three prune on their
  // min/max and skip the columnar pass entirely; scanned and pruned are
  // disjoint counts partitioning the usable IMCUs.
  EXPECT_EQ(prof.scan.imcus_scanned, 1u);
  EXPECT_EQ(prof.scan.imcus_pruned, imcus - 1);
  // The one scanned IMCU's match bitmap came from a vector kernel (this
  // suite doesn't force scalar).
  EXPECT_GT(prof.scan.kernel_swar_words + prof.scan.kernel_avx2_words, 0u);
  EXPECT_EQ(prof.scan.imcus_skipped, 0u);
  EXPECT_EQ(prof.scan.rows_from_imcs, 1u);
  EXPECT_EQ(prof.scan.rows_from_rowstore, 0u);
  // The primary annotates freshness against its own visible SCN: zero lag.
  EXPECT_TRUE(prof.lag_sampled);
  EXPECT_EQ(prof.staleness_scn, 0u);
  EXPECT_EQ(prof.staleness_us, 0);
  EXPECT_FALSE(prof.imadg_sampled);

  // The same profile landed in the role's slow-query ring.
  const std::vector<QueryProfile> done = db_.slow_query_log()->Completed();
  ASSERT_FALSE(done.empty());
  EXPECT_EQ(done.back().query_id, prof.query_id);
  EXPECT_EQ(done.back().scan.imcus_pruned, imcus - 1);
  EXPECT_TRUE(db_.slow_query_log()->InFlight().empty());
}

TEST_F(QueryProfileTest, GroundTruthSmuReconciliation) {
  // Invalidate exactly 7 IMCS rows (spread over all 4 IMCUs) by updating
  // them; the next scan must re-fetch exactly those 7 from the row store.
  const std::vector<int64_t> keys = {0, 300, 600, 900, 1200, 1500, 1800};
  Transaction txn = db_.Begin();
  for (const int64_t key : keys) {
    ASSERT_TRUE(db_.UpdateByKey(&txn, table_, key,
                                Row{Value(key), Value(key), Value(std::string("u"))})
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());

  ScanQuery q;
  q.object = table_;
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, static_cast<uint64_t>(kRows));

  const QueryProfile& prof = result->profile;
  EXPECT_EQ(prof.scan.invalid_rowpath, keys.size());
  EXPECT_EQ(prof.scan.rows_from_imcs + prof.scan.rows_from_rowstore,
            static_cast<uint64_t>(kRows));
  EXPECT_GE(prof.scan.rows_from_rowstore, keys.size());
}

TEST_F(QueryProfileTest, RowPathScanFillsProfile) {
  ScanQuery q;
  q.object = table_;
  q.force_row_store = true;
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, static_cast<uint64_t>(kRows));

  const QueryProfile& prof = result->profile;
  EXPECT_EQ(prof.scan.rows_from_imcs, 0u);
  EXPECT_EQ(prof.scan.rows_from_rowstore, static_cast<uint64_t>(kRows));
  EXPECT_EQ(prof.scan.blocks_rowpath, 8u);
  EXPECT_EQ(prof.scan.imcus_scanned, 0u);
  EXPECT_NE(prof.query_id, 0u);
  EXPECT_TRUE(prof.lag_sampled);
  EXPECT_FALSE(prof.Explain().empty());
}

TEST_F(QueryProfileTest, LaneTasksSumToParallelTasks) {
  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  q.dop = 4;
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, static_cast<uint64_t>(kRows));

  const QueryProfile& prof = result->profile;
  EXPECT_EQ(prof.dop, 4u);
  // Fully IMCS-covered table: one task per IMCU, no row-path chunks.
  EXPECT_EQ(prof.scan.parallel_tasks, NumImcus());
  uint64_t lane_tasks = 0;
  for (const WorkerLane& lane : prof.lanes) lane_tasks += lane.tasks;
  EXPECT_EQ(lane_tasks, prof.scan.parallel_tasks);
  ASSERT_FALSE(prof.lanes.empty());
  for (size_t i = 1; i < prof.lanes.size(); ++i)
    EXPECT_LT(prof.lanes[i - 1].worker, prof.lanes[i].worker);
}

// A lane's wait is scan submit → its first task. Summing every task's
// (start − submit) recounts the lane's own earlier tasks and grows
// quadratically at DOP 1, so no lane may report waiting longer than the
// query ran.
TEST_F(QueryProfileTest, LaneWaitIsBoundedByWallTime) {
  const ObjectId big =
      db_.CreateTable("big", kDefaultTenant, Schema::WideTable(1, 1),
                      ImService::kPrimaryOnly, /*identity_index=*/false)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < 64 * kRowsPerBlock; ++id) {
    Row row{Value(id), Value(id % 16), Value(std::string("g"))};
    ASSERT_TRUE(db_.Insert(&txn, big, std::move(row), nullptr).ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  ASSERT_TRUE(db_.PopulateNow(big).ok());

  for (const uint32_t dop : {1u, 4u}) {
    ScanQuery q;
    q.object = big;
    q.group_by = {1};
    q.aggregates = {{AggKind::kCount, 0}};
    q.dop = dop;
    const auto result = db_.Query(q);
    ASSERT_TRUE(result.ok());
    const QueryProfile& prof = result->profile;
    ASSERT_GT(prof.scan.parallel_tasks, 1u) << "dop=" << dop;
    ASSERT_FALSE(prof.lanes.empty()) << "dop=" << dop;
    uint64_t wait_sum = 0;
    for (const WorkerLane& lane : prof.lanes) {
      EXPECT_LE(lane.queue_wait_us, prof.wall_us)
          << "dop=" << dop << " worker=" << lane.worker;
      wait_sum += lane.queue_wait_us;
    }
    EXPECT_LE(wait_sum, prof.wall_us * prof.lanes.size()) << "dop=" << dop;
  }
}

// Each stage times only its own work, so the stages plus result assembly
// never exceed the wall time and the remainder is reported as unattributed.
// A join that returns many rows spends that time building them in a timed
// stage, not in the unattributed gap.
TEST_F(QueryProfileTest, StagesAssemblyAndUnattributedAddUpToWall) {
  const ObjectId big =
      db_.CreateTable("big", kDefaultTenant, Schema::WideTable(1, 1),
                      ImService::kPrimaryOnly, /*identity_index=*/false)
          .value();
  const ObjectId dim =
      db_.CreateTable("dim", kDefaultTenant, Schema::WideTable(1, 1),
                      ImService::kPrimaryOnly, /*identity_index=*/false)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < 64 * kRowsPerBlock; ++id) {
    Row row{Value(id), Value(id % 16), Value(std::string("g"))};
    ASSERT_TRUE(db_.Insert(&txn, big, std::move(row), nullptr).ok());
  }
  for (int64_t id = 0; id < 16; ++id) {
    Row row{Value(id), Value(id), Value("d" + std::to_string(id % 4))};
    ASSERT_TRUE(db_.Insert(&txn, dim, std::move(row), nullptr).ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());
  ASSERT_TRUE(db_.PopulateNow(big).ok());

  const auto check = [](const QueryProfile& prof, const std::string& what) {
    uint64_t staged = 0;
    for (const OperatorStage& s : prof.stages) staged += s.elapsed_us;
    EXPECT_LE(staged + prof.assembly_us, prof.wall_us) << what;
    EXPECT_EQ(staged + prof.assembly_us + prof.unattributed_us, prof.wall_us)
        << what;
    EXPECT_NE(prof.Explain().find("unattributed"), std::string::npos) << what;
    EXPECT_NE(prof.ToJson().find("\"unattributed_us\":"), std::string::npos)
        << what;
    EXPECT_NE(prof.ToJson().find("\"assembly_us\":"), std::string::npos)
        << what;
  };

  ScanQuery grouped;
  grouped.object = big;
  grouped.group_by = {1};
  grouped.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 0}};
  const auto scan = db_.Query(grouped);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->rows.size(), 16u);
  check(scan->profile, "grouped scan");

  MultiJoinQuery join;
  join.fact = big;
  join.joins = {JoinEdge{dim, 1, 1, {}}};
  // A preempted untimed gap could exceed half of one run's wall time; the
  // emission it guards against is untimed in every run.
  uint64_t best_share_pct = 100;
  for (int run = 0; run < 3; ++run) {
    const auto joined = db_.MultiJoin(join);
    ASSERT_TRUE(joined.ok());
    ASSERT_GE(joined->rows.size(), 10'000u);
    const QueryProfile& prof = joined->profile;
    check(prof, "row-returning join");
    ASSERT_GT(prof.wall_us, 0u);
    best_share_pct =
        std::min(best_share_pct, 100 * prof.unattributed_us / prof.wall_us);
  }
  EXPECT_LE(best_share_pct, 50u);

  join.group_by = {5};
  join.aggregates = {{AggKind::kCount, 0}, {AggKind::kSum, 0}};
  const auto folded = db_.MultiJoin(join);
  ASSERT_TRUE(folded.ok());
  ASSERT_EQ(folded->rows.size(), 4u);
  check(folded->profile, "join + group-by");

  // The folded join's stages tell the truth: the fact leaf counts the fact
  // rows its predicates matched, the join its joinee build and fact-match
  // probe, and the join, the aggregate and the profile the joined rows —
  // also when predicates on both sides make those counts differ.
  for (const bool filtered : {false, true}) {
    const std::string what = filtered ? "filtered" : "unfiltered";
    MultiJoinQuery q = join;
    if (filtered) {
      q.fact_predicates = {{0, PredOp::kLt, Value(int64_t{5000})}};
      q.joins[0].predicates = {{0, PredOp::kLt, Value(int64_t{8})}};
    }
    ScanQuery fact_count;
    fact_count.object = big;
    fact_count.predicates = q.fact_predicates;
    fact_count.aggregates = {{AggKind::kCount, 0}};
    ScanQuery dim_count = fact_count;
    dim_count.object = dim;
    dim_count.predicates = q.joins[0].predicates;
    MultiJoinQuery raw = q;
    raw.group_by.clear();
    raw.aggregates.clear();
    const auto fact_matches = db_.Query(fact_count);
    const auto dim_rows = db_.Query(dim_count);
    const auto joined = db_.MultiJoin(raw);
    const auto result = db_.MultiJoin(q);
    ASSERT_TRUE(fact_matches.ok() && dim_rows.ok() && joined.ok() &&
                result.ok())
        << what;
    const QueryProfile& prof = result->profile;
    const OperatorStage* fact_leaf = nullptr;
    const OperatorStage* hash_join = nullptr;
    const OperatorStage* hash_agg = nullptr;
    for (const OperatorStage& s : prof.stages) {
      if (s.op == "scan" && s.object == big) fact_leaf = &s;
      if (s.op == "hash_join") hash_join = &s;
      if (s.op == "hash_agg") hash_agg = &s;
    }
    ASSERT_TRUE(fact_leaf != nullptr && hash_join != nullptr &&
                hash_agg != nullptr)
        << what;
    EXPECT_EQ(hash_agg->fold, "join") << what;
    EXPECT_EQ(fact_leaf->rows_out, fact_matches->count) << what;
    EXPECT_EQ(hash_join->build_side, "right") << what;
    EXPECT_EQ(hash_join->build_rows, dim_rows->count) << what;
    EXPECT_EQ(hash_join->probe_rows, fact_matches->count) << what;
    EXPECT_EQ(hash_join->rows_out, joined->rows.size()) << what;
    EXPECT_EQ(hash_agg->rows_in, joined->rows.size()) << what;
    EXPECT_EQ(prof.matches, joined->rows.size()) << what;
    if (filtered) {
      EXPECT_LT(joined->rows.size(), fact_matches->count);
    }
    check(prof, "folded join " + what);
  }
}

TEST_F(QueryProfileTest, JoinProfileRecordsBothSides) {
  const ObjectId dim =
      db_.CreateTable("dim", kDefaultTenant, Schema::WideTable(1, 1),
                      ImService::kPrimaryOnly, /*identity_index=*/true)
          .value();
  Transaction txn = db_.Begin();
  for (int64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(
        db_.Insert(&txn, dim, Row{Value(id), Value(id), Value(std::string("d"))},
                   nullptr)
            .ok());
  }
  ASSERT_TRUE(db_.Commit(&txn).ok());

  MultiJoinQuery j;
  j.fact = table_;
  j.joins = {JoinEdge{dim, 1, 0, {}}};
  const auto result = db_.MultiJoin(j);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 10u);

  const QueryProfile& prof = result->profile;
  EXPECT_EQ(prof.kind, "join");
  EXPECT_EQ(prof.object, table_);
  EXPECT_EQ(prof.join_right, dim);
  EXPECT_EQ(prof.matches, 10u);
  EXPECT_NE(prof.ToJson().find("\"join_right\""), std::string::npos);

  // The build side logged its own "scan" entry before the join entry.
  const std::vector<QueryProfile> done = db_.slow_query_log()->Completed();
  ASSERT_GE(done.size(), 2u);
  EXPECT_EQ(done[done.size() - 2].kind, "scan");
  EXPECT_EQ(done[done.size() - 2].object, dim);
  EXPECT_EQ(done.back().kind, "join");
}

TEST_F(QueryProfileTest, CommitLookupsCountVisibilityResolution) {
  // An open transaction leaves an unresolved row version; the scan must ask
  // the commit machinery about it at least once.
  Transaction txn = db_.Begin();
  ASSERT_TRUE(db_.UpdateByKey(&txn, table_, 42,
                              Row{Value(int64_t{42}), Value(int64_t{42}),
                                  Value(std::string("open"))})
                  .ok());

  ScanQuery q;
  q.object = table_;
  q.force_row_store = true;
  const auto result = db_.Query(q);
  ASSERT_TRUE(result.ok());
  // The uncommitted image is invisible: the scan still sees every old row.
  EXPECT_EQ(result->count, static_cast<uint64_t>(kRows));
  EXPECT_GT(result->profile.commit_lookups, 0u);
  db_.Abort(&txn);
}

// ---------------------------------------------------------------------------
// Cluster level: the standby annotates IM-ADG occupancy and freshness.
// ---------------------------------------------------------------------------

class StandbyProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.registry = &registry_;
    options.shipping.heartbeat_interval_us = 500;
    options.lag_poll_interval_us = 1'000;
    cluster_ = std::make_unique<AdgCluster>(options);
    cluster_->Start();
    table_ = cluster_
                 ->CreateTable("orders", kDefaultTenant, Schema::WideTable(1, 1),
                               ImService::kStandbyOnly, true)
                 .value();
    Transaction txn = cluster_->primary()->Begin();
    for (int64_t id = 0; id < 512; ++id) {
      ASSERT_TRUE(cluster_->primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 16),
                                   Value(std::string("x"))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster_->primary()->Commit(&txn).ok());
    ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);
    ASSERT_TRUE(cluster_->standby()->PopulateNow(table_).ok());
  }

  void TearDown() override { cluster_->Stop(); }

  obs::MetricsRegistry registry_;
  std::unique_ptr<AdgCluster> cluster_;
  ObjectId table_ = kInvalidObjectId;
};

TEST_F(StandbyProfileTest, StandbyQuerySamplesImAdgAndFreshness) {
  ScanQuery q;
  q.object = table_;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{3})}};
  const auto result = cluster_->standby()->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 32u);

  const QueryProfile& prof = result->profile;
  EXPECT_EQ(prof.role, "standby");
  EXPECT_NE(prof.query_id, 0u);
  EXPECT_EQ(prof.snapshot, result->snapshot);
  EXPECT_GT(prof.scan.rows_from_imcs, 0u);
  // The standby samples its IM-ADG structures and the cluster lag monitor.
  EXPECT_TRUE(prof.imadg_sampled);
  EXPECT_TRUE(prof.lag_sampled);
  EXPECT_NE(prof.primary_scn, kInvalidScn);
  // Post-catchup, the QuerySCN covers everything the probe saw committed.
  EXPECT_EQ(prof.staleness_scn, 0u);
  EXPECT_NE(prof.Explain().find("standby"), std::string::npos);

  EXPECT_GE(cluster_->standby()->slow_query_log()->total_completed(), 1u);
  const std::string json = cluster_->standby()->slow_query_log()->ToJson();
  EXPECT_NE(json.find("\"imadg_sampled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"lag_sampled\":true"), std::string::npos);
}

TEST_F(StandbyProfileTest, StalenessGrowsWhileShippingPaused) {
  cluster_->SetShippingPaused(true);
  {
    Transaction txn = cluster_->primary()->Begin();
    for (int64_t id = 512; id < 768; ++id) {
      ASSERT_TRUE(cluster_->primary()
                      ->Insert(&txn, table_,
                               Row{Value(id), Value(id % 16),
                                   Value(std::string("y"))},
                               nullptr)
                      .ok());
    }
    ASSERT_TRUE(cluster_->primary()->Commit(&txn).ok());
  }
  // Let the lag monitor's poller observe the primary moving ahead.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  ScanQuery q;
  q.object = table_;
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster_->standby()->Query(q);
  ASSERT_TRUE(result.ok());
  // The paused transport pins the standby's snapshot: only the first batch.
  EXPECT_EQ(result->count, 512u);
  const QueryProfile& prof = result->profile;
  EXPECT_TRUE(prof.lag_sampled);
  EXPECT_GT(prof.staleness_scn, 0u);
  EXPECT_GT(prof.staleness_us, 0);
  cluster_->SetShippingPaused(false);
  ASSERT_NE(cluster_->WaitForCatchup(), kInvalidScn);
}

}  // namespace
}  // namespace stratus
