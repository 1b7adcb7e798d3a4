#include "workload/oltap.h"

#include <chrono>
#include <thread>

#include "common/clock.h"

namespace stratus {

OltapWorkload::OltapWorkload(AdgCluster* cluster, const OltapOptions& options)
    : cluster_(cluster), options_(options) {}

Row OltapWorkload::MakeRow(int64_t id, Random* rng) const {
  Row row;
  row.reserve(1 + options_.num_cols + options_.varchar_cols);
  row.push_back(Value(id));
  for (int i = 0; i < options_.num_cols; ++i)
    row.push_back(Value(static_cast<int64_t>(rng->Uniform(options_.value_domain))));
  for (int i = 0; i < options_.varchar_cols; ++i) {
    // Strings also come from a bounded domain so Q2 predicates hit rows.
    const uint64_t v = rng->Uniform(static_cast<uint64_t>(options_.value_domain));
    std::string s = "v" + std::to_string(v);
    s.resize(static_cast<size_t>(options_.varchar_len), 'x');
    row.push_back(Value(std::move(s)));
  }
  return row;
}

Status OltapWorkload::Setup(ImService service) {
  Schema schema = Schema::WideTable(options_.num_cols, options_.varchar_cols);
  StatusOr<ObjectId> oid = cluster_->CreateTable(
      "C" + std::to_string(1 + options_.num_cols + options_.varchar_cols) +
          "_WIDE_HASH",
      options_.tenant, std::move(schema), service, /*identity_index=*/true);
  if (!oid.ok()) return oid.status();
  table_ = *oid;

  // Initial load in batches (one transaction per batch keeps redo records
  // flowing and the standby applying while we load).
  Random rng(options_.seed);
  PrimaryDb* primary = cluster_->primary();
  constexpr size_t kBatch = 512;
  size_t loaded = 0;
  while (loaded < options_.initial_rows) {
    Transaction txn = primary->Begin(0, options_.tenant);
    const size_t n = std::min(kBatch, options_.initial_rows - loaded);
    for (size_t i = 0; i < n; ++i) {
      STRATUS_RETURN_IF_ERROR(
          primary->Insert(&txn, table_, MakeRow(static_cast<int64_t>(loaded + i), &rng)));
    }
    StatusOr<Scn> committed = primary->Commit(&txn);
    if (!committed.ok()) return committed.status();
    loaded += n;
  }
  next_id_.store(static_cast<int64_t>(loaded), std::memory_order_release);

  // Let the standby catch up, then build the IMCS synchronously so the run
  // starts from the steady state the paper measures.
  cluster_->WaitForCatchup();
  if (ImOnStandby(service)) {
    const Status st = cluster_->standby()->PopulateNow(table_);
    // FailedPrecondition = the standby runs without DBIM-on-ADG (the paper's
    // baseline configuration); everything is served by the row path.
    if (!st.ok() && st.code() != Code::kFailedPrecondition) return st;
  }
  if (ImOnPrimary(service) && cluster_->primary()->im_store() != nullptr) {
    STRATUS_RETURN_IF_ERROR(cluster_->primary()->PopulateNow(table_));
  }
  return Status::OK();
}

void OltapWorkload::DoUpdate(Random* rng) {
  PrimaryDb* primary = cluster_->primary();
  const int64_t max_id = next_id_.load(std::memory_order_acquire);
  if (max_id == 0) return;
  const int64_t id = rng->UniformInt(0, max_id - 1);
  ScopedLatencyTimer latency(&stats_.update_latency);
  ScopedCpuTimer cpu(&stats_.primary_op_cpu_ns);
  Transaction txn = primary->Begin(
      static_cast<RedoThreadId>(rng->Uniform(primary->redo_threads())),
      options_.tenant);
  Status st = primary->UpdateByKey(&txn, table_, id, MakeRow(id, rng));
  if (st.ok()) {
    st = primary->Commit(&txn).status();
  } else {
    primary->Abort(&txn);
    if (st.IsAborted()) {
      stats_.update_conflicts.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void OltapWorkload::DoInsert(Random* rng) {
  PrimaryDb* primary = cluster_->primary();
  const int64_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  ScopedLatencyTimer latency(&stats_.insert_latency);
  ScopedCpuTimer cpu(&stats_.primary_op_cpu_ns);
  Transaction txn = primary->Begin(
      static_cast<RedoThreadId>(rng->Uniform(primary->redo_threads())),
      options_.tenant);
  Status st = primary->Insert(&txn, table_, MakeRow(id, rng));
  if (st.ok()) {
    st = primary->Commit(&txn).status();
  } else {
    primary->Abort(&txn);
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
  }
}

void OltapWorkload::DoFetch(Random* rng) {
  PrimaryDb* primary = cluster_->primary();
  const int64_t max_id = next_id_.load(std::memory_order_acquire);
  if (max_id == 0) return;
  const int64_t id = rng->UniformInt(0, max_id - 1);
  ScopedLatencyTimer latency(&stats_.fetch_latency);
  ScopedCpuTimer cpu(&stats_.primary_op_cpu_ns);
  if (!primary->Fetch(table_, id).ok())
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
}

Status OltapWorkload::RunScanOnce(Random* rng, bool q2) {
  ScanQuery query;
  query.object = table_;
  query.force_row_store = options_.scans_force_row_store;
  query.dop = options_.scan_dop;
  // Count instead of materializing SELECT * — latency is dominated by the
  // scan itself either way, and counting keeps harness memory flat.
  query.aggregates = {{AggKind::kCount, 0}};
  if (!q2) {
    // Q1: WHERE n1 = :1.
    query.predicates.push_back(Predicate{
        1, PredOp::kEq,
        Value(static_cast<int64_t>(rng->Uniform(options_.value_domain)))});
  } else {
    // Q2: WHERE c1 = :2.
    std::string s =
        "v" + std::to_string(rng->Uniform(static_cast<uint64_t>(options_.value_domain)));
    s.resize(static_cast<size_t>(options_.varchar_len), 'x');
    query.predicates.push_back(
        Predicate{static_cast<uint32_t>(1 + options_.num_cols), PredOp::kEq,
                  Value(std::move(s))});
  }
  if (options_.scans_on_standby) {
    return cluster_->standby()->Query(query, options_.scan_instance).status();
  }
  return cluster_->primary()->Query(query).status();
}

Status OltapWorkload::RunGroupScanOnce(Random* rng) {
  // Q3: SELECT n1, COUNT(*), SUM(n2) WHERE n3 < :1 GROUP BY n1. The range
  // predicate keeps selectivity varied; the grouped result is at most
  // value_domain rows so harness memory stays flat.
  ScanQuery query;
  query.object = table_;
  query.force_row_store = options_.scans_force_row_store;
  query.dop = options_.scan_dop;
  query.group_by.push_back(1);
  query.aggregates.push_back(AggSpec{AggKind::kCount, 1});
  if (options_.num_cols >= 2)
    query.aggregates.push_back(AggSpec{AggKind::kSum, 2});
  if (options_.num_cols >= 3) {
    query.predicates.push_back(Predicate{
        3, PredOp::kLt,
        Value(static_cast<int64_t>(rng->Uniform(options_.value_domain)) + 1)});
  }
  if (options_.scans_on_standby) {
    return cluster_->standby()->Query(query, options_.scan_instance).status();
  }
  return cluster_->primary()->Query(query).status();
}

void OltapWorkload::DoScan(Random* rng) {
  const bool q3 = rng->Percent(options_.group_scan_pct);
  const bool q2 = !q3 && rng->Percent(50);
  Stopwatch watch;
  const uint64_t cpu_start = ThreadCpuNanos();
  const Status st = q3 ? RunGroupScanOnce(rng) : RunScanOnce(rng, q2);
  if (!st.ok()) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // CPU accrues only for successful scans so scan_cpu_ns / scans_done stays a
  // meaningful per-scan ratio.
  stats_.scan_cpu_ns.fetch_add(ThreadCpuNanos() - cpu_start,
                               std::memory_order_relaxed);
  stats_.scans_done.fetch_add(1, std::memory_order_relaxed);
  (q3 ? stats_.q3_latency : q2 ? stats_.q2_latency : stats_.q1_latency)
      .Record(watch.ElapsedMicros());
}

void OltapWorkload::WorkerLoop(int thread_idx) {
  Random rng(options_.seed * 7919 + static_cast<uint64_t>(thread_idx) * 104729 + 1);
  const double ops_per_thread =
      static_cast<double>(options_.target_ops_per_sec) /
      static_cast<double>(options_.num_threads);
  const int64_t op_interval_ns =
      ops_per_thread <= 0 ? 0 : static_cast<int64_t>(1e9 / ops_per_thread);
  uint64_t next_op_at = NowNanos();
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t now = NowNanos();
    if (now < next_op_at) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next_op_at - now));
      continue;
    }
    next_op_at += static_cast<uint64_t>(op_interval_ns);
    // The paper's setup uses the same threads for DMLs and queries, so a slow
    // scan backpressures the whole mix; if we fall badly behind, resynchronize
    // the pacing clock instead of bursting.
    if (NowNanos() > next_op_at + 1'000'000'000ull) next_op_at = NowNanos();

    const uint32_t dice = static_cast<uint32_t>(rng.Uniform(100));
    if (dice < options_.scan_pct) {
      DoScan(&rng);
    } else if (dice < options_.scan_pct + options_.update_pct) {
      DoUpdate(&rng);
    } else if (dice < options_.scan_pct + options_.update_pct + options_.insert_pct) {
      DoInsert(&rng);
    } else {
      DoFetch(&rng);
    }
    stats_.ops_done.fetch_add(1, std::memory_order_relaxed);
  }
}

void OltapWorkload::MeasureQuiescentScans(int n, Histogram* q1, Histogram* q2) {
  // Let in-flight redo apply, invalidation flush and repopulation settle so
  // the measurement reflects the steady state, not the drain.
  cluster_->WaitForCatchup();
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  Random rng(options_.seed * 31 + 17);
  for (int i = 0; i < n; ++i) {
    for (bool is_q2 : {false, true}) {
      Stopwatch watch;
      if (!RunScanOnce(&rng, is_q2).ok()) continue;
      (is_q2 ? q2 : q1)->Record(watch.ElapsedMicros());
    }
  }
}

void OltapWorkload::Run() {
  stop_.store(false, std::memory_order_release);
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(options_.num_threads);
  for (int i = 0; i < options_.num_threads; ++i)
    threads.emplace_back([this, i] { WorkerLoop(i); });
  std::this_thread::sleep_for(std::chrono::milliseconds(options_.duration_ms));
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  stats_.wall_ns = watch.ElapsedNanos();
}

}  // namespace stratus
