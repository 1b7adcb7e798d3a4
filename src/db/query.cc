#include "db/query.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "db/operators.h"
#include "obs/trace.h"

namespace stratus {

namespace {

/// Visibility-resolver decorator counting every commit-status lookup a query
/// makes (on the standby the TxnTable is maintained by the IM-ADG commit
/// machinery, so this is the query's commit-table pressure). Workers resolve
/// concurrently under DOP > 1, hence the atomic.
class CountingResolver : public VisibilityResolver {
 public:
  explicit CountingResolver(const VisibilityResolver* base) : base_(base) {}
  TxnStatusInfo Resolve(Xid xid) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return base_->Resolve(xid);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const VisibilityResolver* base_;
  mutable std::atomic<uint64_t> count_{0};
};

/// Everything a profile needs captured before/after the engine runs.
struct ProfileTimer {
  uint64_t start_us = NowMicros();
  uint64_t cpu0_ns = ThreadCpuNanos();

  void Finish(QueryProfile* prof) const {
    prof->started_at_us = start_us;
    const uint64_t now = NowMicros();
    prof->wall_us = now > start_us ? now - start_us : 0;
    prof->caller_cpu_us = (ThreadCpuNanos() - cpu0_ns) / 1000;
  }
};

}  // namespace

/// Shared executor behind every facade entry point: builds the operator tree
/// for an already-planned query, runs it pinned to one snapshot SCN, and
/// finalizes the result/profile/slow-log/totals bookkeeping. The operator
/// tree's output is bit-reproducible at any DOP, on either access path, and
/// under every scan kernel — planning decisions only change operator shape.
StatusOr<QueryResult> QueryEngine::ExecutePlan(const QueryContext& ctx,
                                               Plan plan, uint32_t query_dop,
                                               Scn snapshot) const {
  const ProfileTimer timer;
  const uint64_t qid =
      ctx.slow_log != nullptr
          ? ctx.slow_log->Begin(plan.kind, plan.object, snapshot)
          : 0;

  SnapshotGuard guard(ctx.snapshots, snapshot);
  CountingResolver resolver(ctx.resolver);
  ReadView view;
  view.snapshot_scn = snapshot;
  view.resolver = &resolver;

  ExecContext ec;
  ec.ctx = &ctx;
  ec.engine = &scan_engine_;
  ec.snapshot = snapshot;
  ec.view = &view;
  ec.commit_lookups = [&resolver] { return resolver.count(); };
  ec.dop = query_dop != 0 ? query_dop : std::max<uint32_t>(1, ctx.default_dop);
  ScanProfile scan_profile;
  ec.scan_profile = &scan_profile;
  ec.driving_object = plan.object;

  std::unique_ptr<Operator> root = BuildOperatorTree(*plan.root);
  QueryResult result;
  result.snapshot = snapshot;
  const Status exec_status = root->Open(&ec);
  uint64_t assembly_us = 0;
  if (exec_status.ok()) DrainInto(root.get(), &result.rows, &assembly_us);

  // Engine accounting rolls up across every scan leaf; build-side leaves
  // also count as standalone scans in the lifetime totals (they logged their
  // own slow-log entries).
  std::vector<OperatorStage> stages;
  root->CollectStages(&stages);
  uint64_t side_scans = 0;
  uint64_t staged_us = 0;
  for (const OperatorStage& s : stages) {
    staged_us += s.elapsed_us;
    if (s.op != "scan") continue;
    result.stats.Add(s.scan);
    if (s.object != plan.object) ++side_scans;
  }

  // The profile finalizes — and the in-flight entry clears — on every path,
  // success or failure.
  QueryProfile& prof = result.profile;
  prof.query_id = qid;
  prof.kind = plan.kind;
  prof.role = ctx.role;
  prof.object = plan.object;
  prof.join_right = plan.join_right;
  prof.snapshot = snapshot;
  prof.scan = result.stats;
  prof.stages = std::move(stages);
  prof.rows_returned = result.rows.size();
  prof.matches = root->has_agg ? root->input_matches : result.rows.size();
  prof.dop = static_cast<uint32_t>(ec.dop);
  prof.lanes = RollupLanes(scan_profile);
  prof.commit_lookups = resolver.count();
  timer.Finish(&prof);
  // Stages time only their own work on this thread, so they never overlap
  // each other or the assembly, and their sum stays within the wall time.
  prof.assembly_us = assembly_us;
  const uint64_t attributed = staged_us + assembly_us;
  prof.unattributed_us =
      prof.wall_us > attributed ? prof.wall_us - attributed : 0;
  if (ctx.annotate) ctx.annotate(&prof);
  if (ctx.slow_log != nullptr) ctx.slow_log->End(qid, prof);
  if (!exec_status.ok()) return exec_status;

  if (root->has_agg) {
    // Push-down aggregates return no rows and count matching inputs;
    // grouped/multi-aggregate queries return group rows and count those.
    result.count =
        result.rows.empty() && plan.root->kind == PlanNode::Kind::kScan
            ? root->first_agg.count
            : result.rows.size();
    result.agg_int = root->first_agg.acc;
    result.agg_valid =
        root->first_agg.started || root->first_agg_kind == AggKind::kCount;
    result.agg_overflow = root->agg_overflow;
  } else {
    result.count = result.rows.size();
  }

  if (std::strcmp(plan.kind, "scan") == 0) {
    totals_.scans.fetch_add(1, std::memory_order_relaxed);
  } else {
    totals_.joins.fetch_add(1, std::memory_order_relaxed);
  }
  totals_.scans.fetch_add(side_scans, std::memory_order_relaxed);
  totals_.Add(result.stats);
  return result;
}

StatusOr<QueryResult> QueryEngine::ExecuteScan(const QueryContext& ctx,
                                               const ScanQuery& query,
                                               Scn snapshot) const {
  STRATUS_SPAN(obs::Stage::kScan, snapshot);
  MultiJoinQuery scan;
  scan.fact = query.object;
  scan.fact_predicates = query.predicates;
  scan.group_by = query.group_by;
  scan.aggregates = query.aggregates;
  scan.projection = query.projection;
  scan.force_row_store = query.force_row_store;
  StatusOr<Plan> plan = planner_.PlanQuery(ctx, scan, snapshot);
  if (!plan.ok()) return plan.status();
  return ExecutePlan(ctx, std::move(*plan), query.dop, snapshot);
}

StatusOr<QueryResult> QueryEngine::ExecuteMultiJoin(const QueryContext& ctx,
                                                    const MultiJoinQuery& query,
                                                    Scn snapshot) const {
  if (query.joins.empty())
    return Status::InvalidArgument("multi-join needs at least one join edge");
  StatusOr<Plan> plan = planner_.PlanQuery(ctx, query, snapshot);
  if (!plan.ok()) return plan.status();
  return ExecutePlan(ctx, std::move(*plan), query.dop, snapshot);
}

StatusOr<std::optional<Row>> QueryEngine::IndexFetch(const QueryContext& ctx,
                                                     ObjectId object, int64_t key,
                                                     Scn snapshot) const {
  if (!ctx.catalog->ExistsAt(object, snapshot))
    return Status::NotFound("table does not exist at this snapshot");
  Table* table = ctx.table_lookup(object);
  if (table == nullptr || table->index() == nullptr)
    return Status::FailedPrecondition("no identity index");

  totals_.index_fetches.fetch_add(1, std::memory_order_relaxed);
  SnapshotGuard guard(ctx.snapshots, snapshot);
  const std::optional<RowId> rid = table->index()->Lookup(key);
  if (!rid.has_value()) return std::optional<Row>{};

  ReadView view;
  view.snapshot_scn = snapshot;
  view.resolver = ctx.resolver;
  Block* block = ctx.cache->Get(rid->dba);
  if (block == nullptr) return std::optional<Row>{};
  Row row;
  if (!block->ReadRow(rid->slot, view, &row).ok()) return std::optional<Row>{};
  // Guard against a stale index entry (the row's visible version may predate
  // the index insert of an uncommitted writer).
  if (row.empty() || !(row[0] == Value(key))) return std::optional<Row>{};
  return std::optional<Row>{std::move(row)};
}

}  // namespace stratus
