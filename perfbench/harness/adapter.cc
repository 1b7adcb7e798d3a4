#include "adapter.h"

#include <algorithm>

#include "db/database.h"
#include "trace.h"

namespace perfbench {

namespace {

using stratus::AggKind;
using stratus::AggSpec;
using stratus::PredOp;
using stratus::Predicate;
using stratus::Value;

// Fact layout: id, n1, n2, n3, n4, c1. The join's joined layout appends the
// dim row (id, n1, n2, c1), so dim.c1 sits at 6 + 3.
constexpr uint32_t kN1 = 1, kN2 = 2, kN3 = 3, kN4 = 4;
constexpr uint32_t kJoinedDimC1 = 9;
constexpr uint32_t kDop = 2;

/// The benchmark's cluster, fixed in code: 4 apply workers, 16 blocks per
/// IMCU, repopulation at 5% invalid rows, 1 ms shipping heartbeat,
/// persistence off (all-RAM, nothing fsynced), cooperative flush on.
stratus::DatabaseOptions ClusterOptions(int redo_threads) {
  stratus::DatabaseOptions o;
  o.primary_redo_threads = redo_threads;
  o.apply.num_workers = 4;
  o.population.blocks_per_imcu = 16;
  o.population.manager_interval_us = 5'000;
  o.population.repop_invalid_threshold = 0.05;
  o.shipping.heartbeat_interval_us = 1'000;
  o.flush.cooperative = true;
  o.persist.enabled = false;
  return o;
}

stratus::Row ToRow(TableId table, const Rec& r) {
  stratus::Row row;
  row.reserve(6);
  row.emplace_back(r.id);
  row.emplace_back(r.n1);
  row.emplace_back(r.n2);
  if (table == TableId::kFact) {
    row.emplace_back(r.n3);
    row.emplace_back(r.n4);
  }
  row.emplace_back(r.c1);
  return row;
}

std::vector<Predicate> RangeOnN3(int64_t lo, int64_t width) {
  return {Predicate{kN3, PredOp::kGe, Value(lo)},
          Predicate{kN3, PredOp::kLt, Value(lo + width)}};
}

std::vector<Predicate> LeafPredicates(const QuerySpec& spec) {
  switch (spec.shape) {
    case Shape::kScan:
      return {Predicate{kN1, PredOp::kEq, Value(spec.arg)}};
    case Shape::kGroup:
      return RangeOnN3(spec.arg, kGroupRangeWidth);
    case Shape::kJoin:
      return RangeOnN3(spec.arg, kJoinRangeWidth);
  }
  return {};
}

std::string ResultBytes(const stratus::QueryResult& r) {
  std::string out = "count=" + std::to_string(r.count) +
                    " agg=" + std::to_string(r.agg_int) +
                    (r.agg_valid ? "" : "(null)") +
                    (r.agg_overflow ? "(overflow)" : "") + "\n";
  for (const stratus::Row& row : r.rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

}  // namespace

struct Adapter::Impl {
  explicit Impl(int redo_threads) : cluster(ClusterOptions(redo_threads)) {}

  stratus::ObjectId Oid(TableId t) const {
    return t == TableId::kFact ? fact : dim;
  }

  stratus::AdgCluster cluster;
  stratus::ObjectId fact = stratus::kInvalidObjectId;
  stratus::ObjectId dim = stratus::kInvalidObjectId;
  stratus::ScanEngine scan_engine;
};

Adapter::Adapter(int redo_threads) : redo_threads_(redo_threads) {
  ScopedSpan span("cluster.start");
  impl_ = std::make_unique<Impl>(redo_threads);
  impl_->cluster.Start();
}

Adapter::~Adapter() {
  ScopedSpan span("cluster.stop");
  impl_->cluster.Stop();
}

bool Adapter::CreateTables(std::string* error) {
  ScopedSpan span("cluster.create_table");
  auto fact = impl_->cluster.CreateTable(
      "FACT", stratus::kDefaultTenant, stratus::Schema::WideTable(4, 1),
      stratus::ImService::kStandbyOnly, /*identity_index=*/true);
  if (!fact.ok()) {
    *error = fact.status().ToString();
    return false;
  }
  auto dim = impl_->cluster.CreateTable(
      "DIM", stratus::kDefaultTenant, stratus::Schema::WideTable(2, 1),
      stratus::ImService::kStandbyOnly, /*identity_index=*/true);
  if (!dim.ok()) {
    *error = dim.status().ToString();
    return false;
  }
  impl_->fact = *fact;
  impl_->dim = *dim;
  return true;
}

bool Adapter::InsertRows(TableId table, std::vector<Rec>&& rows,
                         int redo_thread, std::string* error) {
  ScopedSpan span("primary.insert_txn");
  stratus::PrimaryDb* primary = impl_->cluster.primary();
  stratus::Transaction txn =
      primary->Begin(static_cast<stratus::RedoThreadId>(redo_thread));
  for (const Rec& r : rows) {
    const stratus::Status st =
        primary->Insert(&txn, impl_->Oid(table), ToRow(table, r));
    if (!st.ok()) {
      primary->Abort(&txn);
      *error = st.ToString();
      return false;
    }
  }
  auto committed = primary->Commit(&txn);
  if (!committed.ok()) *error = committed.status().ToString();
  return committed.ok();
}

Scn Adapter::CatchUp() {
  ScopedSpan span("cluster.wait_for_catchup");
  return impl_->cluster.WaitForCatchup();
}

bool Adapter::Populate(std::string* error) {
  ScopedSpan span("standby.populate_now");
  for (stratus::ObjectId oid : {impl_->fact, impl_->dim}) {
    const stratus::Status st = impl_->cluster.standby()->PopulateNow(oid);
    if (!st.ok()) {
      *error = st.ToString();
      return false;
    }
  }
  return true;
}

TxnOutcome Adapter::Update(TableId table, const std::vector<Rec>& rows,
                           int redo_thread) {
  TxnOutcome out;
  stratus::PrimaryDb* primary = impl_->cluster.primary();
  const uint64_t t0 = NowNs();
  stratus::Transaction txn;
  {
    ScopedSpan span("primary.begin");
    txn = primary->Begin(static_cast<stratus::RedoThreadId>(redo_thread));
  }
  for (const Rec& r : rows) {
    stratus::Row row = ToRow(table, r);
    const uint64_t u0 = NowNs();
    stratus::Status st;
    {
      ScopedSpan span("primary.update_by_key");
      st = primary->UpdateByKey(&txn, impl_->Oid(table), r.id, std::move(row));
    }
    out.update_ns += NowNs() - u0;
    if (!st.ok()) {
      primary->Abort(&txn);
      out.error = st.ToString();
      out.total_ns = NowNs() - t0;
      return out;
    }
  }
  const uint64_t c0 = NowNs();
  stratus::StatusOr<stratus::Scn> committed = stratus::Status::Internal("");
  {
    ScopedSpan span("primary.commit");
    committed = primary->Commit(&txn);
  }
  const uint64_t c1 = NowNs();
  out.commit_ns = c1 - c0;
  out.total_ns = c1 - t0;
  if (!committed.ok()) {
    out.error = committed.status().ToString();
    return out;
  }
  out.ok = true;
  out.commit_scn = *committed;
  return out;
}

bool Adapter::WaitVisible(Scn scn, int64_t timeout_us) {
  ScopedSpan span("standby.wait_for_query_scn");
  return impl_->cluster.standby()->WaitForQueryScn(scn, timeout_us) >= scn;
}

Scn Adapter::QueryScn() const { return impl_->cluster.standby()->query_scn(); }

Watermarks Adapter::ReadWatermarks() const {
  stratus::AdgCluster& c = impl_->cluster;
  stratus::StandbyDb* sb = c.standby();
  Watermarks w;
  w.delivered = stratus::kMaxScn;
  w.shipped_all = true;
  for (int i = 0; i < redo_threads_; ++i) {
    w.delivered = std::min(
        w.delivered, sb->stream(static_cast<size_t>(i))->DeliveredWatermark());
    if (c.shipper(static_cast<size_t>(i))->last_shipped_scn() <
        c.primary()->redo_log(i)->LastScn())
      w.shipped_all = false;
  }
  stratus::RedoApplyEngine* engine = sb->apply_engine();
  if (engine != nullptr) {
    w.dispatched = engine->dispatched_scn();
    w.applied = stratus::kMaxScn;
    for (const auto& worker : engine->workers())
      w.applied = std::min(w.applied, worker->applied_watermark());
  }
  w.query_scn = sb->query_scn();
  return w;
}

void Adapter::SetShippingPaused(bool paused) {
  ScopedSpan span("cluster.set_shipping_paused");
  impl_->cluster.SetShippingPaused(paused);
}

QueryOutcome Adapter::Query(const QuerySpec& spec, Scn scn, ReadPath path) {
  const bool row_store = path == ReadPath::kStandbyRowStore;
  const bool primary = path == ReadPath::kPrimary;
  stratus::StatusOr<stratus::QueryResult> result =
      stratus::Status::Internal("");
  if (spec.shape == Shape::kJoin) {
    stratus::MultiJoinQuery q;
    q.fact = impl_->fact;
    q.fact_predicates = LeafPredicates(spec);
    q.joins.push_back(stratus::JoinEdge{impl_->dim, kN4, 0, {}});
    q.group_by = {kJoinedDimC1};
    q.aggregates = {AggSpec{AggKind::kSum, kN2}};
    q.force_row_store = row_store;
    q.dop = kDop;
    ScopedSpan span(primary ? "primary.multi_join_at" : "standby.multi_join_at");
    result = primary ? impl_->cluster.primary()->MultiJoinAt(q, scn)
                     : impl_->cluster.standby()->MultiJoinAt(q, scn);
  } else {
    stratus::ScanQuery q;
    q.object = impl_->fact;
    q.predicates = LeafPredicates(spec);
    if (spec.shape == Shape::kScan) {
      q.aggregates = {AggSpec{AggKind::kCount, 0}};
    } else {
      q.group_by = {kN1};
      q.aggregates = {AggSpec{AggKind::kCount, 0}, AggSpec{AggKind::kSum, kN2}};
    }
    q.force_row_store = row_store;
    q.dop = kDop;
    ScopedSpan span(primary ? "primary.query_at" : "standby.query_at");
    result = primary ? impl_->cluster.primary()->QueryAt(q, scn)
                     : impl_->cluster.standby()->QueryAt(q, scn);
  }

  QueryOutcome out;
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.result = ResultBytes(*result);
  const stratus::ScanStats& s = result->stats;
  out.invalid_rowpath = s.invalid_rowpath;
  out.rows_from_imcs = s.rows_from_imcs;
  out.rows_from_rowstore = s.rows_from_rowstore;
  out.parallel_tasks = s.parallel_tasks;
  for (const stratus::OperatorStage& stage : result->profile.stages) {
    if (stage.op != "scan") continue;
    ++out.scan_leaves;
    const bool row_path = stage.path == "row";
    out.rowpath_leaves += row_path ? 1 : 0;
    if (stage.object == impl_->fact) {
      out.fact_leaf_imcs = !row_path;
      out.fact_leaf_matches = stage.rows_out;
    }
  }
  if (spec.shape == Shape::kScan) out.fact_leaf_matches = result->count;
  return out;
}

bool Adapter::ScanLeaf(const QuerySpec& spec, Scn scn, bool imcs_path,
                       uint64_t* matches) {
  ScopedSpan span("imcs.scan_engine_scan");
  stratus::StandbyDb* sb = impl_->cluster.standby();
  const stratus::QueryContext ctx = sb->MakeQueryContext();
  stratus::Table* table = ctx.table_lookup(impl_->fact);
  if (table == nullptr) return false;
  stratus::SnapshotGuard guard(ctx.snapshots, scn);
  stratus::ReadView view;
  view.snapshot_scn = scn;
  view.resolver = ctx.resolver;
  const std::vector<const stratus::ImStore*> stores =
      imcs_path ? ctx.stores : std::vector<const stratus::ImStore*>{};

  // The scan shape is a single ungrouped COUNT: the planner pushes it into
  // the scan, which then materializes nothing. The other shapes stream rows.
  const bool pushdown = spec.shape == Shape::kScan;
  stratus::ScanOptions options;
  options.dop = kDop;
  options.pool = ctx.pool;
  uint64_t rows = 0;
  if (!pushdown) {
    options.batch_sink = [&rows](std::vector<stratus::Row>&& batch) {
      rows += batch.size();
    };
  }
  stratus::AggState agg;
  stratus::ScanStats stats;
  const stratus::Status st = impl_->scan_engine.Scan(
      *table, LeafPredicates(spec), view, stores, *ctx.cache,
      [](const stratus::Row&) {}, &stats, /*needs_rows=*/!pushdown,
      /*expressions=*/nullptr,
      pushdown ? stratus::ScanAggregate{AggKind::kCount, 0}
               : stratus::ScanAggregate{},
      pushdown ? &agg : nullptr, options);
  *matches = pushdown ? agg.count : rows;
  return st.ok();
}

bool Adapter::FactRowStoreRows(uint64_t* rows) {
  ScopedSpan span("standby.query");
  stratus::ScanQuery q;
  q.object = impl_->fact;
  q.aggregates = {AggSpec{AggKind::kCount, 0}};
  q.dop = kDop;
  auto result = impl_->cluster.standby()->Query(q);
  if (!result.ok()) return false;
  *rows = result->stats.rows_from_rowstore;
  return true;
}

void Adapter::PruneVersions() {
  ScopedSpan span("cluster.prune_versions");
  impl_->cluster.primary()->PruneVersions();
  impl_->cluster.standby()->PruneVersions();
}

bool Adapter::FactTotals(Scn scn, ReadPath path, uint64_t* count, int64_t* sum,
                         std::string* error) {
  stratus::ScanQuery q;
  q.object = impl_->fact;
  q.aggregates = {AggSpec{AggKind::kCount, 0}, AggSpec{AggKind::kSum, kN2}};
  q.dop = kDop;
  const bool primary = path == ReadPath::kPrimary;
  q.force_row_store = path == ReadPath::kStandbyRowStore;
  ScopedSpan span(primary ? "primary.query_at" : "standby.query_at");
  auto result = primary ? impl_->cluster.primary()->QueryAt(q, scn)
                        : impl_->cluster.standby()->QueryAt(q, scn);
  if (!result.ok()) {
    *error = result.status().ToString();
    return false;
  }
  if (result->rows.size() != 1 || result->rows[0].size() != 2 ||
      result->rows[0][0].is_null() || result->rows[0][1].is_null()) {
    *error = "unexpected totals shape";
    return false;
  }
  *count = static_cast<uint64_t>(result->rows[0][0].as_int());
  *sum = result->rows[0][1].as_int();
  return true;
}

Counters Adapter::ReadCounters() const {
  stratus::AdgCluster& c = impl_->cluster;
  stratus::StandbyDb* sb = c.standby();
  Counters k;
  for (int i = 0; i < redo_threads_; ++i)
    k.redo_records += c.primary()->redo_log(i)->TotalRecords();
  k.shipped_bytes = c.shipped_bytes();
  if (stratus::RedoApplyEngine* engine = sb->apply_engine()) {
    k.dispatched_records = engine->dispatched_records();
    for (const auto& worker : engine->workers())
      k.worker_cvs.push_back(worker->applied_cvs());
  }
  if (stratus::RecoveryCoordinator* coord = sb->coordinator()) {
    k.advancements = coord->advancements();
    k.quiesce_ns = coord->quiesce_nanos();
  }
  if (sb->flush() != nullptr) {
    const stratus::FlushStats f = sb->flush()->stats();
    k.flushed_records = f.flushed_records;
    k.cooperative_steps = f.cooperative_steps;
    k.coordinator_steps = f.coordinator_steps;
  }
  if (sb->mining() != nullptr) k.mined_records = sb->mining()->mined_records();
  if (sb->commit_table() != nullptr) {
    k.ct_inserts = sb->commit_table()->inserts();
    k.ct_walk_steps = sb->commit_table()->insert_walk_steps();
    k.ct_contention = sb->commit_table()->partition_contention();
  }
  if (sb->journal() != nullptr)
    k.journal_contention = sb->journal()->bucket_contention();
  const stratus::PopulationStats p = sb->populator()->stats();
  k.repopulations = p.repopulations;
  k.rows_populated = p.rows_populated;
  const stratus::ImStoreStats im = sb->im_store()->Stats();
  k.row_invalidations = im.row_invalidations;
  k.im_used_bytes = sb->im_store()->used_bytes();
  return k;
}

std::string Adapter::HealthProblem() const {
  const stratus::StandbyHealth h = impl_->cluster.standby()->health();
  if (!h.degraded) return "";
  return "degraded: " + std::to_string(h.apply_errors) + " apply errors, " +
         std::to_string(h.quarantined_imcus) + " quarantined IMCUs, first: " +
         h.first_error;
}

}  // namespace perfbench
