#include "db/database.h"

#include <algorithm>

namespace stratus {

namespace {

void ExportImStore(obs::MetricsSink* sink, const obs::Labels& labels,
                   const ImStoreStats& s) {
  sink->Gauge("stratus_imcs_smus_total", labels, static_cast<double>(s.smus_total));
  sink->Gauge("stratus_imcs_smus_ready", labels, static_cast<double>(s.smus_ready));
  sink->Gauge("stratus_imcs_used_bytes", labels, static_cast<double>(s.used_bytes));
  sink->Counter("stratus_imcs_row_invalidations", labels, s.row_invalidations);
  sink->Counter("stratus_imcs_coarse_invalidations", labels, s.coarse_invalidations);
}

void ExportPopulation(obs::MetricsSink* sink, const obs::Labels& labels,
                      const PopulationStats& s) {
  sink->Counter("stratus_population_imcus", labels, s.imcus_populated);
  sink->Counter("stratus_population_repopulations", labels, s.repopulations);
  sink->Counter("stratus_population_tail_extensions", labels, s.tail_extensions);
  sink->Counter("stratus_population_rows", labels, s.rows_populated);
  sink->Counter("stratus_population_snapshot_retries", labels, s.snapshot_retries);
  sink->Counter("stratus_population_capacity_rejections", labels,
                s.capacity_rejections);
}

/// Commit-time IMCS maintenance (the DBIM Transaction Manager's role): marks
/// every row a committing transaction touched invalid in each store, under
/// the shared side of the population snapshot lock.
class StoreInvalidationHooks : public CommitHooks {
 public:
  StoreInvalidationHooks(PrimaryImSync* sync, std::vector<ImStore*> stores)
      : sync_(sync), stores_(std::move(stores)) {}
  void PreCommitLock() override { sync_->LockShared(); }
  void OnCommit(const Transaction& txn, Scn) override {
    for (const auto& [oid, rid] : txn.im_touches) {
      for (ImStore* store : stores_) store->MarkRowInvalid(rid.dba, rid.slot);
    }
  }
  void PostCommitUnlock() override { sync_->UnlockShared(); }

 private:
  PrimaryImSync* sync_;
  std::vector<ImStore*> stores_;
};

std::vector<std::unique_ptr<RedoLog>> MakeLogs(int threads, ScnAllocator* scns) {
  std::vector<std::unique_ptr<RedoLog>> logs;
  for (int i = 0; i < threads; ++i)
    logs.push_back(std::make_unique<RedoLog>(static_cast<RedoThreadId>(i), scns));
  return logs;
}

std::vector<RedoLog*> LogPtrs(const std::vector<std::unique_ptr<RedoLog>>& logs) {
  std::vector<RedoLog*> out;
  for (const auto& l : logs) out.push_back(l.get());
  return out;
}

Status ReadOnly() {
  return Status::FailedPrecondition("database has no write side");
}

}  // namespace

// ---------------------------------------------------------------------------
// Database: the core both roles share
// ---------------------------------------------------------------------------

/// SCN allocation, redo generation, transactions and commit-time IMCS
/// maintenance over the owning database's row store.
struct Database::WriteSide {
  WriteSide(Database* db, int redo_threads, std::vector<ImStore*> stores)
      : logs(MakeLogs(redo_threads, &scns)),
        txn_mgr(&scns, &db->txn_table_, &db->blocks_, LogPtrs(logs),
                // Specialized redo flags transactions the standby IMCS cares
                // about, whichever role generates the redo.
                [db](ObjectId oid) {
                  return ImOnStandby(db->catalog_.CurrentImService(oid));
                }),
        hooks(&im_sync, std::move(stores)) {}

  ScnAllocator scns;
  std::vector<std::unique_ptr<RedoLog>> logs;
  TxnManager txn_mgr;
  PrimaryImSync im_sync;
  PrimarySnapshotSource snapshot_source{&txn_mgr, &im_sync};
  StoreInvalidationHooks hooks;
};

Database::Database(const DatabaseOptions& options, const char* role,
                   bool (*im_covers)(ImService))
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::MetricsRegistry::Global()),
      role_(role),
      im_covers_(im_covers),
      slow_log_(options.slow_query_log_capacity, options.slow_query_threshold_us) {
  obs::ExportBuildInfo(registry_);
}

Database::~Database() = default;

void Database::InstallWriteSide(int redo_threads, Scn resume_scn,
                                std::vector<ImStore*> stores) {
  const bool im_integration = !stores.empty();
  write_ = std::make_unique<WriteSide>(this, redo_threads, std::move(stores));
  TxnManager& mgr = write_->txn_mgr;
  mgr.set_specialized_redo(options_.specialized_redo);
  write_->scns.AdvancePast(resume_scn);
  mgr.Bootstrap(resume_scn, txn_table_.max_xid() + 1);
  if (im_integration) {
    mgr.SetPrimaryImIntegration(
        [this](ObjectId oid) { return im_covers_(catalog_.CurrentImService(oid)); },
        &write_->hooks);
  }
}

TxnManager* Database::txn_manager() const {
  return write_ != nullptr ? &write_->txn_mgr : nullptr;
}

RedoLog* Database::redo_log(int thread) const {
  return write_->logs[static_cast<size_t>(thread)].get();
}

int Database::redo_threads() const {
  return write_ != nullptr ? static_cast<int>(write_->logs.size()) : 0;
}

SnapshotSource* Database::write_snapshot_source() const {
  return &write_->snapshot_source;
}

std::string Database::MetricsText() const { return registry_->ExportText(); }

std::string Database::MetricsJson() const { return registry_->ExportJson(); }

void Database::ExportDatabaseMetrics(obs::MetricsSink* sink,
                                     const obs::Labels& labels) const {
  const BufferCacheStats cache = cache_.stats();
  sink->Counter("stratus_buffer_cache_logical_gets", labels, cache.logical_gets);
  sink->Counter("stratus_buffer_cache_misses", labels, cache.misses);
  const ScanTotals& t = query_engine_.totals();
  sink->Counter("stratus_scan_queries", labels, t.scans.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_joins", labels, t.joins.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_index_fetches", labels,
                t.index_fetches.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_rows_from_imcs", labels,
                t.rows_from_imcs.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_rows_from_rowstore", labels,
                t.rows_from_rowstore.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_imcus_scanned", labels,
                t.imcus_scanned.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_imcus_pruned", labels,
                t.imcus_pruned.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_imcus_skipped", labels,
                t.imcus_skipped.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_blocks_rowpath", labels,
                t.blocks_rowpath.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_invalid_rowpath", labels,
                t.invalid_rowpath.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_parallel_tasks", labels,
                t.parallel_tasks.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_kernel_swar_words", labels,
                t.kernel_swar_words.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_kernel_avx2_words", labels,
                t.kernel_avx2_words.load(std::memory_order_relaxed));
  sink->Counter("stratus_scan_kernel_scalar_rows", labels,
                t.kernel_scalar_rows.load(std::memory_order_relaxed));
}

StatusOr<ObjectId> Database::CreateTable(const std::string& name, TenantId tenant,
                                         Schema schema, ImService service,
                                         bool identity_index, ObjectId object_id) {
  if (object_id == kInvalidObjectId) {
    if (write_ == nullptr) return ReadOnly();
    StatusOr<ObjectId> oid =
        catalog_.CreateTable(name, tenant, schema, service, identity_index,
                             write_->scns.Current() + 1);
    if (!oid.ok()) return oid;
    object_id = *oid;
  } else {
    STRATUS_RETURN_IF_ERROR(catalog_.CreateTableWithId(
        object_id, name, tenant, schema, service, identity_index, /*scn=*/0));
  }
  auto table = std::make_unique<Table>(object_id, tenant, name, std::move(schema),
                                       &blocks_);
  if (identity_index) table->CreateIdentityIndex();
  {
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    tables_.emplace(object_id, std::move(table));
  }
  RefreshImObject(object_id);
  return object_id;
}

Table* Database::table(ObjectId object) const {
  std::shared_lock<std::shared_mutex> g(tables_mu_);
  auto it = tables_.find(object);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Database::ForEachTable(
    const std::function<void(ObjectId, Table*)>& fn) const {
  std::shared_lock<std::shared_mutex> g(tables_mu_);
  for (const auto& [oid, table] : tables_) fn(oid, table.get());
}

Table* Database::ImCoveredTable(ObjectId object) const {
  // A dropped or unknown object's current IM service is kNone.
  return im_covers_(catalog_.CurrentImService(object)) ? table(object) : nullptr;
}

void Database::RefreshImObject(ObjectId object) {
  Table* covered = ImCoveredTable(object);
  for (Populator* populator : Populators()) {
    populator->DisableObject(object);
    if (covered != nullptr) populator->EnableObject(covered);
  }
}

Status Database::ApplyDictionaryDdl(const DdlMarker& marker, Scn scn) {
  switch (marker.op) {
    case DdlOp::kDropTable:
      return catalog_.DropTable(marker.object_id, scn);
    case DdlOp::kDropColumn: {
      STRATUS_RETURN_IF_ERROR(
          catalog_.DropColumn(marker.object_id, marker.column_idx, scn));
      StatusOr<Schema> schema = catalog_.CurrentSchema(marker.object_id);
      Table* t = table(marker.object_id);
      if (schema.ok() && t != nullptr) t->UpdateSchema(*schema);
      return Status::OK();
    }
    case DdlOp::kAlterInMemory:
      return catalog_.SetImService(marker.object_id,
                                   static_cast<ImService>(marker.im_service), scn);
    case DdlOp::kNoInMemory:
      return catalog_.SetImService(marker.object_id, ImService::kNone, scn);
    case DdlOp::kNone:
      return Status::OK();
  }
  return Status::OK();
}

StatusOr<uint32_t> Database::RegisterImExpression(ObjectId object, Expression expr) {
  StatusOr<Schema> schema = catalog_.CurrentSchema(object);
  if (!schema.ok()) return schema.status();
  StatusOr<uint32_t> idx = im_exprs_.Register(object, *schema, std::move(expr));
  if (!idx.ok()) return idx;
  // Existing IMCUs lack the virtual column: drop and rebuild.
  RefreshImObject(object);
  return idx;
}

Transaction Database::Begin(RedoThreadId thread, TenantId tenant) {
  if (write_ == nullptr) return Transaction{};
  return write_->txn_mgr.Begin(thread, tenant);
}

Status Database::Insert(Transaction* txn, ObjectId object, Row row, RowId* rid) {
  if (write_ == nullptr) return ReadOnly();
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  return write_->txn_mgr.Insert(txn, t, std::move(row), rid);
}

Status Database::Update(Transaction* txn, ObjectId object, RowId rid, Row row) {
  if (write_ == nullptr) return ReadOnly();
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  return write_->txn_mgr.Update(txn, t, rid, std::move(row));
}

Status Database::UpdateByKey(Transaction* txn, ObjectId object, int64_t key,
                             Row row) {
  if (write_ == nullptr) return ReadOnly();
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  if (t->index() == nullptr) return Status::FailedPrecondition("no identity index");
  const std::optional<RowId> rid = t->index()->Lookup(key);
  if (!rid.has_value()) return Status::NotFound("key not indexed");
  return write_->txn_mgr.Update(txn, t, *rid, std::move(row));
}

Status Database::Delete(Transaction* txn, ObjectId object, RowId rid) {
  if (write_ == nullptr) return ReadOnly();
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  return write_->txn_mgr.Delete(txn, t, rid);
}

StatusOr<Scn> Database::Commit(Transaction* txn) {
  if (write_ == nullptr) return ReadOnly();
  return write_->txn_mgr.Commit(txn);
}

void Database::Abort(Transaction* txn) {
  if (write_ != nullptr) write_->txn_mgr.Abort(txn);
}

QueryContext Database::MakeQueryContext() const {
  QueryContext ctx;
  ctx.catalog = &catalog_;
  ctx.cache = &cache_;
  ctx.resolver = &txn_table_;
  ctx.table_lookup = [this](ObjectId oid) { return table(oid); };
  ctx.snapshots = &snapshots_;
  ctx.expressions = &im_exprs_;
  ctx.default_dop = options_.scan_dop;
  ctx.planner = options_.planner;
  ctx.role = role_;
  ctx.slow_log = &slow_log_;
  AddQueryContext(&ctx);
  return ctx;
}

StatusOr<QueryResult> Database::Query(const ScanQuery& query, InstanceId instance) {
  const StatusOr<Scn> scn = ReadScn(instance);
  if (!scn.ok()) return scn.status();
  return query_engine_.ExecuteScan(MakeQueryContext(), query, *scn);
}

StatusOr<QueryResult> Database::QueryAt(const ScanQuery& query, Scn snapshot) {
  if (snapshot == kInvalidScn)
    return Status::InvalidArgument("invalid snapshot SCN");
  return query_engine_.ExecuteScan(MakeQueryContext(), query, snapshot);
}

StatusOr<QueryResult> Database::MultiJoin(const MultiJoinQuery& query,
                                          InstanceId instance) {
  const StatusOr<Scn> scn = ReadScn(instance);
  if (!scn.ok()) return scn.status();
  return query_engine_.ExecuteMultiJoin(MakeQueryContext(), query, *scn);
}

StatusOr<QueryResult> Database::MultiJoinAt(const MultiJoinQuery& query,
                                            Scn snapshot) {
  if (snapshot == kInvalidScn)
    return Status::InvalidArgument("invalid snapshot SCN");
  return query_engine_.ExecuteMultiJoin(MakeQueryContext(), query, snapshot);
}

StatusOr<std::optional<Row>> Database::Fetch(ObjectId object, int64_t key,
                                             InstanceId instance) {
  const StatusOr<Scn> scn = ReadScn(instance);
  if (!scn.ok()) return scn.status();
  return query_engine_.IndexFetch(MakeQueryContext(), object, key, *scn);
}

size_t Database::PruneVersions() {
  const StatusOr<Scn> live = ReadScn(kMasterInstance);
  if (!live.ok()) return 0;
  const Scn watermark = std::min(snapshots_.LowWatermark(), *live);
  if (watermark == kInvalidScn) return 0;
  size_t freed = 0;
  const Dba high = blocks_.HighWater();
  for (Dba dba = kTxnTableDbaCount; dba < high; ++dba) {
    Block* b = blocks_.GetBlock(dba);
    if (b != nullptr) freed += b->Prune(watermark, txn_table_);
  }
  return freed;
}

Status Database::PopulateNow(ObjectId object) {
  const std::vector<Populator*> populators = Populators();
  if (populators.empty())
    return Status::FailedPrecondition(std::string(role_) + " IMCS disabled");
  Status last = Status::OK();
  for (Populator* populator : populators) {
    Status st = populator->PopulateNow(object);
    if (!st.ok()) last = st;
  }
  return last;
}

// ---------------------------------------------------------------------------
// PrimaryDb
// ---------------------------------------------------------------------------

PrimaryDb::PrimaryDb(const DatabaseOptions& options)
    : Database(options, "primary", &ImOnPrimary) {
  std::vector<ImStore*> stores;
  if (options_.primary_imcs_enabled) {
    im_store_ = std::make_unique<ImStore>(kMasterInstance, options_.im_pool_bytes);
    stores.push_back(im_store_.get());
  }
  InstallWriteSide(options_.primary_redo_threads, /*resume_scn=*/0,
                   std::move(stores));
  if (im_store_ != nullptr) {
    PopulationOptions pop = options_.population;
    pop.home_fn = nullptr;  // The primary IMCS is not distributed here.
    pop.expressions = &im_exprs_;
    pop.chaos = nullptr;  // Crash injection targets the standby only.
    populator_ = std::make_unique<Populator>(
        im_store_.get(), write_snapshot_source(), &blocks_, pop);
  }
  metrics_cb_.Attach(registry_,
                     [this](obs::MetricsSink* sink) { ExportMetrics(sink); });
}

void PrimaryDb::ExportMetrics(obs::MetricsSink* sink) const {
  const obs::Labels labels{{"role", "primary"}};
  ExportDatabaseMetrics(sink, labels);
  const TxnManager* mgr = txn_manager();
  sink->Counter("stratus_txn_commits", labels, mgr->commits());
  sink->Counter("stratus_txn_aborts", labels, mgr->aborts());
  sink->Gauge("stratus_visible_scn", labels,
              static_cast<double>(mgr->visible_scn()));
  uint64_t redo_records = 0;
  Scn redo_last = kInvalidScn;
  for (int i = 0; i < redo_threads(); ++i) {
    redo_records += redo_log(i)->TotalRecords();
    redo_last = std::max(redo_last, redo_log(i)->LastScn());
  }
  sink->Counter("stratus_redo_records", labels, redo_records);
  sink->Gauge("stratus_redo_last_scn", labels, static_cast<double>(redo_last));
  if (im_store_ != nullptr) ExportImStore(sink, labels, im_store_->Stats());
  if (populator_ != nullptr) ExportPopulation(sink, labels, populator_->stats());
}

PrimaryDb::~PrimaryDb() { Stop(); }

void PrimaryDb::Start() {
  if (started_) return;
  started_ = true;
  if (populator_ != nullptr) populator_->Start();
}

void PrimaryDb::Stop() {
  if (!started_) return;
  started_ = false;
  if (populator_ != nullptr) populator_->Stop();
}

StatusOr<Scn> PrimaryDb::ReadScn(InstanceId) const { return current_scn(); }

std::vector<Populator*> PrimaryDb::Populators() {
  if (populator_ == nullptr) return {};
  return {populator_.get()};
}

void PrimaryDb::AddQueryContext(QueryContext* ctx) const {
  if (im_store_ != nullptr) ctx->stores.push_back(im_store_.get());
  ctx->annotate = [this](QueryProfile* prof) {
    // On the primary the reference mark is its own visible SCN: a flashback
    // query (QueryAt) reads stale by construction, a current-SCN query by 0.
    prof->primary_scn = current_scn();
    prof->staleness_scn = prof->primary_scn > prof->snapshot
                              ? prof->primary_scn - prof->snapshot
                              : 0;
    prof->staleness_us = 0;
    prof->lag_sampled = true;
  };
}

// ---------------------------------------------------------------------------
// StandbyDb
// ---------------------------------------------------------------------------

StandbyDb::StandbyDb(const DatabaseOptions& options, size_t num_streams)
    : Database(options, "standby", &ImOnStandby),
      home_map_(options.standby_instances) {
  for (size_t i = 0; i < num_streams; ++i)
    streams_.push_back(std::make_unique<ReceivedLog>());
  instances_.resize(options_.standby_instances);
  for (uint32_t i = 0; i < options_.standby_instances; ++i) {
    instances_[i].store =
        std::make_unique<ImStore>(i, options_.im_pool_bytes);
  }
  metrics_cb_.Attach(
      registry_, [this](obs::MetricsSink* sink) { ExportCoreMetrics(sink); });
}

void StandbyDb::ExportCoreMetrics(obs::MetricsSink* sink) const {
  obs::Labels labels{{"role", "standby"}};
  if (!options_.standby_name.empty())
    labels.emplace_back("standby", options_.standby_name);
  ExportDatabaseMetrics(sink, labels);
  sink->Gauge("stratus_applied_scn", labels,
              static_cast<double>(applied_scn()));
  sink->Gauge("stratus_published_query_scn", labels,
              static_cast<double>(published_query_scn()));
  // Degraded-health and crash/restart series live at core (not pipeline)
  // scope: they must survive pipeline teardown and stay monotonic across
  // restarts, which is exactly when operators look at them.
  sink->Gauge("stratus_standby_degraded", labels, degraded() ? 1.0 : 0.0);
  sink->Counter("stratus_apply_errors_total", labels,
                apply_error_count_.load(std::memory_order_relaxed));
  sink->Counter("stratus_quarantined_imcus", labels,
                quarantined_imcus_.load(std::memory_order_relaxed));
  sink->Counter("stratus_standby_restarts", labels,
                restarts_.load(std::memory_order_relaxed));
  sink->Counter("stratus_standby_crash_restarts", labels,
                crash_restarts_.load(std::memory_order_relaxed));
  if (options_.persist.enabled) {
    const persist::PersistStats ps = PersistStatsSnapshot();
    sink->Counter("stratus_standby_disk_restarts", labels,
                  disk_restarts_.load(std::memory_order_relaxed));
    sink->Counter("stratus_persist_archived_records", labels, ps.archived_records);
    sink->Counter("stratus_persist_archived_bytes", labels, ps.archived_bytes);
    sink->Counter("stratus_persist_fsyncs", labels, ps.fsyncs);
    sink->Counter("stratus_persist_truncated_tails", labels, ps.truncated_tails);
    sink->Gauge("stratus_persist_segments", labels,
                static_cast<double>(ps.segments));
    sink->Counter("stratus_persist_segments_recycled", labels,
                  ps.segments_recycled);
    sink->Counter("stratus_persist_checkpoints", labels, ps.checkpoints);
    sink->Counter("stratus_persist_snapshots", labels, ps.snapshots);
    sink->Counter("stratus_persist_recoveries", labels, ps.recoveries);
    sink->Counter("stratus_persist_replayed_records", labels, ps.replayed_records);
    sink->Counter("stratus_persist_restored_blocks", labels, ps.restored_blocks);
    sink->Counter("stratus_persist_restored_smus", labels, ps.restored_smus);
    sink->Counter("stratus_persist_faults_injected", labels, ps.faults_injected);
    sink->Gauge("stratus_persist_durable_scn", labels,
                static_cast<double>(ps.durable_scn));
    sink->Gauge("stratus_persist_checkpoint_scn", labels,
                static_cast<double>(ps.checkpoint_scn));
    sink->Gauge("stratus_persist_snapshot_scn", labels,
                static_cast<double>(ps.snapshot_scn));
    sink->Gauge("stratus_persist_recovered_scn", labels,
                static_cast<double>(ps.recovered_scn));
  }
  uint64_t delivered = 0;
  Scn delivered_scn = kMaxScn;
  for (const auto& s : streams_) {
    delivered += s->delivered_records();
    delivered_scn = std::min(delivered_scn, s->DeliveredWatermark());
  }
  sink->Counter("stratus_redo_delivered_records", labels, delivered);
  sink->Gauge("stratus_redo_delivered_scn", labels,
              static_cast<double>(delivered_scn == kMaxScn ? kInvalidScn
                                                           : delivered_scn));
  for (size_t i = 0; i < instances_.size(); ++i) {
    obs::Labels inst_labels = labels;
    inst_labels.emplace_back("instance", std::to_string(i));
    ExportImStore(sink, inst_labels, instances_[i].store->Stats());
  }
}

void StandbyDb::ExportPipelineMetrics(obs::MetricsSink* sink) const {
  obs::Labels labels{{"role", "standby"}};
  if (!options_.standby_name.empty())
    labels.emplace_back("standby", options_.standby_name);
  if (journal_ != nullptr) {
    sink->Counter("stratus_journal_anchors_created", labels,
                  journal_->anchors_created());
    sink->Counter("stratus_journal_records_buffered", labels,
                  journal_->records_buffered());
    sink->Gauge("stratus_journal_live_anchors", labels,
                static_cast<double>(journal_->live_anchors()));
    sink->Counter("stratus_journal_bucket_contention", labels,
                  journal_->bucket_contention());
  }
  if (flush_ != nullptr) {
    const FlushStats fs = flush_->stats();
    sink->Counter("stratus_flush_txns", labels, fs.flushed_txns);
    sink->Counter("stratus_flush_records", labels, fs.flushed_records);
    sink->Counter("stratus_flush_groups", labels, fs.flushed_groups);
    sink->Counter("stratus_flush_coarse_invalidations", labels,
                  fs.coarse_invalidations);
    sink->Counter("stratus_flush_aborted_discards", labels, fs.aborted_discards);
    sink->Counter("stratus_flush_cooperative_steps", labels,
                  fs.cooperative_steps);
    sink->Counter("stratus_flush_coordinator_steps", labels,
                  fs.coordinator_steps);
  }
  if (mining_ != nullptr) {
    sink->Counter("stratus_mining_records", labels, mining_->mined_records());
    sink->Counter("stratus_mining_commits", labels, mining_->mined_commits());
    sink->Counter("stratus_mining_ddl", labels, mining_->mined_ddl());
  }
  if (channel_ != nullptr) {
    const TransportStats ts = channel_->stats();
    sink->Counter("stratus_transport_messages_sent", labels, ts.messages_sent);
    sink->Counter("stratus_transport_groups_sent", labels, ts.groups_sent);
    sink->Counter("stratus_transport_rows_sent", labels, ts.rows_sent);
    sink->Counter("stratus_transport_coarse_sent", labels, ts.coarse_sent);
    sink->Counter("stratus_transport_publishes_sent", labels, ts.publishes_sent);
    sink->Counter("stratus_transport_rtt_waits", labels, ts.rtt_waits);
    for (size_t i = 0; i < channel_->wire_channel_count(); ++i) {
      channel_->wire_channel(i)->ExportMetrics(sink, labels);
    }
  }

  RecoveryCoordinator* coordinator =
      const_cast<StandbyDb*>(this)->StandbyDb::coordinator();
  if (coordinator != nullptr) {
    sink->Counter("stratus_queryscn_advancements", labels,
                  coordinator->advancements());
    sink->Counter("stratus_quiesce_time_us", labels,
                  coordinator->quiesce_nanos() / 1000);
    sink->Gauge("stratus_query_scn_current", labels,
                static_cast<double>(coordinator->query_scn()));
  }

  uint64_t dispatched = 0, applied_cvs = 0, apply_errors = 0;
  auto fold_engine = [&](const RedoApplyEngine* e) {
    dispatched += e->dispatched_records();
    for (const auto& w : e->workers()) {
      applied_cvs += w->applied_cvs();
      apply_errors += w->apply_errors();
    }
  };
  if (engine_ != nullptr) fold_engine(engine_.get());
  for (const auto& e : mira_engines_) fold_engine(e.get());
  sink->Counter("stratus_apply_dispatched_records", labels, dispatched);
  sink->Counter("stratus_apply_applied_cvs", labels, applied_cvs);
  sink->Counter("stratus_apply_errors", labels, apply_errors);

  for (size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].populator == nullptr) continue;
    obs::Labels inst_labels = labels;
    inst_labels.emplace_back("instance", std::to_string(i));
    ExportPopulation(sink, inst_labels, instances_[i].populator->stats());
  }
}

StandbyDb::~StandbyDb() { Stop(); }

void StandbyDb::BuildPipeline() {
  const size_t mira = static_cast<size_t>(
      options_.mira_apply_instances < 1 ? 1 : options_.mira_apply_instances);
  const size_t workers = static_cast<size_t>(options_.apply.num_workers) * mira;

  FlushDriver* driver = nullptr;
  ApplyHooks* hooks = nullptr;
  FlushParticipant* participant = nullptr;
  if (options_.standby_imadg_enabled) {
    journal_ = std::make_unique<ImAdgJournal>(options_.journal_buckets, workers);
    commit_table_ = std::make_unique<ImAdgCommitTable>(options_.commit_table_partitions);
    ddl_table_ = std::make_unique<DdlInfoTable>();
    applier_ = std::make_unique<StandbyApplier>(this);

    // RAC: remote endpoints + the interconnect channel (master → remotes).
    std::vector<RemoteInstance*> remotes;
    for (uint32_t i = 1; i < options_.standby_instances; ++i) {
      instances_[i].remote = std::make_unique<RemoteInstance>(
          i, instances_[i].store.get(), &txn_table_);
      remotes.push_back(instances_[i].remote.get());
    }
    if (!remotes.empty()) {
      TransportOptions transport = options_.transport;
      if (transport.channel.registry == nullptr) {
        transport.channel.registry = registry_;
      }
      channel_ = std::make_unique<InvalidationChannel>(std::move(remotes),
                                                       transport);
      channel_->Start();
    }

    flush_ = std::make_unique<InvalidationFlushComponent>(
        journal_.get(), commit_table_.get(), ddl_table_.get(), applier_.get(),
        options_.flush);
    mining_ = std::make_unique<MiningComponent>(
        journal_.get(), commit_table_.get(), ddl_table_.get(),
        [this](ObjectId oid, TenantId) {
          return ImOnStandby(catalog_.CurrentImService(oid));
        });
    flush_->set_chaos(options_.chaos);
    mining_->set_chaos(options_.chaos);
    driver = flush_.get();
    hooks = mining_.get();
    participant = flush_.get();
  }

  std::vector<ReceivedLog*> stream_ptrs;
  for (const auto& s : streams_) stream_ptrs.push_back(s.get());
  if (mira <= 1) {
    // SIRA: one apply engine, its own recovery coordinator.
    RedoApplyOptions apply_opts = options_.apply;
    apply_opts.chaos = options_.chaos;
    engine_ = std::make_unique<RedoApplyEngine>(
        std::make_unique<LogMerger>(std::move(stream_ptrs)), this, hooks,
        participant, driver, apply_opts);
  } else {
    // MIRA (Section V): split the merged stream by DBA across `mira` apply
    // engines; one *global* recovery coordinator folds every instance's
    // worker watermarks into a single QuerySCN, and the shared Mining /
    // Flush components see globally unique worker ids via offset hooks.
    mira_streams_.clear();
    std::vector<ReceivedLog*> split_ptrs;
    for (size_t i = 0; i < mira; ++i) {
      mira_streams_.push_back(std::make_unique<ReceivedLog>());
      split_ptrs.push_back(mira_streams_.back().get());
    }
    splitter_ = std::make_unique<RedoSplitter>(
        std::make_unique<LogMerger>(std::move(stream_ptrs)), split_ptrs);

    RedoApplyOptions per_instance = options_.apply;
    per_instance.create_coordinator = false;
    per_instance.chaos = options_.chaos;
    std::vector<RecoveryWorker*> all_workers;
    for (size_t i = 0; i < mira; ++i) {
      ApplyHooks* instance_hooks = nullptr;
      if (hooks != nullptr) {
        mira_hooks_.push_back(std::make_unique<OffsetApplyHooks>(
            hooks, static_cast<WorkerId>(i * options_.apply.num_workers)));
        instance_hooks = mira_hooks_.back().get();
      }
      mira_engines_.push_back(std::make_unique<RedoApplyEngine>(
          std::make_unique<LogMerger>(std::vector<ReceivedLog*>{split_ptrs[i]}),
          this, instance_hooks, participant, nullptr, per_instance));
      for (const auto& w : mira_engines_.back()->workers())
        all_workers.push_back(w.get());
    }
    mira_coordinator_ = std::make_unique<RecoveryCoordinator>(
        std::move(all_workers), driver);
    mira_coordinator_->set_chaos(options_.chaos);
  }
  // Every publish stores the one QuerySCN (queries, the router and the lag
  // monitor all read it) before the coordinator's own copy. It outlives the
  // pipeline, so no reader dereferences a coordinator mid-teardown.
  if (coordinator() != nullptr) {
    coordinator()->set_publish_listener([this](Scn scn) {
      last_query_scn_.store(scn, std::memory_order_release);
    });
  }
  if (engine_ != nullptr) engine_->Start();
  for (auto& e : mira_engines_) e->Start();
  if (mira_coordinator_ != nullptr) mira_coordinator_->Start();
  if (splitter_ != nullptr) splitter_->Start();

  if (options_.standby_imadg_enabled) {
    // Population per instance: the master captures snapshots under the
    // Quiesce lock; remote instances capture through their endpoint.
    instances_[kMasterInstance].snapshot_source =
        std::make_unique<StandbySnapshotSource>(coordinator(), &txn_table_);
    StartPopulation(
        [this](InstanceId i) -> SnapshotSource* {
          if (i == kMasterInstance) return instances_[i].snapshot_source.get();
          return instances_[i].remote.get();
        },
        options_.chaos);
  }

  // Registered last: everything the callback reads now exists, and
  // TearDownPipeline detaches it (under the registry's callback mutex) before
  // freeing any of it.
  pipeline_metrics_cb_.Attach(registry_, [this](obs::MetricsSink* sink) {
    ExportPipelineMetrics(sink);
  });
}

void StandbyDb::StartPopulation(
    const std::function<SnapshotSource*(InstanceId)>& source,
    chaos::ChaosController* chaos) {
  PopulationOptions pop = options_.population;
  pop.expressions = &im_exprs_;
  pop.chaos = chaos;
  if (options_.standby_instances > 1) {
    pop.home_fn = [this](ObjectId oid, uint64_t ordinal) {
      return home_map_.HomeOf(oid, ordinal);
    };
  }
  for (uint32_t i = 0; i < instances_.size(); ++i) {
    instances_[i].populator = std::make_unique<Populator>(
        instances_[i].store.get(), source(i), &blocks_, pop);
  }
  const std::vector<Populator*> populators = Populators();
  for (ObjectId oid : catalog_.AllObjects()) {
    Table* t = ImCoveredTable(oid);
    if (t == nullptr) continue;
    for (Populator* populator : populators) populator->EnableObject(t);
  }
  for (Populator* populator : populators) {
    // Snapshot-resume restart: SMUs reloaded from the IMCS snapshot (disk
    // recovery ran before this pipeline was built) count as coverage, so
    // the populators extend from the snapshot instead of rebuilding every
    // IMCU from scratch. A no-op on an empty store.
    populator->SeedCoverageFromStore();
    populator->Start();
  }
}

std::vector<Populator*> StandbyDb::Populators() {
  std::vector<Populator*> out;
  for (auto& inst : instances_) {
    if (inst.populator != nullptr) out.push_back(inst.populator.get());
  }
  return out;
}

void StandbyDb::TearDownPipeline(bool crash) {
  // A clean stop finishes an in-flight QuerySCN advance and its workers drain
  // their queues with mining; a crash stop abandons the advance and drains
  // the queues unmined (the crashed threads' state is not trusted).
  const auto stop = [crash](auto* part) {
    if (crash) {
      part->CrashStop();
    } else {
      part->Stop();
    }
  };
  pipeline_metrics_cb_.Reset();
  for (auto& inst : instances_) {
    if (inst.populator != nullptr) inst.populator->Stop();
  }
  if (splitter_ != nullptr) splitter_->Stop();
  if (engine_ != nullptr) {
    stop(engine_.get());
    last_applied_scn_.store(engine_->dispatched_scn(), std::memory_order_release);
  }
  for (auto& e : mira_engines_) stop(e.get());
  if (!mira_engines_.empty()) {
    Scn applied = kInvalidScn;
    for (auto& e : mira_engines_) applied = std::max(applied, e->dispatched_scn());
    last_applied_scn_.store(applied, std::memory_order_release);
  }
  if (mira_coordinator_ != nullptr) stop(mira_coordinator_.get());
  if (channel_ != nullptr) channel_->Stop();
  // Destroy in reverse dependency order.
  for (auto& inst : instances_) {
    inst.populator.reset();
    inst.snapshot_source.reset();
  }
  mira_coordinator_.reset();
  mira_engines_.clear();
  mira_hooks_.clear();
  splitter_.reset();
  mira_streams_.clear();
  engine_.reset();
  channel_.reset();
  for (auto& inst : instances_) inst.remote.reset();
  mining_.reset();
  flush_.reset();
  applier_.reset();
  ddl_table_.reset();
  commit_table_.reset();
  journal_.reset();
}

void StandbyDb::Start() {
  if (started_) return;
  // First boot with persistence configured: open the data directory and run
  // recovery BEFORE the pipeline exists, so redo apply and population start
  // against the recovered state. A failed boot latches the error and falls
  // back to the all-RAM behavior.
  if (options_.persist.enabled && persist_ == nullptr) {
    const Status st = OpenAndRecover();
    if (!st.ok()) NotePersistError(st);
  }
  started_ = true;
  BuildPipeline();
  if (persist_ != nullptr)
    persist_->StartCheckpointThread([this] { (void)TakeCheckpoint(); });
}

void StandbyDb::Shutdown(bool crash) {
  if (persist_ != nullptr) {
    persist_->StopCheckpointThread();
    // A clean stop leaves durable == delivered in every sync mode, so a new
    // instance over this directory never depends on redelivery. A crash
    // leaves whatever tail the sync mode had not yet forced.
    if (!crash) {
      const Status st = persist_->SyncAll();
      if (!st.ok()) NotePersistError(st);
    }
  }
  if (started_) {
    started_ = false;
    TearDownPipeline(crash);
  }
}

void StandbyDb::Stop() {
  Shutdown(/*crash=*/false);
  if (promoted()) {
    for (Populator* populator : Populators()) populator->Stop();
  }
}

Status StandbyDb::Restart(RestartMode mode) {
  if (promoted())
    return Status::FailedPrecondition("promoted standby no longer applies redo");
  if (mode.from_disk && !options_.persist.enabled)
    return Status::FailedPrecondition("persistence not enabled");
  Shutdown(mode.crash);
  // The IMCS and all DBIM-on-ADG state are non-persistent (Section III.E):
  // an instance restart loses them, along with any partial transactions'
  // mined records; redo apply resumes from the surviving ReceivedLogs and
  // re-mines.
  for (auto& inst : instances_) inst.store->Clear();
  last_query_scn_.store(kInvalidScn, std::memory_order_release);
  if (mode.from_disk) {
    // Simulated process death: EVERYTHING volatile goes — row store, txn
    // table, table segments and identity indexes, apply accounting. Only the
    // catalog stays warm (table creation is a bootstrap call, not redo; the
    // checkpoint's dictionary restores cold starts). The archive tees hold
    // the controller about to be swapped; delivery is quiescent
    // (precondition), so removing them cannot race the archive hot path.
    for (auto& s : streams_) s->SetDurableSink(nullptr);
    blocks_.Reset();
    txn_table_.Reset();
    ForEachTable([](ObjectId, Table* table) { table->ResetSegment(); });
    {
      std::lock_guard<std::mutex> g(accounting_mu_);
      apply_accounting_.clear();
    }
    last_applied_scn_.store(kInvalidScn, std::memory_order_release);
    applied_high_scn_.store(kInvalidScn, std::memory_order_release);
    disk_recovered_scn_.store(kInvalidScn, std::memory_order_release);
    STRATUS_RETURN_IF_ERROR(OpenAndRecover());
  }
  ResetHealthForRestart();
  restarts_.fetch_add(1, std::memory_order_relaxed);
  if (mode.crash) crash_restarts_.fetch_add(1, std::memory_order_relaxed);
  if (mode.from_disk) disk_restarts_.fetch_add(1, std::memory_order_relaxed);
  Start();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// StandbyDb durability (persist/ subsystem)
// ---------------------------------------------------------------------------

void StandbyDb::NotePersistError(const Status& st) {
  std::lock_guard<std::mutex> g(persist_mu_);
  if (persist_status_.ok()) persist_status_ = st;
}

Status StandbyDb::persist_status() const {
  std::lock_guard<std::mutex> g(persist_mu_);
  return persist_status_;
}

persist::RecoveryResult StandbyDb::last_recovery() const {
  std::lock_guard<std::mutex> g(persist_mu_);
  return last_recovery_;
}

Scn StandbyDb::DurableScn(size_t stream) const {
  std::lock_guard<std::mutex> g(persist_mu_);
  return persist_ != nullptr ? persist_->DurableScn(stream) : kInvalidScn;
}

persist::PersistStats StandbyDb::PersistStatsSnapshot() const {
  std::lock_guard<std::mutex> g(persist_mu_);
  return persist_ != nullptr ? persist_->Stats() : persist::PersistStats{};
}

void StandbyDb::InstallDurableSinks() {
  // The tee runs under each stream's delivery lock — archive-first: a batch
  // reaches the archive's buffer (and, in kEveryBatch mode, the disk) before
  // the merger can dispatch it. Capturing the raw controller keeps the hot
  // path lock-free; the sink is removed before the controller is ever
  // swapped (a from-disk Restart), under delivery quiescence.
  persist::PersistController* p = persist_.get();
  for (size_t k = 0; k < streams_.size(); ++k) {
    streams_[k]->SetDurableSink(
        [this, p, k](const std::vector<RedoRecord>& records) {
          Status st = p->ArchiveBatch(k, records);
          if (!st.ok()) NotePersistError(st);
        });
  }
}

Status StandbyDb::OpenAndRecover() {
  // Open the directory exactly as a fresh process would: segment rescan, CRC
  // verification, torn-tail truncation — an honest cold boot, not a
  // warm-state shortcut.
  auto controller = std::make_unique<persist::PersistController>(
      options_.persist, streams_.size());
  Status st = controller->Open();
  if (st.ok()) {
    {
      std::lock_guard<std::mutex> g(persist_mu_);
      persist_ = std::move(controller);
    }
    st = RecoverFromDisk();
  }
  if (!st.ok()) {
    std::lock_guard<std::mutex> g(persist_mu_);
    persist_.reset();
    return st;
  }
  // Anything recovery replayed from the archive must not be re-applied by
  // the pipeline: rewind each stream to its durable watermark so an
  // attaching shipper's redelivery dedups against exactly that point.
  for (size_t k = 0; k < streams_.size(); ++k)
    streams_[k]->ResetToWatermark(persist_->DurableScn(k));
  InstallDurableSinks();
  return Status::OK();
}

Status StandbyDb::RecoverFromDisk() {
  std::unique_ptr<persist::CheckpointImage> ckpt;
  std::unique_ptr<persist::ImcsSnapshotImage> snap;
  STRATUS_RETURN_IF_ERROR(persist_->LoadLatest(&ckpt, &snap));
  std::vector<std::vector<RedoRecord>> records;
  STRATUS_RETURN_IF_ERROR(persist_->ReadArchives(&records));

  persist::RecoveryHooks hooks;
  hooks.restore_table = [this](const persist::TableImage& img) {
    // Cold start: the dictionary is rebuilt from the checkpoint at SCN 0
    // (schema history below the checkpoint is not retained — flashback
    // reads below the recovery floor are out of scope for a restart). A warm
    // restart already has the table (AlreadyExists).
    (void)CreateTable(img.name, img.tenant, Schema(img.columns),
                      static_cast<ImService>(img.im_service),
                      img.identity_index, img.object_id);
    // The recorded list preserves scan order; NoteBlock discovery would not.
    Table* t = table(img.object_id);
    if (t != nullptr) t->RestoreBlocks(img.blocks);
  };
  hooks.restore_block = [this](const persist::BlockImage& img) {
    Table* t = table(img.object_id);
    // A block the capture reached after the table's block list (an insert
    // racing the fuzzy checkpoint) joins the segment here: replay skips
    // that insert, its effect being in the image already.
    if (t != nullptr) t->NoteBlock(img.dba);
    auto* index = t != nullptr ? t->index() : nullptr;
    for (size_t slot = 0; slot < img.chains.size(); ++slot) {
      const SlotChainImage& chain = img.chains[slot];
      if (chain.empty()) continue;
      if (options_.apply_accounting) {
        // Every surviving version was one successful apply; reconstructing
        // the counters from chain length keeps the exactly-once audit exact
        // across a disk restart.
        std::lock_guard<std::mutex> g(accounting_mu_);
        apply_accounting_[AccountingKey(img.dba, static_cast<SlotId>(slot))] =
            chain.size();
      }
      if (index != nullptr) {
        const RowVersionImage& oldest = chain.front();
        if (!oldest.data.empty() && oldest.data[0].type() == ValueType::kInt) {
          index->Insert(oldest.data[0].as_int(),
                        RowId{img.dba, static_cast<SlotId>(slot)});
        }
      }
    }
  };
  hooks.note_applied = [this](const ChangeVector& cv) { NoteApplied(cv); };
  hooks.apply_ddl = [this](const DdlMarker& marker, Scn scn) {
    (void)ApplyDictionaryDdl(marker, scn);
  };

  persist::RecoveryManager manager(&blocks_, &txn_table_,
                                   instances_[kMasterInstance].store.get(),
                                   std::move(hooks));
  auto result = manager.Recover(
      ckpt.get(), snap.get(), std::move(records),
      [this](ObjectId oid, Schema* out) {
        if (!ImOnStandby(catalog_.CurrentImService(oid))) return false;
        StatusOr<Schema> schema = catalog_.CurrentSchema(oid);
        if (!schema.ok()) return false;
        *out = std::move(*schema);
        return true;
      });
  if (!result.ok()) return result.status();

  persist_->NoteRecovery(*result);
  {
    std::lock_guard<std::mutex> g(persist_mu_);
    last_recovery_ = *result;
  }
  const Scn recovered = (*result).recovered_scn;
  disk_recovered_scn_.store(recovered, std::memory_order_release);
  if (recovered != kInvalidScn) {
    // Recovery certified the physical database complete through `recovered`:
    // seed the monotonic marks so lag monitoring and the next checkpoint's
    // recovery SCN never regress below it.
    applied_high_scn_.store(
        std::max(applied_high_scn_.load(std::memory_order_relaxed), recovered),
        std::memory_order_release);
    last_applied_scn_.store(
        std::max(last_applied_scn_.load(std::memory_order_relaxed), recovered),
        std::memory_order_release);
  }
  return Status::OK();
}

Status StandbyDb::TakeCheckpoint() {
  persist::PersistController* p;
  {
    std::lock_guard<std::mutex> g(persist_mu_);
    p = persist_.get();
  }
  if (p == nullptr)
    return Status::FailedPrecondition("persistence not enabled");

  persist::CheckpointImage img;
  // Recovery-start SCN = published QuerySCN at capture BEGIN: the QuerySCN
  // protocol guarantees every CV at or below it was applied before any block
  // is captured below, so replay from here is complete. Right after a
  // restart the pipeline may not have published yet — the recovered SCN is
  // an equally valid floor (recovery certified completeness through it).
  img.recovery_scn = std::max(published_query_scn(),
                              disk_recovered_scn_.load(std::memory_order_acquire));
  ForEachTable([&](ObjectId oid, Table* table) {
    persist::TableImage t;
    t.object_id = oid;
    t.tenant = catalog_.TenantOf(oid);
    StatusOr<std::string> name = catalog_.NameOf(oid);
    if (name.ok()) t.name = std::move(*name);
    StatusOr<Schema> schema = catalog_.CurrentSchema(oid);
    if (schema.ok()) t.columns = schema->columns();
    t.im_service = static_cast<uint8_t>(catalog_.CurrentImService(oid));
    t.identity_index = catalog_.HasIdentityIndex(oid);
    t.blocks = table->SnapshotBlocks();
    img.tables.push_back(std::move(t));
  });
  // Fuzzy: each block captured under its own latch, apply running throughout;
  // images come back frontier-ascending (oldest dirt first, ARIES-style).
  persist::CaptureBlockImages(blocks_, &img.blocks);
  img.txns = txn_table_.Snapshot();
  img.end_scn = std::max(published_query_scn(), img.recovery_scn);
  STRATUS_RETURN_IF_ERROR(p->WriteCheckpoint(&img));

  if (options_.persist.snapshot_imcs && options_.standby_imadg_enabled) {
    persist::ImcsSnapshotImage snap;
    persist::CaptureImcsSnapshot(*instances_[kMasterInstance].store, &snap);
    if (!snap.smus.empty())
      STRATUS_RETURN_IF_ERROR(p->WriteImcsSnapshot(&snap));
  }
  return Status::OK();
}

void StandbyDb::ResetHealthForRestart() {
  // The quarantined IMCS was just discarded wholesale; the rebuilt one is
  // populated from consistent data, so degraded health does not carry over.
  // The error/quarantine counters stay monotonic for metrics continuity.
  degraded_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> g(health_mu_);
  first_apply_error_.clear();
}

Status StandbyDb::ApplyCv(const ChangeVector& cv) {
  // Monotonic CV-level apply mark (lag monitoring). CAS max: workers apply
  // out of SCN order across blocks.
  Scn prev = applied_high_scn_.load(std::memory_order_relaxed);
  while (cv.scn > prev && !applied_high_scn_.compare_exchange_weak(
                              prev, cv.scn, std::memory_order_release,
                              std::memory_order_relaxed)) {
  }
  switch (cv.kind) {
    case CvKind::kInsert:
    case CvKind::kUpdate:
    case CvKind::kDelete: {
      Block* b = blocks_.EnsureBlock(cv.dba, cv.object_id, cv.tenant);
      if (b == nullptr)
        return FinishDataApply(cv, Status::Internal("txn-table dba in data CV"));
      if (cv.kind == CvKind::kInsert)
        return FinishDataApply(cv, b->ApplyInsert(cv.slot, cv.xid, cv.after, cv.scn));
      if (cv.kind == CvKind::kUpdate)
        return FinishDataApply(cv, b->ApplyUpdate(cv.slot, cv.xid, cv.after, cv.scn));
      return FinishDataApply(cv, b->ApplyDelete(cv.slot, cv.xid, cv.scn));
    }
    case CvKind::kTxnBegin:
      txn_table_.Begin(cv.xid);
      return Status::OK();
    case CvKind::kTxnCommit:
      txn_table_.Commit(cv.xid, cv.scn);
      return Status::OK();
    case CvKind::kTxnAbort:
      txn_table_.Abort(cv.xid);
      return Status::OK();
    case CvKind::kDdlMarker:
      // The dictionary change is SCN-effective immediately (queries at older
      // QuerySCNs resolve old versions); IMCU drops wait for the QuerySCN
      // advancement that covers the marker (Section III.G).
      (void)ApplyDictionaryDdl(cv.ddl, cv.scn);
      return Status::OK();
    case CvKind::kHeartbeat:
      return Status::OK();
  }
  return Status::Internal("unknown change vector kind");
}

void StandbyDb::NoteApplied(const ChangeVector& cv) {
  if (cv.kind == CvKind::kInsert) {
    Table* t = table(cv.object_id);
    if (t != nullptr) {
      t->NoteBlock(cv.dba);
      if (t->index() != nullptr && !cv.after.empty() &&
          cv.after[0].type() == ValueType::kInt) {
        t->index()->Insert(cv.after[0].as_int(), RowId{cv.dba, cv.slot});
      }
    }
  }
  if (options_.apply_accounting) {
    // Counts every successful physical apply and survives restarts, so the
    // chaos auditor can compare against the shipped-DML ledger for
    // exactly-once.
    std::lock_guard<std::mutex> g(accounting_mu_);
    ++apply_accounting_[AccountingKey(cv.dba, cv.slot)];
  }
}

Status StandbyDb::FinishDataApply(const ChangeVector& cv, Status st) {
  if (st.ok()) NoteApplied(cv);
  if (st.ok() && options_.chaos != nullptr && options_.chaos->ShouldFailApply()) {
    st = Status::Internal("chaos: injected apply error");
  }
  if (!st.ok()) QuarantineAfterApplyError(cv, st);
  return st;
}

void StandbyDb::QuarantineAfterApplyError(const ChangeVector& cv,
                                          const Status& st) {
  // A failed apply means the row store and the IMCS can disagree for this
  // block from now on — and IMCS scans trust SMU validity bitmaps, not the
  // blocks. Dropping the covering IMCUs to full invalidity forces every
  // covered row down the row-store path (correct even with the failed CV:
  // the block simply misses that change on both paths), and the latched
  // error surfaces through health() instead of vanishing into a counter.
  apply_error_count_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(health_mu_);
    if (first_apply_error_.empty()) {
      first_apply_error_ = st.ToString();
      if (first_apply_error_.empty()) first_apply_error_ = "unknown apply error";
    }
  }
  degraded_.store(true, std::memory_order_release);
  for (auto& inst : instances_) {
    for (const auto& smu : inst.store->FindSmus(cv.dba)) {
      if (!smu->AllInvalid()) {
        smu->MarkAllInvalid();
        quarantined_imcus_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

StandbyHealth StandbyDb::health() const {
  StandbyHealth h;
  h.degraded = degraded_.load(std::memory_order_acquire);
  h.apply_errors = apply_error_count_.load(std::memory_order_relaxed);
  h.quarantined_imcus = quarantined_imcus_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(health_mu_);
  h.first_error = first_apply_error_;
  return h;
}

std::unordered_map<uint64_t, uint64_t> StandbyDb::ApplyAccountingSnapshot() const {
  std::lock_guard<std::mutex> g(accounting_mu_);
  return apply_accounting_;
}

Scn StandbyDb::query_scn(InstanceId instance) const {
  if (promoted()) return txn_manager()->visible_scn();
  if (instance != kMasterInstance && instance < instances_.size() &&
      instances_[instance].remote != nullptr) {
    return instances_[instance].remote->query_scn();
  }
  return last_query_scn_.load(std::memory_order_acquire);
}

Scn StandbyDb::WaitForQueryScn(Scn target, int64_t timeout_us) const {
  // The coordinator stores its copy after last_query_scn_, so once the wait
  // sees `target` so does query_scn().
  RecoveryCoordinator* coordinator =
      const_cast<StandbyDb*>(this)->StandbyDb::coordinator();
  if (coordinator != nullptr) coordinator->WaitForQueryScn(target, timeout_us);
  return query_scn();
}

StatusOr<Scn> StandbyDb::ReadScn(InstanceId instance) const {
  const Scn scn = query_scn(instance);
  if (scn == kInvalidScn) return Status::Unavailable("no QuerySCN published yet");
  return scn;
}

void StandbyDb::AddQueryContext(QueryContext* ctx) const {
  for (const auto& inst : instances_) ctx->stores.push_back(inst.store.get());
  ctx->annotate = [this](QueryProfile* prof) {
    // IM-ADG occupancy at execution: how much journal/commit-table state the
    // query's visibility checks had to navigate.
    if (journal_ != nullptr && commit_table_ != nullptr) {
      prof->journal_live_anchors = journal_->live_anchors();
      prof->commit_table_live_nodes = commit_table_->live_nodes();
      prof->imadg_sampled = true;
    }
    // Freshness: the cluster wires its LagMonitor in via SetLagProbe; a
    // standalone standby has no primary mark, so lag_sampled stays false.
    std::lock_guard<std::mutex> g(lag_probe_mu_);
    if (lag_probe_) {
      const obs::LagSnapshot lag = lag_probe_();
      if (lag.primary_known) {
        prof->primary_scn = lag.primary_scn;
        prof->staleness_scn = lag.primary_scn > prof->snapshot
                                  ? lag.primary_scn - prof->snapshot
                                  : 0;
        prof->staleness_us = lag.staleness_us;
        prof->lag_sampled = true;
      }
    }
  };
}

void StandbyDb::SetLagProbe(std::function<obs::LagSnapshot()> probe) {
  std::lock_guard<std::mutex> g(lag_probe_mu_);
  lag_probe_ = std::move(probe);
}

Status StandbyDb::Promote() {
  if (promoted()) return Status::FailedPrecondition("already promoted");
  // Terminal recovery: stop apply at the last consistent point. Everything
  // dispatched has been applied (workers drain on stop); shipped-but-
  // undispatched redo is abandoned, as in a failover.
  Stop();

  // The primary's write side over the physical database; SCN and XID
  // allocation resume above everything applied. The instances' column stores
  // carry over; their maintenance switches from redo mining to commit-time
  // invalidation (the DBIM Transaction Manager role).
  const Scn last_applied = std::max(last_applied_scn_.load(std::memory_order_acquire),
                                    last_query_scn_.load(std::memory_order_acquire));
  std::vector<ImStore*> stores;
  for (auto& inst : instances_) stores.push_back(inst.store.get());
  InstallWriteSide(/*redo_threads=*/1, last_applied, std::move(stores));

  // Population resumes against the write side's snapshot source. Coverage
  // bookkeeping restarts, so drop the retained SMUs to keep it truthful and
  // let population rebuild them.
  for (auto& inst : instances_) inst.store->Clear();
  StartPopulation([this](InstanceId) { return write_snapshot_source(); },
                  /*chaos=*/nullptr);
  return Status::OK();
}

// --- StandbyApplier ---------------------------------------------------------

void StandbyDb::StandbyApplier::ApplyGroups(std::vector<InvalidationGroup> groups) {
  // Local (master-homed) SMUs first; rows for remote chunks are no-ops here.
  for (const InvalidationGroup& g : groups) {
    for (const auto& [dba, slot] : g.rows) {
      db_->instances_[kMasterInstance].store->MarkRowInvalid(dba, slot);
    }
  }
  // Transmit to non-master instances (batched, pipelined — Section III.F).
  if (db_->channel_ != nullptr) db_->channel_->SendGroups(std::move(groups));
}

void StandbyDb::StandbyApplier::ApplyCoarseInvalidation(TenantId tenant) {
  db_->instances_[kMasterInstance].store->CoarseInvalidateTenant(tenant);
  if (db_->channel_ != nullptr) db_->channel_->SendCoarse(tenant);
}

void StandbyDb::StandbyApplier::ApplyDdl(const DdlMarker& marker) {
  // Inside the Quiesce Period: make the IMCUs disappear now (store-level
  // drop only — no populator locks, see the lock-order note in DESIGN.md)…
  switch (marker.op) {
    case DdlOp::kDropTable:
    case DdlOp::kDropColumn:
    case DdlOp::kNoInMemory:
    case DdlOp::kAlterInMemory:
      for (auto& inst : db_->instances_) inst.store->DropObject(marker.object_id);
      break;
    case DdlOp::kNone:
      return;
  }
  // …and defer populator bookkeeping to OnPublished (outside the quiesce).
  std::lock_guard<std::mutex> g(ddl_mu_);
  pending_ddl_.push_back(marker);
}

bool StandbyDb::StandbyApplier::Drained() const {
  return db_->channel_ == nullptr || db_->channel_->Drained();
}

void StandbyDb::StandbyApplier::OnPublished(Scn query_scn) {
  if (db_->channel_ != nullptr) db_->channel_->SendPublish(query_scn);

  std::vector<DdlMarker> pending;
  {
    std::lock_guard<std::mutex> g(ddl_mu_);
    pending.swap(pending_ddl_);
  }
  for (const DdlMarker& marker : pending) db_->RefreshImObject(marker.object_id);
}

// ---------------------------------------------------------------------------
// AdgCluster
// ---------------------------------------------------------------------------

AdgCluster::AdgCluster(const DatabaseOptions& options)
    : primary_(options),
      standby_(options, static_cast<size_t>(options.primary_redo_threads)) {}

AdgCluster::~AdgCluster() { Stop(); }

void AdgCluster::Start() {
  if (started_) return;
  started_ = true;
  primary_.Start();
  standby_.Start();
  link_.Start();
  shipper_metrics_cb_.Attach(registry(), [this](obs::MetricsSink* sink) {
    StandbyLink::ExportTransportMetrics({&link_}, sink);
  });
}

void AdgCluster::Stop() {
  if (!started_) return;
  started_ = false;
  // The metrics callback detaches first so no scrape touches a dying channel.
  shipper_metrics_cb_.Reset();
  link_.Stop();
  standby_.Stop();
  primary_.Stop();
}

std::string AdgCluster::MetricsText() const { return registry()->ExportText(); }

std::string AdgCluster::MetricsJson() const { return registry()->ExportJson(); }

StatusOr<ObjectId> AdgCluster::CreateTable(const std::string& name, TenantId tenant,
                                           Schema schema, ImService service,
                                           bool identity_index) {
  StatusOr<ObjectId> oid =
      primary_.CreateTable(name, tenant, schema, service, identity_index);
  if (!oid.ok()) return oid;
  STRATUS_RETURN_IF_ERROR(standby_
                              .CreateTable(name, tenant, std::move(schema),
                                           service, identity_index, *oid)
                              .status());
  return oid;
}

StatusOr<uint32_t> AdgCluster::RegisterImExpression(ObjectId object,
                                                    const Expression& expr) {
  StatusOr<uint32_t> idx = primary_.RegisterImExpression(object, expr);
  if (!idx.ok()) return idx;
  STRATUS_RETURN_IF_ERROR(standby_.RegisterImExpression(object, expr).status());
  return idx;
}

Scn AdgCluster::WaitForCatchup(int64_t timeout_us) {
  const Scn target = primary_.current_scn();
  if (target == kInvalidScn) return standby_.query_scn();
  return standby_.WaitForQueryScn(target, timeout_us);
}

}  // namespace stratus
