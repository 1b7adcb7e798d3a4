#include "db/database.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace stratus {

namespace {

/// Shared scan-totals export (primary and standby run the same engine).
void ExportScanTotals(obs::MetricsSink* sink, const obs::Labels& labels,
                      const ScanTotals& t) {
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

void ExportBufferCache(obs::MetricsSink* sink, const obs::Labels& labels,
                       const BufferCacheStats& s) {
  sink->Counter("stratus_buffer_cache_logical_gets", labels, s.logical_gets);
  sink->Counter("stratus_buffer_cache_misses", labels, s.misses);
}

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

}  // namespace

// ---------------------------------------------------------------------------
// PrimaryDb
// ---------------------------------------------------------------------------

namespace {

std::vector<RedoLog*> MakeLogPtrs(
    const std::vector<std::unique_ptr<RedoLog>>& logs) {
  std::vector<RedoLog*> out;
  for (const auto& l : logs) out.push_back(l.get());
  return out;
}

std::vector<std::unique_ptr<RedoLog>> MakeLogs(int threads, ScnAllocator* scns) {
  std::vector<std::unique_ptr<RedoLog>> logs;
  for (int i = 0; i < threads; ++i)
    logs.push_back(std::make_unique<RedoLog>(static_cast<RedoThreadId>(i), scns));
  return logs;
}

}  // namespace

PrimaryDb::PrimaryDb(const DatabaseOptions& options)
    : options_(options),
      redo_logs_(MakeLogs(options.primary_redo_threads, &scns_)),
      txn_mgr_(&scns_, &txn_table_, &blocks_, MakeLogPtrs(redo_logs_),
               /*im_object_checker=*/
               [this](ObjectId oid) {
                 return ImOnStandby(catalog_.CurrentImService(oid));
               }),
      slow_log_(options.slow_query_log_capacity, options.slow_query_threshold_us) {
  txn_mgr_.set_specialized_redo(options_.specialized_redo);
  if (options_.primary_imcs_enabled) {
    im_store_ = std::make_unique<ImStore>(kMasterInstance, options_.im_pool_bytes);
    snapshot_source_ = std::make_unique<PrimarySnapshotSource>(&txn_mgr_, &im_sync_);
    PopulationOptions pop = options_.population;
    pop.home_fn = nullptr;  // The primary IMCS is not distributed here.
    pop.expressions = &im_exprs_;
    pop.chaos = nullptr;  // Crash injection targets the standby only.
    populator_ = std::make_unique<Populator>(im_store_.get(), snapshot_source_.get(),
                                             &blocks_, pop);
    commit_hooks_ = std::make_unique<PrimaryCommitHooks>(&im_sync_, im_store_.get());
    txn_mgr_.SetPrimaryImIntegration(
        [this](ObjectId oid) {
          return ImOnPrimary(catalog_.CurrentImService(oid));
        },
        commit_hooks_.get());
  }
  registry_ = options_.registry != nullptr ? options_.registry
                                           : &obs::MetricsRegistry::Global();
  obs::ExportBuildInfo(registry_);
  metrics_cb_.Attach(registry_,
                     [this](obs::MetricsSink* sink) { ExportMetrics(sink); });
}

void PrimaryDb::ExportMetrics(obs::MetricsSink* sink) const {
  const obs::Labels labels{{"role", "primary"}};
  ExportBufferCache(sink, labels, cache_.stats());
  sink->Counter("stratus_txn_commits", labels, txn_mgr_.commits());
  sink->Counter("stratus_txn_aborts", labels, txn_mgr_.aborts());
  sink->Gauge("stratus_visible_scn", labels,
              static_cast<double>(txn_mgr_.visible_scn()));
  uint64_t redo_records = 0;
  Scn redo_last = kInvalidScn;
  for (const auto& log : redo_logs_) {
    redo_records += log->TotalRecords();
    redo_last = std::max(redo_last, log->LastScn());
  }
  sink->Counter("stratus_redo_records", labels, redo_records);
  sink->Gauge("stratus_redo_last_scn", labels, static_cast<double>(redo_last));
  if (im_store_ != nullptr) ExportImStore(sink, labels, im_store_->Stats());
  if (populator_ != nullptr) ExportPopulation(sink, labels, populator_->stats());
  ExportScanTotals(sink, labels, query_engine_.totals());
}

std::string PrimaryDb::MetricsText() const { return registry_->ExportText(); }

std::string PrimaryDb::MetricsJson() const { return registry_->ExportJson(); }

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

StatusOr<ObjectId> PrimaryDb::CreateTable(const std::string& name, TenantId tenant,
                                          Schema schema, ImService service,
                                          bool identity_index) {
  StatusOr<ObjectId> oid =
      catalog_.CreateTable(name, tenant, schema, service, identity_index,
                           scns_.Current() + 1);
  if (!oid.ok()) return oid;
  auto table = std::make_unique<Table>(*oid, tenant, name, std::move(schema),
                                       &blocks_);
  if (identity_index) table->CreateIdentityIndex();
  Table* raw = table.get();
  {
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    tables_.emplace(*oid, std::move(table));
  }
  if (populator_ != nullptr && ImOnPrimary(service)) populator_->EnableObject(raw);
  return oid;
}

Table* PrimaryDb::table(ObjectId object) const {
  std::shared_lock<std::shared_mutex> g(tables_mu_);
  auto it = tables_.find(object);
  return it == tables_.end() ? nullptr : it->second.get();
}

Transaction PrimaryDb::Begin(RedoThreadId thread, TenantId tenant) {
  return txn_mgr_.Begin(thread, tenant);
}

Status PrimaryDb::Insert(Transaction* txn, ObjectId object, Row row, RowId* rid) {
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  return txn_mgr_.Insert(txn, t, std::move(row), rid);
}

Status PrimaryDb::Update(Transaction* txn, ObjectId object, RowId rid, Row row) {
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  return txn_mgr_.Update(txn, t, rid, std::move(row));
}

Status PrimaryDb::UpdateByKey(Transaction* txn, ObjectId object, int64_t key,
                              Row row) {
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  if (t->index() == nullptr) return Status::FailedPrecondition("no identity index");
  const std::optional<RowId> rid = t->index()->Lookup(key);
  if (!rid.has_value()) return Status::NotFound("key not indexed");
  return txn_mgr_.Update(txn, t, *rid, std::move(row));
}

Status PrimaryDb::Delete(Transaction* txn, ObjectId object, RowId rid) {
  Table* t = table(object);
  if (t == nullptr) return Status::NotFound("no such table");
  return txn_mgr_.Delete(txn, t, rid);
}

StatusOr<Scn> PrimaryDb::Commit(Transaction* txn) { return txn_mgr_.Commit(txn); }

void PrimaryDb::Abort(Transaction* txn) { txn_mgr_.Abort(txn); }

QueryContext PrimaryDb::MakeQueryContext() {
  QueryContext ctx;
  ctx.catalog = &catalog_;
  ctx.cache = &cache_;
  ctx.resolver = &txn_table_;
  ctx.table_lookup = [this](ObjectId oid) { return table(oid); };
  if (im_store_ != nullptr) ctx.stores.push_back(im_store_.get());
  ctx.snapshots = txn_mgr_.snapshots();
  ctx.expressions = &im_exprs_;
  ctx.default_dop = options_.scan_dop;
  ctx.planner = options_.planner;
  ctx.role = "primary";
  ctx.slow_log = &slow_log_;
  ctx.annotate = [this](QueryProfile* prof) {
    // On the primary the reference mark is its own visible SCN: a flashback
    // query (QueryAt) reads stale by construction, a current-SCN query by 0.
    prof->primary_scn = current_scn();
    prof->staleness_scn = prof->primary_scn > prof->snapshot
                              ? prof->primary_scn - prof->snapshot
                              : 0;
    prof->staleness_us = 0;
    prof->lag_sampled = true;
  };
  return ctx;
}

StatusOr<QueryResult> PrimaryDb::Query(const ScanQuery& query) {
  return query_engine_.ExecuteScan(MakeQueryContext(), query, current_scn());
}

StatusOr<QueryResult> PrimaryDb::QueryAt(const ScanQuery& query, Scn snapshot) {
  return query_engine_.ExecuteScan(MakeQueryContext(), query, snapshot);
}

StatusOr<QueryResult> PrimaryDb::MultiJoin(const MultiJoinQuery& query) {
  return query_engine_.ExecuteMultiJoin(MakeQueryContext(), query, current_scn());
}

StatusOr<QueryResult> PrimaryDb::MultiJoinAt(const MultiJoinQuery& query,
                                             Scn snapshot) {
  return query_engine_.ExecuteMultiJoin(MakeQueryContext(), query, snapshot);
}

StatusOr<std::optional<Row>> PrimaryDb::Fetch(ObjectId object, int64_t key) {
  return query_engine_.IndexFetch(MakeQueryContext(), object, key, current_scn());
}

size_t PrimaryDb::PruneVersions() {
  const Scn watermark = txn_mgr_.GcLowWatermark();
  size_t freed = 0;
  const Dba high = blocks_.HighWater();
  for (Dba dba = kTxnTableDbaCount; dba < high; ++dba) {
    Block* b = blocks_.GetBlock(dba);
    if (b != nullptr) freed += b->Prune(watermark, txn_table_);
  }
  return freed;
}

Status PrimaryDb::PopulateNow(ObjectId object) {
  if (populator_ == nullptr)
    return Status::FailedPrecondition("primary IMCS disabled");
  return populator_->PopulateNow(object);
}

StatusOr<uint32_t> PrimaryDb::RegisterImExpression(ObjectId object, Expression expr) {
  StatusOr<Schema> schema = catalog_.CurrentSchema(object);
  if (!schema.ok()) return schema.status();
  StatusOr<uint32_t> idx = im_exprs_.Register(object, *schema, std::move(expr));
  if (!idx.ok()) return idx;
  // Existing IMCUs lack the virtual column: drop and rebuild (online — scans
  // use the row path for the object until population completes).
  Table* t = table(object);
  if (populator_ != nullptr && t != nullptr &&
      ImOnPrimary(catalog_.CurrentImService(object))) {
    populator_->DisableObject(object);
    populator_->EnableObject(t);
  }
  return idx;
}

// ---------------------------------------------------------------------------
// StandbyDb
// ---------------------------------------------------------------------------

StandbyDb::StandbyDb(const DatabaseOptions& options, size_t num_streams)
    : options_(options),
      home_map_(options.standby_instances),
      slow_log_(options.slow_query_log_capacity, options.slow_query_threshold_us) {
  for (size_t i = 0; i < num_streams; ++i)
    streams_.push_back(std::make_unique<ReceivedLog>());
  instances_.resize(options_.standby_instances);
  for (uint32_t i = 0; i < options_.standby_instances; ++i) {
    instances_[i].store =
        std::make_unique<ImStore>(i, options_.im_pool_bytes);
  }
  registry_ = options_.registry != nullptr ? options_.registry
                                           : &obs::MetricsRegistry::Global();
  obs::ExportBuildInfo(registry_);
  metrics_cb_.Attach(
      registry_, [this](obs::MetricsSink* sink) { ExportCoreMetrics(sink); });
}

void StandbyDb::ExportCoreMetrics(obs::MetricsSink* sink) const {
  obs::Labels labels{{"role", "standby"}};
  if (!options_.standby_name.empty())
    labels.emplace_back("standby", options_.standby_name);
  ExportBufferCache(sink, labels, cache_.stats());
  ExportScanTotals(sink, labels, query_engine_.totals());
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

std::string StandbyDb::MetricsText() const { return registry_->ExportText(); }

std::string StandbyDb::MetricsJson() const { return registry_->ExportJson(); }

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
    if (engine_->coordinator() != nullptr) {
      // Mirror publishes into an atomic that outlives the pipeline, so the
      // lag monitor never dereferences a coordinator mid-teardown.
      engine_->coordinator()->set_publish_listener([this](Scn scn) {
        last_query_scn_.store(scn, std::memory_order_release);
      });
    }
    engine_->Start();
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
    mira_coordinator_->set_publish_listener([this](Scn scn) {
      last_query_scn_.store(scn, std::memory_order_release);
    });
    for (auto& e : mira_engines_) e->Start();
    mira_coordinator_->Start();
    splitter_->Start();
  }

  if (options_.standby_imadg_enabled) {
    // Population per instance: the master captures snapshots under the
    // Quiesce lock; remote instances capture through their endpoint.
    for (uint32_t i = 0; i < options_.standby_instances; ++i) {
      if (i == kMasterInstance) {
        instances_[i].snapshot_source = std::make_unique<StandbySnapshotSource>(
            coordinator(), &txn_table_);
      }
      PopulationOptions pop = options_.population;
      pop.expressions = &im_exprs_;
      pop.chaos = options_.chaos;
      if (options_.standby_instances > 1) {
        pop.home_fn = [this](ObjectId oid, uint64_t ordinal) {
          return home_map_.HomeOf(oid, ordinal);
        };
      }
      SnapshotSource* src = i == kMasterInstance
                                ? instances_[i].snapshot_source.get()
                                : static_cast<SnapshotSource*>(
                                      instances_[i].remote.get());
      instances_[i].populator = std::make_unique<Populator>(
          instances_[i].store.get(), src, &blocks_, pop);
    }
    EnableConfiguredObjects();
    for (auto& inst : instances_) {
      // Snapshot-resume restart: SMUs reloaded from the IMCS snapshot (disk
      // recovery ran before this pipeline was built) count as coverage, so
      // the populators extend from the snapshot instead of rebuilding every
      // IMCU from scratch. A no-op on an empty store.
      if (inst.populator != nullptr) inst.populator->SeedCoverageFromStore();
    }
    for (auto& inst : instances_) {
      if (inst.populator != nullptr) inst.populator->Start();
    }
  }

  // Registered last: everything the callback reads now exists, and
  // TearDownPipeline detaches it (under the registry's callback mutex) before
  // freeing any of it.
  pipeline_metrics_cb_.Attach(registry_, [this](obs::MetricsSink* sink) {
    ExportPipelineMetrics(sink);
  });
}

void StandbyDb::EnableConfiguredObjects() {
  for (ObjectId oid : catalog_.AllObjects()) {
    if (!ImOnStandby(catalog_.CurrentImService(oid))) continue;
    Table* t = FindOrNullTable(oid);
    if (t == nullptr) continue;
    for (auto& inst : instances_) {
      if (inst.populator != nullptr) inst.populator->EnableObject(t);
    }
  }
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
  if (coordinator() != nullptr)
    last_query_scn_.store(coordinator()->query_scn(), std::memory_order_release);
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
  if (promoted_) {
    for (auto& inst : instances_) {
      if (inst.populator != nullptr) inst.populator->Stop();
    }
  }
}

Status StandbyDb::Restart(RestartMode mode) {
  if (promoted_)
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
    {
      std::unique_lock<std::shared_mutex> g(tables_mu_);
      for (auto& [oid, table] : tables_) table->ResetSegment();
    }
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
    Schema schema(img.columns);
    if (!catalog_.Exists(img.object_id)) {
      // Cold start: the dictionary is rebuilt from the checkpoint at SCN 0
      // (schema history below the checkpoint is not retained — flashback
      // reads below the recovery floor are out of scope for a restart).
      (void)catalog_.CreateTableWithId(
          img.object_id, img.name, img.tenant, schema,
          static_cast<ImService>(img.im_service), img.identity_index,
          /*scn=*/0);
    }
    Table* t = FindOrNullTable(img.object_id);
    if (t == nullptr) {
      auto table = std::make_unique<Table>(img.object_id, img.tenant, img.name,
                                           schema, &blocks_);
      if (img.identity_index) table->CreateIdentityIndex();
      t = table.get();
      std::unique_lock<std::shared_mutex> g(tables_mu_);
      tables_.emplace(img.object_id, std::move(table));
    }
    // The recorded list preserves scan order; NoteBlock discovery would not.
    t->RestoreBlocks(img.blocks);
  };
  hooks.restore_block = [this](const persist::BlockImage& img) {
    Table* t = FindOrNullTable(img.object_id);
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
  hooks.note_applied = [this](const ChangeVector& cv) {
    Table* t = FindOrNullTable(cv.object_id);
    if (t != nullptr) {
      t->NoteBlock(cv.dba);
      if (cv.kind == CvKind::kInsert && t->index() != nullptr &&
          !cv.after.empty() && cv.after[0].type() == ValueType::kInt) {
        t->index()->Insert(cv.after[0].as_int(), RowId{cv.dba, cv.slot});
      }
    }
    if (options_.apply_accounting) {
      std::lock_guard<std::mutex> g(accounting_mu_);
      ++apply_accounting_[AccountingKey(cv.dba, cv.slot)];
    }
  };
  hooks.apply_ddl = [this](const DdlMarker& marker, Scn scn) {
    ApplyDdlDictionary(marker, scn);
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
  {
    std::shared_lock<std::shared_mutex> g(tables_mu_);
    img.tables.reserve(tables_.size());
    for (const auto& [oid, table] : tables_) {
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
    }
  }
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

Status StandbyDb::MirrorCreateTable(ObjectId object_id, const std::string& name,
                                    TenantId tenant, Schema schema,
                                    ImService service, bool identity_index) {
  STRATUS_RETURN_IF_ERROR(catalog_.CreateTableWithId(
      object_id, name, tenant, schema, service, identity_index, /*scn=*/0));
  auto table = std::make_unique<Table>(object_id, tenant, name, std::move(schema),
                                       &blocks_);
  if (identity_index) table->CreateIdentityIndex();
  Table* raw = table.get();
  {
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    tables_.emplace(object_id, std::move(table));
  }
  if (started_ && ImOnStandby(service)) {
    for (auto& inst : instances_) {
      if (inst.populator != nullptr) inst.populator->EnableObject(raw);
    }
  }
  return Status::OK();
}

Table* StandbyDb::FindOrNullTable(ObjectId object) const {
  std::shared_lock<std::shared_mutex> g(tables_mu_);
  auto it = tables_.find(object);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* StandbyDb::table(ObjectId object) const { return FindOrNullTable(object); }

void StandbyDb::ApplyDdlDictionary(const DdlMarker& marker, Scn scn) {
  switch (marker.op) {
    case DdlOp::kDropTable:
      (void)catalog_.DropTable(marker.object_id, scn);
      return;
    case DdlOp::kDropColumn: {
      (void)catalog_.DropColumn(marker.object_id, marker.column_idx, scn);
      StatusOr<Schema> schema = catalog_.CurrentSchema(marker.object_id);
      Table* t = FindOrNullTable(marker.object_id);
      if (schema.ok() && t != nullptr) t->UpdateSchema(*schema);
      return;
    }
    case DdlOp::kAlterInMemory:
      (void)catalog_.SetImService(marker.object_id,
                                  static_cast<ImService>(marker.im_service), scn);
      return;
    case DdlOp::kNoInMemory:
      (void)catalog_.SetImService(marker.object_id, ImService::kNone, scn);
      return;
    case DdlOp::kNone:
      return;
  }
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
    case CvKind::kInsert: {
      Block* b = blocks_.EnsureBlock(cv.dba, cv.object_id, cv.tenant);
      if (b == nullptr)
        return FinishDataApply(cv, Status::Internal("txn-table dba in data CV"));
      Status st = b->ApplyInsert(cv.slot, cv.xid, cv.after, cv.scn);
      if (st.ok()) {
        Table* t = FindOrNullTable(cv.object_id);
        if (t != nullptr) {
          t->NoteBlock(cv.dba);
          if (t->index() != nullptr && !cv.after.empty() &&
              cv.after[0].type() == ValueType::kInt) {
            t->index()->Insert(cv.after[0].as_int(), RowId{cv.dba, cv.slot});
          }
        }
      }
      return FinishDataApply(cv, std::move(st));
    }
    case CvKind::kUpdate: {
      Block* b = blocks_.EnsureBlock(cv.dba, cv.object_id, cv.tenant);
      if (b == nullptr)
        return FinishDataApply(cv, Status::Internal("txn-table dba in data CV"));
      return FinishDataApply(cv, b->ApplyUpdate(cv.slot, cv.xid, cv.after, cv.scn));
    }
    case CvKind::kDelete: {
      Block* b = blocks_.EnsureBlock(cv.dba, cv.object_id, cv.tenant);
      if (b == nullptr)
        return FinishDataApply(cv, Status::Internal("txn-table dba in data CV"));
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
      ApplyDdlDictionary(cv.ddl, cv.scn);
      return Status::OK();
    case CvKind::kHeartbeat:
      return Status::OK();
  }
  return Status::Internal("unknown change vector kind");
}

Status StandbyDb::FinishDataApply(const ChangeVector& cv, Status st) {
  if (st.ok() && options_.apply_accounting) {
    // Physical apply succeeded: count it. Survives restarts, so the chaos
    // auditor can compare against the shipped-DML ledger for exactly-once.
    std::lock_guard<std::mutex> g(accounting_mu_);
    ++apply_accounting_[AccountingKey(cv.dba, cv.slot)];
  }
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
  if (promoted_) return promoted_mgr_->visible_scn();
  if (instance != kMasterInstance && instance < instances_.size() &&
      instances_[instance].remote != nullptr) {
    return instances_[instance].remote->query_scn();
  }
  RecoveryCoordinator* coordinator =
      const_cast<StandbyDb*>(this)->StandbyDb::coordinator();
  if (coordinator != nullptr) return coordinator->query_scn();
  return last_query_scn_.load(std::memory_order_acquire);
}

Scn StandbyDb::WaitForQueryScn(Scn target, int64_t timeout_us) const {
  RecoveryCoordinator* coordinator =
      const_cast<StandbyDb*>(this)->StandbyDb::coordinator();
  if (coordinator == nullptr) return query_scn();
  return coordinator->WaitForQueryScn(target, timeout_us);
}

QueryContext StandbyDb::MakeQueryContext() const {
  QueryContext ctx;
  ctx.catalog = &catalog_;
  ctx.cache = &cache_;
  ctx.resolver = &txn_table_;
  ctx.table_lookup = [this](ObjectId oid) { return FindOrNullTable(oid); };
  for (const auto& inst : instances_) ctx.stores.push_back(inst.store.get());
  ctx.snapshots = const_cast<SnapshotRegistry*>(&snapshots_);
  ctx.expressions = &im_exprs_;
  ctx.default_dop = options_.scan_dop;
  ctx.planner = options_.planner;
  ctx.role = "standby";
  ctx.slow_log = &slow_log_;
  ctx.annotate = [this](QueryProfile* prof) {
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
  return ctx;
}

void StandbyDb::SetLagProbe(std::function<obs::LagSnapshot()> probe) {
  std::lock_guard<std::mutex> g(lag_probe_mu_);
  lag_probe_ = std::move(probe);
}

StatusOr<QueryResult> StandbyDb::Query(const ScanQuery& query, InstanceId instance) {
  const Scn scn = query_scn(instance);
  if (scn == kInvalidScn)
    return Status::Unavailable("no QuerySCN published yet");
  return query_engine_.ExecuteScan(MakeQueryContext(), query, scn);
}

StatusOr<QueryResult> StandbyDb::QueryAt(const ScanQuery& query, Scn snapshot) {
  if (snapshot == kInvalidScn)
    return Status::InvalidArgument("invalid snapshot SCN");
  return query_engine_.ExecuteScan(MakeQueryContext(), query, snapshot);
}

StatusOr<QueryResult> StandbyDb::MultiJoin(const MultiJoinQuery& query,
                                           InstanceId instance) {
  const Scn scn = query_scn(instance);
  if (scn == kInvalidScn)
    return Status::Unavailable("no QuerySCN published yet");
  return query_engine_.ExecuteMultiJoin(MakeQueryContext(), query, scn);
}

StatusOr<QueryResult> StandbyDb::MultiJoinAt(const MultiJoinQuery& query,
                                             Scn snapshot) {
  if (snapshot == kInvalidScn)
    return Status::InvalidArgument("invalid snapshot SCN");
  return query_engine_.ExecuteMultiJoin(MakeQueryContext(), query, snapshot);
}

StatusOr<std::optional<Row>> StandbyDb::Fetch(ObjectId object, int64_t key,
                                              InstanceId instance) {
  const Scn scn = query_scn(instance);
  if (scn == kInvalidScn)
    return Status::Unavailable("no QuerySCN published yet");
  return query_engine_.IndexFetch(MakeQueryContext(), object, key, scn);
}

Status StandbyDb::PopulateNow(ObjectId object) {
  Status last = Status::OK();
  for (auto& inst : instances_) {
    if (inst.populator == nullptr)
      return Status::FailedPrecondition("standby IMCS disabled");
    Status st = inst.populator->PopulateNow(object);
    if (!st.ok()) last = st;
  }
  return last;
}

Status StandbyDb::Promote() {
  if (promoted_) return Status::FailedPrecondition("already promoted");
  // Terminal recovery: stop apply at the last consistent point. Everything
  // dispatched has been applied (workers drain on stop); shipped-but-
  // undispatched redo is abandoned, as in a failover.
  Stop();
  promoted_ = true;

  const Scn last_applied = std::max(last_applied_scn_.load(std::memory_order_acquire),
                                    last_query_scn_.load(std::memory_order_acquire));
  promoted_scns_.AdvancePast(last_applied == kInvalidScn ? 0 : last_applied);
  promoted_logs_.push_back(std::make_unique<RedoLog>(0, &promoted_scns_));
  promoted_mgr_ = std::make_unique<TxnManager>(
      &promoted_scns_, &txn_table_, &blocks_,
      std::vector<RedoLog*>{promoted_logs_[0].get()},
      [this](ObjectId oid) { return ImOnStandby(catalog_.CurrentImService(oid)); });
  promoted_mgr_->set_specialized_redo(options_.specialized_redo);
  promoted_mgr_->Bootstrap(last_applied == kInvalidScn ? 0 : last_applied,
                           txn_table_.max_xid() + 1);

  // The IMCS survives promotion; its maintenance switches from redo mining to
  // commit-time invalidation (the DBIM Transaction Manager role).
  promoted_sync_ = std::make_unique<PrimaryImSync>();
  std::vector<ImStore*> stores;
  for (auto& inst : instances_) stores.push_back(inst.store.get());
  promoted_hooks_ = std::make_unique<PromotedCommitHooks>(promoted_sync_.get(),
                                                          std::move(stores));
  promoted_mgr_->SetPrimaryImIntegration(
      [this](ObjectId oid) { return ImOnStandby(catalog_.CurrentImService(oid)); },
      promoted_hooks_.get());
  promoted_snapshot_ = std::make_unique<PrimarySnapshotSource>(promoted_mgr_.get(),
                                                               promoted_sync_.get());

  // Population resumes against the promoted snapshot source. Existing SMUs
  // keep serving; coverage bookkeeping restarts, so the populators treat the
  // retained IMCUs as repopulation candidates only.
  for (uint32_t i = 0; i < instances_.size(); ++i) {
    PopulationOptions pop = options_.population;
    pop.expressions = &im_exprs_;
    if (options_.standby_instances > 1) {
      pop.home_fn = [this](ObjectId oid, uint64_t ordinal) {
        return home_map_.HomeOf(oid, ordinal);
      };
    }
    instances_[i].populator = std::make_unique<Populator>(
        instances_[i].store.get(), promoted_snapshot_.get(), &blocks_, pop);
  }
  // Drop retained SMUs so the restarted coverage bookkeeping stays truthful,
  // then let population rebuild from the promoted snapshot.
  for (auto& inst : instances_) inst.store->Clear();
  for (ObjectId oid : catalog_.AllObjects()) {
    if (!ImOnStandby(catalog_.CurrentImService(oid))) continue;
    Table* t = FindOrNullTable(oid);
    if (t == nullptr) continue;
    for (auto& inst : instances_) inst.populator->EnableObject(t);
  }
  for (auto& inst : instances_) inst.populator->Start();
  return Status::OK();
}

Transaction StandbyDb::Begin(RedoThreadId thread, TenantId tenant) {
  return promoted_mgr_->Begin(thread, tenant);
}

Status StandbyDb::Insert(Transaction* txn, ObjectId object, Row row, RowId* rid) {
  if (!promoted_) return Status::FailedPrecondition("standby is read-only");
  Table* t = FindOrNullTable(object);
  if (t == nullptr) return Status::NotFound("no such table");
  return promoted_mgr_->Insert(txn, t, std::move(row), rid);
}

Status StandbyDb::UpdateByKey(Transaction* txn, ObjectId object, int64_t key,
                              Row row) {
  if (!promoted_) return Status::FailedPrecondition("standby is read-only");
  Table* t = FindOrNullTable(object);
  if (t == nullptr) return Status::NotFound("no such table");
  if (t->index() == nullptr) return Status::FailedPrecondition("no identity index");
  const std::optional<RowId> rid = t->index()->Lookup(key);
  if (!rid.has_value()) return Status::NotFound("key not indexed");
  return promoted_mgr_->Update(txn, t, *rid, std::move(row));
}

StatusOr<Scn> StandbyDb::Commit(Transaction* txn) {
  if (!promoted_) return Status::FailedPrecondition("standby is read-only");
  return promoted_mgr_->Commit(txn);
}

void StandbyDb::Abort(Transaction* txn) {
  if (promoted_) promoted_mgr_->Abort(txn);
}

Status StandbyDb::MirrorImExpression(ObjectId object, Expression expr) {
  StatusOr<Schema> schema = catalog_.CurrentSchema(object);
  if (!schema.ok()) return schema.status();
  StatusOr<uint32_t> idx = im_exprs_.Register(object, *schema, std::move(expr));
  if (!idx.ok()) return idx.status();
  Table* t = FindOrNullTable(object);
  if (t != nullptr && ImOnStandby(catalog_.CurrentImService(object))) {
    for (auto& inst : instances_) {
      if (inst.populator == nullptr) continue;
      inst.populator->DisableObject(object);
      inst.populator->EnableObject(t);
    }
  }
  return Status::OK();
}

size_t StandbyDb::PruneVersions() {
  const Scn active = snapshots_.LowWatermark();
  const Scn q = query_scn();
  const Scn watermark = active == kMaxScn ? q : std::min(active, q);
  if (watermark == kInvalidScn) return 0;
  size_t freed = 0;
  const Dba high = blocks_.HighWater();
  for (Dba dba = kTxnTableDbaCount; dba < high; ++dba) {
    Block* b = blocks_.GetBlock(dba);
    if (b != nullptr) freed += b->Prune(watermark, txn_table_);
  }
  return freed;
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
  db_->last_query_scn_.store(query_scn, std::memory_order_release);
  if (db_->channel_ != nullptr) db_->channel_->SendPublish(query_scn);

  std::vector<DdlMarker> pending;
  {
    std::lock_guard<std::mutex> g(ddl_mu_);
    pending.swap(pending_ddl_);
  }
  for (const DdlMarker& marker : pending) {
    const bool enabled =
        marker.op != DdlOp::kDropTable &&
        ImOnStandby(db_->catalog_.CurrentImService(marker.object_id));
    Table* t = db_->FindOrNullTable(marker.object_id);
    for (auto& inst : db_->instances_) {
      if (inst.populator == nullptr) continue;
      inst.populator->DisableObject(marker.object_id);
      if (enabled && t != nullptr) inst.populator->EnableObject(t);
    }
  }
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
  STRATUS_RETURN_IF_ERROR(standby_.MirrorCreateTable(
      *oid, name, tenant, std::move(schema), service, identity_index));
  return oid;
}

StatusOr<uint32_t> AdgCluster::RegisterImExpression(ObjectId object,
                                                    const Expression& expr) {
  StatusOr<uint32_t> idx = primary_.RegisterImExpression(object, expr);
  if (!idx.ok()) return idx;
  STRATUS_RETURN_IF_ERROR(standby_.MirrorImExpression(object, expr));
  return idx;
}

Scn AdgCluster::WaitForCatchup(int64_t timeout_us) {
  const Scn target = primary_.current_scn();
  if (target == kInvalidScn) return standby_.query_scn();
  return standby_.WaitForQueryScn(target, timeout_us);
}

}  // namespace stratus
