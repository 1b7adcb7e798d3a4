#ifndef STRATUS_DB_DATABASE_H_
#define STRATUS_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "adg/redo_apply.h"
#include "adg/redo_splitter.h"
#include "common/status.h"
#include "common/types.h"
#include "db/catalog.h"
#include "db/query.h"
#include "db/standby_link.h"
#include "imadg/flush.h"
#include "imadg/mining.h"
#include "imcs/expression.h"
#include "imcs/population.h"
#include "obs/lag_monitor.h"
#include "obs/metrics.h"
#include "persist/persist_controller.h"
#include "persist/persist_options.h"
#include "persist/recovery.h"
#include "rac/home_location_map.h"
#include "rac/transport.h"
#include "redo/log_merger.h"
#include "redo/log_shipping.h"
#include "redo/redo_log.h"
#include "storage/buffer_cache.h"
#include "txn/txn_manager.h"

namespace stratus {

/// Degraded-health report for a standby (the swallowed-apply-error fix): any
/// non-OK apply status latches here and quarantines the affected IMCUs.
struct StandbyHealth {
  bool degraded = false;
  uint64_t apply_errors = 0;
  uint64_t quarantined_imcus = 0;
  std::string first_error;  ///< Empty while healthy.
};

/// Cluster-wide configuration.
struct DatabaseOptions {
  /// Redo-generating primary instances (RAC redo threads).
  int primary_redo_threads = 1;
  /// Standby RAC instances; instance 0 is the redo-apply master (SIRA).
  uint32_t standby_instances = 1;

  RedoApplyOptions apply;
  ShipperOptions shipping;

  /// IM-ADG Journal buckets (sized to redo-apply parallelism).
  size_t journal_buckets = 64;
  /// IM-ADG Commit Table partitions (1 = the paper's single sorted list).
  size_t commit_table_partitions = 4;
  FlushOptions flush;

  PopulationOptions population;
  size_t im_pool_bytes = 2ull * 1024 * 1024 * 1024;

  TransportOptions transport;

  /// Multi-Instance Redo Apply (MIRA, Section V): number of apply instances
  /// sharing recovery. 1 = Single Instance Redo Apply (SIRA, the paper's
  /// shipping configuration); >1 splits the redo stream by DBA across several
  /// apply engines under one global QuerySCN.
  int mira_apply_instances = 1;

  /// Specialized redo generation (Section III.E).
  bool specialized_redo = true;
  /// The paper's headline switch: DBIM-on-ADG infrastructure on the standby.
  bool standby_imadg_enabled = true;
  /// DBIM on the primary itself (dual-format primary).
  bool primary_imcs_enabled = true;

  /// Default scan degree of parallelism for queries that leave
  /// `ScanQuery::dop` / `MultiJoinQuery::dop` at 0. 1 = serial (the seed
  /// behavior); >1 fans each scan out over the shared ThreadPool.
  uint32_t scan_dop = 1;

  /// Access-path planner knobs (per-table IMCS vs row-path choice from SMU
  /// invalidity and storage-index statistics).
  PlannerOptions planner;

  /// Metrics registry every component publishes into. Null means the
  /// process-wide obs::MetricsRegistry::Global(); tests pass their own for
  /// isolation.
  obs::MetricsRegistry* registry = nullptr;
  /// Identity of this standby in a multi-standby fleet ("sb0", …). Non-empty
  /// adds a {"standby", name} label to every StandbyDb-exported series so N
  /// standbys sharing one registry stay distinguishable; its StandbyLink
  /// also labels the lag series {"db", name} and the shipper channels
  /// {"standby", name}. Empty (the default) keeps the single-standby label
  /// set: no standby label, and {"db", "standby"} on the lag series.
  std::string standby_name;
  /// Lag-monitor poll interval (StandbyLink).
  int64_t lag_poll_interval_us = 5'000;

  /// Completed-query ring capacity of each role's SlowQueryLog.
  size_t slow_query_log_capacity = 128;
  /// Only queries at least this slow enter the ring (0 records every query;
  /// the ring is bounded either way).
  uint64_t slow_query_threshold_us = 0;

  /// Crash-injection controller for the STANDBY apply pipeline (chaos tests):
  /// threaded into the dispatcher, recovery workers, coordinator, mining,
  /// flush and standby population. The primary never observes it. Null in
  /// production wiring — every crash point then folds to one null check.
  chaos::ChaosController* chaos = nullptr;
  /// Per-(dba,slot) apply accounting on the standby: counts every successful
  /// physical data-CV apply, surviving crash–restart cycles, so the chaos
  /// auditor can prove no change vector was skipped or double-applied.
  /// Off by default (a mutex-guarded map on the apply path).
  bool apply_accounting = false;

  /// Standby durability (the persist/ subsystem): file-backed redo archive,
  /// fuzzy checkpoints and IMCS snapshot-resume restart. Disabled by default —
  /// the historical all-RAM behavior is byte-for-byte unchanged unless a data
  /// directory is configured.
  persist::PersistOptions persist;
};

/// The primary database: row store, transactions, redo generation, and its
/// own dual-format IMCS maintained by the DBIM Transaction Manager.
class PrimaryDb {
 public:
  explicit PrimaryDb(const DatabaseOptions& options);
  ~PrimaryDb();

  PrimaryDb(const PrimaryDb&) = delete;
  PrimaryDb& operator=(const PrimaryDb&) = delete;

  /// Starts background population (if primary IMCS is enabled).
  void Start();
  void Stop();

  // --- DDL / bootstrap ----------------------------------------------------
  StatusOr<ObjectId> CreateTable(const std::string& name, TenantId tenant,
                                 Schema schema, ImService service,
                                 bool identity_index);

  // --- DML ------------------------------------------------------------------
  Transaction Begin(RedoThreadId thread = 0, TenantId tenant = kDefaultTenant);
  Status Insert(Transaction* txn, ObjectId object, Row row, RowId* rid = nullptr);
  Status Update(Transaction* txn, ObjectId object, RowId rid, Row row);
  /// Index lookup + update of the full row image (OLTAP's update op).
  Status UpdateByKey(Transaction* txn, ObjectId object, int64_t key, Row row);
  Status Delete(Transaction* txn, ObjectId object, RowId rid);
  StatusOr<Scn> Commit(Transaction* txn);
  void Abort(Transaction* txn);

  // --- Queries ---------------------------------------------------------------
  StatusOr<QueryResult> Query(const ScanQuery& query);
  /// Runs the scan at an explicit snapshot SCN (flashback-style read; used to
  /// compare primary and standby results at the same consistency point).
  StatusOr<QueryResult> QueryAt(const ScanQuery& query, Scn snapshot);
  /// Star-schema chain of equi-joins with optional grouped aggregation.
  StatusOr<QueryResult> MultiJoin(const MultiJoinQuery& query);
  /// Multi-join at an explicit snapshot SCN (flashback-style read; the
  /// standby-vs-primary consistency oracle).
  StatusOr<QueryResult> MultiJoinAt(const MultiJoinQuery& query, Scn snapshot);
  StatusOr<std::optional<Row>> Fetch(ObjectId object, int64_t key);

  // --- Maintenance -----------------------------------------------------------
  /// One version-chain GC pass over all blocks; returns versions freed.
  size_t PruneVersions();
  /// Synchronously populates the object's primary IMCUs.
  Status PopulateNow(ObjectId object);

  /// Registers an In-Memory Expression (Section V) for `object` and schedules
  /// the object's IMCUs for rebuild so the virtual column materializes.
  /// Returns the expression's virtual column index.
  StatusOr<uint32_t> RegisterImExpression(ObjectId object, Expression expr);

  // --- Accessors ---------------------------------------------------------------
  Catalog* catalog() { return &catalog_; }
  Table* table(ObjectId object) const;
  TxnManager* txn_manager() { return &txn_mgr_; }
  ScnAllocator* scn_allocator() { return &scns_; }
  RedoLog* redo_log(int thread) { return redo_logs_[thread].get(); }
  int redo_threads() const { return static_cast<int>(redo_logs_.size()); }
  BufferCache* cache() { return &cache_; }
  BlockStore* block_store() { return &blocks_; }
  ImStore* im_store() { return im_store_.get(); }
  Populator* populator() { return populator_.get(); }
  Scn current_scn() const { return txn_mgr_.visible_scn(); }
  QueryContext MakeQueryContext();
  const QueryEngine& query_engine() const { return query_engine_; }

  // --- Observability -----------------------------------------------------------
  obs::MetricsRegistry* registry() const { return registry_; }
  /// Prometheus-style text exposition of every series in the registry.
  std::string MetricsText() const;
  /// The same series as a JSON array.
  std::string MetricsJson() const;
  /// This role's slow-query ring + in-flight registry.
  SlowQueryLog* slow_query_log() { return &slow_log_; }
  const SlowQueryLog* slow_query_log() const { return &slow_log_; }

 private:
  class PrimaryCommitHooks : public CommitHooks {
   public:
    PrimaryCommitHooks(PrimaryImSync* sync, ImStore* store)
        : sync_(sync), store_(store) {}
    void PreCommitLock() override { sync_->LockShared(); }
    void OnCommit(const Transaction& txn, Scn commit_scn) override {
      for (const auto& [oid, rid] : txn.im_touches)
        store_->MarkRowInvalid(rid.dba, rid.slot);
      (void)commit_scn;
    }
    void PostCommitUnlock() override { sync_->UnlockShared(); }

   private:
    PrimaryImSync* sync_;
    ImStore* store_;
  };

  void ExportMetrics(obs::MetricsSink* sink) const;

  DatabaseOptions options_;
  ScnAllocator scns_;
  TxnTable txn_table_;
  BlockStore blocks_;
  BufferCache cache_{&blocks_};
  Catalog catalog_;
  std::vector<std::unique_ptr<RedoLog>> redo_logs_;
  TxnManager txn_mgr_;

  mutable std::shared_mutex tables_mu_;
  std::unordered_map<ObjectId, std::unique_ptr<Table>> tables_;

  // Primary IMCS (dual format).
  ImExpressionRegistry im_exprs_;
  PrimaryImSync im_sync_;
  std::unique_ptr<ImStore> im_store_;
  std::unique_ptr<PrimarySnapshotSource> snapshot_source_;
  std::unique_ptr<Populator> populator_;
  std::unique_ptr<PrimaryCommitHooks> commit_hooks_;

  QueryEngine query_engine_;
  SlowQueryLog slow_log_;
  bool started_ = false;

  // Declared last: the export callback reads the members above, so it must
  // detach (destruct) before any of them go away.
  obs::MetricsRegistry* registry_ = nullptr;
  obs::ScopedMetricsCallback metrics_cb_;
};

/// How StandbyDb::Restart brings a standby back (Section III.E; the mode
/// table is DESIGN.md §13.6). Every mode discards the non-persistent state —
/// the IMCS, the IM-ADG Journal and Commit Table, the published QuerySCN —
/// and rebuilds the pipeline over the redo that survived.
struct RestartMode {
  /// A CrashSignal killed pipeline threads: crash-safe teardown (abandon any
  /// in-progress QuerySCN advancement, drain worker queues into the row store
  /// unmined) and no final archive sync, so an unsynced tail stays torn.
  bool crash = false;
  /// Simulated process death: the row store, txn table, table segments and
  /// apply accounting go too, then the data directory is reopened and
  /// recovered as on first boot. Requires persistence.
  bool from_disk = false;
};

/// The standby database: physical replica maintained by parallel redo apply,
/// hosting the DBIM-on-ADG infrastructure and (optionally) a RAC-distributed
/// IMCS across several instances.
class StandbyDb : public ApplySink {
 public:
  StandbyDb(const DatabaseOptions& options, size_t num_streams);
  ~StandbyDb() override;

  StandbyDb(const StandbyDb&) = delete;
  StandbyDb& operator=(const StandbyDb&) = delete;

  /// Landing stream for primary redo thread `i` (wired to a LogShipper).
  ReceivedLog* stream(size_t i) { return streams_[i].get(); }

  /// Starts redo apply, the DBIM-on-ADG components, and population.
  void Start();
  /// Stops everything, retaining physical state (block store, txn table) and
  /// unconsumed received redo.
  void Stop();
  /// Instance restart in `mode`; redo apply resumes from the last consistent
  /// point. A from-disk restart recovers as first boot does (checkpoint,
  /// IMCS snapshot, archived redo tail) and rewinds each stream to its
  /// durable watermark, so a rejoining shipper's redelivery dedups against
  /// exactly what recovery replayed. FailedPrecondition on a promoted
  /// database, or for from_disk without persistence; a failed recovery is
  /// returned with the pipeline left down.
  ///
  /// PRECONDITION for from_disk: delivery is quiescent — every shipper
  /// feeding `stream(i)` is stopped (StandbyLink::Restart does it).
  Status Restart(RestartMode mode = {});

  // --- Durability (persist/ subsystem) ---------------------------------------
  /// Takes one fuzzy checkpoint: captures the dictionary, every data block's
  /// version chains (each under its own latch, apply running throughout), and
  /// the transaction table; writes it atomically; then — if configured — an
  /// IMCS snapshot of all ready SMUs. The recovery-start SCN is the published
  /// QuerySCN at capture begin. Also runs on the background cadence when
  /// `PersistOptions::checkpoint_interval_us` is set.
  Status TakeCheckpoint();
  /// Durable (fsynced) archive watermark of stream `i`; kInvalidScn when
  /// persistence is off. The fleet's durable-floor cursor gate reads this.
  Scn DurableScn(size_t stream) const;
  /// Non-null after a successful boot recovery (swapped by a from-disk
  /// Restart; callers touching it must hold delivery quiescent).
  persist::PersistController* persist() { return persist_.get(); }
  bool persist_enabled() const { return options_.persist.enabled; }
  /// Construction-time options (immutable; safe from any thread).
  const DatabaseOptions& options() const { return options_; }
  /// Point-in-time persist counters (zeroed struct when persistence is off);
  /// safe to call from any thread, including during a concurrent Restart.
  persist::PersistStats PersistStatsSnapshot() const;
  /// First error the durability layer latched (archive tee, boot, recovery);
  /// OK while healthy.
  Status persist_status() const;
  /// Result of the last boot/from-disk-restart recovery pass.
  persist::RecoveryResult last_recovery() const;
  uint64_t disk_restarts() const {
    return disk_restarts_.load(std::memory_order_relaxed);
  }
  /// SCN the last recovery pass certified complete (kInvalidScn before any).
  Scn disk_recovered_scn() const {
    return disk_recovered_scn_.load(std::memory_order_acquire);
  }

  // --- Bootstrap (physically replicated dictionary) -------------------------
  Status MirrorCreateTable(ObjectId object_id, const std::string& name,
                           TenantId tenant, Schema schema, ImService service,
                           bool identity_index);

  // --- Queries ----------------------------------------------------------------
  /// The published QuerySCN of an instance (master or local coordinator).
  Scn query_scn(InstanceId instance = kMasterInstance) const;
  /// Waits until the master QuerySCN reaches `target`.
  Scn WaitForQueryScn(Scn target, int64_t timeout_us) const;
  StatusOr<QueryResult> Query(const ScanQuery& query,
                              InstanceId instance = kMasterInstance);
  /// Runs the scan at an explicit snapshot SCN instead of the live QuerySCN
  /// (must be at or below the published QuerySCN to see consistent data).
  /// Lets callers pin one consistency point across several executions — the
  /// DOP-sweep tests re-run one query at every DOP against the same SCN.
  StatusOr<QueryResult> QueryAt(const ScanQuery& query, Scn snapshot);
  /// Star-schema chain of equi-joins at the live QuerySCN.
  StatusOr<QueryResult> MultiJoin(const MultiJoinQuery& query,
                                  InstanceId instance = 0);
  /// Multi-join pinned at an explicit snapshot SCN (QueryAt's join
  /// counterpart; the fleet router uses it for pinned-SCN contracts).
  StatusOr<QueryResult> MultiJoinAt(const MultiJoinQuery& query, Scn snapshot);
  StatusOr<std::optional<Row>> Fetch(ObjectId object, int64_t key,
                                     InstanceId instance = kMasterInstance);

  // --- Failover (role transition) -----------------------------------------
  /// Promotes this standby to a read-write primary: terminates redo apply at
  /// the last consistent point, bootstraps a transaction manager over the
  /// physical database (SCN/XID allocation resume above everything applied),
  /// and rewires the IMCS — which survives promotion intact — to commit-time
  /// maintenance. Received-but-undispatched redo is discarded, as in a
  /// failover. Irreversible for this object.
  Status Promote();
  bool promoted() const { return promoted_; }

  // --- DML (valid only after Promote()) -------------------------------------
  Transaction Begin(RedoThreadId thread = 0, TenantId tenant = kDefaultTenant);
  Status Insert(Transaction* txn, ObjectId object, Row row, RowId* rid = nullptr);
  Status UpdateByKey(Transaction* txn, ObjectId object, int64_t key, Row row);
  StatusOr<Scn> Commit(Transaction* txn);
  void Abort(Transaction* txn);
  TxnManager* promoted_txn_manager() { return promoted_mgr_.get(); }

  // --- Maintenance -------------------------------------------------------------
  Status PopulateNow(ObjectId object);
  size_t PruneVersions();

  /// Mirrors an In-Memory Expression registration (the dictionary metadata
  /// replicates physically in real ADG; the cluster bootstraps it here).
  Status MirrorImExpression(ObjectId object, Expression expr);

  // --- ApplySink -----------------------------------------------------------------
  Status ApplyCv(const ChangeVector& cv) override;

  // --- Introspection (tests, benches) ---------------------------------------------
  RecoveryCoordinator* coordinator() {
    if (mira_coordinator_ != nullptr) return mira_coordinator_.get();
    return engine_ != nullptr ? engine_->coordinator() : nullptr;
  }
  /// MIRA introspection.
  size_t mira_instances() const { return mira_engines_.size(); }
  RedoApplyEngine* mira_engine(size_t i) { return mira_engines_[i].get(); }
  RedoApplyEngine* apply_engine() { return engine_.get(); }
  ImStore* im_store(InstanceId instance = kMasterInstance) {
    return instances_[instance].store.get();
  }
  uint32_t instance_count() const {
    return static_cast<uint32_t>(instances_.size());
  }
  Populator* populator(InstanceId instance = kMasterInstance) {
    return instances_[instance].populator.get();
  }
  ImAdgJournal* journal() { return journal_.get(); }
  ImAdgCommitTable* commit_table() { return commit_table_.get(); }
  MiningComponent* mining() { return mining_.get(); }
  InvalidationFlushComponent* flush() { return flush_.get(); }
  InvalidationChannel* channel() { return channel_.get(); }
  TxnTable* txn_table() { return &txn_table_; }
  Catalog* catalog() { return &catalog_; }
  Table* table(ObjectId object) const;
  BufferCache* cache() { return &cache_; }
  BlockStore* block_store() { return &blocks_; }
  QueryContext MakeQueryContext() const;

  // --- Observability -----------------------------------------------------------
  obs::MetricsRegistry* registry() const { return registry_; }
  std::string MetricsText() const;
  std::string MetricsJson() const;
  /// This role's slow-query ring + in-flight registry.
  SlowQueryLog* slow_query_log() { return &slow_log_; }
  const SlowQueryLog* slow_query_log() const { return &slow_log_; }
  /// Installs (or clears, with nullptr) the freshness probe stamped into
  /// every query profile — StandbyLink wires its LagMonitor in here. The
  /// probe is invoked under an internal mutex, so clearing it guarantees no
  /// further calls once SetLagProbe returns.
  void SetLagProbe(std::function<obs::LagSnapshot()> probe);
  /// Highest SCN redo apply has put into the physical database (CV-level,
  /// monotonic, survives Stop()/Restart()) — the lag monitor's apply mark.
  Scn applied_scn() const {
    return applied_high_scn_.load(std::memory_order_acquire);
  }
  /// Last QuerySCN published by any pipeline incarnation (monotonic through
  /// Stop()/Restart(), safe to read from monitor threads during teardown).
  Scn published_query_scn() const {
    return last_query_scn_.load(std::memory_order_acquire);
  }

  // --- Health / chaos introspection -----------------------------------------
  /// True once any apply reported a non-OK status (error latched, IMCU
  /// quarantined). Cleared only by a restart (the quarantined IMCS is
  /// discarded and rebuilt from consistent data).
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  StandbyHealth health() const;
  uint64_t restarts() const { return restarts_.load(std::memory_order_relaxed); }
  uint64_t crash_restarts() const {
    return crash_restarts_.load(std::memory_order_relaxed);
  }
  /// Key for the per-row apply accounting map (and the test-side ledger).
  static constexpr uint64_t AccountingKey(Dba dba, SlotId slot) {
    return (static_cast<uint64_t>(dba) << 20) | static_cast<uint64_t>(slot);
  }
  /// Copy of the per-(dba,slot) successful-apply counters (empty unless
  /// DatabaseOptions::apply_accounting).
  std::unordered_map<uint64_t, uint64_t> ApplyAccountingSnapshot() const;

 private:
  class StandbyApplier : public InvalidationApplier {
   public:
    explicit StandbyApplier(StandbyDb* db) : db_(db) {}
    void ApplyGroups(std::vector<InvalidationGroup> groups) override;
    void ApplyCoarseInvalidation(TenantId tenant) override;
    void ApplyDdl(const DdlMarker& marker) override;
    bool Drained() const override;
    void OnPublished(Scn query_scn) override;

   private:
    StandbyDb* db_;
    std::mutex ddl_mu_;
    std::vector<DdlMarker> pending_ddl_;  // Populator fixups, post-publish.
  };

  void BuildPipeline();
  /// `crash` selects CrashStop over Stop on the apply engine(s) and the MIRA
  /// coordinator.
  void TearDownPipeline(bool crash);
  /// The shutdown step Stop() and Restart() share: stop the checkpoint
  /// thread, sync the archive unless `crash`, tear the pipeline down.
  void Shutdown(bool crash);
  void EnableConfiguredObjects();
  /// Common tail of every data-CV apply: accounting, chaos error injection,
  /// and quarantine of the affected IMCUs on any non-OK status.
  Status FinishDataApply(const ChangeVector& cv, Status st);
  void QuarantineAfterApplyError(const ChangeVector& cv, const Status& st);
  void ResetHealthForRestart();
  /// Series that exist for the database's whole life (cache, scans, streams).
  void ExportCoreMetrics(obs::MetricsSink* sink) const;
  /// Series owned by one pipeline incarnation (journal, flush, apply, …);
  /// the callback detaches before TearDownPipeline frees any of them.
  void ExportPipelineMetrics(obs::MetricsSink* sink) const;
  Table* FindOrNullTable(ObjectId object) const;
  void ApplyDdlDictionary(const DdlMarker& marker, Scn scn);
  /// First boot and from-disk Restart: opens the data directory with a fresh
  /// controller, recovers, rewinds every stream to its durable watermark and
  /// installs the archive tees. On error persist_ is left null.
  Status OpenAndRecover();
  /// Loads the latest checkpoint + IMCS snapshot and replays archived redo
  /// through a RecoveryManager wired to this database's dictionary/index/
  /// accounting hooks. Sets the apply marks and disk_recovered_scn_.
  Status RecoverFromDisk();
  /// Tees every stream's Deliver into the redo archive (archive-first).
  void InstallDurableSinks();
  void NotePersistError(const Status& st);

  DatabaseOptions options_;
  BlockStore blocks_;
  BufferCache cache_{&blocks_};
  TxnTable txn_table_;
  Catalog catalog_;

  mutable std::shared_mutex tables_mu_;
  std::unordered_map<ObjectId, std::unique_ptr<Table>> tables_;

  std::vector<std::unique_ptr<ReceivedLog>> streams_;

  struct InstanceState {
    std::unique_ptr<ImStore> store;
    std::unique_ptr<RemoteInstance> remote;  // Null for the master instance.
    std::unique_ptr<SnapshotSource> snapshot_source;
    std::unique_ptr<Populator> populator;
  };
  std::vector<InstanceState> instances_;
  HomeLocationMap home_map_;
  ImExpressionRegistry im_exprs_;

  // DBIM-on-ADG components (rebuilt on restart: no persistence).
  std::unique_ptr<ImAdgJournal> journal_;
  std::unique_ptr<ImAdgCommitTable> commit_table_;
  std::unique_ptr<DdlInfoTable> ddl_table_;
  std::unique_ptr<StandbyApplier> applier_;
  std::unique_ptr<InvalidationFlushComponent> flush_;
  std::unique_ptr<MiningComponent> mining_;
  std::unique_ptr<InvalidationChannel> channel_;

  std::unique_ptr<RedoApplyEngine> engine_;

  // MIRA (Section V): splitter + per-instance engines + global coordinator.
  std::vector<std::unique_ptr<ReceivedLog>> mira_streams_;
  std::vector<std::unique_ptr<RedoApplyEngine>> mira_engines_;
  std::vector<std::unique_ptr<OffsetApplyHooks>> mira_hooks_;
  std::unique_ptr<RedoSplitter> splitter_;
  std::unique_ptr<RecoveryCoordinator> mira_coordinator_;

  SnapshotRegistry snapshots_;
  mutable QueryEngine query_engine_;
  mutable SlowQueryLog slow_log_;
  mutable std::mutex lag_probe_mu_;
  std::function<obs::LagSnapshot()> lag_probe_;  ///< Guarded by lag_probe_mu_.
  std::atomic<Scn> last_query_scn_{kInvalidScn};    ///< Survives Stop().
  std::atomic<Scn> last_applied_scn_{kInvalidScn};  ///< Survives Stop().
  std::atomic<Scn> applied_high_scn_{kInvalidScn};  ///< CV-level apply mark.
  bool started_ = false;

  // Degraded health (swallowed-apply-error fix). Cleared on restart.
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> apply_error_count_{0};      ///< Monotonic.
  std::atomic<uint64_t> quarantined_imcus_{0};      ///< Monotonic.
  mutable std::mutex health_mu_;
  std::string first_apply_error_;                   ///< Guarded by health_mu_.

  std::atomic<uint64_t> restarts_{0};
  std::atomic<uint64_t> crash_restarts_{0};
  std::atomic<uint64_t> disk_restarts_{0};

  // Durability. The controller pointer is swapped by a from-disk Restart (a
  // fresh open models a fresh process); persist_mu_ guards the swap against
  // concurrent metric scrapes. The archive tee captures the raw pointer and
  // is removed before any swap, so the hot path takes no lock.
  mutable std::mutex persist_mu_;
  std::unique_ptr<persist::PersistController> persist_;  ///< persist_mu_ (swap).
  Status persist_status_;                     ///< Guarded by persist_mu_.
  persist::RecoveryResult last_recovery_;     ///< Guarded by persist_mu_.
  std::atomic<Scn> disk_recovered_scn_{kInvalidScn};

  // Per-row apply accounting (chaos exactly-once audits). Survives restarts.
  mutable std::mutex accounting_mu_;
  std::unordered_map<uint64_t, uint64_t> apply_accounting_;

  // Failover state (the standby's new life as a primary).
  class PromotedCommitHooks : public CommitHooks {
   public:
    PromotedCommitHooks(PrimaryImSync* sync, std::vector<ImStore*> stores)
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

  bool promoted_ = false;
  ScnAllocator promoted_scns_;
  std::vector<std::unique_ptr<RedoLog>> promoted_logs_;
  std::unique_ptr<TxnManager> promoted_mgr_;
  std::unique_ptr<PrimaryImSync> promoted_sync_;
  std::unique_ptr<PrimarySnapshotSource> promoted_snapshot_;
  std::unique_ptr<PromotedCommitHooks> promoted_hooks_;

  // Declared last (destroyed first): export callbacks read the members above.
  obs::MetricsRegistry* registry_ = nullptr;
  obs::ScopedMetricsCallback metrics_cb_;           ///< Lifetime of the db.
  obs::ScopedMetricsCallback pipeline_metrics_cb_;  ///< Lifetime of a pipeline.
};

/// A full deployment: primary + standby connected by redo shipping — the
/// Figure 1 topology. Tables created here exist on both sides (the dictionary
/// is physically replicated in ADG; we bootstrap it at creation).
class AdgCluster {
 public:
  explicit AdgCluster(const DatabaseOptions& options);
  ~AdgCluster();

  AdgCluster(const AdgCluster&) = delete;
  AdgCluster& operator=(const AdgCluster&) = delete;

  void Start();
  void Stop();

  PrimaryDb* primary() { return &primary_; }
  StandbyDb* standby() { return &standby_; }

  StatusOr<ObjectId> CreateTable(const std::string& name, TenantId tenant,
                                 Schema schema, ImService service,
                                 bool identity_index);

  /// Registers an In-Memory Expression on both databases and schedules IMCU
  /// rebuilds; returns the expression's virtual column index.
  StatusOr<uint32_t> RegisterImExpression(ObjectId object, const Expression& expr);

  /// Blocks until the standby QuerySCN covers everything committed on the
  /// primary as of the call. Returns the QuerySCN reached.
  Scn WaitForCatchup(int64_t timeout_us = 30'000'000);

  uint64_t shipped_bytes() const { return link_.shipped_bytes(); }

  // --- Observability -----------------------------------------------------------
  obs::MetricsRegistry* registry() const { return standby_.registry(); }
  std::string MetricsText() const;
  std::string MetricsJson() const;
  /// The standby's lag monitor (non-null between Start and Stop).
  obs::LagMonitor* lag_monitor() { return link_.lag_monitor(); }
  /// Redo-transport introspection for the v$transport view
  /// (StandbyLink::VisitShippers).
  void VisitShippers(const std::function<void(const LogShipper&)>& visit) const {
    link_.VisitShippers(visit);
  }
  /// Stream `i`'s shipper (valid between Start and Stop). Not safe across a
  /// RestartStandby, which replaces every shipper; use VisitShippers where a
  /// restart may race.
  const LogShipper* shipper(size_t i) const { return link_.shipper(i); }
  /// Fault injection: pause/resume every redo shipper (transport lag
  /// accumulates while paused; Stop() still drains).
  void SetShippingPaused(bool paused) { link_.SetShippingPaused(paused); }

  /// Restarts the standby in `mode` through the link's one restart sequence
  /// (StandbyLink::Restart).
  Status RestartStandby(RestartMode mode = {}) { return link_.Restart(mode); }

 private:
  PrimaryDb primary_;
  StandbyDb standby_;
  StandbyLink link_{&primary_, &standby_};
  bool started_ = false;
  obs::ScopedMetricsCallback shipper_metrics_cb_;
};

}  // namespace stratus

#endif  // STRATUS_DB_DATABASE_H_
