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

/// What both roles own: the row store, the dictionary and its one table map,
/// the In-Memory Expression registry, the query engine with its entry points,
/// slow-query log and metrics registry, version GC — and, once it has one,
/// the write side (DESIGN.md §16). PrimaryDb builds its write side at
/// construction; StandbyDb::Promote builds the same one over the row store
/// redo apply maintained. Without a write side every DML call returns
/// FailedPrecondition.
class Database {
 public:
  virtual ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Dictionary ------------------------------------------------------------
  /// The one table-creation path. With no `object_id` the dictionary
  /// allocates one stamped above this database's SCNs (needs the write side);
  /// with one, the definition mirrors (or, in disk recovery, restores) the
  /// primary's at SCN 0, as the physically replicated dictionary would. The
  /// table reaches this role's populators when its IM service covers the role.
  StatusOr<ObjectId> CreateTable(const std::string& name, TenantId tenant,
                                 Schema schema, ImService service,
                                 bool identity_index,
                                 ObjectId object_id = kInvalidObjectId);
  /// The catalog steps of a dictionary-only DDL (Section III.G), effective at
  /// `scn`: DdlExecutor runs them at its marker's SCN, the standby when redo
  /// apply or disk recovery reaches the marker.
  Status ApplyDictionaryDdl(const DdlMarker& marker, Scn scn);
  /// Drops `object` from this role's populators (and its IMCUs from their
  /// stores), then re-enables it if the role's IM service still covers it.
  void RefreshImObject(ObjectId object);
  /// Registers an In-Memory Expression (Section V) for `object` and refreshes
  /// the object, so its IMCUs rebuild with the virtual column (online — scans
  /// use the row path until population completes). Returns the expression's
  /// virtual column index.
  StatusOr<uint32_t> RegisterImExpression(ObjectId object, Expression expr);

  // --- DML (FailedPrecondition without a write side) -------------------------
  /// An empty Transaction without a write side.
  Transaction Begin(RedoThreadId thread = 0, TenantId tenant = kDefaultTenant);
  Status Insert(Transaction* txn, ObjectId object, Row row, RowId* rid = nullptr);
  Status Update(Transaction* txn, ObjectId object, RowId rid, Row row);
  /// Index lookup + update of the full row image (OLTAP's update op).
  Status UpdateByKey(Transaction* txn, ObjectId object, int64_t key, Row row);
  Status Delete(Transaction* txn, ObjectId object, RowId rid);
  StatusOr<Scn> Commit(Transaction* txn);
  /// A no-op without a write side.
  void Abort(Transaction* txn);

  // --- Queries ---------------------------------------------------------------
  /// Runs the scan at the role's live read SCN for `instance`: the primary's
  /// visible SCN, the standby's published QuerySCN (Unavailable before the
  /// first publish).
  StatusOr<QueryResult> Query(const ScanQuery& query,
                              InstanceId instance = kMasterInstance);
  /// Runs the scan at an explicit snapshot SCN (flashback-style read; pins one
  /// consistency point across executions and across the two roles).
  /// InvalidArgument at kInvalidScn.
  StatusOr<QueryResult> QueryAt(const ScanQuery& query, Scn snapshot);
  /// Star-schema chain of equi-joins with optional grouped aggregation, at the
  /// live read SCN.
  StatusOr<QueryResult> MultiJoin(const MultiJoinQuery& query,
                                  InstanceId instance = kMasterInstance);
  /// Multi-join at an explicit snapshot SCN (QueryAt's join counterpart).
  StatusOr<QueryResult> MultiJoinAt(const MultiJoinQuery& query, Scn snapshot);
  StatusOr<std::optional<Row>> Fetch(ObjectId object, int64_t key,
                                     InstanceId instance = kMasterInstance);
  QueryContext MakeQueryContext() const;
  const QueryEngine& query_engine() const { return query_engine_; }

  // --- Maintenance -----------------------------------------------------------
  /// One version-chain GC pass over all blocks, below both the live read SCN
  /// and every running query's snapshot; returns versions freed.
  size_t PruneVersions();
  /// Synchronously populates the object on every populator of this role.
  Status PopulateNow(ObjectId object);

  // --- Accessors ---------------------------------------------------------------
  /// Construction-time options (immutable; safe from any thread).
  const DatabaseOptions& options() const { return options_; }
  Catalog* catalog() { return &catalog_; }
  Table* table(ObjectId object) const;
  BufferCache* cache() { return &cache_; }
  BlockStore* block_store() { return &blocks_; }
  TxnTable* txn_table() { return &txn_table_; }
  /// The write side's transaction manager; null without one.
  TxnManager* txn_manager() const;
  /// Redo log of `thread` < redo_threads().
  RedoLog* redo_log(int thread) const;
  /// Redo threads of the write side (0 without one).
  int redo_threads() const;

  // --- Observability -----------------------------------------------------------
  obs::MetricsRegistry* registry() const { return registry_; }
  /// Prometheus-style text exposition of every series in the registry.
  std::string MetricsText() const;
  /// The same series as a JSON array.
  std::string MetricsJson() const;
  /// This role's slow-query ring + in-flight registry.
  SlowQueryLog* slow_query_log() { return &slow_log_; }
  const SlowQueryLog* slow_query_log() const { return &slow_log_; }

 protected:
  /// `role` tags query profiles; `im_covers` says whether an IM service
  /// populates this role's IMCS (ImOnPrimary or ImOnStandby).
  Database(const DatabaseOptions& options, const char* role,
           bool (*im_covers)(ImService));

  /// The role's live read SCN at `instance`, or why there is none yet.
  virtual StatusOr<Scn> ReadScn(InstanceId instance) const = 0;
  /// The role's column stores and profile annotation.
  virtual void AddQueryContext(QueryContext* ctx) const = 0;
  /// The role's populators (empty while its IMCS is down).
  virtual std::vector<Populator*> Populators() = 0;

  /// Builds the write side over this database's row store: `redo_threads`
  /// redo logs, SCN and XID allocation resuming above `resume_scn` and the
  /// transaction table, and commit-time invalidation of touched rows in
  /// `stores` (none: no primary IMCS integration).
  void InstallWriteSide(int redo_threads, Scn resume_scn,
                        std::vector<ImStore*> stores);
  bool writable() const { return write_ != nullptr; }
  /// Population snapshots at the write side's visible SCN.
  SnapshotSource* write_snapshot_source() const;
  /// The table when `object` exists and its IM service covers this role.
  Table* ImCoveredTable(ObjectId object) const;
  /// Calls `fn` for every table, under the table map's shared lock.
  void ForEachTable(const std::function<void(ObjectId, Table*)>& fn) const;
  /// Series both roles export: buffer cache and scan totals.
  void ExportDatabaseMetrics(obs::MetricsSink* sink,
                             const obs::Labels& labels) const;

  DatabaseOptions options_;
  BlockStore blocks_;
  BufferCache cache_{&blocks_};
  TxnTable txn_table_;
  Catalog catalog_;
  ImExpressionRegistry im_exprs_;
  obs::MetricsRegistry* registry_;

 private:
  struct WriteSide;

  const char* const role_;
  bool (*const im_covers_)(ImService);
  mutable std::shared_mutex tables_mu_;
  std::unordered_map<ObjectId, std::unique_ptr<Table>> tables_;
  std::unique_ptr<WriteSide> write_;
  /// Snapshots of running queries (the GC watermark).
  mutable SnapshotRegistry snapshots_;
  QueryEngine query_engine_;
  mutable SlowQueryLog slow_log_;
};

/// The primary database: the shared core with its write side (transactions,
/// redo generation) and its own dual-format IMCS maintained by the DBIM
/// Transaction Manager.
class PrimaryDb : public Database {
 public:
  explicit PrimaryDb(const DatabaseOptions& options);
  ~PrimaryDb() override;

  /// Starts background population (if primary IMCS is enabled).
  void Start();
  void Stop();

  ImStore* im_store() { return im_store_.get(); }
  Populator* populator() { return populator_.get(); }
  Scn current_scn() const { return txn_manager()->visible_scn(); }

 protected:
  StatusOr<Scn> ReadScn(InstanceId instance) const override;
  void AddQueryContext(QueryContext* ctx) const override;
  std::vector<Populator*> Populators() override;

 private:
  void ExportMetrics(obs::MetricsSink* sink) const;

  std::unique_ptr<ImStore> im_store_;
  std::unique_ptr<Populator> populator_;
  bool started_ = false;

  // Declared last: the export callback reads the members above, so it must
  // detach (destruct) before any of them go away.
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

/// The standby database: the shared core kept a physical replica by parallel
/// redo apply, hosting the DBIM-on-ADG infrastructure and (optionally) a
/// RAC-distributed IMCS across several instances. Promote() gives it the
/// write side the primary builds.
class StandbyDb : public Database, public ApplySink {
 public:
  StandbyDb(const DatabaseOptions& options, size_t num_streams);
  ~StandbyDb() override;

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

  // --- QuerySCN --------------------------------------------------------------
  /// The QuerySCN queries run at: for the master instance the published
  /// QuerySCN (the one value published_query_scn() reads); for a remote RAC
  /// instance the QuerySCN it last received; after Promote() the write
  /// side's visible SCN.
  Scn query_scn(InstanceId instance = kMasterInstance) const;
  /// Waits until the master QuerySCN reaches `target`; returns query_scn().
  Scn WaitForQueryScn(Scn target, int64_t timeout_us) const;

  // --- Failover (role transition) -----------------------------------------
  /// Promotes this standby to a read-write primary: terminates redo apply at
  /// the last consistent point, installs the primary's write side over the
  /// physical database (SCN/XID allocation resume above everything applied),
  /// and rewires the instances' column stores to commit-time maintenance,
  /// repopulating them from the write side's snapshots. Received-but-
  /// undispatched redo is discarded, as in a failover. Irreversible for this
  /// object; FailedPrecondition the second time.
  Status Promote();
  bool promoted() const { return writable(); }

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

  // --- Observability -----------------------------------------------------------
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
  /// The published QuerySCN (monotonic through Stop(), reset by Restart();
  /// safe to read from monitor threads during teardown). The fleet router,
  /// lag monitor, checkpoints and v$standby_apply read it: the value a
  /// master-instance query runs at.
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

 protected:
  StatusOr<Scn> ReadScn(InstanceId instance) const override;
  void AddQueryContext(QueryContext* ctx) const override;
  std::vector<Populator*> Populators() override;

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
  /// Builds every instance's populator over `source(instance)`, enables the
  /// objects the standby IM service covers and starts population (extending
  /// any SMUs already in the stores).
  void StartPopulation(const std::function<SnapshotSource*(InstanceId)>& source,
                       chaos::ChaosController* chaos);
  /// What an applied data CV leaves besides its block change, the same in
  /// live apply and disk replay: an insert's block joins its table's segment
  /// and its key the identity index; apply accounting counts the CV.
  void NoteApplied(const ChangeVector& cv);
  /// Common tail of every data-CV apply: NoteApplied, chaos error injection,
  /// and quarantine of the affected IMCUs on any non-OK status.
  Status FinishDataApply(const ChangeVector& cv, Status st);
  void QuarantineAfterApplyError(const ChangeVector& cv, const Status& st);
  void ResetHealthForRestart();
  /// Series that exist for the database's whole life (cache, scans, streams).
  void ExportCoreMetrics(obs::MetricsSink* sink) const;
  /// Series owned by one pipeline incarnation (journal, flush, apply, …);
  /// the callback detaches before TearDownPipeline frees any of them.
  void ExportPipelineMetrics(obs::MetricsSink* sink) const;
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

  std::vector<std::unique_ptr<ReceivedLog>> streams_;

  struct InstanceState {
    std::unique_ptr<ImStore> store;
    std::unique_ptr<RemoteInstance> remote;  // Null for the master instance.
    std::unique_ptr<SnapshotSource> snapshot_source;
    std::unique_ptr<Populator> populator;
  };
  std::vector<InstanceState> instances_;
  HomeLocationMap home_map_;

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

  mutable std::mutex lag_probe_mu_;
  std::function<obs::LagSnapshot()> lag_probe_;  ///< Guarded by lag_probe_mu_.
  /// The published QuerySCN: every coordinator publish stores it before its
  /// own copy. Survives Stop().
  std::atomic<Scn> last_query_scn_{kInvalidScn};
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

  // Declared last (destroyed first): export callbacks read the members above.
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
