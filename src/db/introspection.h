#ifndef STRATUS_DB_INTROSPECTION_H_
#define STRATUS_DB_INTROSPECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "db/database.h"
#include "obs/lag_monitor.h"
#include "obs/obs_server.h"

namespace stratus {

/// v$im_segments analog: one row per (role, instance, object) with an IMCS
/// presence — how much of the table the column store covers, how stale/invalid
/// the coverage is, and how much pool it costs. Collected by walking the live
/// SMU lists, so it reflects this instant, not a cached population pass.
struct VImSegmentsRow {
  std::string role;  ///< "primary" | "standby".
  InstanceId instance = kMasterInstance;
  ObjectId object = kInvalidObjectId;
  std::string name;  ///< Table name from the dictionary.

  uint64_t smus_total = 0;
  uint64_t smus_ready = 0;
  uint64_t smus_populating = 0;
  /// SMUs wholly invalidated (coarse invalidation / apply-error quarantine):
  /// scans route their whole range to the row path.
  uint64_t smus_quarantined = 0;

  uint64_t rows_covered = 0;   ///< Rows in ready IMCUs.
  uint64_t rows_invalid = 0;   ///< Invalid bits set across ready SMUs.
  double invalid_fraction = 0; ///< rows_invalid / rows_covered (0 when empty).

  uint64_t blocks_total = 0;    ///< The table's block count right now.
  uint64_t blocks_covered = 0;  ///< Blocks under a ready SMU.
  double population_pct = 0;    ///< blocks_covered / blocks_total * 100.

  uint64_t bytes = 0;  ///< Approximate pool bytes of the ready IMCUs.
  Scn min_snapshot_scn = kInvalidScn;  ///< Oldest ready-IMCU snapshot.
  Scn max_snapshot_scn = kInvalidScn;  ///< Newest ready-IMCU snapshot.

  /// The planner's current verdict for this object: what access path would an
  /// unforced scan take right now, and why ("imcs-covered",
  /// "invalidity-crossover", "no-imcs-coverage", "env:STRATUS_FORCE_ROWPATH").
  /// Same policy as the executor's cost model (PlannerVerdict), evaluated at
  /// the default invalidity threshold.
  std::string planner_path;    ///< "imcs" | "row".
  std::string planner_reason;

  std::string ToJson() const;
};

/// v$standby_apply analog: the standby pipeline's health and progress marks in
/// one row, plus the cluster lag decomposition when a monitor is wired in.
struct VStandbyApplyRow {
  bool degraded = false;
  uint64_t apply_errors = 0;
  uint64_t quarantined_imcus = 0;
  std::string first_error;  ///< Empty while healthy.

  Scn applied_scn = kInvalidScn;
  Scn query_scn = kInvalidScn;
  uint64_t restarts = 0;
  uint64_t crash_restarts = 0;

  /// IM-ADG occupancy (valid while a pipeline is up; zeros after Stop()).
  uint64_t journal_live_anchors = 0;
  uint64_t journal_records_buffered = 0;
  uint64_t journal_anchors_created = 0;
  uint64_t commit_table_live_nodes = 0;
  uint64_t commit_table_inserts = 0;
  Scn commit_table_min_pending_scn = kInvalidScn;

  /// Lag decomposition from the cluster monitor (lag_valid gates it).
  bool lag_valid = false;
  obs::LagSnapshot lag;

  std::string ToJson() const;
};

/// v$transport analog: one row per redo shipper with its channel counters.
struct VTransportRow {
  std::string channel;  ///< Channel name ("redo-0", …).
  bool paused = false;
  uint64_t records_shipped = 0;
  Scn last_shipped_scn = kInvalidScn;
  net::ChannelStats stats;

  std::string ToJson() const;
};

/// v$persist analog: the standby's durability layer in one row — archive,
/// checkpoint/snapshot and recovery progress, plus the last recovery's
/// breakdown. `enabled` is false (and everything else zero) for an all-RAM
/// standby.
struct VPersistRow {
  bool enabled = false;
  std::string data_dir;
  uint64_t disk_restarts = 0;

  uint64_t archived_records = 0;
  uint64_t archived_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t truncated_tails = 0;
  uint64_t segments = 0;
  uint64_t segments_recycled = 0;
  uint64_t checkpoints = 0;
  uint64_t snapshots = 0;
  uint64_t recoveries = 0;
  uint64_t faults_injected = 0;

  Scn durable_scn = kInvalidScn;
  Scn checkpoint_scn = kInvalidScn;
  Scn snapshot_scn = kInvalidScn;
  Scn recovered_scn = kInvalidScn;

  /// Last recovery breakdown (all zero until the first from-disk restart/boot
  /// recovery actually ran).
  bool ckpt_loaded = false;
  bool snap_loaded = false;
  uint64_t restored_blocks = 0;
  uint64_t restored_smus = 0;
  uint64_t replayed_records = 0;
  uint64_t replayed_cvs = 0;
  uint64_t applied_cvs = 0;
  uint64_t row_invalidations = 0;
  uint64_t coarse_invalidations = 0;

  std::string ToJson() const;
};

/// Collectors. Either database may be null (the view just skips that role);
/// a standalone standby passes monitor == nullptr and gets lag_valid = false.
std::vector<VImSegmentsRow> CollectVImSegments(PrimaryDb* primary,
                                               StandbyDb* standby);
VStandbyApplyRow CollectVStandbyApply(StandbyDb* standby,
                                      obs::LagMonitor* monitor);
std::vector<VTransportRow> CollectVTransport(AdgCluster* cluster);
VPersistRow CollectVPersist(StandbyDb* standby);

/// JSON array renderers (the /v/<view> payloads).
std::string VImSegmentsJson(const std::vector<VImSegmentsRow>& rows);
std::string VTransportJson(const std::vector<VTransportRow>& rows);

/// Binds one AdgCluster's whole observability surface to HTTP paths:
///
///   /metrics        Prometheus text exposition of the cluster registry
///   /metrics.json   the same series as JSON
///   /healthz        200 while the standby is healthy, 503 once degraded
///   /readyz         200 once a QuerySCN is published (standby queryable)
///   /traces         Chrome trace-event JSON of the global TraceBuffer
///   /queries        both roles' slow-query rings + in-flight queries
///   /v/im_segments  v$im_segments rows
///   /v/standby_apply v$standby_apply row
///   /v/transport    v$transport rows
///   /v/persist      v$persist row (durability layer)
///
/// The payload builders are public so tests exercise them without sockets.
/// The cluster must outlive the server (Stop the server first).
class ClusterObservability {
 public:
  explicit ClusterObservability(AdgCluster* cluster) : cluster_(cluster) {}

  std::string MetricsText() const;
  std::string MetricsJson() const;
  obs::HttpResponse Healthz() const;
  obs::HttpResponse Readyz() const;
  std::string TracesJson() const;
  std::string QueriesJson() const;
  /// `view` is the path tail, e.g. "im_segments"; unknown views get a 404.
  obs::HttpResponse View(const std::string& view) const;

  /// Registers every endpoint above on `server`.
  void Register(obs::ObsServer* server);

 private:
  AdgCluster* cluster_;
};

}  // namespace stratus

#endif  // STRATUS_DB_INTROSPECTION_H_
