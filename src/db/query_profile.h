#ifndef STRATUS_DB_QUERY_PROFILE_H_
#define STRATUS_DB_QUERY_PROFILE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "imcs/scan_engine.h"

namespace stratus {

/// Per-pool-lane rollup of one query's scan tasks: which thread ran how many
/// tasks, how long it waited for its first task, and how long they ran.
struct WorkerLane {
  uint32_t worker = 0;         ///< Dense obs thread ordinal.
  uint64_t tasks = 0;
  /// Scan submit → this lane's first task start (the minimum over its
  /// tasks), so it never exceeds the query's wall time.
  uint64_t queue_wait_us = 0;
  uint64_t exec_us = 0;        ///< Summed task run time.
};

/// One operator's slice of a query's execution, recorded by the operator-tree
/// executor in depth-first (leaves-first) order. Scan leaves carry the
/// planner's access-path decision and the engine accounting for that table;
/// joins record which side the hash table was built on; aggregates record
/// group counts.
struct OperatorStage {
  std::string op;  ///< "scan" | "filter" | "project" | "hash_agg" | "hash_join".
  ObjectId object = kInvalidObjectId;  ///< Scan leaves: the table scanned.
  std::string path;    ///< Scan leaves: "imcs" | "row" (planner's choice).
  std::string reason;  ///< Scan leaves: why the planner chose `path`.
  double invalid_fraction = 0.0;  ///< Scan: SMU invalidity the planner saw.
  uint64_t rows_in = 0;   ///< Rows pulled or folded from the child.
  /// Rows handed to the parent; a scan leaf under an aggregate counts the
  /// rows it matched and folded.
  uint64_t rows_out = 0;
  uint64_t groups = 0;       ///< hash_agg: distinct group keys.
  /// hash_agg: where its input folded — "scan" (on IMCU codes inside the
  /// scan tasks), "join" (through the join chain, inside the fact scan's
  /// tasks) or "rows".
  std::string fold;
  uint64_t build_rows = 0;   ///< hash_join: hash-table side input rows.
  uint64_t probe_rows = 0;   ///< hash_join: probe side input rows.
  /// hash_join: "left" | "right" — the smaller input when returning rows,
  /// always the joinee ("right") under an aggregate.
  std::string build_side;
  /// Wall time of this operator's own Open and NextBatch work (children's
  /// time excluded, so stages never overlap).
  uint64_t elapsed_us = 0;
  ScanStats scan;            ///< Scan leaves: engine accounting.

  std::string ToJson() const;
};

/// The `Explain()`-style execution profile attached to every QueryResult:
/// where the rows came from (IMCS vs row path), what pruned, what the SMU
/// reconciliation re-fetched, how the parallel tasks spread over workers,
/// how many commit-status lookups visibility resolution made, the IM-ADG
/// journal/commit-table occupancy sampled at execution, and the QuerySCN
/// plus its lag behind the primary at the moment the query ran.
struct QueryProfile {
  uint64_t query_id = 0;       ///< From the role's SlowQueryLog (0 = unlogged).
  std::string kind;            ///< "scan" | "join".
  std::string role;            ///< "primary" | "standby".
  ObjectId object = kInvalidObjectId;
  ObjectId join_right = kInvalidObjectId;  ///< Build side of a join.
  Scn snapshot = kInvalidScn;  ///< The QuerySCN the query executed at.

  /// Engine accounting: rows_from_imcs / rows_from_rowstore split,
  /// imcus_scanned / imcus_pruned / imcus_skipped, blocks_rowpath, the SMU
  /// reconciliation hits (invalid_rowpath), parallel_tasks, and the
  /// kernel_* attribution of which filter kernel built the match bitmaps.
  ScanStats scan;
  uint64_t rows_returned = 0;  ///< Materialized rows handed back.
  uint64_t matches = 0;        ///< Matching rows (aggregates included).

  /// Per-operator execution stages (operator-tree executor), depth-first
  /// from the leaves — the EXPLAIN plan with live counters attached.
  std::vector<OperatorStage> stages;

  uint32_t dop = 1;
  std::vector<WorkerLane> lanes;  ///< Per-worker rollup, sorted by worker.

  /// Commit-status lookups the visibility resolver made for this query (the
  /// standby's TxnTable is fed by the IM-ADG commit machinery; on the
  /// primary this counts live-txn resolutions).
  uint64_t commit_lookups = 0;
  /// IM-ADG occupancy sampled at execution (standby only; imadg_sampled
  /// gates validity).
  uint64_t journal_live_anchors = 0;
  uint64_t commit_table_live_nodes = 0;
  bool imadg_sampled = false;

  /// Freshness at execution: the primary's SCN and the QuerySCN's lag behind
  /// it, read from the cluster lag monitor (lag_sampled gates validity — a
  /// standalone standby has no primary mark to compare against).
  Scn primary_scn = kInvalidScn;
  uint64_t staleness_scn = 0;
  int64_t staleness_us = 0;
  bool lag_sampled = false;

  uint64_t started_at_us = 0;  ///< Monotonic clock, for ordering.
  uint64_t wall_us = 0;
  /// Moving the root's batches into QueryResult::rows.
  uint64_t assembly_us = 0;
  /// wall − Σ stage elapsed − assembly: time no stage accounts for.
  uint64_t unattributed_us = 0;
  uint64_t caller_cpu_us = 0;  ///< Calling thread's CPU (workers excluded).

  /// Multi-line human-readable rendering (EXPLAIN-style).
  std::string Explain() const;
  /// One JSON object (the /queries endpoint's row format).
  std::string ToJson() const;
};

/// A query currently executing (registered by SlowQueryLog::Begin, removed
/// by End), for the /queries endpoint's in-flight table.
struct InFlightQuery {
  uint64_t query_id = 0;
  std::string kind;
  ObjectId object = kInvalidObjectId;
  Scn snapshot = kInvalidScn;
  uint64_t started_at_us = 0;
};

/// Bounded ring of completed query profiles plus the in-flight registry —
/// one per database role. `threshold_us = 0` records every completed query
/// (the ring is bounded anyway); a positive threshold keeps only queries at
/// least that slow, the classic slow-query log.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 128, uint64_t threshold_us = 0)
      : capacity_(capacity), threshold_us_(threshold_us) {}

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Registers an in-flight query; returns its id (stamped into the
  /// profile by End).
  uint64_t Begin(const std::string& kind, ObjectId object, Scn snapshot);
  /// Completes `query_id`: drops it from the in-flight set and records the
  /// profile in the ring when it cleared the threshold.
  void End(uint64_t query_id, QueryProfile profile);

  std::vector<QueryProfile> Completed() const;  ///< Oldest → newest.
  std::vector<InFlightQuery> InFlight() const;
  uint64_t total_completed() const;

  /// {"in_flight":[...],"completed":[...]} for the /queries endpoint.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  const uint64_t threshold_us_;

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  uint64_t completed_ = 0;
  std::deque<QueryProfile> ring_;
  std::unordered_map<uint64_t, InFlightQuery> in_flight_;
};

/// Folds a scan engine profile into per-worker lanes (sorted by worker).
std::vector<WorkerLane> RollupLanes(const ScanProfile& profile);

}  // namespace stratus

#endif  // STRATUS_DB_QUERY_PROFILE_H_
