#ifndef STRATUS_DB_QUERY_H_
#define STRATUS_DB_QUERY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/catalog.h"
#include "db/plan.h"
#include "db/query_profile.h"
#include "imcs/expression.h"
#include "imcs/scan_engine.h"
#include "storage/buffer_cache.h"
#include "storage/table.h"
#include "txn/txn_manager.h"

namespace stratus {

// AggKind and AggSpec live in imcs/group_fold.h (aggregates fold inside the
// scan engine's workers); re-exported here for query authors.

/// A filtered full-table scan, the query shape of the paper's evaluation
/// (Table 1: `SELECT * FROM t WHERE n1 = :1` / `WHERE c1 = :2`) — widened
/// with grouped aggregation and projection for the operator-tree executor.
struct ScanQuery {
  ObjectId object = kInvalidObjectId;
  std::vector<Predicate> predicates;
  /// Bypass the IMCS (the paper's "without DBIM" baseline); overrides the
  /// planner's per-table access-path choice.
  bool force_row_store = false;
  /// GROUP BY key columns (schema or virtual). Requires `aggregates`.
  /// Output rows are group key values ++ one value per aggregate, sorted by
  /// key tuple (deterministic at any DOP).
  std::vector<uint32_t> group_by;
  /// Aggregates computed per group — or, with `group_by` empty, one global
  /// output row of aggregate values (SQL semantics: COUNT of zero rows is 0,
  /// SUM/MIN/MAX of zero rows is NULL). A single ungrouped aggregate folds
  /// inside the scan engine's workers (push-down) and returns no rows.
  std::vector<AggSpec> aggregates;
  /// Columns kept in non-aggregated output (empty = all columns, including
  /// registered In-Memory Expression virtual columns).
  std::vector<uint32_t> projection;
  /// Degree of parallelism for the scan; 0 = the context's default DOP.
  uint32_t dop = 0;
};

/// One dimension hop of a multi-way join: equi-join the rows accumulated so
/// far (probe side) against `object` (joinee) on
/// `accumulated[probe_column] == object_row[build_column]`. Matching output
/// rows are the concatenation accumulated ++ joinee row, so each hop widens
/// the layout by the joinee's arity and later hops may probe on any column
/// of any earlier table.
struct JoinEdge {
  ObjectId object = kInvalidObjectId;
  uint32_t probe_column = 0;  ///< Index into the accumulated (joined) layout.
  uint32_t build_column = 0;  ///< Index into `object`'s own layout.
  /// Pushed into `object`'s scan (its own layout).
  std::vector<Predicate> predicates;
};

/// A fact table joined along a chain of equi-join edges, star-schema style
/// (the paper's Figure 2 shape: a fact table joined to one or more
/// dimensions), with optional residual predicates, grouped aggregation, and
/// projection over the final joined layout. The planner plans every query as
/// this shape: a ScanQuery is the zero-edge case, and a two-table join is one
/// edge whose output rows are fact row ++ dimension row.
struct MultiJoinQuery {
  ObjectId fact = kInvalidObjectId;           ///< Driving (probe) table.
  std::vector<Predicate> fact_predicates;     ///< Pushed into the fact scan.
  std::vector<JoinEdge> joins;                ///< Applied in order.
  /// Residual conjuncts over the fully joined layout (cross-table filters
  /// that cannot push into any single scan).
  std::vector<Predicate> joined_predicates;
  /// Grouped aggregation over the joined layout (same semantics as
  /// ScanQuery::group_by/aggregates).
  std::vector<uint32_t> group_by;
  std::vector<AggSpec> aggregates;
  std::vector<uint32_t> projection;  ///< Over the joined layout; empty = all.
  /// Bypass the IMCS on every table (planner override).
  bool force_row_store = false;
  /// Degree of parallelism for every scan; 0 = the context default.
  uint32_t dop = 0;
};

/// Query execution outcome.
struct QueryResult {
  /// Materialized rows. Empty for single-aggregate queries; grouped queries
  /// return one row per group (key values ++ aggregate values, sorted by key
  /// tuple); ungrouped multi-aggregate queries return exactly one row of
  /// aggregate values.
  std::vector<Row> rows;
  /// Matching row count for scans/joins and single aggregates; for grouped /
  /// multi-aggregate queries this is rows.size() (the profile's `matches`
  /// keeps the matching input-row count).
  uint64_t count = 0;
  int64_t agg_int = 0;       ///< kSum/kMin/kMax result (first aggregate).
  bool agg_valid = false;    ///< False when no non-null input reached the agg.
  /// A kSum aggregate's exact total left the int64 range somewhere in this
  /// query; the reported value is saturated at the bound. Identical across
  /// IMCS/row paths, kernels, and DOP (the fold carries an exact 128-bit
  /// sum).
  bool agg_overflow = false;
  Scn snapshot = kInvalidScn;
  ScanStats stats;
  /// Execution profile (always populated): pruning/reconciliation counts,
  /// per-operator stages, per-worker lanes, commit lookups, freshness at
  /// execution.
  QueryProfile profile;
};

/// Everything a query needs from its database role — both roles (and every
/// standby instance service) build one of these.
struct QueryContext {
  const Catalog* catalog = nullptr;
  const BufferCache* cache = nullptr;
  const VisibilityResolver* resolver = nullptr;
  std::function<Table*(ObjectId)> table_lookup;
  /// Column stores consulted by scans (all RAC instances of the role).
  std::vector<const ImStore*> stores;
  SnapshotRegistry* snapshots = nullptr;  ///< Optional (GC watermark).
  /// In-Memory Expressions for virtual-column predicates/aggregates.
  const ImExpressionRegistry* expressions = nullptr;
  /// Scan DOP applied when a query leaves its `dop` at 0 (from
  /// DatabaseOptions::scan_dop). 0/1 = serial.
  uint32_t default_dop = 1;
  /// Worker pool for parallel scans; null = ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Access-path planner knobs (from DatabaseOptions::planner).
  PlannerOptions planner;

  // --- Observability ---------------------------------------------------------
  /// Role tag stamped into every QueryProfile.
  const char* role = "primary";
  /// Slow-query ring + in-flight registry of the owning role (null: profiles
  /// still fill, nothing is logged).
  SlowQueryLog* slow_log = nullptr;
  /// Role-specific profile annotation applied just before a query completes
  /// (the standby samples its journal/commit-table occupancy and the lag
  /// monitor here; the primary stamps zero staleness).
  std::function<void(QueryProfile*)> annotate;
};

/// Cumulative scan accounting across every query executed by one engine;
/// per-query `ScanStats` snapshots stay in `QueryResult`, these totals feed
/// the metrics registry.
struct ScanTotals {
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> joins{0};
  std::atomic<uint64_t> index_fetches{0};
  std::atomic<uint64_t> rows_from_imcs{0};
  std::atomic<uint64_t> rows_from_rowstore{0};
  std::atomic<uint64_t> imcus_scanned{0};
  std::atomic<uint64_t> imcus_pruned{0};
  std::atomic<uint64_t> imcus_skipped{0};
  std::atomic<uint64_t> blocks_rowpath{0};
  std::atomic<uint64_t> invalid_rowpath{0};
  std::atomic<uint64_t> parallel_tasks{0};
  std::atomic<uint64_t> kernel_swar_words{0};
  std::atomic<uint64_t> kernel_avx2_words{0};
  std::atomic<uint64_t> kernel_scalar_rows{0};

  void Add(const ScanStats& s) {
    rows_from_imcs.fetch_add(s.rows_from_imcs, std::memory_order_relaxed);
    rows_from_rowstore.fetch_add(s.rows_from_rowstore, std::memory_order_relaxed);
    imcus_scanned.fetch_add(s.imcus_scanned, std::memory_order_relaxed);
    imcus_pruned.fetch_add(s.imcus_pruned, std::memory_order_relaxed);
    imcus_skipped.fetch_add(s.imcus_skipped, std::memory_order_relaxed);
    blocks_rowpath.fetch_add(s.blocks_rowpath, std::memory_order_relaxed);
    invalid_rowpath.fetch_add(s.invalid_rowpath, std::memory_order_relaxed);
    parallel_tasks.fetch_add(s.parallel_tasks, std::memory_order_relaxed);
    kernel_swar_words.fetch_add(s.kernel_swar_words, std::memory_order_relaxed);
    kernel_avx2_words.fetch_add(s.kernel_avx2_words, std::memory_order_relaxed);
    kernel_scalar_rows.fetch_add(s.kernel_scalar_rows,
                                 std::memory_order_relaxed);
  }
};

/// The query engine shared by primary and standby (the paper stresses the
/// standby runs the same engine and inherits every In-Memory Scan Engine
/// optimization).
class QueryEngine {
 public:
  /// Runs `query` at `snapshot` (primary: current visible SCN; standby: the
  /// QuerySCN).
  StatusOr<QueryResult> ExecuteScan(const QueryContext& ctx, const ScanQuery& query,
                                    Scn snapshot) const;

  /// Star-schema chain of 1+ equi-joins with optional residual filters,
  /// grouped aggregation, and projection over the joined layout. Each hash
  /// join builds on whichever side materialized fewer rows; output order
  /// stays canonical (probe-row order, build matches in build order) so the
  /// choice never changes result bytes.
  StatusOr<QueryResult> ExecuteMultiJoin(const QueryContext& ctx,
                                         const MultiJoinQuery& query,
                                         Scn snapshot) const;

  /// Point lookup through the identity index (the OLTAP workload's "fetch").
  StatusOr<std::optional<Row>> IndexFetch(const QueryContext& ctx, ObjectId object,
                                          int64_t key, Scn snapshot) const;

  /// Lifetime totals across all queries run by this engine.
  const ScanTotals& totals() const { return totals_; }

 private:
  /// Plans, builds the operator tree, executes it, and finalizes the shared
  /// profile/slow-log/result bookkeeping for every facade entry point.
  StatusOr<QueryResult> ExecutePlan(const QueryContext& ctx, Plan plan,
                                    uint32_t query_dop, Scn snapshot) const;

  ScanEngine scan_engine_;
  Planner planner_;
  mutable ScanTotals totals_;
};

}  // namespace stratus

#endif  // STRATUS_DB_QUERY_H_
