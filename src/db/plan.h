#ifndef STRATUS_DB_PLAN_H_
#define STRATUS_DB_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "imcs/scan_engine.h"

namespace stratus {

struct MultiJoinQuery;
struct QueryContext;

/// Planner knobs, threaded from DatabaseOptions into every QueryContext.
struct PlannerOptions {
  /// SMU invalidity ratio (invalid rows / rows under ready IMCUs) at or above
  /// which the planner routes a table's scan down the row path: past this
  /// point the per-row SMU reconciliation re-fetches dominate what the
  /// columnar kernels save (the Polynesia-style update-pressure crossover).
  double rowpath_invalid_threshold = 0.40;
};

enum class AccessPath : uint8_t { kImcs = 0, kRowStore };

/// The planner's per-table access-path decision plus the storage-index and
/// SMU statistics it was derived from — stamped into the scan operator's
/// profile stage so EXPLAIN shows *why* a path was chosen.
struct AccessPathChoice {
  AccessPath path = AccessPath::kImcs;
  const char* reason = "imcs-covered";  ///< Static string, safe to copy.
  double invalid_fraction = 0.0;   ///< Invalid / covered rows (ready IMCUs).
  double coverage_fraction = 0.0;  ///< Covered rows / estimated table rows.
  uint64_t est_rows = 0;           ///< Block-count cardinality estimate.
  uint64_t est_selected_rows = 0;  ///< After storage-index pruning estimate.
  uint64_t rows_covered = 0;       ///< Rows under usable ready IMCUs.
  uint64_t rows_invalid = 0;       ///< Invalid rows among them.
  uint64_t imcus_ready = 0;        ///< Usable ready IMCUs at this snapshot.
  uint64_t imcus_match = 0;        ///< Of those, storage index might match.
};

/// True when the STRATUS_FORCE_ROWPATH environment override is active (set
/// and not "0"): every planner decision becomes the row path, the
/// force_row_store baseline switch applied fleet-wide without touching query
/// code. Mirrors STRATUS_FORCE_SCALAR on the kernel side.
bool ForceRowPathEnv();

/// The cost model's core verdict from coverage counters alone (env override
/// included, query-level force_row_store excluded). Shared by
/// ChooseAccessPath and the v$im_segments view so introspection always shows
/// the same policy the planner applies. `reason` receives a static string.
AccessPath PlannerVerdict(uint64_t rows_covered, double invalid_fraction,
                          double rowpath_invalid_threshold,
                          const char** reason);

/// Chooses IMCS vs row path for one table at one snapshot from SMU coverage,
/// invalidity ratios, and storage-index (min/max) pruning estimates.
/// Override order: query-level `force_row_store`, then STRATUS_FORCE_ROWPATH,
/// then no-coverage, then the invalidity crossover, else IMCS.
AccessPathChoice ChooseAccessPath(const QueryContext& ctx, ObjectId object,
                                  const std::vector<Predicate>& preds,
                                  bool force_row_store, Scn snapshot);

/// One node of an executable plan. A `Plan` is a left-deep tree:
/// scan leaves → optional filter (residual predicates over a joined layout) →
/// hash joins → optional hash aggregate → optional project.
struct PlanNode {
  enum class Kind : uint8_t {
    kScan = 0,
    kFilter,
    kProject,
    kHashAggregate,
    kHashJoin,
  };
  Kind kind = Kind::kScan;

  // kScan — leaf; also carries the planner's access-path decision.
  ObjectId object = kInvalidObjectId;
  AccessPathChoice access;
  /// kScan: predicates pushed into the scan engine. kFilter: residual
  /// conjuncts evaluated over the child's output layout.
  std::vector<Predicate> predicates;
  /// kScan only: single ungrouped aggregate folded inside the scan engine's
  /// workers (the [11] push-down, the zero-key GroupFold) — the tree then has
  /// no aggregate node and the scan materializes nothing.
  ScanAggregate pushdown;

  // kProject.
  std::vector<uint32_t> columns;

  // kHashAggregate.
  std::vector<uint32_t> group_by;
  std::vector<AggSpec> aggregates;

  // kHashJoin — children[0] is the probe (left/accumulated) input,
  // children[1] the joinee. The *operator* picks the build side: returning
  // rows, it builds on whichever side materialized fewer rows; under an
  // aggregate it builds on the joinee and the probe input folds through
  // the join, so the probe runs inside the fact scan.
  uint32_t probe_column = 0;
  uint32_t build_column = 0;

  std::vector<std::unique_ptr<PlanNode>> children;
};

/// An executable plan: the operator tree root plus the kind tag stamped into
/// profiles and slow-log rows: "scan" (no join edge) or "join" (1+ edges).
struct Plan {
  std::unique_ptr<PlanNode> root;
  const char* kind = "scan";
  ObjectId object = kInvalidObjectId;             ///< Driving (probe) table.
  ObjectId join_right = kInvalidObjectId;         ///< Last edge's joinee.
};

/// Builds executable plans from the query surface. Stateless; decisions are
/// a function of (context, query, snapshot) only, so planning is
/// reproducible and never changes result bytes — only operator shape.
class Planner {
 public:
  /// Plans a fact table joined along 0..n edges: a scan is the zero-edge
  /// query, a two-table join is one hash join over two scan leaves.
  StatusOr<Plan> PlanQuery(const QueryContext& ctx, const MultiJoinQuery& query,
                           Scn snapshot) const;
};

}  // namespace stratus

#endif  // STRATUS_DB_PLAN_H_
