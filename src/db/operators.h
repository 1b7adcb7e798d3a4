#ifndef STRATUS_DB_OPERATORS_H_
#define STRATUS_DB_OPERATORS_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/plan.h"
#include "db/query_profile.h"
#include "imcs/scan_engine.h"
#include "storage/visibility.h"

namespace stratus {

struct QueryContext;

/// Shared per-query execution state threaded through every operator: one
/// snapshot, one (counting) read view, one DOP, one lane-profile collector —
/// the whole tree is pinned to a single QuerySCN end to end.
struct ExecContext {
  const QueryContext* ctx = nullptr;
  const ScanEngine* engine = nullptr;
  Scn snapshot = kInvalidScn;
  /// Read view with the query's counting resolver installed.
  const ReadView* view = nullptr;
  /// Commit-status lookups made so far by this query (reads the counting
  /// resolver); side scans use deltas for their own log entries.
  std::function<uint64_t()> commit_lookups;
  size_t dop = 1;
  /// Every scan leaf's task records accumulate here (the query profile's
  /// lanes roll up all leaves, so lane task counts sum to parallel_tasks).
  ScanProfile* scan_profile = nullptr;
  /// Every scan leaf except the one on `driving_object` logs its own "scan"
  /// slow-log entry, so a join's build sides appear as their own queries.
  ObjectId driving_object = kInvalidObjectId;
};

/// Batch-at-a-time operator: Open prepares (and for pipeline breakers,
/// executes) the subtree; NextBatch moves the next batch of output rows into
/// `*batch` (cleared first) and returns false when exhausted. All calls
/// happen on the query's calling thread; parallelism lives *inside*
/// operators (scan leaves fan out per-IMCU tasks, folds run partials in
/// parallel), so the tree needs no cross-operator locking. Each operator
/// times its own Open and NextBatch work (never its children's) into its
/// stage, so stage times never overlap.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open(ExecContext* ec) = 0;
  virtual bool NextBatch(std::vector<Row>* batch) = 0;

  /// How an aggregate consumes its input: Open this subtree with every
  /// output row folded into `fold` instead of handed out through NextBatch.
  /// Records where the fold ran in `agg->fold`: "scan" (a scan leaf folds
  /// each IMCU's matches on their codes inside its scan tasks), "join" (a
  /// hash join builds on its joinee and adds it to the fold's join chain, so
  /// its probe input — in the end the fact scan leaf — folds the joined rows
  /// without building them) or "rows" (this default: drain NextBatch and
  /// fold the materialized rows in round-robin batch partials, timed into
  /// `agg`).
  virtual Status OpenFolded(ExecContext* ec, GroupFold* fold,
                            OperatorStage* agg);

  /// Appends this subtree's stages depth-first, leaves first (the order
  /// EXPLAIN prints them).
  void CollectStages(std::vector<OperatorStage>* out) const;

  void AddChild(std::unique_ptr<Operator> child) {
    children_.push_back(std::move(child));
  }

  /// Execution record for EXPLAIN / the /queries endpoint.
  OperatorStage stage;

  // Aggregate summary for the facade's legacy result mirror
  // (count/agg_int/agg_valid/agg_overflow). Filled by push-down scans and
  // hash aggregates.
  bool has_agg = false;
  AggKind first_agg_kind = AggKind::kNone;
  AggState first_agg;         ///< Final state of the first aggregate.
  bool agg_overflow = false;  ///< Any kSum in this operator overflowed.
  uint64_t input_matches = 0; ///< Matching input rows that reached the fold.

 protected:
  std::vector<std::unique_ptr<Operator>> children_;
};

/// Builds the executable operator tree for a plan subtree.
std::unique_ptr<Operator> BuildOperatorTree(const PlanNode& node);

/// Drains every batch of `op` into `rows` by move, timing the moves into
/// `*elapsed_us` (`op` times its own NextBatch).
void DrainInto(Operator* op, std::vector<Row>* rows, uint64_t* elapsed_us);

}  // namespace stratus

#endif  // STRATUS_DB_OPERATORS_H_
