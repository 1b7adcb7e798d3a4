#include "db/plan.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "db/query.h"
#include "imcs/im_store.h"
#include "imcs/smu.h"
#include "storage/block.h"
#include "storage/table.h"

namespace stratus {

bool ForceRowPathEnv() {
  const char* v = std::getenv("STRATUS_FORCE_ROWPATH");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

AccessPathChoice ChooseAccessPath(const QueryContext& ctx, ObjectId object,
                                  const std::vector<Predicate>& preds,
                                  bool force_row_store, Scn snapshot) {
  AccessPathChoice c;
  Table* table = ctx.table_lookup ? ctx.table_lookup(object) : nullptr;
  const size_t num_blocks = table != nullptr ? table->SnapshotBlocks().size() : 0;
  c.est_rows = static_cast<uint64_t>(num_blocks) * kRowsPerBlock;

  // Walk the SMUs the scan engine would consider usable at this snapshot and
  // fold their coverage, invalidity, and storage-index pruning estimates.
  uint64_t rows_pruned_est = 0;
  for (const ImStore* store : ctx.stores) {
    if (store == nullptr) continue;
    for (const auto& smu : store->SmusForObject(object)) {
      if (smu->state() != SmuState::kReady) continue;
      const auto imcu = smu->imcu();
      if (imcu == nullptr || imcu->snapshot_scn() > snapshot) continue;
      ++c.imcus_ready;
      c.rows_covered += smu->num_rows();
      if (smu->AllInvalid()) {
        // Coarse-invalidated: the whole range reconciles through the row
        // path, so it counts as fully invalid coverage.
        c.rows_invalid += smu->num_rows();
        continue;
      }
      c.rows_invalid += smu->invalid_count();
      bool might_match = true;
      for (const Predicate& p : preds) {
        if (p.column >= imcu->num_columns() ||
            !imcu->column(p.column).MightMatch(p.op, p.value)) {
          might_match = false;
          break;
        }
      }
      if (might_match) {
        ++c.imcus_match;
      } else {
        rows_pruned_est += smu->num_rows();
      }
    }
  }
  if (c.rows_covered != 0) {
    c.invalid_fraction = static_cast<double>(c.rows_invalid) /
                         static_cast<double>(c.rows_covered);
  }
  if (c.est_rows != 0) {
    c.coverage_fraction =
        std::min(1.0, static_cast<double>(c.rows_covered) /
                          static_cast<double>(c.est_rows));
  }
  c.est_selected_rows =
      c.est_rows > rows_pruned_est ? c.est_rows - rows_pruned_est : 0;

  // Override order: explicit query switch, then the shared cost model (which
  // itself honors the env sweep).
  if (force_row_store) {
    c.path = AccessPath::kRowStore;
    c.reason = "force_row_store";
  } else {
    c.path = PlannerVerdict(c.rows_covered, c.invalid_fraction,
                            ctx.planner.rowpath_invalid_threshold, &c.reason);
  }
  if (c.path == AccessPath::kRowStore) c.est_selected_rows = c.est_rows;
  return c;
}

AccessPath PlannerVerdict(uint64_t rows_covered, double invalid_fraction,
                          double rowpath_invalid_threshold,
                          const char** reason) {
  if (ForceRowPathEnv()) {
    *reason = "env:STRATUS_FORCE_ROWPATH";
    return AccessPath::kRowStore;
  }
  if (rows_covered == 0) {
    *reason = "no-imcs-coverage";
    return AccessPath::kRowStore;
  }
  if (invalid_fraction >= rowpath_invalid_threshold) {
    *reason = "invalidity-crossover";
    return AccessPath::kRowStore;
  }
  *reason = "imcs-covered";
  return AccessPath::kImcs;
}

namespace {

Status CheckTable(const QueryContext& ctx, ObjectId object, Scn snapshot,
                  const char* missing_msg, const char* no_object_msg) {
  if (!ctx.catalog->ExistsAt(object, snapshot))
    return Status::NotFound(missing_msg);
  if (ctx.table_lookup(object) == nullptr)
    return Status::NotFound(no_object_msg);
  return Status::OK();
}

std::unique_ptr<PlanNode> MakeScanNode(const QueryContext& ctx, ObjectId object,
                                       std::vector<Predicate> preds,
                                       bool force_row_store, Scn snapshot) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->object = object;
  node->access =
      ChooseAccessPath(ctx, object, preds, force_row_store, snapshot);
  node->predicates = std::move(preds);
  return node;
}

/// Wraps `input` with aggregate / project nodes per the shared surface
/// (group_by + aggregates, else projection). A single ungrouped aggregate
/// over a bare scan folds inside the scan engine instead (push-down) — the
/// scan then materializes nothing.
std::unique_ptr<PlanNode> WrapOutput(std::unique_ptr<PlanNode> input,
                                     const std::vector<uint32_t>& group_by,
                                     const std::vector<AggSpec>& aggregates,
                                     const std::vector<uint32_t>& projection) {
  if (!aggregates.empty()) {
    if (group_by.empty() && aggregates.size() == 1 &&
        input->kind == PlanNode::Kind::kScan) {
      input->pushdown =
          ScanAggregate{aggregates[0].kind, aggregates[0].column};
      return input;
    }
    auto agg = std::make_unique<PlanNode>();
    agg->kind = PlanNode::Kind::kHashAggregate;
    agg->group_by = group_by;
    agg->aggregates = aggregates;
    agg->children.push_back(std::move(input));
    return agg;
  }
  if (!projection.empty()) {
    auto proj = std::make_unique<PlanNode>();
    proj->kind = PlanNode::Kind::kProject;
    proj->columns = projection;
    proj->children.push_back(std::move(input));
    return proj;
  }
  return input;
}

}  // namespace

StatusOr<Plan> Planner::PlanQuery(const QueryContext& ctx,
                                  const MultiJoinQuery& query,
                                  Scn snapshot) const {
  Status ok = CheckTable(ctx, query.fact, snapshot,
                         "table does not exist at this snapshot",
                         "no table object");
  if (!ok.ok()) return ok;
  for (const JoinEdge& edge : query.joins) {
    ok = CheckTable(ctx, edge.object, snapshot,
                    "join table does not exist at this snapshot",
                    "no join table object");
    if (!ok.ok()) return ok;
  }
  if (!query.group_by.empty() && query.aggregates.empty())
    return Status::InvalidArgument("group_by requires aggregates");

  // Left-deep chain: each edge joins the accumulated layout (probe) against
  // its dimension scan (joinee).
  std::unique_ptr<PlanNode> node =
      MakeScanNode(ctx, query.fact, query.fact_predicates,
                   query.force_row_store, snapshot);
  for (const JoinEdge& edge : query.joins) {
    auto join = std::make_unique<PlanNode>();
    join->kind = PlanNode::Kind::kHashJoin;
    join->probe_column = edge.probe_column;
    join->build_column = edge.build_column;
    join->children.push_back(std::move(node));
    join->children.push_back(MakeScanNode(ctx, edge.object, edge.predicates,
                                          query.force_row_store, snapshot));
    node = std::move(join);
  }
  if (!query.joined_predicates.empty()) {
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanNode::Kind::kFilter;
    filter->predicates = query.joined_predicates;
    filter->children.push_back(std::move(node));
    node = std::move(filter);
  }
  // A lone ungrouped aggregate pushes into the scan engine only while the
  // input is still a bare scan; after a join it aggregates the *joined* rows.
  Plan plan;
  plan.object = query.fact;
  if (!query.joins.empty()) {
    plan.kind = "join";
    plan.join_right = query.joins.back().object;
  }
  plan.root = WrapOutput(std::move(node), query.group_by, query.aggregates,
                         query.projection);
  return plan;
}

}  // namespace stratus
