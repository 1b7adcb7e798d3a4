#include "db/operators.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "db/query.h"
#include "imcs/join_table.h"

namespace stratus {

namespace {

constexpr size_t kBatchRows = 1024;

ThreadPool* PoolOf(const ExecContext& ec) {
  return ec.ctx->pool != nullptr ? ec.ctx->pool : ThreadPool::Shared();
}

// ---------------------------------------------------------------------------
// Scan leaf
// ---------------------------------------------------------------------------

/// Runs the scan engine over one table in Open (a leaf is always a pipeline
/// source) and hands the buffered batches out through NextBatch — or, under
/// an aggregate, folds every match into the aggregate's GroupFold inside the
/// scan tasks. Carries the planner's access-path choice: the IMCS path
/// consults the context's column stores, the row path passes none.
class ScanOperator : public Operator {
 public:
  explicit ScanOperator(const PlanNode& node)
      : object_(node.object),
        predicates_(node.predicates),
        access_(node.access),
        pushdown_(node.pushdown) {}

  Status Open(ExecContext* ec) override {
    if (pushdown_.kind == AggKind::kNone) return Run(ec, nullptr);
    // A lone ungrouped aggregate is the zero-key, one-aggregate fold.
    GroupFold fold({}, {AggSpec{pushdown_.kind, pushdown_.column}});
    const Status st = Run(ec, &fold);
    has_agg = true;
    first_agg_kind = pushdown_.kind;
    first_agg = fold.Ungrouped(0);
    agg_overflow = first_agg.overflow;
    input_matches = first_agg.count;
    return st;
  }

  Status OpenFolded(ExecContext* ec, GroupFold* fold,
                    OperatorStage* agg) override {
    agg->fold = "scan";
    return Run(ec, fold);
  }

  bool NextBatch(std::vector<Row>* batch) override {
    const uint64_t t0 = NowMicros();
    batch->clear();
    const bool more = next_ < batches_.size();
    if (more) *batch = std::move(batches_[next_++]);
    stage.elapsed_us += NowMicros() - t0;
    return more;
  }

 private:
  /// Scans the table into batches_, or into `fold` when non-null.
  Status Run(ExecContext* ec, GroupFold* fold) {
    const QueryContext& ctx = *ec->ctx;
    Table* table = ctx.table_lookup(object_);
    if (table == nullptr) return Status::NotFound("no table object");

    stage.op = "scan";
    stage.object = object_;
    stage.path = access_.path == AccessPath::kImcs ? "imcs" : "row";
    stage.reason = access_.reason;
    stage.invalid_fraction = access_.invalid_fraction;

    std::vector<Expression> exprs;
    if (ctx.expressions != nullptr) exprs = ctx.expressions->For(object_);
    const std::vector<const ImStore*> stores =
        access_.path == AccessPath::kImcs ? ctx.stores
                                          : std::vector<const ImStore*>{};

    // A side scan (any leaf but the driving table's) logs its own "scan"
    // slow-log entry.
    const bool own_log =
        ctx.slow_log != nullptr && object_ != ec->driving_object;
    const uint64_t qid =
        own_log ? ctx.slow_log->Begin("scan", object_, ec->snapshot) : 0;
    const uint64_t lookups0 = ec->commit_lookups ? ec->commit_lookups() : 0;
    const uint64_t start_us = NowMicros();
    const uint64_t cpu0_ns = ThreadCpuNanos();

    uint64_t rows_out = 0;
    ScanProfile local_profile;
    ScanOptions options;
    options.dop = ec->dop;
    options.pool = ctx.pool;
    options.profile = &local_profile;
    options.batch_rows = kBatchRows;
    options.fold = fold;
    if (fold == nullptr) {
      options.batch_sink = [this, &rows_out](std::vector<Row>&& batch) {
        rows_out += batch.size();
        batches_.push_back(std::move(batch));
      };
    }
    const Status st = ec->engine->Scan(
        *table, predicates_, *ec->view, stores, *ctx.cache,
        [](const Row&) {}, &stage.scan, /*needs_rows=*/true,
        exprs.empty() ? nullptr : &exprs, ScanAggregate{}, nullptr, options);

    // The rows this table's predicates matched, however they were consumed
    // (handed on, folded, or joined inside the fold).
    const uint64_t matches =
        stage.scan.rows_from_imcs + stage.scan.rows_from_rowstore;
    stage.rows_out = matches;
    const uint64_t end_us = NowMicros();
    stage.elapsed_us = end_us > start_us ? end_us - start_us : 0;
    if (ec->scan_profile != nullptr) {
      ec->scan_profile->tasks.insert(ec->scan_profile->tasks.end(),
                                     local_profile.tasks.begin(),
                                     local_profile.tasks.end());
    }
    if (own_log) {
      QueryProfile side;
      side.query_id = qid;
      side.kind = "scan";
      side.role = ctx.role;
      side.object = object_;
      side.snapshot = ec->snapshot;
      side.scan = stage.scan;
      side.stages.push_back(stage);
      side.rows_returned = rows_out;
      side.matches = matches;
      side.dop = static_cast<uint32_t>(ec->dop);
      side.lanes = RollupLanes(local_profile);
      side.commit_lookups =
          ec->commit_lookups ? ec->commit_lookups() - lookups0 : 0;
      side.started_at_us = start_us;
      side.wall_us = stage.elapsed_us;
      side.caller_cpu_us = (ThreadCpuNanos() - cpu0_ns) / 1000;
      if (ctx.annotate) ctx.annotate(&side);
      ctx.slow_log->End(qid, side);
    }
    return st;
  }

  const ObjectId object_;
  const std::vector<Predicate> predicates_;
  const AccessPathChoice access_;
  const ScanAggregate pushdown_;

  std::vector<std::vector<Row>> batches_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Filter (residual predicates over a joined layout)
// ---------------------------------------------------------------------------

class FilterOperator : public Operator {
 public:
  explicit FilterOperator(const PlanNode& node)
      : predicates_(node.predicates) {}

  Status Open(ExecContext* ec) override {
    stage.op = "filter";
    return children_[0]->Open(ec);
  }

  bool NextBatch(std::vector<Row>* batch) override {
    batch->clear();
    std::vector<Row> in;
    while (children_[0]->NextBatch(&in)) {
      const uint64_t t0 = NowMicros();
      stage.rows_in += in.size();
      for (Row& row : in) {
        if (EvalPredicates(row, predicates_)) batch->push_back(std::move(row));
      }
      stage.rows_out += batch->size();
      stage.elapsed_us += NowMicros() - t0;
      if (!batch->empty()) return true;
    }
    return false;
  }

  const std::vector<Predicate> predicates_;
};

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

class ProjectOperator : public Operator {
 public:
  explicit ProjectOperator(const PlanNode& node) : columns_(node.columns) {}

  Status Open(ExecContext* ec) override {
    stage.op = "project";
    return children_[0]->Open(ec);
  }

  bool NextBatch(std::vector<Row>* batch) override {
    batch->clear();
    std::vector<Row> in;
    if (!children_[0]->NextBatch(&in)) return false;
    const uint64_t t0 = NowMicros();
    stage.rows_in += in.size();
    batch->reserve(in.size());
    for (const Row& row : in) {
      Row out;
      out.reserve(columns_.size());
      for (uint32_t c : columns_)
        out.push_back(c < row.size() ? row[c] : Value());
      batch->push_back(std::move(out));
    }
    stage.rows_out += batch->size();
    stage.elapsed_us += NowMicros() - t0;
    return true;
  }

  const std::vector<uint32_t> columns_;
};

// ---------------------------------------------------------------------------
// Hash aggregate (GROUP BY)
// ---------------------------------------------------------------------------

/// Pipeline breaker: folds its whole input into one GroupFold in Open —
/// wherever the child can fold it (OpenFolded) — then emits one row per
/// group — key values ++ aggregate values — sorted by key tuple. Every fold
/// (COUNT increment, MIN/MAX lattice, exact-128-bit SUM) is order-
/// independent, so the result is byte-identical at any DOP and on any path.
class HashAggregateOperator : public Operator {
 public:
  explicit HashAggregateOperator(const PlanNode& node)
      : group_by_(node.group_by), specs_(node.aggregates) {}

  Status Open(ExecContext* ec) override {
    stage.op = "hash_agg";
    GroupFold fold(group_by_, specs_);
    const Status st = children_[0]->OpenFolded(ec, &fold, &stage);
    if (!st.ok()) return st;
    const uint64_t t0 = NowMicros();
    stage.rows_in = fold.rows();
    std::vector<std::pair<Row, std::vector<AggState>>> groups =
        fold.TakeSorted();
    // SQL semantics for an ungrouped aggregate over zero rows: one output
    // row (COUNT = 0, SUM/MIN/MAX = NULL). Grouped: zero groups.
    if (group_by_.empty() && groups.empty())
      groups.emplace_back(Row{}, std::vector<AggState>(specs_.size()));

    rows_.reserve(groups.size());
    for (auto& [key, states] : groups) {
      Row out = std::move(key);
      out.reserve(out.size() + specs_.size());
      for (size_t i = 0; i < specs_.size(); ++i) {
        const AggState& st_i = states[i];
        if (specs_[i].kind == AggKind::kCount) {
          out.push_back(Value(static_cast<int64_t>(st_i.count)));
        } else {
          out.push_back(st_i.started ? Value(st_i.acc) : Value());
        }
        if (specs_[i].kind == AggKind::kSum && st_i.overflow)
          agg_overflow = true;
      }
      rows_.push_back(std::move(out));
    }

    stage.groups = groups.size();
    stage.rows_out = rows_.size();
    has_agg = true;
    input_matches = stage.rows_in;
    if (group_by_.empty()) {
      // Ungrouped: mirror the first aggregate into the legacy result fields.
      first_agg_kind = specs_[0].kind;
      first_agg = groups[0].second[0];
    }
    stage.elapsed_us += NowMicros() - t0;
    return Status::OK();
  }

  bool NextBatch(std::vector<Row>* batch) override {
    const uint64_t t0 = NowMicros();
    batch->clear();
    const bool more = next_ < rows_.size();
    const size_t end = std::min(rows_.size(), next_ + kBatchRows);
    batch->reserve(end - next_);
    for (; next_ < end; ++next_) batch->push_back(std::move(rows_[next_]));
    stage.elapsed_us += NowMicros() - t0;
    return more;
  }

 private:
  const std::vector<uint32_t> group_by_;
  const std::vector<AggSpec> specs_;

  std::vector<Row> rows_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Pipeline breaker. Returning rows, it materializes both inputs, builds a
/// JoinTable on whichever side is smaller, and emits matches in canonical
/// (probe-input order, joinee order) — so the build-side choice (and DOP,
/// and each side's access path) never changes the output bytes. Output rows
/// are always probe ++ joinee, whatever side was hashed. Under an aggregate
/// it materializes only the joinee, builds on it and appends the table to
/// the fold's join chain: the probe input then folds its rows through the
/// join where it reads them — the fact scan on its IMCU codes — and no
/// joined row is built. NULL and non-int join keys never match (SQL
/// equi-join semantics; JoinTable::KeyOf).
class HashJoinOperator : public Operator {
 public:
  explicit HashJoinOperator(const PlanNode& node)
      : probe_column_(node.probe_column), build_column_(node.build_column) {}

  Status Open(ExecContext* ec) override {
    stage.op = "hash_join";
    Status st = children_[0]->Open(ec);
    if (!st.ok()) return st;
    st = children_[1]->Open(ec);
    if (!st.ok()) return st;
    DrainInto(children_[0].get(), &left_rows_, &stage.elapsed_us);
    DrainInto(children_[1].get(), &right_rows_, &stage.elapsed_us);
    const uint64_t t0 = NowMicros();
    stage.rows_in = left_rows_.size() + right_rows_.size();

    // Build on the smaller materialized input (ties keep the legacy
    // right-side build).
    const bool build_left = left_rows_.size() < right_rows_.size();
    stage.build_side = build_left ? "left" : "right";
    stage.build_rows = build_left ? left_rows_.size() : right_rows_.size();
    stage.probe_rows = build_left ? right_rows_.size() : left_rows_.size();

    const JoinTable table(build_left ? left_rows_ : right_rows_,
                          build_left ? probe_column_ : build_column_);
    const std::vector<Row>& probe = build_left ? right_rows_ : left_rows_;
    const uint32_t probe_key = build_left ? build_column_ : probe_column_;
    for (uint32_t i = 0; i < probe.size(); ++i) {
      const std::optional<int64_t> key = JoinTable::KeyOf(probe[i], probe_key);
      if (!key) continue;
      for (const uint32_t j : table.Find(*key)) {
        // Pairs are always (left index, right index) regardless of which
        // side was hashed.
        pairs_.emplace_back(build_left ? j : i, build_left ? i : j);
      }
    }
    if (build_left) {
      // Probing the right side emitted pairs in (right, left) order;
      // restore the canonical (left, right) order.
      std::sort(pairs_.begin(), pairs_.end());
    }
    stage.rows_out = pairs_.size();
    stage.elapsed_us += NowMicros() - t0;
    return Status::OK();
  }

  Status OpenFolded(ExecContext* ec, GroupFold* fold,
                    OperatorStage* agg) override {
    stage.op = "hash_join";
    Status st = children_[1]->Open(ec);
    if (!st.ok()) return st;
    DrainInto(children_[1].get(), &right_rows_, &stage.elapsed_us);
    const uint64_t t0 = NowMicros();
    table_.emplace(right_rows_, build_column_);
    const size_t step = fold->AddJoin(&*table_, probe_column_);
    stage.build_side = "right";
    stage.build_rows = right_rows_.size();
    stage.elapsed_us += NowMicros() - t0;

    // The probe runs inside the probe input's fold, timed in its stage.
    st = children_[0]->OpenFolded(ec, fold, agg);
    if (!st.ok()) return st;
    agg->fold = "join";
    stage.probe_rows = fold->ProbedRows(step);
    stage.rows_in = stage.build_rows + stage.probe_rows;
    stage.rows_out = fold->JoinedRows(step);
    return Status::OK();
  }

  bool NextBatch(std::vector<Row>* batch) override {
    const uint64_t t0 = NowMicros();
    batch->clear();
    const bool more = next_ < pairs_.size();
    const size_t end = std::min(pairs_.size(), next_ + kBatchRows);
    batch->reserve(end - next_);
    for (; next_ < end; ++next_) {
      const Row& l = left_rows_[pairs_[next_].first];
      const Row& r = right_rows_[pairs_[next_].second];
      Row joined;
      joined.reserve(l.size() + r.size());
      joined.insert(joined.end(), l.begin(), l.end());
      joined.insert(joined.end(), r.begin(), r.end());
      batch->push_back(std::move(joined));
    }
    stage.elapsed_us += NowMicros() - t0;
    return more;
  }

 private:
  const uint32_t probe_column_;
  const uint32_t build_column_;

  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  size_t next_ = 0;
  /// The folded join's table on right_rows_, alive while the probe folds.
  std::optional<JoinTable> table_;
};

std::unique_ptr<Operator> MakeOperator(const PlanNode& node) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return std::make_unique<ScanOperator>(node);
    case PlanNode::Kind::kFilter:
      return std::make_unique<FilterOperator>(node);
    case PlanNode::Kind::kProject:
      return std::make_unique<ProjectOperator>(node);
    case PlanNode::Kind::kHashAggregate:
      return std::make_unique<HashAggregateOperator>(node);
    case PlanNode::Kind::kHashJoin:
      return std::make_unique<HashJoinOperator>(node);
  }
  return nullptr;
}

}  // namespace

Status Operator::OpenFolded(ExecContext* ec, GroupFold* fold,
                            OperatorStage* agg) {
  agg->fold = "rows";
  const Status st = Open(ec);
  if (!st.ok()) return st;
  std::vector<std::vector<Row>> batches;
  std::vector<Row> batch;
  while (NextBatch(&batch)) batches.push_back(std::move(batch));
  const uint64_t t0 = NowMicros();
  // Fixed batch→worker assignment (round-robin by batch index) keeps the
  // partials a function of the input split, not of scheduling; they merge in
  // worker order.
  const size_t workers = std::min(std::max<size_t>(1, ec->dop),
                                  std::max<size_t>(1, batches.size()));
  std::vector<GroupFold> partials;
  partials.reserve(workers);
  for (size_t w = 0; w < workers; ++w) partials.push_back(fold->Partial());
  PoolOf(*ec)->ParallelFor(workers, workers, [&](size_t w) {
    for (size_t b = w; b < batches.size(); b += workers)
      for (const Row& row : batches[b]) partials[w].FoldRow(row);
  });
  for (GroupFold& partial : partials) fold->Merge(std::move(partial));
  agg->elapsed_us += NowMicros() - t0;
  return Status::OK();
}

void DrainInto(Operator* op, std::vector<Row>* rows, uint64_t* elapsed_us) {
  std::vector<Row> batch;
  while (op->NextBatch(&batch)) {
    const uint64_t t0 = NowMicros();
    if (rows->empty()) {
      *rows = std::move(batch);  // Take the first buffer whole.
    } else {
      rows->insert(rows->end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
    }
    *elapsed_us += NowMicros() - t0;
  }
}

void Operator::CollectStages(std::vector<OperatorStage>* out) const {
  for (const auto& child : children_) child->CollectStages(out);
  out->push_back(stage);
}

std::unique_ptr<Operator> BuildOperatorTree(const PlanNode& node) {
  std::unique_ptr<Operator> op = MakeOperator(node);
  for (const auto& child : node.children) op->AddChild(BuildOperatorTree(*child));
  return op;
}

}  // namespace stratus
