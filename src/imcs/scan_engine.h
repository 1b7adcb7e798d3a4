#ifndef STRATUS_IMCS_SCAN_ENGINE_H_
#define STRATUS_IMCS_SCAN_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "imcs/expression.h"
#include "imcs/group_fold.h"
#include "imcs/im_store.h"
#include "storage/buffer_cache.h"
#include "storage/table.h"
#include "storage/visibility.h"

namespace stratus {

class ThreadPool;

/// One conjunct of a scan filter: `column op value`.
struct Predicate {
  uint32_t column = 0;
  PredOp op = PredOp::kEq;
  Value value;
};

/// Evaluates one predicate against a single column value. This is the one
/// place holding the SQL three-valued-logic rules — a NULL on either side
/// never matches, and a type mismatch never matches — shared by the row path
/// (`EvalPredicate`) and the columnar remaining-conjunct recheck, so the two
/// paths cannot drift.
bool EvalPredicateValue(const Value& v, const Predicate& pred);

/// Evaluates one predicate against a materialized row (NULLs never match).
bool EvalPredicate(const Row& row, const Predicate& pred);
/// Conjunction over all predicates.
bool EvalPredicates(const Row& row, const std::vector<Predicate>& preds);

/// Aggregation push-down request: which aggregate over which column (schema
/// or In-Memory-Expression virtual column; integer columns for kSum/kMin/kMax).
/// The engine runs it as the zero-key, one-aggregate GroupFold.
struct ScanAggregate {
  AggKind kind = AggKind::kNone;
  uint32_t column = 0;
};

/// Per-scan statistics: where the rows actually came from.
struct ScanStats {
  uint64_t rows_from_imcs = 0;
  uint64_t rows_from_rowstore = 0;
  uint64_t imcus_scanned = 0;
  uint64_t imcus_pruned = 0;      ///< Skipped whole via storage index.
  uint64_t imcus_skipped = 0;     ///< Not usable (populating / too new).
  uint64_t blocks_rowpath = 0;    ///< Blocks scanned through the buffer cache.
  uint64_t invalid_rowpath = 0;   ///< Invalid IMCU rows re-fetched from blocks.
  uint64_t parallel_tasks = 0;    ///< Scan tasks (per-IMCU + row-path chunks);
                                  ///< identical at every DOP by construction.
  // Which filter kernel built the match bitmaps (attribution of work done;
  // these are the only fields allowed to differ across kernel variants).
  uint64_t kernel_swar_words = 0;   ///< Bitmap words built by SWAR compares.
  uint64_t kernel_avx2_words = 0;   ///< Bitmap words built by AVX2 compares.
  uint64_t kernel_scalar_rows = 0;  ///< Rows evaluated one Get() at a time.

  void Add(const ScanStats& o) {
    rows_from_imcs += o.rows_from_imcs;
    rows_from_rowstore += o.rows_from_rowstore;
    imcus_scanned += o.imcus_scanned;
    imcus_pruned += o.imcus_pruned;
    imcus_skipped += o.imcus_skipped;
    blocks_rowpath += o.blocks_rowpath;
    invalid_rowpath += o.invalid_rowpath;
    parallel_tasks += o.parallel_tasks;
    kernel_swar_words += o.kernel_swar_words;
    kernel_avx2_words += o.kernel_avx2_words;
    kernel_scalar_rows += o.kernel_scalar_rows;
  }
};

/// Rows matching the scan are streamed into this callback. With DOP > 1 the
/// sink is only ever invoked from the calling thread, during the ordered
/// merge after the parallel barrier — it needs no synchronization.
using RowSink = std::function<void(const Row& row)>;

/// Execution record of one scan task, filled only when the caller passes
/// `ScanOptions::profile` (the null default costs the scan nothing).
struct ScanTaskProfile {
  uint32_t worker = 0;         ///< Executing thread's dense obs ordinal.
  bool imcu_task = false;      ///< Per-IMCU task vs row-path chunk.
  uint64_t queue_wait_us = 0;  ///< Task start − scan submit.
  uint64_t exec_us = 0;        ///< Task run time.
};

/// Per-scan execution profile: one entry per task, in task (merge) order.
struct ScanProfile {
  std::vector<ScanTaskProfile> tasks;
};

/// Parallel-execution knobs for one scan.
struct ScanOptions {
  /// Degree of parallelism: maximum threads scanning concurrently (the
  /// caller plus dop-1 pool workers). <= 1 runs the scan inline on the
  /// caller with rows streamed straight into the sink (no buffering).
  size_t dop = 1;
  /// Pool to borrow workers from; null means ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Uncovered row-store blocks are chunked into tasks of at most this many
  /// blocks (chunks also break at IMCU coverage boundaries to preserve
  /// global block order). Fixed-size (not DOP-derived) so the task
  /// decomposition — and therefore `ScanStats::parallel_tasks` and the merge
  /// order — is identical at every DOP.
  size_t rowpath_chunk_blocks = 8;
  /// When non-null, receives per-task worker/wait/run records for this scan
  /// (appended; the QueryProfile plumbing passes a fresh one per query).
  ScanProfile* profile = nullptr;
  /// Batch emission for operator-tree consumers: when set, matching rows are
  /// delivered here instead of through the per-row sink, in the same global
  /// (block, slot) order. The parallel path hands over each task's private
  /// buffer by move — no per-row copy at the merge boundary — and the inline
  /// path flushes every `batch_rows`. Batches are only ever delivered from
  /// the calling thread.
  std::function<void(std::vector<Row>&&)> batch_sink;
  /// Inline-path flush threshold for `batch_sink` (parallel batches are task
  /// buffers, whatever size the task produced).
  size_t batch_rows = 1024;
  /// Grouped-aggregate consumer: when set, every match folds into it instead
  /// of reaching a sink — IMCS rows on their encoded codes inside the scan
  /// task, row-store rows (uncovered blocks, reconciled invalid rows) as
  /// materialized rows. At DOP > 1 each of min(dop, tasks) lanes folds the
  /// tasks it claims into its own partial; the lanes' partials merge into
  /// `fold` on the calling thread in lane order.
  GroupFold* fold = nullptr;
};

/// The In-Memory Scan Engine (Section II.B): serves valid rows from the
/// compressed IMCUs with predicate evaluation on encoded data and storage-
/// index pruning, and reconciles with each IMCU's SMU so that invalid or
/// stale rows are delivered from the database buffer cache (the row store)
/// instead — never from the IMCS.
///
/// Execution decomposes into one task per usable IMCU (columnar pass plus
/// that IMCU's invalid-row reconciliation, sharing one invalidity snapshot)
/// and one task per chunk of uncovered row-store blocks, ordered by block
/// position in the table's block list. Tasks run on a ThreadPool at
/// `options.dop`: a row-emitting task fills a private ScanStats and row
/// buffer, merged on the calling thread in task order after the barrier; a
/// folded scan runs one lane per executor, each folding the tasks it claims
/// into one partial GroupFold and ScanStats, merged in lane order. Each task
/// emits in ascending (block, slot) order, so the merged output is the
/// table's global (block, slot) order — reproducible at any DOP and
/// independent of which path serves a row.
class ScanEngine {
 public:
  /// Scans `table` at `view`, consulting the column stores in `stores`
  /// (possibly spanning RAC instances; pass empty to force the row path).
  /// Emits every visible row satisfying all `preds` exactly once.
  /// `needs_rows = false` (count-style aggregates) skips materializing
  /// matching IMCS rows: the sink receives an empty Row per match.
  /// `expressions` (may be null): In-Memory Expressions registered for the
  /// table. Predicates may address them as virtual columns at index
  /// schema-arity + position; row-path rows are extended with the evaluated
  /// expression values so predicates and sinks see a uniform layout. IMCUs
  /// that predate an expression registration are skipped to the row path.
  /// `agg` + `agg_out`: aggregation push-down, the zero-key one-aggregate
  /// spelling of `options.fold`. When `agg.kind != kNone`, every match is
  /// counted (and kSum/kMin/kMax folded) instead of reaching the sink, and
  /// the result merges into `agg_out` (when non-null).
  Status Scan(const Table& table, const std::vector<Predicate>& preds,
              const ReadView& view, const std::vector<const ImStore*>& stores,
              const BufferCache& cache, const RowSink& sink,
              ScanStats* stats, bool needs_rows = true,
              const std::vector<Expression>* expressions = nullptr,
              const ScanAggregate& agg = {}, AggState* agg_out = nullptr,
              const ScanOptions& options = {}) const;

 private:
  /// A task's row emission: rows move out of the task, never copy.
  using RowEmit = std::function<void(Row&& row)>;

  /// One per-IMCU task: columnar pass over the valid rows plus the invalid-
  /// row reconciliation pass, both under one SMU invalidity snapshot, merged
  /// into ascending row-index order before emission (or folded into `fold`).
  void ScanSmuTask(const Smu& smu, const std::vector<Predicate>& preds,
                   const ReadView& view, const BufferCache& cache,
                   const std::vector<Expression>* expressions, bool needs_rows,
                   GroupFold* fold, const RowEmit& emit,
                   ScanStats* stats) const;

  void ScanBlockRowPath(Dba dba, const std::vector<Predicate>& preds,
                        const ReadView& view, const BufferCache& cache,
                        const std::vector<Expression>* expressions,
                        GroupFold* fold, const RowEmit& emit,
                        ScanStats* stats) const;
};

}  // namespace stratus

#endif  // STRATUS_IMCS_SCAN_ENGINE_H_
