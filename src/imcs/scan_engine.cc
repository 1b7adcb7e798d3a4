#include "imcs/scan_engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace stratus {

namespace {

bool CompareValues(const Value& a, PredOp op, const Value& b) {
  // Value is a total order (NULL first, then by type tag, then by payload),
  // and NULL / type-mismatched operands were rejected before we get here, so
  // kLe/kGe are single complemented comparisons.
  switch (op) {
    case PredOp::kEq: return a == b;
    case PredOp::kNe: return !(a == b);
    case PredOp::kLt: return a < b;
    case PredOp::kLe: return !(b < a);
    case PredOp::kGt: return b < a;
    case PredOp::kGe: return !(a < b);
  }
  return false;
}

}  // namespace

bool EvalPredicateValue(const Value& v, const Predicate& pred) {
  if (v.is_null() || pred.value.is_null()) return false;  // SQL 3VL: unknown.
  if (v.type() != pred.value.type()) return false;
  return CompareValues(v, pred.op, pred.value);
}

bool EvalPredicate(const Row& row, const Predicate& pred) {
  if (pred.column >= row.size()) return false;
  return EvalPredicateValue(row[pred.column], pred);
}

bool EvalPredicates(const Row& row, const std::vector<Predicate>& preds) {
  for (const Predicate& p : preds) {
    if (!EvalPredicate(row, p)) return false;
  }
  return true;
}

namespace {

/// Appends the evaluated In-Memory Expression values as virtual columns so
/// row-path rows share the IMCU layout (schema columns + expression columns).
void ExtendWithExpressions(const std::vector<Expression>* expressions, Row* row) {
  if (expressions == nullptr || expressions->empty()) return;
  const Row& base = *row;
  row->reserve(row->size() + expressions->size());
  for (const Expression& e : *expressions) row->push_back(e.Eval(base));
}

}  // namespace

void ScanEngine::ScanBlockRowPath(Dba dba, const std::vector<Predicate>& preds,
                                  const ReadView& view, const BufferCache& cache,
                                  const std::vector<Expression>* expressions,
                                  GroupFold* fold, const RowEmit& emit,
                                  ScanStats* stats) const {
  Block* block = cache.Get(dba);
  if (block == nullptr) return;
  ++stats->blocks_rowpath;
  const SlotId used = block->used_slots();
  Row row;
  for (SlotId slot = 0; slot < used; ++slot) {
    if (!block->ReadRow(slot, view, &row).ok()) continue;
    ExtendWithExpressions(expressions, &row);
    if (!EvalPredicates(row, preds)) continue;
    ++stats->rows_from_rowstore;
    if (fold != nullptr) {
      fold->FoldRow(row);
    } else {
      emit(std::move(row));  // ReadRow reassigns the whole row next slot.
    }
  }
}

void ScanEngine::ScanSmuTask(const Smu& smu, const std::vector<Predicate>& preds,
                             const ReadView& view, const BufferCache& cache,
                             const std::vector<Expression>* expressions,
                             bool needs_rows, GroupFold* fold,
                             const RowEmit& emit, ScanStats* stats) const {
  const auto imcu = smu.imcu();

  // Storage-index (min/max) pruning short-circuits before any vector work:
  // a pruned IMCU contributes no columnar pass at all (its invalid rows are
  // still reconciled below). Pruned IMCUs do not count as scanned.
  bool might_match = true;
  for (const Predicate& p : preds) {
    if (p.column >= imcu->num_columns() ||
        !imcu->column(p.column).MightMatch(p.op, p.value)) {
      might_match = false;
      break;
    }
  }
  if (might_match) {
    ++stats->imcus_scanned;
  } else {
    ++stats->imcus_pruned;
  }

  // One consistent snapshot of the SMU's invalidity partitions the rows
  // between the columnar pass and the row-store reconciliation pass; bits
  // set by concurrent flushes (commits beyond this scan's snapshot SCN)
  // must not split a row across both passes.
  std::vector<uint64_t> invalid;
  smu.SnapshotInvalid(&invalid);

  const size_t num_rows = smu.num_rows();
  const size_t num_words = BitmapWords(num_rows);

  // Columnar pass: every conjunct's encoded predicate becomes a match
  // bitmap (pivot translated into code space once per IMCU, packed codes
  // compared word-at-a-time by the active kernel), conjuncts AND together,
  // then one AND keeps present rows and one AND-NOT hands invalid rows to
  // reconciliation — no per-candidate rechecks, no row-id lists until the
  // merge boundary below.
  std::vector<uint64_t> match;
  if (might_match) {
    const ScanKernel kernel = ActiveScanKernel();
    KernelCounters kc;
    match.assign(num_words, 0);
    if (preds.empty()) {
      BitmapFill(match.data(), num_rows, true);
    } else {
      imcu->column(preds[0].column)
          .FilterBitmap(preds[0].op, preds[0].value, kernel, match.data(),
                        &kc);
      std::vector<uint64_t> conjunct;
      for (size_t pi = 1;
           pi < preds.size() && BitmapAny(match.data(), num_words); ++pi) {
        conjunct.resize(num_words);
        imcu->column(preds[pi].column)
            .FilterBitmap(preds[pi].op, preds[pi].value, kernel,
                          conjunct.data(), &kc);
        BitmapAnd(match.data(), conjunct.data(), num_words);
      }
    }
    BitmapAnd(match.data(), imcu->present_words().data(),
              std::min(num_words, imcu->present_words().size()));
    BitmapAndNot(match.data(), invalid.data(),
                 std::min(num_words, invalid.size()));
    stats->kernel_swar_words += kc.swar_words;
    stats->kernel_avx2_words += kc.avx2_words;
    stats->kernel_scalar_rows += kc.scalar_rows;
  }

  // Reconciliation pass: invalid rows (changed after the IMCU snapshot)
  // always re-fetch from the row store at the query snapshot — including
  // rows absent at population time that a later insert invalidated.
  // Word-wise iteration keeps this cheap when invalidity is sparse.
  std::vector<std::pair<uint32_t, Row>> reconciled;
  {
    Row row;
    Dba cached_dba = kInvalidDba;
    Block* cached_block = nullptr;
    for (size_t w = 0; w < invalid.size() && w < num_words; ++w) {
      uint64_t word = invalid[w];
      if (w + 1 == num_words && (num_rows & 63) != 0) {
        // Mask the tail word once: bits at or past num_rows have no backing
        // row and must not be visited.
        word &= (uint64_t{1} << (num_rows & 63)) - 1;
      }
      while (word != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        word &= word - 1;
        const uint32_t r = static_cast<uint32_t>(w * 64 + bit);
        const Dba dba = smu.dbas()[r / kRowsPerBlock];
        const SlotId slot = r % kRowsPerBlock;
        if (dba != cached_dba) {
          cached_dba = dba;
          cached_block = cache.Get(dba);
        }
        if (cached_block == nullptr) continue;
        if (!cached_block->ReadRow(slot, view, &row).ok()) continue;
        ++stats->invalid_rowpath;
        ExtendWithExpressions(expressions, &row);
        if (EvalPredicates(row, preds))
          reconciled.emplace_back(r, std::move(row));  // ReadRow reassigns.
      }
    }
  }

  // Aggregation ([11]): fold straight off the bitmap and the encoded
  // columns — group keys by code, SUM/MIN/MAX off the packed codes via
  // GetInt, COUNT by popcount — with no Value materialization and no row-id
  // list. Folding all columnar rows before the reconciled rows is safe:
  // every fold is commutative and associative.
  if (fold != nullptr) {
    if (!match.empty())
      stats->rows_from_imcs += fold->FoldImcu(*imcu, match.data());
    for (const auto& pr : reconciled) {
      ++stats->rows_from_rowstore;
      fold->FoldRow(pr.second);
    }
    return;
  }

  // Row emission: the bitmap becomes a row-id list only here, at the merge
  // boundary with the reconciled rows. Both sides are ascending by row
  // index, so the IMCU's output order does not depend on *when* the
  // invalidity snapshot was taken — a row moving from the columnar pass to
  // reconciliation keeps its position.
  std::vector<uint32_t> matches;
  if (!match.empty()) BitmapToRows(match.data(), num_words, &matches);
  size_t ci = 0, ri = 0;
  while (ci < matches.size() || ri < reconciled.size()) {
    const bool columnar =
        ri >= reconciled.size() ||
        (ci < matches.size() && matches[ci] < reconciled[ri].first);
    if (columnar) {
      const uint32_t r = matches[ci++];
      ++stats->rows_from_imcs;
      emit(needs_rows ? imcu->Materialize(r) : Row{});
    } else {
      ++stats->rows_from_rowstore;
      emit(std::move(reconciled[ri++].second));
    }
  }
}

Status ScanEngine::Scan(const Table& table, const std::vector<Predicate>& preds,
                        const ReadView& view,
                        const std::vector<const ImStore*>& stores,
                        const BufferCache& cache, const RowSink& sink,
                        ScanStats* stats, bool needs_rows,
                        const std::vector<Expression>* expressions,
                        const ScanAggregate& agg, AggState* agg_out,
                        const ScanOptions& options) const {
  ScanStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  // A push-down aggregate is the zero-key, one-aggregate fold.
  std::optional<GroupFold> pushdown;
  GroupFold* fold = options.fold;
  if (fold == nullptr && agg.kind != AggKind::kNone) {
    pushdown.emplace(std::vector<uint32_t>{},
                     std::vector<AggSpec>{AggSpec{agg.kind, agg.column}});
    fold = &*pushdown;
  }
  const std::vector<Dba> blocks = table.SnapshotBlocks();
  const size_t num_blocks = blocks.size();

  // Block positions resolve through the snapshot's (DBA, position) pairs,
  // sorted once and binary-searched per SMU DBA, and coverage is a bitmap
  // over positions: the set-up builds no per-block hash node.
  std::vector<std::pair<Dba, size_t>> by_dba(num_blocks);
  for (size_t i = 0; i < num_blocks; ++i) by_dba[i] = {blocks[i], i};
  std::sort(by_dba.begin(), by_dba.end());
  const auto positions = [&by_dba](Dba dba) {
    return std::equal_range(
        by_dba.begin(), by_dba.end(), std::pair<Dba, size_t>{dba, 0},
        [](const auto& a, const auto& b) { return a.first < b.first; });
  };
  std::vector<bool> covered(num_blocks, false);

  // Gather the usable SMUs covering this table across the given stores.
  // "Usable" = ready, with a snapshot no newer than the read view (an IMCU
  // populated beyond the query snapshot would contain future changes). Each
  // is anchored at its first covered position; one none of whose DBAs is
  // listed sorts last.
  std::vector<std::shared_ptr<Smu>> usable;
  std::vector<const Smu*> anchored(num_blocks, nullptr);
  std::vector<const Smu*> unanchored;
  std::vector<Dba> unlisted;  // Accepted SMUs' DBAs missing from the list.
  for (const ImStore* store : stores) {
    if (store == nullptr) continue;
    for (const auto& smu : store->SmusForObject(table.object_id())) {
      if (smu->state() != SmuState::kReady) {
        ++stats->imcus_skipped;
        continue;
      }
      if (smu->AllInvalid()) {
        ++stats->imcus_skipped;
        continue;  // Coarse-invalidated: whole range goes to the row path.
      }
      auto imcu = smu->imcu();
      if (imcu == nullptr || imcu->snapshot_scn() > view.snapshot_scn) {
        ++stats->imcus_skipped;
        continue;
      }
      // An IMCU built before an expression was registered lacks the virtual
      // column a predicate may reference: serve its range from the row path
      // until repopulation rebuilds it with the expression column.
      bool missing_column = false;
      for (const Predicate& p : preds) {
        if (p.column >= imcu->num_columns()) {
          missing_column = true;
          break;
        }
      }
      if (missing_column) {
        ++stats->imcus_skipped;
        continue;
      }
      bool duplicate = false;
      for (Dba dba : smu->dbas()) {
        const auto [first, last] = positions(dba);
        if (first == last) {
          duplicate = std::find(unlisted.begin(), unlisted.end(), dba) !=
                      unlisted.end();
        }
        for (auto it = first; it != last && !duplicate; ++it)
          duplicate = covered[it->second];
        if (duplicate) break;
      }
      if (duplicate) continue;  // Defensive: ranges should be disjoint.
      size_t anchor = num_blocks;
      for (Dba dba : smu->dbas()) {
        const auto [first, last] = positions(dba);
        if (first == last) unlisted.push_back(dba);
        for (auto it = first; it != last; ++it) {
          covered[it->second] = true;
          anchor = std::min(anchor, it->second);
        }
      }
      if (anchor < num_blocks) {
        anchored[anchor] = smu.get();
      } else {
        unanchored.push_back(smu.get());
      }
      usable.push_back(smu);
    }
  }

  // Task decomposition: one task per usable IMCU plus fixed-size chunks of
  // uncovered row-store blocks, ordered by each task's first block position
  // in the table's block list (chunks break at coverage boundaries). Every
  // task emits its matches in ascending (block, slot) order, so the merged
  // output is the table's global (block, slot) order — independent of DOP,
  // of which path serves a row, and of how population groups blocks into
  // IMCUs. The task list is a function of the snapshot only, never of DOP.
  struct Task {
    const Smu* smu = nullptr;        ///< Per-IMCU task when non-null…
    std::vector<Dba> chunk_blocks;   ///< …row-path chunk otherwise.
  };
  std::vector<Task> tasks;
  const size_t chunk = std::max<size_t>(1, options.rowpath_chunk_blocks);
  for (size_t i = 0; i < num_blocks; ++i) {
    if (anchored[i] != nullptr) {
      tasks.push_back(Task{anchored[i], {}});
      continue;
    }
    if (covered[i]) continue;
    if (tasks.empty() || tasks.back().smu != nullptr ||
        tasks.back().chunk_blocks.size() >= chunk) {
      tasks.push_back(Task{nullptr, {}});
    }
    tasks.back().chunk_blocks.push_back(blocks[i]);
  }
  for (const Smu* smu : unanchored) tasks.push_back(Task{smu, {}});
  stats->parallel_tasks += tasks.size();
  const size_t num_tasks = tasks.size();

  const auto run_task = [&](size_t t, const RowEmit& emit, ScanStats* tstats,
                            GroupFold* tfold) {
    const Task& task = tasks[t];
    if (task.smu != nullptr) {
      ScanSmuTask(*task.smu, preds, view, cache, expressions, needs_rows, tfold,
                  emit, tstats);
    } else {
      for (Dba dba : task.chunk_blocks) {
        ScanBlockRowPath(dba, preds, view, cache, expressions, tfold, emit,
                         tstats);
      }
    }
  };

  // Per-task profiling (worker ordinal, queue wait, run time) is opt-in:
  // with no profile requested neither path touches the clock per task.
  ScanProfile* profile = options.profile;
  const uint64_t submit_us = profile != nullptr ? NowMicros() : 0;
  std::vector<ScanTaskProfile> task_profiles(
      profile != nullptr ? num_tasks : 0);
  const auto record_task = [&](size_t t, uint64_t start_us) {
    ScanTaskProfile& tp = task_profiles[t];
    tp.worker = obs::internal::ThreadOrdinal();
    tp.imcu_task = tasks[t].smu != nullptr;
    tp.queue_wait_us = start_us > submit_us ? start_us - submit_us : 0;
    const uint64_t end_us = NowMicros();
    tp.exec_us = end_us > start_us ? end_us - start_us : 0;
  };
  const auto finish = [&] {
    if (pushdown.has_value() && agg_out != nullptr)
      agg_out->Merge(agg.kind, pushdown->Ungrouped(0));
    if (profile == nullptr) return;
    profile->tasks.insert(profile->tasks.end(), task_profiles.begin(),
                          task_profiles.end());
  };

  const size_t dop = std::max<size_t>(1, options.dop);
  if (dop == 1 || num_tasks <= 1) {
    // Inline path: stream straight into the sink — no buffering, no barrier.
    // A batch consumer gets fixed-size flushes instead of per-row calls.
    std::vector<Row> batch;
    const size_t batch_rows = std::max<size_t>(1, options.batch_rows);
    RowEmit emit;
    if (options.batch_sink) {
      batch.reserve(batch_rows);
      emit = [&](Row&& row) {
        batch.push_back(std::move(row));
        if (batch.size() >= batch_rows) {
          options.batch_sink(std::move(batch));
          batch.clear();
          batch.reserve(batch_rows);
        }
      };
    } else {
      emit = [&sink](Row&& row) { sink(row); };
    }
    for (size_t t = 0; t < num_tasks; ++t) {
      const uint64_t start_us = profile != nullptr ? NowMicros() : 0;
      run_task(t, emit, stats, fold);
      if (profile != nullptr) record_task(t, start_us);
    }
    if (options.batch_sink && !batch.empty())
      options.batch_sink(std::move(batch));
    finish();
    return Status::OK();
  }

  ThreadPool* pool =
      options.pool != nullptr ? options.pool : ThreadPool::Shared();
  if (fold != nullptr) {
    // Folded parallel path: one partial per lane, not per task. Each of
    // `lanes` executors owns one GroupFold partial and one ScanStats and
    // claims tasks from a shared cursor; the caller merges the lanes in lane
    // order. Every fold is order-independent (SUM is an exact 128-bit sum),
    // so which lane folds which task does not change the result.
    const size_t lanes = std::min(dop, num_tasks);
    std::vector<GroupFold> partials;
    partials.reserve(lanes);
    for (size_t l = 0; l < lanes; ++l) partials.push_back(fold->Partial());
    std::vector<ScanStats> lane_stats(lanes);
    std::atomic<size_t> cursor{0};
    const RowEmit no_rows = [](Row&&) {};
    pool->ParallelFor(lanes, lanes, [&](size_t l) {
      for (size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
           t < num_tasks; t = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const uint64_t start_us = profile != nullptr ? NowMicros() : 0;
        run_task(t, no_rows, &lane_stats[l], &partials[l]);
        if (profile != nullptr) record_task(t, start_us);
      }
    });
    for (size_t l = 0; l < lanes; ++l) {
      stats->Add(lane_stats[l]);
      fold->Merge(std::move(partials[l]));
    }
    finish();
    return Status::OK();
  }

  // Row-emitting parallel path: every task fills a private buffer and
  // ScanStats; the calling thread merges them in task order after the
  // barrier, reproducing the inline path's output exactly.
  struct TaskOut {
    ScanStats stats;
    std::vector<Row> rows;
  };
  std::vector<TaskOut> outs(num_tasks);
  pool->ParallelFor(num_tasks, dop, [&](size_t t) {
    TaskOut& out = outs[t];
    const uint64_t start_us = profile != nullptr ? NowMicros() : 0;
    run_task(
        t, [&out](Row&& row) { out.rows.push_back(std::move(row)); },
        &out.stats, nullptr);
    if (profile != nullptr) record_task(t, start_us);
  });

  for (TaskOut& out : outs) {
    stats->Add(out.stats);
    if (options.batch_sink) {
      // Batch consumers take the whole task buffer by move — the merge
      // boundary costs nothing per row.
      if (!out.rows.empty()) options.batch_sink(std::move(out.rows));
    } else {
      for (const Row& row : out.rows) sink(row);
    }
  }
  finish();
  return Status::OK();
}

}  // namespace stratus
