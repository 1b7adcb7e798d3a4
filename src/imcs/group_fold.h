#ifndef STRATUS_IMCS_GROUP_FOLD_H_
#define STRATUS_IMCS_GROUP_FOLD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/value.h"

namespace stratus {

class Imcu;
class JoinTable;

/// Aggregate function. The scan engine folds it off the encoded columns
/// (push-down, [11]); every other input folds materialized rows.
enum class AggKind : uint8_t { kNone = 0, kCount, kSum, kMin, kMax };

/// One aggregate of a query: which fold over which column (schema or
/// In-Memory-Expression virtual column; integer columns for kSum/kMin/kMax).
struct AggSpec {
  AggKind kind = AggKind::kCount;
  uint32_t column = 0;  ///< Ignored for kCount.
};

/// A partial (per-worker) or final aggregate accumulator.
///
/// kSum runs over an exact 128-bit running sum; `acc` is its projection into
/// int64 (saturated at the range bounds, with `overflow` set). Because the
/// exact sum — not the saturation — is what accumulates, the outcome depends
/// only on the multiset of folded inputs, never on fold or merge order:
/// intermediate excursions past the int64 range that later cancel do not
/// latch the flag, so IMCS, row-path, and every kernel variant at every DOP
/// produce identical (acc, overflow) pairs.
struct AggState {
  uint64_t count = 0;     ///< Matching rows (all paths).
  int64_t acc = 0;        ///< kSum/kMin/kMax accumulator (kSum: saturated).
  bool started = false;   ///< A non-null integer input reached the fold.
  bool overflow = false;  ///< kSum only: exact sum left the int64 range.

  /// Folds one non-null int input (its row is counted by the caller).
  void Fold(AggKind kind, int64_t x) {
    MergeExact(kind, 0, true, static_cast<uint64_t>(x),
               x < 0 ? ~uint64_t{0} : 0);
  }

  /// Folds another partial in. COUNT/MIN/MAX are associative and commutative,
  /// and kSum merges the exact 128-bit partial sums, so merging partials in
  /// any order reproduces the serial result exactly.
  void Merge(AggKind kind, const AggState& other) {
    MergeExact(kind, other.count, other.started,
               kind == AggKind::kSum ? other.sum_lo_
                                     : static_cast<uint64_t>(other.acc),
               other.sum_hi_);
  }

  /// Folds in an exact partial accumulated outside an AggState: `rows` more
  /// matching rows, some with a non-null int input iff `any_input`; for kSum
  /// those inputs' exact sum as the two's-complement words (hi:lo), for
  /// kMin/kMax their extreme as `lo`. Every fold ends here, so the
  /// saturation rule lives in one place.
  void MergeExact(AggKind kind, uint64_t rows, bool any_input, uint64_t lo,
                  uint64_t hi) {
    count += rows;
    if (!any_input) return;
    if (kind == AggKind::kSum) {
      sum_hi_ += hi;
      const uint64_t sum = sum_lo_ + lo;
      sum_hi_ += sum < sum_lo_ ? 1 : 0;  // Carry out of the low word.
      sum_lo_ = sum;
      started = true;
      ProjectSum();
      return;
    }
    const int64_t x = static_cast<int64_t>(lo);
    if (!started) {
      acc = x;
      started = true;
    } else if (kind == AggKind::kMin) {
      acc = acc < x ? acc : x;
    } else if (kind == AggKind::kMax) {
      acc = acc < x ? x : acc;
    }
  }

 private:
  void ProjectSum() {
    // The exact sum fits int64 iff the high word is a pure sign extension of
    // the low word's top bit.
    const uint64_t sign_ext = sum_lo_ >> 63 ? ~uint64_t{0} : 0;
    if (sum_hi_ == sign_ext) {
      acc = static_cast<int64_t>(sum_lo_);
      overflow = false;
    } else if (static_cast<int64_t>(sum_hi_) < 0) {
      acc = INT64_MIN;
      overflow = true;
    } else {
      acc = INT64_MAX;
      overflow = true;
    }
  }

  // Exact kSum running sum as a two-word (128-bit) two's-complement integer.
  // With at most 2^64 folded rows of |x| <= 2^63 the true sum stays well
  // inside 128 bits.
  uint64_t sum_lo_ = 0;
  uint64_t sum_hi_ = 0;
};

/// The one grouped-aggregate accumulator: GROUP BY `group_by` with one
/// AggState per AggSpec per group. Every aggregate input folds through it
/// without building rows where it can — a scan folds each IMCU's match
/// bitmap on the packed codes (FoldImcu) — and anything else folds
/// materialized rows (FoldRow). The lone ungrouped push-down is the zero-key
/// case.
///
/// A join under the aggregate does not hand rows up either: each hash join
/// appends its joinee table to the fold's join chain (AddJoin), and every
/// input row then folds as the joined rows `input ++ joinee row` it expands
/// into, probing each edge innermost first — from the IMCU codes in FoldImcu,
/// from the materialized row in FoldRow — so the chain bottoms out in the
/// fact scan's tasks.
///
/// Row semantics, identical on every input: a key column past the (joined)
/// row's arity is NULL; COUNT counts every row; SUM/MIN/MAX skip NULL and
/// non-int inputs (and inputs past the row's arity). Every fold is order-
/// independent, so partials folded over disjoint inputs in any split merge
/// to the same groups.
class GroupFold {
 public:
  /// Largest composite key-code space folded into an array of accumulators
  /// indexed by code; a wider key decodes per row into the hash map.
  static constexpr uint64_t kMaxSlots = 4096;

  /// `specs` must be non-empty (a group with no aggregate folds nothing).
  GroupFold(std::vector<uint32_t> group_by, std::vector<AggSpec> specs);

  /// An empty fold over the same keys, aggregates and join chain (a scan
  /// lane's partial).
  GroupFold Partial() const;

  /// Joins every input row to `table`'s rows: input column `probe_column`
  /// equals the table's key (JoinTable::KeyOf on both sides). Called by each
  /// join of a left-deep chain before its input folds, outermost first, so
  /// group-by and aggregate columns address `input ++ joinee_1 ++ … ++
  /// joinee_n` with joinee_1 the innermost. `table` (and its rows) must
  /// outlive every fold. Returns the step's handle for ProbedRows/JoinedRows.
  size_t AddJoin(const JoinTable* table, uint32_t probe_column);

  /// Folds one materialized input row (and the joined rows it expands into).
  void FoldRow(const Row& row);
  /// Folds the rows of `imcu` set in `match` (BitmapWords(num_rows) words)
  /// on their encoded codes, through the join chain if any; returns how many
  /// input rows that was. Codes are per IMCU, so each touched group's key
  /// decodes once per call. A narrow key (and no key) folds one column at a
  /// time into per-slot accumulators; a wide key folds row by row.
  uint64_t FoldImcu(const Imcu& imcu, const uint64_t* match);

  /// Folds a partial built over a disjoint input into this one.
  void Merge(GroupFold&& other);

  /// Rows folded so far (this fold and everything merged into it): joined
  /// rows when the fold has a join chain.
  uint64_t rows() const { return level_rows_.back(); }
  /// Rows that probed join step `step` (AddJoin's handle), and rows it
  /// joined into.
  uint64_t ProbedRows(size_t step) const;
  uint64_t JoinedRows(size_t step) const;

  /// The zero-key group's state of aggregate `i` (the push-down result; an
  /// empty state when no row was folded).
  AggState Ungrouped(size_t i) const;

  /// Moves the groups out, sorted by key tuple (Value's total order).
  std::vector<std::pair<Row, std::vector<AggState>>> TakeSorted();

 private:
  struct KeyHash {
    size_t operator()(const Row& key) const;
  };
  using GroupMap = std::unordered_map<Row, std::vector<AggState>, KeyHash>;
  struct JoinChain;
  struct JoinPlan;

  std::vector<AggState>& Group(const Row& key);
  /// Folds the row `segs[0] ++ … ++ segs[n - 1]` without building it.
  void FoldSegments(const Row* const* segs, size_t n);
  /// Expands segs_ (an input row and its joinee rows for edges < `edge`)
  /// through the remaining edges and folds every joined row.
  void ExpandRow(size_t edge);
  /// Merges each touched slot of an IMCU fold's array accumulators (one
  /// AggState per spec per slot) into its group; `fill_key(slot)` appends
  /// the slot's key tuple to key_.
  template <typename FillKey>
  void MergeSlots(const std::vector<AggState>& acc, const FillKey& fill_key);
  /// FoldImcu through the join chain, with `plan` resolved for this IMCU's
  /// width.
  void FoldImcuJoined(const Imcu& imcu, const uint64_t* match,
                      uint64_t matched, const JoinPlan& plan);
  /// Resolves the keys, inputs and joins for input rows `width` columns
  /// wide.
  JoinPlan BuildPlan(uint32_t width) const;
  /// The chain's plan for `width` (built once per width, shared by every
  /// partial); null when a joinee's rows differ in width.
  const JoinPlan* PlanFor(uint32_t width) const;

  std::vector<uint32_t> group_by_;
  std::vector<AggSpec> specs_;
  GroupMap groups_;                  ///< Keyed groups.
  std::vector<AggState> ungrouped_;  ///< The zero-key group, once a row folds.
  std::shared_ptr<JoinChain> chain_;  ///< Null without a join.
  /// [0]: input rows folded; [k + 1]: rows out of join edge k (innermost
  /// first). The last entry is rows().
  std::vector<uint64_t> level_rows_;
  Row key_;                        ///< Reused key buffer for the per-row folds.
  std::vector<const Row*> segs_;   ///< Reused joined-row segments (FoldRow).
};

}  // namespace stratus

#endif  // STRATUS_IMCS_GROUP_FOLD_H_
