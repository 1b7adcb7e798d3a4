#include "imcs/group_fold.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "imcs/column_vector.h"
#include "imcs/imcu.h"
#include "imcs/join_table.h"
#include "imcs/scan_kernels.h"

namespace stratus {

namespace {

/// A column's packed codes inside one IMCU, read at row ids without
/// BitPackedArray::Get's per-call width test: every read takes two words,
/// which the guard word Pack() appends keeps in bounds (a width-0 column
/// reads a zero pair). `nulls` is null when the IMCU's column holds no NULL,
/// so a fold tests NULLs only where there are some.
struct PackedCodes {
  const uint64_t* words = kZeros;
  uint64_t mask = 0;
  unsigned width = 0;
  const uint64_t* nulls = nullptr;

  static constexpr uint64_t kZeros[2] = {0, 0};

  PackedCodes() = default;
  explicit PackedCodes(const ColumnVector& col) {
    const BitPackedArray& codes = col.codes();
    width = codes.width();
    if (width != 0) {
      words = codes.words();
      mask = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    }
    const std::vector<uint64_t>& null_words = col.null_words();
    if (BitmapAny(null_words.data(), null_words.size()))
      nulls = null_words.data();
  }

  uint64_t At(uint32_t r) const {
    const size_t bit = size_t{r} * width;
    const uint64_t* p = words + (bit >> 6);
    const unsigned sh = static_cast<unsigned>(bit & 63);
    return ((p[0] >> sh) | ((p[1] << 1) << (63 - sh))) & mask;
  }
  bool Null(uint32_t r) const {
    return nulls != nullptr && ((nulls[r >> 6] >> (r & 63)) & 1);
  }
};

/// One key column's codes inside one IMCU: `null_code` (the column's code
/// count) stands for NULL, so the column spans null_code + 1 codes. A column
/// the IMCU lacks has no codes and is NULL on every row.
struct KeyCodes {
  const ColumnVector* col = nullptr;
  PackedCodes packed;
  uint64_t null_code = 0;
  uint64_t stride = 1;  ///< Weight in the composite slot index.

  /// `imcu`'s codes of `column` (none past the IMCU's arity).
  static KeyCodes Of(const Imcu& imcu, uint32_t column) {
    KeyCodes kc;
    if (column >= imcu.num_columns()) return kc;
    kc.col = &imcu.column(column);
    kc.packed = PackedCodes(*kc.col);
    kc.null_code = kc.col->num_codes();
    return kc;
  }

  uint64_t Code(uint32_t r) const {
    if (col == nullptr || packed.Null(r)) return null_code;
    return packed.At(r);
  }
  /// Row r's key value, decoded (the wide path).
  Value Get(uint32_t r) const { return col != nullptr ? col->Get(r) : Value(); }
  /// The key value of composite slot `slot` (a narrow SlotSpace's).
  Value DecodeSlot(uint64_t slot) const {
    const uint64_t code = slot / stride % (null_code + 1);
    return code == null_code ? Value() : col->DecodeCode(code);
  }
};

/// The composite slot index of one IMCU fold's array accumulators. Each
/// dimension — a key column's codes, a joinee's key-tuple ids — is weighted
/// by the product of the spans before it. The space stays narrow while it
/// fits min(kMaxSlots, matched rows) slots, so setup never outweighs the
/// work; a wider key decodes per row instead.
class SlotSpace {
 public:
  explicit SlotSpace(uint64_t matched)
      : limit_(std::min<uint64_t>(GroupFold::kMaxSlots, matched)) {}

  /// Adds a dimension indexed 0..last and returns its stride (0 once the
  /// space is wide). `last` may be UINT64_MAX (an int column spanning the
  /// whole int64 range saturates its code count there), so the bound is
  /// checked without forming last + 1.
  uint64_t Add(uint64_t last) {
    if (!narrow_ || last >= limit_ / slots_) {
      narrow_ = false;
      return 0;
    }
    const uint64_t stride = slots_;
    slots_ *= last + 1;
    return stride;
  }

  bool narrow() const { return narrow_; }
  uint64_t slots() const { return slots_; }

 private:
  uint64_t limit_;
  uint64_t slots_ = 1;
  bool narrow_ = true;
};

/// (hi:lo) += x × n in two's-complement words: the exact sum of n copies of
/// x. The unsigned 64 × 64 → 128 product comes from 32-bit halves; x < 0
/// read as unsigned is x + 2^64, so its product is 2^64 × n too high.
void AddProduct(int64_t x, uint64_t n, uint64_t* lo, uint64_t* hi) {
  const uint64_t a = static_cast<uint64_t>(x);
  const uint64_t a0 = a & 0xffffffff, a1 = a >> 32;
  const uint64_t n0 = n & 0xffffffff, n1 = n >> 32;
  const uint64_t p00 = a0 * n0, p01 = a0 * n1, p10 = a1 * n0;
  const uint64_t mid = (p00 >> 32) + (p01 & 0xffffffff) + (p10 & 0xffffffff);
  const uint64_t plo = (p00 & 0xffffffff) | (mid << 32);
  uint64_t phi = a1 * n1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
  if (x < 0) phi -= n;
  *lo += plo;
  *hi += phi + (*lo < plo ? 1 : 0);
}

/// One IMCU's narrow fold, one column at a time. Matched row ids come in
/// chunks; each chunk's slots are computed one key column at a time, then
/// every aggregate's packed input codes fold into per-slot accumulators: a
/// row count, and per input a non-null count plus an exact two-word code sum
/// (kSum) or the extreme code (kMin/kMax). Codes are offsets from the
/// column's frame of reference, so a slot's exact input sum is base × its
/// non-null count + its code sum, formed once per slot by MergeInto.
class SlotFold {
 public:
  /// `inputs[i]`: aggregate i's packed int column, null when it only counts.
  SlotFold(const std::vector<AggSpec>& specs,
           const std::vector<const IntColumnVector*>& inputs, uint64_t slots)
      : specs_(specs), rows_(slots, 0), input_of_(specs.size(), kNone) {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (inputs[i] == nullptr) continue;
      input_of_[i] = inputs_.size();
      Input& in = inputs_.emplace_back(specs[i].kind, *inputs[i]);
      if (in.codes.nulls != nullptr) in.non_null.assign(slots, 0);
      in.lo.assign(slots, in.kind == AggKind::kMin ? ~uint64_t{0} : 0);
      if (in.kind == AggKind::kSum) in.hi.assign(slots, 0);
    }
  }

  /// Folds the `matched` rows set in `match` (`words` words), whose slots
  /// `keys` index.
  void Fold(const std::vector<KeyCodes>& keys, const uint64_t* match,
            size_t words, uint64_t matched) {
    if (rows_.size() == 1 && inputs_.empty()) {
      rows_[0] = matched;  // COUNT alone, no key: the popcount.
      return;
    }
    uint32_t ids[kChunk];
    size_t n = 0;
    ForEachSetBit(match, words, [&](uint32_t r) {
      ids[n++] = r;
      if (n == kChunk) {
        FoldChunk(keys, ids, n);
        n = 0;
      }
    });
    if (n != 0) FoldChunk(keys, ids, n);
  }

  uint64_t Rows(uint64_t slot) const { return rows_[slot]; }

  /// Merges aggregate `i`'s accumulators of `slot` into `state`.
  void MergeInto(size_t i, uint64_t slot, AggState* state) const {
    const AggKind kind = specs_[i].kind;
    const uint64_t rows = rows_[slot];
    if (input_of_[i] == kNone) {
      state->MergeExact(kind, rows, false, 0, 0);
      return;
    }
    const Input& in = inputs_[input_of_[i]];
    // Without NULLs in the column a slot's non-null count is its row count.
    const uint64_t non_null = in.non_null.empty() ? rows : in.non_null[slot];
    if (kind != AggKind::kSum) {
      state->MergeExact(kind, rows, non_null != 0,
                        static_cast<uint64_t>(in.base) + in.lo[slot], 0);
      return;
    }
    uint64_t lo = in.lo[slot], hi = in.hi[slot];
    AddProduct(in.base, non_null, &lo, &hi);
    state->MergeExact(kind, rows, non_null != 0, lo, hi);
  }

 private:
  static constexpr size_t kChunk = 512;
  static constexpr size_t kNone = SIZE_MAX;

  /// One aggregate input's packed codes and per-slot accumulators.
  struct Input {
    Input(AggKind k, const IntColumnVector& col)
        : kind(k), base(col.base()), codes(col) {}

    AggKind kind;
    int64_t base;
    PackedCodes codes;
    std::vector<uint64_t> non_null;  ///< Empty when the column has no NULL.
    std::vector<uint64_t> lo;  ///< Code sum's low word, or the extreme code.
    std::vector<uint64_t> hi;  ///< Code sum's high word (kSum only).
  };

  void FoldChunk(const std::vector<KeyCodes>& keys, const uint32_t* ids,
                 size_t n) {
    uint32_t slot[kChunk];
    std::fill_n(slot, n, 0);
    for (const KeyCodes& kc : keys) {
      if (kc.col == nullptr) continue;  // NULL, code 0, on every row.
      const PackedCodes& codes = kc.packed;
      const uint32_t stride = static_cast<uint32_t>(kc.stride);
      if (codes.nulls == nullptr) {
        for (size_t j = 0; j < n; ++j)
          slot[j] += static_cast<uint32_t>(codes.At(ids[j])) * stride;
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        const uint32_t r = ids[j];
        const uint64_t code = codes.Null(r) ? kc.null_code : codes.At(r);
        slot[j] += static_cast<uint32_t>(code) * stride;
      }
    }
    if (rows_.size() == 1) {
      rows_[0] += n;
    } else {
      for (size_t j = 0; j < n; ++j) ++rows_[slot[j]];
    }
    for (Input& in : inputs_) {
      uint64_t* lo = in.lo.data();
      uint64_t* hi = in.hi.data();
      const auto each = [&](const auto& fold_code) {
        if (in.non_null.empty()) {
          for (size_t j = 0; j < n; ++j)
            fold_code(slot[j], in.codes.At(ids[j]));
          return;
        }
        for (size_t j = 0; j < n; ++j) {
          const uint32_t r = ids[j];
          if (in.codes.Null(r)) continue;
          ++in.non_null[slot[j]];
          fold_code(slot[j], in.codes.At(r));
        }
      };
      switch (in.kind) {
        case AggKind::kSum:
          // An IMCU holds at most 2^32 rows (32-bit row ids), so codes of at
          // most 32 bits sum below 2^64 in one word: no carry to track.
          if (in.codes.width <= 32) {
            each([lo](uint32_t s, uint64_t c) { lo[s] += c; });
          } else {
            each([lo, hi](uint32_t s, uint64_t c) {
              lo[s] += c;
              hi[s] += lo[s] < c ? 1 : 0;
            });
          }
          break;
        case AggKind::kMin:
          each([lo](uint32_t s, uint64_t c) { lo[s] = std::min(lo[s], c); });
          break;
        case AggKind::kMax:
          each([lo](uint32_t s, uint64_t c) { lo[s] = std::max(lo[s], c); });
          break;
        default:
          break;
      }
    }
  }

  const std::vector<AggSpec>& specs_;
  std::vector<uint64_t> rows_;    ///< Per slot.
  std::vector<size_t> input_of_;  ///< Per aggregate: its input, or kNone.
  std::vector<Input> inputs_;
};

/// The packed int column `imcu` holds at `column` (SUM/MIN/MAX inputs and
/// join keys read GetInt off it); null for a string or missing column.
const IntColumnVector* IntColumn(const Imcu& imcu, uint32_t column) {
  if (column >= imcu.num_columns()) return nullptr;
  const ColumnVector& col = imcu.column(column);
  return col.type() == ValueType::kInt
             ? static_cast<const IntColumnVector*>(&col)
             : nullptr;
}

/// Row r of an int column as a fold input or join key: a non-NULL int code
/// is exactly what JoinTable::KeyOf accepts; NULL and missing are none.
std::optional<int64_t> IntAt(const IntColumnVector* col, uint32_t r) {
  if (col == nullptr || col->IsNull(r)) return std::nullopt;
  return col->GetInt(r);
}

/// The column at `c` of the row segs[0] ++ … ++ segs[n - 1]; null past it.
const Value* At(const Row* const* segs, size_t n, uint32_t c) {
  for (size_t s = 0; s < n; ++s) {
    if (c < segs[s]->size()) return &(*segs[s])[c];
    c -= static_cast<uint32_t>(segs[s]->size());
  }
  return nullptr;
}

/// Where a column of the joined layout lives: segment 0 is the input row,
/// segment k + 1 the joinee row of edge k; kNowhere is past the layout.
struct ColumnRef {
  static constexpr uint32_t kNowhere = UINT32_MAX;
  uint32_t seg = kNowhere;
  uint32_t col = 0;
};

}  // namespace

/// The joins a fold expands its input through, shared by the fold and its
/// partials: the steps in AddJoin order (outermost first), and one plan per
/// input-row width the folds have met.
struct GroupFold::JoinChain {
  struct Step {
    const JoinTable* table;
    uint32_t probe_column;
    uint32_t width;  ///< Of every joinee row (unless `ragged`).
  };
  std::vector<Step> steps;
  bool ragged = false;  ///< Some joinee's rows differ in width.

  /// The step of edge `k`, innermost first.
  const Step& edge(size_t k) const { return steps[steps.size() - 1 - k]; }

  std::mutex mu;  ///< Guards `plans`.
  std::vector<std::unique_ptr<const JoinPlan>> plans;
};

/// Where every column a joined code fold reads lives for input rows `width`
/// columns wide, with the joinee side extracted once per joinee row: the key
/// a later edge probes with, the aggregate inputs, and the group-key tuple
/// interned to a dense id.
struct GroupFold::JoinPlan {
  uint32_t width = 0;
  struct Edge {
    const JoinTable* table = nullptr;
    ColumnRef probe;  ///< In the input ++ the joinees of earlier edges.
    /// When `probe` is in a joinee: that joinee's key per row.
    std::vector<std::optional<int64_t>> joinee_keys;
  };
  std::vector<Edge> edges;  ///< Innermost first.
  /// Per group-by position; a joinee position's `col` indexes its tuple.
  std::vector<ColumnRef> keys;
  /// Per aggregate (kNowhere for COUNT); a joinee input's value per row.
  std::vector<ColumnRef> inputs;
  std::vector<std::vector<std::optional<int64_t>>> joinee_inputs;
  /// Per edge: each joinee row's group-key tuple id, and the tuples.
  struct Interned {
    std::vector<uint32_t> ids;
    std::vector<Row> tuples;
  };
  std::vector<Interned> interned;
};

size_t GroupFold::KeyHash::operator()(const Row& key) const {
  // FNV-style combine; NULL, int, and string values hash by (type tag,
  // payload), so distinct-typed keys land in distinct groups just as
  // Value::operator== separates them.
  size_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
  for (const Value& v : key) {
    size_t x = static_cast<size_t>(v.type());
    switch (v.type()) {
      case ValueType::kNull: break;
      case ValueType::kInt:
        x ^= std::hash<int64_t>{}(v.as_int());
        break;
      case ValueType::kString:
        x ^= std::hash<std::string>{}(v.as_string());
        break;
    }
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

GroupFold::GroupFold(std::vector<uint32_t> group_by, std::vector<AggSpec> specs)
    : group_by_(std::move(group_by)), specs_(std::move(specs)),
      level_rows_(1, 0) {
  key_.reserve(group_by_.size());
}

GroupFold GroupFold::Partial() const {
  GroupFold partial(group_by_, specs_);
  partial.chain_ = chain_;
  partial.level_rows_.assign(level_rows_.size(), 0);
  return partial;
}

size_t GroupFold::AddJoin(const JoinTable* table, uint32_t probe_column) {
  if (chain_ == nullptr) chain_ = std::make_shared<JoinChain>();
  const std::vector<Row>& rows = table->rows();
  const uint32_t width = rows.empty() ? 0 : static_cast<uint32_t>(rows[0].size());
  for (const Row& row : rows) chain_->ragged |= row.size() != width;
  chain_->steps.push_back({table, probe_column, width});
  level_rows_.push_back(0);
  return chain_->steps.size() - 1;
}

uint64_t GroupFold::ProbedRows(size_t step) const {
  return level_rows_[chain_->steps.size() - 1 - step];
}

uint64_t GroupFold::JoinedRows(size_t step) const {
  return level_rows_[chain_->steps.size() - step];
}

std::vector<AggState>& GroupFold::Group(const Row& key) {
  if (group_by_.empty()) {
    if (ungrouped_.empty()) ungrouped_.resize(specs_.size());
    return ungrouped_;
  }
  auto it = groups_.find(key);
  if (it == groups_.end())
    it = groups_.emplace(key, std::vector<AggState>(specs_.size())).first;
  return it->second;
}

void GroupFold::FoldRow(const Row& row) {
  ++level_rows_[0];
  if (chain_ == nullptr) {
    const Row* seg = &row;
    FoldSegments(&seg, 1);
    return;
  }
  segs_.assign(1, &row);
  ExpandRow(0);
}

void GroupFold::ExpandRow(size_t edge) {
  if (edge == chain_->steps.size()) {
    FoldSegments(segs_.data(), segs_.size());
    return;
  }
  const JoinChain::Step& step = chain_->edge(edge);
  const std::optional<int64_t> key = JoinTable::KeyOf(
      At(segs_.data(), segs_.size(), step.probe_column));
  if (!key) return;
  const std::span<const uint32_t> hits = step.table->Find(*key);
  level_rows_[edge + 1] += hits.size();
  for (const uint32_t j : hits) {
    segs_.push_back(&step.table->rows()[j]);
    ExpandRow(edge + 1);
    segs_.pop_back();
  }
}

void GroupFold::FoldSegments(const Row* const* segs, size_t n) {
  key_.clear();
  for (uint32_t g : group_by_) {
    const Value* v = At(segs, n, g);
    key_.push_back(v != nullptr ? *v : Value());
  }
  std::vector<AggState>& states = Group(key_);
  for (size_t i = 0; i < specs_.size(); ++i) {
    ++states[i].count;
    if (specs_[i].kind == AggKind::kCount) continue;
    const Value* v = At(segs, n, specs_[i].column);
    if (v != nullptr && v->type() == ValueType::kInt)
      states[i].Fold(specs_[i].kind, v->as_int());
  }
}

GroupFold::JoinPlan GroupFold::BuildPlan(uint32_t width) const {
  const size_t nedges = chain_->steps.size();
  const auto joinee = [&](size_t k) -> const std::vector<Row>& {
    return chain_->edge(k).table->rows();
  };
  // Segment 0 is the input row, segment k + 1 edge k's joinee row.
  const auto resolve = [&](uint32_t c, size_t segments) {
    for (size_t s = 0; s < segments; ++s) {
      const uint32_t w = s == 0 ? width : chain_->edge(s - 1).width;
      if (c < w) return ColumnRef{static_cast<uint32_t>(s), c};
      c -= w;
    }
    return ColumnRef{};
  };

  JoinPlan plan;
  plan.width = width;
  for (size_t k = 0; k < nedges; ++k) {
    JoinPlan::Edge& e = plan.edges.emplace_back();
    e.table = chain_->edge(k).table;
    e.probe = resolve(chain_->edge(k).probe_column, k + 1);
    if (e.probe.seg == 0 || e.probe.seg == ColumnRef::kNowhere) continue;
    for (const Row& row : joinee(e.probe.seg - 1))
      e.joinee_keys.push_back(JoinTable::KeyOf(row, e.probe.col));
  }

  std::vector<std::vector<uint32_t>> key_cols(nedges);
  for (uint32_t g : group_by_) {
    ColumnRef ref = resolve(g, nedges + 1);
    if (ref.seg != 0 && ref.seg != ColumnRef::kNowhere) {
      std::vector<uint32_t>& cols = key_cols[ref.seg - 1];
      cols.push_back(ref.col);
      ref.col = static_cast<uint32_t>(cols.size() - 1);
    }
    plan.keys.push_back(ref);
  }
  plan.interned.resize(nedges);
  for (size_t k = 0; k < nedges; ++k) {
    if (key_cols[k].empty()) continue;
    JoinPlan::Interned& in = plan.interned[k];
    std::unordered_map<Row, uint32_t, KeyHash> ids;
    for (const Row& row : joinee(k)) {
      Row tuple;
      tuple.reserve(key_cols[k].size());
      for (uint32_t c : key_cols[k]) tuple.push_back(row[c]);
      const auto [it, fresh] =
          ids.try_emplace(tuple, static_cast<uint32_t>(in.tuples.size()));
      if (fresh) in.tuples.push_back(std::move(tuple));
      in.ids.push_back(it->second);
    }
  }

  plan.joinee_inputs.resize(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    const ColumnRef ref = specs_[i].kind == AggKind::kCount
                              ? ColumnRef{}
                              : resolve(specs_[i].column, nedges + 1);
    plan.inputs.push_back(ref);
    if (ref.seg == 0 || ref.seg == ColumnRef::kNowhere) continue;
    for (const Row& row : joinee(ref.seg - 1)) {
      plan.joinee_inputs[i].push_back(
          row[ref.col].type() == ValueType::kInt
              ? std::optional<int64_t>(row[ref.col].as_int())
              : std::nullopt);
    }
  }
  return plan;
}

const GroupFold::JoinPlan* GroupFold::PlanFor(uint32_t width) const {
  JoinChain& chain = *chain_;
  if (chain.ragged) return nullptr;
  std::lock_guard<std::mutex> lock(chain.mu);
  for (const auto& plan : chain.plans) {
    if (plan->width == width) return plan.get();
  }
  chain.plans.push_back(std::make_unique<const JoinPlan>(BuildPlan(width)));
  return chain.plans.back().get();
}

template <typename FillKey>
void GroupFold::MergeSlots(const std::vector<AggState>& acc,
                           const FillKey& fill_key) {
  // Codes are per IMCU: decode each touched slot's key once, then merge.
  const size_t nspecs = specs_.size();
  for (size_t base = 0; base < acc.size(); base += nspecs) {
    const AggState* states = &acc[base];
    if (states[0].count == 0) continue;
    key_.clear();
    fill_key(base / nspecs);
    std::vector<AggState>& group = Group(key_);
    for (size_t i = 0; i < nspecs; ++i)
      group[i].Merge(specs_[i].kind, states[i]);
  }
}

uint64_t GroupFold::FoldImcu(const Imcu& imcu, const uint64_t* match) {
  const size_t words = BitmapWords(imcu.num_rows());
  const uint64_t matched = BitmapCount(match, words);
  if (matched == 0) return 0;
  if (chain_ != nullptr) {
    const JoinPlan* plan =
        PlanFor(static_cast<uint32_t>(imcu.num_columns()));
    if (plan != nullptr) {
      FoldImcuJoined(imcu, match, matched, *plan);
    } else {
      // Ragged joinee rows: no one plan fits, so join materialized rows.
      ForEachSetBit(match, words,
                    [&](uint32_t r) { FoldRow(imcu.Materialize(r)); });
    }
    return matched;
  }
  level_rows_[0] += matched;
  const size_t nspecs = specs_.size();

  // SUM/MIN/MAX read the codes of a packed int column the IMCU holds; any
  // other input only counts.
  std::vector<const IntColumnVector*> inputs(nspecs);
  for (size_t i = 0; i < nspecs; ++i) {
    if (specs_[i].kind != AggKind::kCount)
      inputs[i] = IntColumn(imcu, specs_[i].column);
  }

  SlotSpace space(matched);
  std::vector<KeyCodes> keys;
  keys.reserve(group_by_.size());
  for (const uint32_t g : group_by_) {
    KeyCodes& kc = keys.emplace_back(KeyCodes::Of(imcu, g));
    kc.stride = space.Add(kc.null_code);
  }

  if (!space.narrow()) {
    // Wide key: decode only the key columns of each matched row.
    key_.resize(keys.size());
    ForEachSetBit(match, words, [&](uint32_t r) {
      for (size_t k = 0; k < keys.size(); ++k) key_[k] = keys[k].Get(r);
      AggState* states = Group(key_).data();
      for (size_t i = 0; i < nspecs; ++i) {
        ++states[i].count;
        const IntColumnVector* in = inputs[i];
        if (in != nullptr && !in->IsNull(r))
          states[i].Fold(specs_[i].kind, in->GetInt(r));
      }
    });
    return matched;
  }

  // Narrow key (no key is its one-slot instance): fold column at a time,
  // then decode each touched slot's key once and merge its accumulators.
  SlotFold fold(specs_, inputs, space.slots());
  fold.Fold(keys, match, words, matched);
  for (uint64_t slot = 0; slot < space.slots(); ++slot) {
    if (fold.Rows(slot) == 0) continue;
    key_.clear();
    for (const KeyCodes& kc : keys) key_.push_back(kc.DecodeSlot(slot));
    std::vector<AggState>& group = Group(key_);
    for (size_t i = 0; i < nspecs; ++i) fold.MergeInto(i, slot, &group[i]);
  }
  return matched;
}

void GroupFold::FoldImcuJoined(const Imcu& imcu, const uint64_t* match,
                               uint64_t matched, const JoinPlan& plan) {
  level_rows_[0] += matched;
  const size_t words = BitmapWords(imcu.num_rows());
  const size_t nkeys = group_by_.size();
  const size_t nspecs = specs_.size();
  const size_t nedges = plan.edges.size();

  // The fact row's columns read off the codes: SUM/MIN/MAX inputs (GetInt
  // off a packed int column; any other input only counts) and the keys it
  // probes the joins with.
  std::vector<const IntColumnVector*> inputs(nspecs), probes(nedges);
  for (size_t i = 0; i < nspecs; ++i) {
    if (plan.inputs[i].seg == 0)
      inputs[i] = IntColumn(imcu, plan.inputs[i].col);
  }
  for (size_t k = 0; k < nedges; ++k) {
    if (plan.edges[k].probe.seg == 0)
      probes[k] = IntColumn(imcu, plan.edges[k].probe.col);
  }
  // The innermost edge probes with a fact column: no int column, no join.
  if (probes[0] == nullptr) return;

  // Array-indexed accumulators when the slot space — the fact key codes
  // times each joinee's key-tuple ids — is small.
  SlotSpace space(matched);
  std::vector<KeyCodes> keys(nkeys);
  for (size_t g = 0; g < nkeys; ++g) {
    if (plan.keys[g].seg != 0) continue;
    keys[g] = KeyCodes::Of(imcu, plan.keys[g].col);
    keys[g].stride = space.Add(keys[g].null_code);
  }
  std::vector<uint64_t> id_strides(nedges, 0);
  for (size_t k = 0; k < nedges; ++k) {
    const size_t ntuples = plan.interned[k].tuples.size();
    if (ntuples != 0) id_strides[k] = space.Add(ntuples - 1);
  }
  const bool narrow = space.narrow();

  // Per fact row: its slot part or key values, aggregate inputs and probe
  // keys; js holds each edge's joinee row while a joined row folds.
  std::vector<AggState> acc(narrow ? space.slots() * nspecs : 0);
  Row key_values(narrow ? 0 : nkeys);
  std::vector<std::optional<int64_t>> in(nspecs), probe(nedges);
  std::vector<uint32_t> js(nedges);
  uint64_t fact_slot = 0;

  const auto fold = [&] {
    AggState* states;
    if (narrow) {
      uint64_t slot = fact_slot;
      for (size_t k = 0; k < nedges; ++k) {
        if (id_strides[k] != 0)
          slot += plan.interned[k].ids[js[k]] * id_strides[k];
      }
      states = &acc[slot * nspecs];
    } else {
      key_.clear();
      for (size_t g = 0; g < nkeys; ++g) {
        const ColumnRef& ref = plan.keys[g];
        if (ref.seg == 0 || ref.seg == ColumnRef::kNowhere) {
          key_.push_back(key_values[g]);
        } else {
          const JoinPlan::Interned& t = plan.interned[ref.seg - 1];
          key_.push_back(t.tuples[t.ids[js[ref.seg - 1]]][ref.col]);
        }
      }
      states = Group(key_).data();
    }
    for (size_t i = 0; i < nspecs; ++i) {
      ++states[i].count;
      const ColumnRef& ref = plan.inputs[i];
      if (ref.seg == ColumnRef::kNowhere) continue;
      const std::optional<int64_t>& x =
          ref.seg == 0 ? in[i] : plan.joinee_inputs[i][js[ref.seg - 1]];
      if (x) states[i].Fold(specs_[i].kind, *x);
    }
  };
  // Expands the fact row through edges k.. and folds each joined row.
  const auto expand = [&](const auto& self, size_t k) -> void {
    if (k == nedges) return fold();
    const JoinPlan::Edge& e = plan.edges[k];
    if (e.probe.seg == ColumnRef::kNowhere) return;
    const std::optional<int64_t>& key =
        e.probe.seg == 0 ? probe[k] : e.joinee_keys[js[e.probe.seg - 1]];
    if (!key) return;
    const std::span<const uint32_t> hits = e.table->Find(*key);
    level_rows_[k + 1] += hits.size();
    for (const uint32_t j : hits) {
      js[k] = j;
      self(self, k + 1);
    }
  };

  ForEachSetBit(match, words, [&](uint32_t r) {
    for (size_t k = 0; k < nedges; ++k) probe[k] = IntAt(probes[k], r);
    if (!probe[0]) return;
    for (size_t i = 0; i < nspecs; ++i) in[i] = IntAt(inputs[i], r);
    fact_slot = 0;
    for (size_t g = 0; g < nkeys; ++g) {
      if (plan.keys[g].seg != 0) continue;
      if (narrow) {
        fact_slot += keys[g].Code(r) * keys[g].stride;
      } else {
        key_values[g] = keys[g].Get(r);
      }
    }
    expand(expand, 0);
  });
  if (!narrow) return;

  MergeSlots(acc, [&](uint64_t slot) {
    for (size_t g = 0; g < nkeys; ++g) {
      const ColumnRef& ref = plan.keys[g];
      if (ref.seg == 0) {
        key_.push_back(keys[g].DecodeSlot(slot));
      } else if (ref.seg == ColumnRef::kNowhere) {
        key_.push_back(Value());
      } else {
        const size_t k = ref.seg - 1;
        const std::vector<Row>& tuples = plan.interned[k].tuples;
        key_.push_back(tuples[slot / id_strides[k] % tuples.size()][ref.col]);
      }
    }
  });
}

void GroupFold::Merge(GroupFold&& other) {
  for (size_t i = 0; i < level_rows_.size(); ++i)
    level_rows_[i] += other.level_rows_[i];
  if (!other.ungrouped_.empty()) {
    std::vector<AggState>& mine = Group(key_);
    for (size_t i = 0; i < specs_.size(); ++i)
      mine[i].Merge(specs_[i].kind, other.ungrouped_[i]);
  }
  groups_.merge(other.groups_);  // Moves every group this fold lacks.
  for (auto& [key, states] : other.groups_) {  // Groups both folds hold.
    std::vector<AggState>& mine = groups_.find(key)->second;
    for (size_t i = 0; i < specs_.size(); ++i)
      mine[i].Merge(specs_[i].kind, states[i]);
  }
  other.groups_.clear();
  other.ungrouped_.clear();
  other.level_rows_.assign(other.level_rows_.size(), 0);
}

AggState GroupFold::Ungrouped(size_t i) const {
  return ungrouped_.empty() ? AggState{} : ungrouped_[i];
}

std::vector<std::pair<Row, std::vector<AggState>>> GroupFold::TakeSorted() {
  std::vector<std::pair<Row, std::vector<AggState>>> out;
  out.reserve(groups_.size() + 1);
  if (!ungrouped_.empty()) out.emplace_back(Row{}, std::move(ungrouped_));
  ungrouped_.clear();
  while (!groups_.empty()) {
    auto node = groups_.extract(groups_.begin());
    out.emplace_back(std::move(node.key()), std::move(node.mapped()));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace stratus
