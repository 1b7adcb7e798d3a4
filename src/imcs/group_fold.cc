#include "imcs/group_fold.h"

#include <algorithm>
#include <functional>
#include <string>

#include "imcs/column_vector.h"
#include "imcs/imcu.h"
#include "imcs/scan_kernels.h"

namespace stratus {

namespace {

/// One key column's codes inside one IMCU: `null_code` (the column's code
/// count) stands for NULL, so the column spans null_code + 1 codes. A column
/// the IMCU lacks has no codes and is NULL on every row.
struct KeyCodes {
  const ColumnVector* col = nullptr;
  const BitPackedArray* codes = nullptr;
  const uint64_t* nulls = nullptr;
  uint64_t null_code = 0;
  uint64_t stride = 1;  ///< Weight in the composite slot index.

  uint64_t Code(uint32_t r) const {
    if (col == nullptr || ((nulls[r >> 6] >> (r & 63)) & 1)) return null_code;
    return codes->Get(r);
  }
  Value Decode(uint64_t code) const {
    return code == null_code ? Value() : col->DecodeCode(code);
  }
};

}  // namespace

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
    : group_by_(std::move(group_by)), specs_(std::move(specs)) {
  key_.reserve(group_by_.size());
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
  static const Row kNoColumns;
  FoldJoined(row, kNoColumns);
}

void GroupFold::FoldJoined(const Row& left, const Row& right) {
  const auto at = [&](size_t c) -> const Value* {
    if (c < left.size()) return &left[c];
    c -= left.size();
    return c < right.size() ? &right[c] : nullptr;
  };
  key_.clear();
  for (uint32_t g : group_by_) {
    const Value* v = at(g);
    key_.push_back(v != nullptr ? *v : Value());
  }
  std::vector<AggState>& states = Group(key_);
  for (size_t i = 0; i < specs_.size(); ++i) {
    ++states[i].count;
    if (specs_[i].kind == AggKind::kCount) continue;
    const Value* v = at(specs_[i].column);
    if (v != nullptr && v->type() == ValueType::kInt)
      states[i].Fold(specs_[i].kind, v->as_int());
  }
  ++rows_;
}

uint64_t GroupFold::FoldImcu(const Imcu& imcu, const uint64_t* match) {
  const size_t words = BitmapWords(imcu.num_rows());
  const uint64_t matched = BitmapCount(match, words);
  if (matched == 0) return 0;
  rows_ += matched;
  const size_t nspecs = specs_.size();

  // SUM/MIN/MAX read GetInt off a packed int column the IMCU holds; any
  // other input only counts.
  const auto int_input = [&](const AggSpec& spec) -> const IntColumnVector* {
    if (spec.kind == AggKind::kCount || spec.column >= imcu.num_columns())
      return nullptr;
    const ColumnVector& col = imcu.column(spec.column);
    return col.type() == ValueType::kInt
               ? static_cast<const IntColumnVector*>(&col)
               : nullptr;
  };

  if (group_by_.empty()) {
    // Zero keys: one group, and COUNT is the popcount.
    std::vector<AggState>& states = Group(key_);
    for (size_t i = 0; i < nspecs; ++i) {
      states[i].count += matched;
      const IntColumnVector* in = int_input(specs_[i]);
      if (in == nullptr) continue;
      ForEachSetBit(match, words, [&](uint32_t r) {
        if (!in->IsNull(r)) states[i].Fold(specs_[i].kind, in->GetInt(r));
      });
    }
    return matched;
  }

  std::vector<const IntColumnVector*> inputs(nspecs);
  for (size_t i = 0; i < nspecs; ++i) inputs[i] = int_input(specs_[i]);

  const auto fold_inputs = [&](AggState* states, uint32_t r) {
    for (size_t i = 0; i < nspecs; ++i) {
      ++states[i].count;
      const IntColumnVector* in = inputs[i];
      if (in != nullptr && !in->IsNull(r))
        states[i].Fold(specs_[i].kind, in->GetInt(r));
    }
  };

  std::vector<KeyCodes> keys(group_by_.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    if (group_by_[k] >= imcu.num_columns()) continue;
    KeyCodes& kc = keys[k];
    kc.col = &imcu.column(group_by_[k]);
    kc.codes = &kc.col->codes();
    kc.nulls = kc.col->null_words().data();
    kc.null_code = kc.col->num_codes();
  }
  // Array-indexed accumulators when the composite code space is small —
  // and no larger than the matched rows, so setup never outweighs the work.
  const uint64_t limit = std::min<uint64_t>(kMaxSlots, matched);
  uint64_t slots = 1;
  bool narrow = true;
  for (KeyCodes& kc : keys) {
    if (kc.null_code >= limit || kc.null_code + 1 > limit / slots) {
      narrow = false;
      break;
    }
    kc.stride = slots;
    slots *= kc.null_code + 1;
  }

  if (!narrow) {
    // Wide key: decode only the key columns of each matched row.
    key_.resize(keys.size());
    ForEachSetBit(match, words, [&](uint32_t r) {
      for (size_t k = 0; k < keys.size(); ++k)
        key_[k] = keys[k].col != nullptr ? keys[k].col->Get(r) : Value();
      fold_inputs(Group(key_).data(), r);
    });
    return matched;
  }

  std::vector<AggState> acc(slots * nspecs);
  ForEachSetBit(match, words, [&](uint32_t r) {
    uint64_t slot = 0;
    for (const KeyCodes& kc : keys) slot += kc.Code(r) * kc.stride;
    fold_inputs(&acc[slot * nspecs], r);
  });
  // Codes are per IMCU: decode each touched slot's key once, then merge.
  for (uint64_t slot = 0; slot < slots; ++slot) {
    const AggState* states = &acc[slot * nspecs];
    if (states[0].count == 0) continue;
    key_.clear();
    for (const KeyCodes& kc : keys)
      key_.push_back(kc.Decode(slot / kc.stride % (kc.null_code + 1)));
    std::vector<AggState>& group = Group(key_);
    for (size_t i = 0; i < nspecs; ++i)
      group[i].Merge(specs_[i].kind, states[i]);
  }
  return matched;
}

void GroupFold::Merge(GroupFold&& other) {
  rows_ += other.rows_;
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
  other.rows_ = 0;
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
