#ifndef STRATUS_IMCS_JOIN_TABLE_H_
#define STRATUS_IMCS_JOIN_TABLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "storage/value.h"

namespace stratus {

/// The hash table of an equi-join on one int64 key column: per key, the ids
/// of the rows holding it, in row order. Flat open addressing over the keys
/// plus one id array; both join paths (the row-returning join and the fold's
/// join chain) build and probe this one type, so the key rule lives here.
class JoinTable {
 public:
  /// Indexes `rows` (which must outlive the table) on `key_column`.
  JoinTable(const std::vector<Row>& rows, uint32_t key_column);

  /// The equi-join key rule: only a present, non-NULL int value is a key, so
  /// NULL, string and missing keys never enter the table and never match.
  static std::optional<int64_t> KeyOf(const Value* v) {
    if (v == nullptr || v->type() != ValueType::kInt) return std::nullopt;
    return v->as_int();
  }
  static std::optional<int64_t> KeyOf(const Row& row, uint32_t column) {
    return KeyOf(column < row.size() ? &row[column] : nullptr);
  }

  /// Ids of the rows whose key is `key`, ascending (empty when none).
  std::span<const uint32_t> Find(int64_t key) const {
    for (size_t s = Home(key);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.begin == slot.end) return {};
      if (slot.key == key) return {ids_.data() + slot.begin, slot.end - slot.begin};
    }
  }

  const std::vector<Row>& rows() const { return *rows_; }

 private:
  /// One key's rows: ids_[begin, end). begin == end marks an empty slot.
  struct Slot {
    int64_t key = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  size_t Home(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  const std::vector<Row>* rows_;
  std::vector<Slot> slots_;  ///< Power-of-two size, at most half full.
  size_t mask_ = 0;
  unsigned shift_ = 0;
  std::vector<uint32_t> ids_;
};

}  // namespace stratus

#endif  // STRATUS_IMCS_JOIN_TABLE_H_
