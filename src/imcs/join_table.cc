#include "imcs/join_table.h"

namespace stratus {

JoinTable::JoinTable(const std::vector<Row>& rows, uint32_t key_column)
    : rows_(&rows) {
  size_t size = 16;
  unsigned bits = 4;
  while (size < 2 * rows.size()) {
    size <<= 1;
    ++bits;
  }
  slots_.resize(size);
  mask_ = size - 1;
  shift_ = 64 - bits;

  // Pass 1: claim a slot per distinct key and count its rows in `end`.
  constexpr uint32_t kNoSlot = UINT32_MAX;
  std::vector<uint32_t> slot_of(rows.size(), kNoSlot);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const std::optional<int64_t> key = KeyOf(rows[i], key_column);
    if (!key) continue;
    size_t s = Home(*key);
    while (slots_[s].end != 0 && slots_[s].key != *key) s = (s + 1) & mask_;
    slots_[s].key = *key;
    ++slots_[s].end;
    slot_of[i] = static_cast<uint32_t>(s);
  }
  // Pass 2: the counts become consecutive ranges of ids_, filled in row
  // order so each key's ids ascend.
  uint32_t next = 0;
  for (Slot& slot : slots_) {
    const uint32_t count = slot.end;
    slot.begin = slot.end = next;
    next += count;
  }
  ids_.resize(next);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if (slot_of[i] != kNoSlot) ids_[slots_[slot_of[i]].end++] = i;
  }
}

}  // namespace stratus
