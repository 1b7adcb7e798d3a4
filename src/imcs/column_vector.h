#ifndef STRATUS_IMCS_COLUMN_VECTOR_H_
#define STRATUS_IMCS_COLUMN_VECTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "imcs/dictionary.h"
#include "imcs/scan_kernels.h"
#include "storage/value.h"

namespace stratus {

/// Comparison operators supported by scan predicates.
enum class PredOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Fixed-width bit-packed array of non-negative integers — the compressed
/// physical layout shared by numeric columns (frame-of-reference deltas) and
/// string columns (dictionary codes).
class BitPackedArray {
 public:
  BitPackedArray() = default;

  /// Packs `values` (each < 2^width). width 0 encodes the constant 0.
  static BitPackedArray Pack(const std::vector<uint64_t>& values, uint8_t width);

  /// Smallest width able to represent `max_value`.
  static uint8_t WidthFor(uint64_t max_value);

  uint64_t Get(size_t i) const {
    if (width_ == 0) return 0;
    const size_t bit = i * width_;
    const size_t word = bit >> 6;
    const unsigned shift = bit & 63;
    uint64_t v = words_[word] >> shift;
    if (shift + width_ > 64) v |= words_[word + 1] << (64 - shift);
    return v & mask_;
  }

  size_t size() const { return size_; }
  uint8_t width() const { return width_; }
  size_t ApproxBytes() const { return words_.capacity() * sizeof(uint64_t); }

  /// Raw packed words for the word-at-a-time kernels. Pack() appends one
  /// guard word past the data, so kernels may read words()[i + 1] for any
  /// word holding field bits. Empty when width() == 0.
  const uint64_t* words() const { return words_.data(); }

  /// Appends the packed physical form (count, width, raw words) to `*out`.
  void Serialize(std::string* out) const;
  /// Reads a Serialize()d array back; false on truncation.
  static bool Deserialize(const std::string& buf, size_t* pos,
                          BitPackedArray* out);

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  uint8_t width_ = 0;
  uint64_t mask_ = 0;
};

/// An encoded, immutable column inside an IMCU. Provides point access for row
/// materialization and vectorized predicate filtering; per-column min/max
/// form the in-memory storage index used for IMCU pruning.
class ColumnVector {
 public:
  virtual ~ColumnVector() = default;

  virtual ValueType type() const = 0;
  virtual size_t size() const = 0;
  virtual bool IsNull(size_t row) const = 0;
  virtual Value Get(size_t row) const = 0;
  virtual size_t ApproxBytes() const = 0;

  /// Appends to `*out` every row id whose value satisfies `op value`.
  /// NULLs never match (SQL semantics). Rows listed in the caller's skip set
  /// are still emitted — the scan engine filters invalid rows afterwards.
  /// Implemented over FilterBitmap; kept for point lookups and tests.
  virtual void Filter(PredOp op, const Value& value,
                      std::vector<uint32_t>* out) const = 0;

  /// Writes the match bitmap for `op value` into `out` (BitmapWords(size())
  /// words, fully overwritten, tail bits cleared): the predicate constant is
  /// translated into code space once, then the requested kernel compares the
  /// bit-packed codes word-at-a-time. NULL rows never match. `counters`
  /// (may be null) is credited with the kernel that actually ran.
  virtual void FilterBitmap(PredOp op, const Value& value, ScanKernel kernel,
                            uint64_t* out, KernelCounters* counters) const = 0;

  /// Storage-index check: can any row of this column satisfy `op value`?
  /// (false ⇒ the valid portion of the IMCU can be pruned for this predicate.)
  virtual bool MightMatch(PredOp op, const Value& value) const = 0;

  /// Appends a type tag plus the ENCODED physical form (bit-packed codes,
  /// dictionary, null bitmap) to `*out`. DeserializeColumnVector() restores
  /// the vector without re-encoding — the IMCS snapshot-resume fast path.
  virtual void SerializeTo(std::string* out) const = 0;

  /// Code-space access for folds over the encoded column. A non-null row's
  /// code is codes().Get(row) — its frame-of-reference offset (int) or its
  /// dictionary code (string) — a dense integer below num_codes() (which
  /// saturates at UINT64_MAX); DecodeCode maps a code back to its Value.
  /// null_words() is the NULL bitmap (BitmapWords(size()) words).
  virtual const BitPackedArray& codes() const = 0;
  virtual const std::vector<uint64_t>& null_words() const = 0;
  virtual uint64_t num_codes() const = 0;
  virtual Value DecodeCode(uint64_t code) const = 0;
};

/// Frame-of-reference + bit-packed integer column.
class IntColumnVector final : public ColumnVector {
 public:
  /// `values[i]` nullopt encodes NULL.
  explicit IntColumnVector(const std::vector<std::optional<int64_t>>& values);

  ValueType type() const override { return ValueType::kInt; }
  size_t size() const override { return n_; }
  bool IsNull(size_t row) const override {
    return (nulls_[row >> 6] >> (row & 63)) & 1;
  }
  Value Get(size_t row) const override;
  int64_t GetInt(size_t row) const {
    return static_cast<int64_t>(static_cast<uint64_t>(base_) + packed_.Get(row));
  }
  size_t ApproxBytes() const override;

  void Filter(PredOp op, const Value& value, std::vector<uint32_t>* out) const override;
  void FilterBitmap(PredOp op, const Value& value, ScanKernel kernel,
                    uint64_t* out, KernelCounters* counters) const override;
  bool MightMatch(PredOp op, const Value& value) const override;

  const BitPackedArray& codes() const override { return packed_; }
  const std::vector<uint64_t>& null_words() const override { return nulls_; }
  uint64_t num_codes() const override;
  Value DecodeCode(uint64_t code) const override {
    return Value(static_cast<int64_t>(static_cast<uint64_t>(base_) + code));
  }

  int64_t min_value() const { return min_; }
  /// Frame of reference: a non-null row's value is base() + its code.
  int64_t base() const { return base_; }
  int64_t max_value() const { return max_; }

  void SerializeTo(std::string* out) const override;
  /// nullptr on truncation/corruption.
  static std::unique_ptr<IntColumnVector> Deserialize(const std::string& buf,
                                                      size_t* pos);

 private:
  IntColumnVector() = default;

  size_t n_ = 0;
  int64_t base_ = 0;  ///< Frame of reference (== min_).
  int64_t min_ = 0;
  int64_t max_ = 0;
  bool all_null_ = true;
  BitPackedArray packed_;
  std::vector<uint64_t> nulls_;
};

/// Dictionary-encoded string column.
class StringColumnVector final : public ColumnVector {
 public:
  explicit StringColumnVector(const std::vector<const std::string*>& values);

  ValueType type() const override { return ValueType::kString; }
  size_t size() const override { return n_; }
  bool IsNull(size_t row) const override {
    return (nulls_[row >> 6] >> (row & 63)) & 1;
  }
  Value Get(size_t row) const override;
  size_t ApproxBytes() const override;

  void Filter(PredOp op, const Value& value, std::vector<uint32_t>* out) const override;
  void FilterBitmap(PredOp op, const Value& value, ScanKernel kernel,
                    uint64_t* out, KernelCounters* counters) const override;
  bool MightMatch(PredOp op, const Value& value) const override;

  const BitPackedArray& codes() const override { return codes_; }
  const std::vector<uint64_t>& null_words() const override { return nulls_; }
  uint64_t num_codes() const override { return dict_.size(); }
  Value DecodeCode(uint64_t code) const override {
    return Value(dict_.Decode(static_cast<uint32_t>(code)));
  }

  const Dictionary& dictionary() const { return dict_; }

  void SerializeTo(std::string* out) const override;
  /// nullptr on truncation/corruption.
  static std::unique_ptr<StringColumnVector> Deserialize(const std::string& buf,
                                                         size_t* pos);

 private:
  StringColumnVector() = default;

  size_t n_ = 0;
  bool all_null_ = true;
  Dictionary dict_;
  BitPackedArray codes_;
  std::vector<uint64_t> nulls_;
};

/// Builds the encoded column for `type` from a generic value accessor.
std::unique_ptr<ColumnVector> BuildColumnVector(
    ValueType type, size_t n, const std::function<const Value*(size_t)>& get);

/// Restores a column appended by ColumnVector::SerializeTo (tag dispatch).
/// nullptr on truncation, corruption, or an unknown type tag.
std::unique_ptr<ColumnVector> DeserializeColumnVector(const std::string& buf,
                                                      size_t* pos);

}  // namespace stratus

#endif  // STRATUS_IMCS_COLUMN_VECTOR_H_
