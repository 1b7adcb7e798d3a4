#include "imcs/column_vector.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/checksum.h"

namespace stratus {

uint8_t BitPackedArray::WidthFor(uint64_t max_value) {
  uint8_t w = 0;
  while (max_value != 0) {
    ++w;
    max_value >>= 1;
  }
  return w;
}

BitPackedArray BitPackedArray::Pack(const std::vector<uint64_t>& values,
                                    uint8_t width) {
  BitPackedArray arr;
  arr.size_ = values.size();
  arr.width_ = width;
  arr.mask_ = width >= 64 ? ~0ull : ((1ull << width) - 1);
  if (width == 0) return arr;
  arr.words_.assign((values.size() * width + 63) / 64 + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t v = values[i] & arr.mask_;
    const size_t bit = i * width;
    const size_t word = bit >> 6;
    const unsigned shift = bit & 63;
    arr.words_[word] |= v << shift;
    if (shift + width > 64) arr.words_[word + 1] |= v >> (64 - shift);
  }
  return arr;
}

void BitPackedArray::Serialize(std::string* out) const {
  PutVarint64(out, size_);
  out->push_back(static_cast<char>(width_));
  PutVarint64(out, words_.size());
  // Raw little-endian words: the dense physical form, appended wholesale so
  // resume avoids per-element varint work.
  out->append(reinterpret_cast<const char*>(words_.data()),
              words_.size() * sizeof(uint64_t));
}

bool BitPackedArray::Deserialize(const std::string& buf, size_t* pos,
                                 BitPackedArray* out) {
  uint64_t n = 0;
  if (!GetVarint64(buf, pos, &n)) return false;
  if (*pos >= buf.size()) return false;
  const uint8_t width = static_cast<uint8_t>(buf[(*pos)++]);
  if (width > 64) return false;
  uint64_t nwords = 0;
  if (!GetVarint64(buf, pos, &nwords)) return false;
  const size_t bytes = nwords * sizeof(uint64_t);
  if (*pos + bytes > buf.size()) return false;
  // A width-w array over n values needs this many words (see Pack).
  if (width != 0 && nwords != (n * width + 63) / 64 + 1) return false;
  if (width == 0 && nwords != 0) return false;
  out->size_ = n;
  out->width_ = width;
  out->mask_ = width == 0 ? 0 : (width >= 64 ? ~0ull : ((1ull << width) - 1));
  out->words_.resize(nwords);
  if (bytes != 0) std::memcpy(out->words_.data(), buf.data() + *pos, bytes);
  *pos += bytes;
  return true;
}

namespace {

std::vector<uint64_t> MakeNullBitmap(size_t n) {
  return std::vector<uint64_t>((n + 63) / 64, 0);
}

// Column serialization type tags (on-disk; append-only list).
inline constexpr uint8_t kColTagInt = 1;
inline constexpr uint8_t kColTagString = 2;

void PutRawWords(std::string* out, const std::vector<uint64_t>& words) {
  out->append(reinterpret_cast<const char*>(words.data()),
              words.size() * sizeof(uint64_t));
}

bool GetRawWords(const std::string& buf, size_t* pos, size_t nwords,
                 std::vector<uint64_t>* out) {
  const size_t bytes = nwords * sizeof(uint64_t);
  if (*pos + bytes > buf.size()) return false;
  out->resize(nwords);
  if (bytes != 0) std::memcpy(out->data(), buf.data() + *pos, bytes);
  *pos += bytes;
  return true;
}

void SetBit(std::vector<uint64_t>* bm, size_t i) {
  (*bm)[i >> 6] |= 1ull << (i & 63);
}

/// Shared tail of both FilterBitmap implementations: run the requested
/// kernel over the packed codes, then mask out the NULL rows (a negated
/// range would otherwise resurrect them — NULLs never match).
void FilterCodesWithNulls(const BitPackedArray& packed, size_t n,
                          const std::vector<uint64_t>& nulls,
                          const CodeRange& range, ScanKernel kernel,
                          uint64_t* out, KernelCounters* counters) {
  FilterCodesBitmap(packed, n, range, kernel, out, counters);
  BitmapAndNot(out, nulls.data(), std::min(BitmapWords(n), nulls.size()));
}

}  // namespace

IntColumnVector::IntColumnVector(const std::vector<std::optional<int64_t>>& values)
    : n_(values.size()), nulls_(MakeNullBitmap(values.size())) {
  for (const auto& v : values) {
    if (!v.has_value()) continue;
    if (all_null_) {
      min_ = max_ = *v;
      all_null_ = false;
    } else {
      min_ = std::min(min_, *v);
      max_ = std::max(max_, *v);
    }
  }
  base_ = min_;
  std::vector<uint64_t> deltas(n_, 0);
  for (size_t i = 0; i < n_; ++i) {
    if (values[i].has_value()) {
      deltas[i] = static_cast<uint64_t>(values[i].value()) -
                  static_cast<uint64_t>(base_);
    } else {
      SetBit(&nulls_, i);
    }
  }
  // Offsets wrap in uint64_t: a column holding both INT64_MIN and INT64_MAX
  // spans 2^64 - 1, past int64_t.
  const uint8_t width =
      all_null_ ? 0
                : BitPackedArray::WidthFor(static_cast<uint64_t>(max_) -
                                           static_cast<uint64_t>(min_));
  packed_ = BitPackedArray::Pack(deltas, width);
}

Value IntColumnVector::Get(size_t row) const {
  if (IsNull(row)) return Value::Null();
  return Value(GetInt(row));
}

uint64_t IntColumnVector::num_codes() const {
  if (all_null_) return 0;
  const uint64_t max_code =
      static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_);
  return max_code == UINT64_MAX ? max_code : max_code + 1;
}

size_t IntColumnVector::ApproxBytes() const {
  return packed_.ApproxBytes() + nulls_.capacity() * 8 + sizeof(*this);
}

bool IntColumnVector::MightMatch(PredOp op, const Value& value) const {
  if (all_null_ || value.type() != ValueType::kInt) return false;
  const int64_t v = value.as_int();
  switch (op) {
    case PredOp::kEq: return v >= min_ && v <= max_;
    // A constant column equal to the probe can't satisfy !=; everything else
    // might (some row may differ even when the probe is inside [min, max]).
    case PredOp::kNe: return !(min_ == max_ && v == min_);
    case PredOp::kLt: return min_ < v;
    case PredOp::kLe: return min_ <= v;
    case PredOp::kGt: return max_ > v;
    case PredOp::kGe: return max_ >= v;
  }
  return true;
}

void IntColumnVector::Filter(PredOp op, const Value& value,
                             std::vector<uint32_t>* out) const {
  if (n_ == 0) return;
  std::vector<uint64_t> bm(BitmapWords(n_));
  FilterBitmap(op, value, ActiveScanKernel(), bm.data(), nullptr);
  BitmapToRows(bm.data(), bm.size(), out);
}

void IntColumnVector::FilterBitmap(PredOp op, const Value& value,
                                   ScanKernel kernel, uint64_t* out,
                                   KernelCounters* counters) const {
  if (n_ == 0) return;
  if (all_null_ || value.type() != ValueType::kInt) {
    BitmapFill(out, n_, false);
    return;
  }
  const int64_t v = value.as_int();
  // Translate the pivot into code (delta) space once, clamping out-of-frame
  // values to all/none. Unsigned subtraction: the difference of two in-frame
  // int64s can overflow a signed subtraction, and wrap is defined here.
  const uint64_t c =
      static_cast<uint64_t>(v) - static_cast<uint64_t>(base_);
  const uint64_t max_code =
      static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_);
  CodeRange range = CodeRange::None();
  switch (op) {
    case PredOp::kEq:
      if (v >= min_ && v <= max_) range = CodeRange::Exact(c);
      break;
    case PredOp::kNe:
      if (v < min_ || v > max_) {
        range = CodeRange::All();
      } else if (min_ != max_) {
        range = CodeRange::Exact(c);
        range.negate = true;
      }  // else: constant column equal to the probe — nothing matches.
      break;
    case PredOp::kLt:
      if (v > max_) range = CodeRange::All();
      else if (v > min_) range = CodeRange{0, c - 1, false, false};
      break;
    case PredOp::kLe:
      if (v >= max_) range = CodeRange::All();
      else if (v >= min_) range = CodeRange{0, c, false, false};
      break;
    case PredOp::kGt:
      if (v < min_) range = CodeRange::All();
      else if (v < max_) range = CodeRange{c + 1, max_code, false, false};
      break;
    case PredOp::kGe:
      if (v <= min_) range = CodeRange::All();
      else if (v <= max_) range = CodeRange{c, max_code, false, false};
      break;
  }
  FilterCodesWithNulls(packed_, n_, nulls_, range, kernel, out, counters);
}

void IntColumnVector::SerializeTo(std::string* out) const {
  out->push_back(static_cast<char>(kColTagInt));
  PutVarint64(out, n_);
  out->push_back(all_null_ ? 1 : 0);
  PutVarint64(out, ZigzagEncode(base_));
  PutVarint64(out, ZigzagEncode(min_));
  PutVarint64(out, ZigzagEncode(max_));
  packed_.Serialize(out);
  PutRawWords(out, nulls_);
}

std::unique_ptr<IntColumnVector> IntColumnVector::Deserialize(
    const std::string& buf, size_t* pos) {
  std::unique_ptr<IntColumnVector> col(new IntColumnVector());
  uint64_t v = 0;
  if (!GetVarint64(buf, pos, &v)) return nullptr;
  col->n_ = v;
  if (*pos >= buf.size()) return nullptr;
  col->all_null_ = buf[(*pos)++] != 0;
  if (!GetVarint64(buf, pos, &v)) return nullptr;
  col->base_ = ZigzagDecode(v);
  if (!GetVarint64(buf, pos, &v)) return nullptr;
  col->min_ = ZigzagDecode(v);
  if (!GetVarint64(buf, pos, &v)) return nullptr;
  col->max_ = ZigzagDecode(v);
  if (!BitPackedArray::Deserialize(buf, pos, &col->packed_)) return nullptr;
  if (col->packed_.size() != col->n_) return nullptr;
  if (!GetRawWords(buf, pos, (col->n_ + 63) / 64, &col->nulls_)) return nullptr;
  return col;
}

StringColumnVector::StringColumnVector(const std::vector<const std::string*>& values)
    : n_(values.size()), nulls_(MakeNullBitmap(values.size())) {
  dict_ = Dictionary::Build(values);
  all_null_ = dict_.empty();
  std::vector<uint64_t> codes(n_, 0);
  for (size_t i = 0; i < n_; ++i) {
    if (values[i] == nullptr) {
      SetBit(&nulls_, i);
    } else {
      codes[i] = dict_.Lookup(*values[i]).value();
    }
  }
  const uint8_t width =
      dict_.size() <= 1 ? 0 : BitPackedArray::WidthFor(dict_.size() - 1);
  codes_ = BitPackedArray::Pack(codes, width);
}

Value StringColumnVector::Get(size_t row) const {
  if (IsNull(row)) return Value::Null();
  return Value(dict_.Decode(static_cast<uint32_t>(codes_.Get(row))));
}

size_t StringColumnVector::ApproxBytes() const {
  return codes_.ApproxBytes() + dict_.ApproxBytes() + nulls_.capacity() * 8 +
         sizeof(*this);
}

bool StringColumnVector::MightMatch(PredOp op, const Value& value) const {
  if (all_null_ || value.type() != ValueType::kString) return false;
  const std::string& v = value.as_string();
  switch (op) {
    case PredOp::kEq: return v >= dict_.MinValue() && v <= dict_.MaxValue();
    // A single-entry dictionary equal to the probe can't satisfy !=.
    case PredOp::kNe: return !(dict_.size() == 1 && dict_.MinValue() == v);
    case PredOp::kLt: return dict_.MinValue() < v;
    case PredOp::kLe: return dict_.MinValue() <= v;
    case PredOp::kGt: return dict_.MaxValue() > v;
    case PredOp::kGe: return dict_.MaxValue() >= v;
  }
  return true;
}

void StringColumnVector::Filter(PredOp op, const Value& value,
                                std::vector<uint32_t>* out) const {
  if (n_ == 0) return;
  std::vector<uint64_t> bm(BitmapWords(n_));
  FilterBitmap(op, value, ActiveScanKernel(), bm.data(), nullptr);
  BitmapToRows(bm.data(), bm.size(), out);
}

void StringColumnVector::FilterBitmap(PredOp op, const Value& value,
                                      ScanKernel kernel, uint64_t* out,
                                      KernelCounters* counters) const {
  if (n_ == 0) return;
  if (all_null_ || value.type() != ValueType::kString) {
    BitmapFill(out, n_, false);
    return;
  }
  const std::string& v = value.as_string();
  const std::optional<uint32_t> code = dict_.Lookup(v);
  // Order-preserving codes: the string comparison becomes a code-range check
  // against the lower bound (smallest code whose string is >= v; dict size
  // when every entry is smaller).
  const uint64_t lb = dict_.LowerBound(v);
  const uint64_t max_code = dict_.size() - 1;
  CodeRange range = CodeRange::None();
  switch (op) {
    case PredOp::kEq:
      if (code.has_value()) range = CodeRange::Exact(*code);
      break;
    case PredOp::kNe:
      if (!code.has_value()) {
        range = CodeRange::All();
      } else if (dict_.size() > 1) {
        range = CodeRange::Exact(*code);
        range.negate = true;
      }  // else: single-entry dictionary equal to the probe — no match.
      break;
    case PredOp::kLt:
      // value < v ⇔ code < lb.
      if (lb > 0) range = CodeRange{0, lb - 1, false, false};
      break;
    case PredOp::kLe:
      // value <= v ⇔ code <= lb when dict[lb] == v, else code < lb.
      if (code.has_value()) range = CodeRange{0, lb, false, false};
      else if (lb > 0) range = CodeRange{0, lb - 1, false, false};
      break;
    case PredOp::kGt: {
      // value > v ⇔ code > lb when dict[lb] == v, else code >= lb.
      const uint64_t first = code.has_value() ? lb + 1 : lb;
      if (first <= max_code) range = CodeRange{first, max_code, false, false};
      break;
    }
    case PredOp::kGe:
      if (lb <= max_code) range = CodeRange{lb, max_code, false, false};
      break;
  }
  FilterCodesWithNulls(codes_, n_, nulls_, range, kernel, out, counters);
}

void StringColumnVector::SerializeTo(std::string* out) const {
  out->push_back(static_cast<char>(kColTagString));
  PutVarint64(out, n_);
  out->push_back(all_null_ ? 1 : 0);
  dict_.Serialize(out);
  codes_.Serialize(out);
  PutRawWords(out, nulls_);
}

std::unique_ptr<StringColumnVector> StringColumnVector::Deserialize(
    const std::string& buf, size_t* pos) {
  std::unique_ptr<StringColumnVector> col(new StringColumnVector());
  uint64_t v = 0;
  if (!GetVarint64(buf, pos, &v)) return nullptr;
  col->n_ = v;
  if (*pos >= buf.size()) return nullptr;
  col->all_null_ = buf[(*pos)++] != 0;
  if (!Dictionary::Deserialize(buf, pos, &col->dict_)) return nullptr;
  if (col->all_null_ != col->dict_.empty()) return nullptr;
  if (!BitPackedArray::Deserialize(buf, pos, &col->codes_)) return nullptr;
  if (col->codes_.size() != col->n_) return nullptr;
  if (!GetRawWords(buf, pos, (col->n_ + 63) / 64, &col->nulls_)) return nullptr;
  // Every stored code must land inside the dictionary, else Get() would read
  // out of bounds on a damaged (CRC-passing but decoder-mismatched) file.
  const uint64_t max_code = col->codes_.width() >= 64
                                ? ~0ull
                                : (1ull << col->codes_.width()) - 1;
  if (!col->dict_.empty() && max_code >= col->dict_.size()) {
    for (size_t i = 0; i < col->n_; ++i) {
      if (col->IsNull(i)) continue;
      if (col->codes_.Get(i) >= col->dict_.size()) return nullptr;
    }
  }
  return col;
}

std::unique_ptr<ColumnVector> DeserializeColumnVector(const std::string& buf,
                                                      size_t* pos) {
  if (*pos >= buf.size()) return nullptr;
  const uint8_t tag = static_cast<uint8_t>(buf[(*pos)++]);
  if (tag == kColTagInt) return IntColumnVector::Deserialize(buf, pos);
  if (tag == kColTagString) return StringColumnVector::Deserialize(buf, pos);
  return nullptr;
}

std::unique_ptr<ColumnVector> BuildColumnVector(
    ValueType type, size_t n, const std::function<const Value*(size_t)>& get) {
  if (type == ValueType::kString) {
    std::vector<const std::string*> vals(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
      const Value* v = get(i);
      if (v != nullptr && v->type() == ValueType::kString) vals[i] = &v->as_string();
    }
    return std::make_unique<StringColumnVector>(vals);
  }
  std::vector<std::optional<int64_t>> vals(n);
  for (size_t i = 0; i < n; ++i) {
    const Value* v = get(i);
    if (v != nullptr && v->type() == ValueType::kInt) vals[i] = v->as_int();
  }
  return std::make_unique<IntColumnVector>(vals);
}

}  // namespace stratus
