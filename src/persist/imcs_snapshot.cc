#include "persist/imcs_snapshot.h"

#include <algorithm>

#include "common/checksum.h"
#include "imcs/imcu.h"
#include "net/codec.h"
#include "persist/persist_io.h"

namespace stratus {
namespace persist {

namespace {

inline constexpr uint32_t kSnapMagic = 0x534D4931;  // "1IMS"

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("imcs snapshot: bad ") + what);
}

void PutWords(std::string* out, const std::vector<uint64_t>& words) {
  PutVarint64(out, words.size());
  for (uint64_t w : words) PutVarint64(out, w);
}

bool GetWords(const std::string& buf, size_t* pos, std::vector<uint64_t>* words) {
  uint64_t n = 0;
  if (!GetVarint64(buf, pos, &n) || n > buf.size() - *pos) return false;
  words->clear();
  words->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t w = 0;
    if (!GetVarint64(buf, pos, &w)) return false;
    words->push_back(w);
  }
  return true;
}

}  // namespace

void EncodeImcsSnapshot(const ImcsSnapshotImage& img, std::string* out) {
  std::string body;
  PutVarint64(&body, img.seq);
  PutVarint64(&body, img.floor_scn);
  PutVarint64(&body, img.smus.size());
  for (const SmuImage& s : img.smus) {
    PutVarint64(&body, s.object_id);
    PutVarint64(&body, s.tenant);
    PutVarint64(&body, s.snapshot_scn);
    PutVarint64(&body, s.dbas.size());
    for (Dba dba : s.dbas) PutVarint64(&body, dba);
    PutVarint64(&body, s.column_types.size());
    for (uint8_t t : s.column_types) body.push_back(static_cast<char>(t));
    PutWords(&body, s.present_words);
    PutWords(&body, s.invalid_words);
    for (const std::string& col : s.columns) net::PutLengthPrefixed(&body, col);
  }
  WrapChecked(kSnapMagic, body, out);
}

Status DecodeImcsSnapshot(const std::string& file, ImcsSnapshotImage* out) {
  std::string body;
  STRATUS_RETURN_IF_ERROR(UnwrapChecked(kSnapMagic, file, &body));
  size_t pos = 0;
  uint64_t v = 0;
  if (!GetVarint64(body, &pos, &out->seq)) return Corrupt("seq");
  if (!GetVarint64(body, &pos, &v)) return Corrupt("floor scn");
  out->floor_scn = v;
  // As in DecodeCheckpoint, a count above the bytes left is damage.
  uint64_t nsmus = 0;
  if (!GetVarint64(body, &pos, &nsmus) || nsmus > body.size() - pos)
    return Corrupt("smu count");
  out->smus.clear();
  out->smus.reserve(nsmus);
  for (uint64_t i = 0; i < nsmus; ++i) {
    SmuImage s;
    if (!GetVarint64(body, &pos, &s.object_id)) return Corrupt("object id");
    if (!GetVarint64(body, &pos, &v)) return Corrupt("tenant");
    s.tenant = static_cast<TenantId>(v);
    if (!GetVarint64(body, &pos, &v)) return Corrupt("snapshot scn");
    s.snapshot_scn = v;
    uint64_t ndbas = 0;
    if (!GetVarint64(body, &pos, &ndbas)) return Corrupt("dba count");
    for (uint64_t d = 0; d < ndbas; ++d) {
      if (!GetVarint64(body, &pos, &v)) return Corrupt("dba");
      s.dbas.push_back(v);
    }
    uint64_t ncols = 0;
    if (!GetVarint64(body, &pos, &ncols)) return Corrupt("column count");
    for (uint64_t c = 0; c < ncols; ++c) {
      if (pos >= body.size()) return Corrupt("column type");
      s.column_types.push_back(static_cast<uint8_t>(body[pos++]));
    }
    if (!GetWords(body, &pos, &s.present_words)) return Corrupt("present bitmap");
    if (!GetWords(body, &pos, &s.invalid_words)) return Corrupt("invalid bitmap");
    s.columns.resize(ncols);
    for (uint64_t c = 0; c < ncols; ++c) {
      if (!net::GetLengthPrefixed(body, &pos, &s.columns[c]))
        return Corrupt("column body");
    }
    out->smus.push_back(std::move(s));
  }
  return Status::OK();
}

void CaptureImcsSnapshot(const ImStore& store, ImcsSnapshotImage* out) {
  out->smus.clear();
  out->floor_scn = kInvalidScn;
  for (const auto& smu : store.AllSmus()) {
    if (smu->state() != SmuState::kReady) continue;
    const std::shared_ptr<const Imcu> imcu = smu->imcu();
    if (imcu == nullptr) continue;
    SmuImage img;
    img.object_id = smu->object_id();
    img.tenant = smu->tenant();
    img.snapshot_scn = smu->snapshot_scn();
    img.dbas = smu->dbas();
    const size_t rows = imcu->num_rows();
    img.present_words.assign((rows + 63) / 64, 0);
    for (size_t r = 0; r < rows; ++r)
      if (imcu->Present(static_cast<uint32_t>(r)))
        img.present_words[r >> 6] |= 1ull << (r & 63);
    smu->SnapshotInvalid(&img.invalid_words);
    const size_t ncols = imcu->num_columns();
    img.column_types.reserve(ncols);
    img.columns.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      const ColumnVector& col = imcu->column(c);
      img.column_types.push_back(static_cast<uint8_t>(col.type()));
      // Encoded physical form straight off the immutable vector — capture
      // never boxes values, resume never rebuilds dictionaries.
      col.SerializeTo(&img.columns[c]);
    }
    if (out->floor_scn == kInvalidScn || img.snapshot_scn < out->floor_scn)
      out->floor_scn = img.snapshot_scn;
    out->smus.push_back(std::move(img));
  }
}

StatusOr<size_t> LoadImcsSnapshot(
    const ImcsSnapshotImage& img, ImStore* store,
    const std::function<bool(ObjectId, Schema*)>& schema_of) {
  size_t restored = 0;
  for (const SmuImage& s : img.smus) {
    Schema schema;
    if (!schema_of(s.object_id, &schema)) continue;  // Object dropped since.
    auto smu = std::make_shared<Smu>(s.object_id, s.tenant, s.snapshot_scn,
                                     s.dbas);
    STRATUS_RETURN_IF_ERROR(store->RegisterSmu(smu, nullptr));
    auto imcu = std::make_unique<Imcu>(s.object_id, s.tenant, s.snapshot_scn,
                                       s.dbas, schema);
    const size_t rows = imcu->num_rows();
    for (size_t r = 0; r < rows; ++r)
      if (r / 64 < s.present_words.size() &&
          ((s.present_words[r >> 6] >> (r & 63)) & 1))
        imcu->SetPresent(static_cast<uint32_t>(r));
    std::vector<std::unique_ptr<ColumnVector>> cols;
    cols.reserve(s.columns.size());
    bool columns_ok = true;
    for (size_t c = 0; c < s.columns.size(); ++c) {
      size_t cpos = 0;
      std::unique_ptr<ColumnVector> col =
          DeserializeColumnVector(s.columns[c], &cpos);
      // Row-count and type mismatches mean the image no longer matches the
      // live schema (or a decoder drift): skip the SMU, population rebuilds
      // its range from the recovered row store.
      if (col == nullptr || col->size() != rows ||
          col->type() != static_cast<ValueType>(s.column_types[c])) {
        columns_ok = false;
        break;
      }
      cols.push_back(std::move(col));
    }
    if (!columns_ok) {
      store->AbandonSmu(smu);
      continue;
    }
    imcu->SetColumns(std::move(cols));
    if (store->WouldExceedCapacity(imcu->ApproxBytes())) {
      store->AbandonSmu(smu);
      continue;
    }
    STRATUS_RETURN_IF_ERROR(store->AttachImcu(smu, std::move(imcu), nullptr));
    // Re-arm the invalidity the pre-crash SMU had accumulated.
    for (size_t r = 0; r < rows; ++r) {
      if (r / 64 < s.invalid_words.size() &&
          ((s.invalid_words[r >> 6] >> (r & 63)) & 1)) {
        smu->MarkRowInvalid(s.dbas[r / kRowsPerBlock],
                            static_cast<SlotId>(r % kRowsPerBlock));
      }
    }
    ++restored;
  }
  return restored;
}

}  // namespace persist
}  // namespace stratus
