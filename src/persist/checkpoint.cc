#include "persist/checkpoint.h"

#include <algorithm>

#include "common/checksum.h"
#include "net/codec.h"
#include "persist/persist_io.h"

namespace stratus {
namespace persist {

namespace {

inline constexpr uint32_t kCkptMagic = 0x53504B31;  // "1KPS"

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("checkpoint: bad ") + what);
}

}  // namespace

void EncodeCheckpoint(const CheckpointImage& img, std::string* out) {
  std::string body;
  PutVarint64(&body, img.seq);
  PutVarint64(&body, img.recovery_scn);
  PutVarint64(&body, img.end_scn);

  PutVarint64(&body, img.tables.size());
  for (const TableImage& t : img.tables) {
    PutVarint64(&body, t.object_id);
    PutVarint64(&body, t.tenant);
    net::PutLengthPrefixed(&body, t.name);
    PutVarint64(&body, t.columns.size());
    for (const ColumnDef& c : t.columns) {
      net::PutLengthPrefixed(&body, c.name);
      body.push_back(static_cast<char>(c.type));
    }
    body.push_back(static_cast<char>(t.im_service));
    body.push_back(t.identity_index ? 1 : 0);
    PutVarint64(&body, t.blocks.size());
    for (Dba dba : t.blocks) PutVarint64(&body, dba);
  }

  PutVarint64(&body, img.blocks.size());
  for (const BlockImage& b : img.blocks) {
    PutVarint64(&body, b.dba);
    PutVarint64(&body, b.object_id);
    PutVarint64(&body, b.tenant);
    PutVarint64(&body, b.frontier);
    PutVarint64(&body, b.chains.size());
    for (const SlotChainImage& chain : b.chains) {
      PutVarint64(&body, chain.size());
      for (const RowVersionImage& v : chain) {
        PutVarint64(&body, v.xid);
        body.push_back(v.deleted ? 1 : 0);
        net::PutRow(&body, v.data);
      }
    }
  }

  PutVarint64(&body, img.txns.size());
  for (const auto& [xid, info] : img.txns) {
    PutVarint64(&body, xid);
    body.push_back(static_cast<char>(info.state));
    PutVarint64(&body, info.commit_scn);
  }

  WrapChecked(kCkptMagic, body, out);
}

Status DecodeCheckpoint(const std::string& file, CheckpointImage* out) {
  std::string body;
  STRATUS_RETURN_IF_ERROR(UnwrapChecked(kCkptMagic, file, &body));
  size_t pos = 0;
  uint64_t v = 0;

  if (!GetVarint64(body, &pos, &out->seq)) return Corrupt("seq");
  if (!GetVarint64(body, &pos, &v)) return Corrupt("recovery_scn");
  out->recovery_scn = v;
  if (!GetVarint64(body, &pos, &v)) return Corrupt("end_scn");
  out->end_scn = v;

  // Every element takes at least one byte: a count that sizes a container
  // and exceeds the bytes left is damage, not a reason to allocate.
  uint64_t ntables = 0;
  if (!GetVarint64(body, &pos, &ntables) || ntables > body.size() - pos)
    return Corrupt("table count");
  out->tables.clear();
  out->tables.reserve(ntables);
  for (uint64_t i = 0; i < ntables; ++i) {
    TableImage t;
    if (!GetVarint64(body, &pos, &t.object_id)) return Corrupt("object id");
    if (!GetVarint64(body, &pos, &v)) return Corrupt("tenant");
    t.tenant = static_cast<TenantId>(v);
    if (!net::GetLengthPrefixed(body, &pos, &t.name))
      return Corrupt("table name");
    uint64_t ncols = 0;
    if (!GetVarint64(body, &pos, &ncols)) return Corrupt("column count");
    for (uint64_t c = 0; c < ncols; ++c) {
      ColumnDef def;
      if (!net::GetLengthPrefixed(body, &pos, &def.name))
        return Corrupt("column name");
      if (pos >= body.size()) return Corrupt("column type");
      def.type = static_cast<ValueType>(body[pos++]);
      t.columns.push_back(std::move(def));
    }
    if (pos + 2 > body.size()) return Corrupt("table flags");
    t.im_service = static_cast<uint8_t>(body[pos++]);
    t.identity_index = body[pos++] != 0;
    uint64_t nblocks = 0;
    if (!GetVarint64(body, &pos, &nblocks)) return Corrupt("segment size");
    for (uint64_t b = 0; b < nblocks; ++b) {
      if (!GetVarint64(body, &pos, &v)) return Corrupt("segment dba");
      t.blocks.push_back(v);
    }
    out->tables.push_back(std::move(t));
  }

  uint64_t nblocks = 0;
  if (!GetVarint64(body, &pos, &nblocks) || nblocks > body.size() - pos)
    return Corrupt("block count");
  out->blocks.clear();
  out->blocks.reserve(nblocks);
  for (uint64_t i = 0; i < nblocks; ++i) {
    BlockImage b;
    if (!GetVarint64(body, &pos, &b.dba)) return Corrupt("block dba");
    if (!GetVarint64(body, &pos, &b.object_id)) return Corrupt("block object");
    if (!GetVarint64(body, &pos, &v)) return Corrupt("block tenant");
    b.tenant = static_cast<TenantId>(v);
    if (!GetVarint64(body, &pos, &v)) return Corrupt("block frontier");
    b.frontier = v;
    uint64_t nslots = 0;
    if (!GetVarint64(body, &pos, &nslots)) return Corrupt("slot count");
    if (nslots > kRowsPerBlock) return Corrupt("slot count range");
    b.chains.resize(nslots);
    for (uint64_t slot = 0; slot < nslots; ++slot) {
      uint64_t depth = 0;
      if (!GetVarint64(body, &pos, &depth)) return Corrupt("chain depth");
      for (uint64_t d = 0; d < depth; ++d) {
        RowVersionImage ver;
        if (!GetVarint64(body, &pos, &ver.xid)) return Corrupt("version xid");
        if (pos >= body.size()) return Corrupt("version flags");
        ver.deleted = body[pos++] != 0;
        if (!net::GetRow(body, &pos, &ver.data)) return Corrupt("version row");
        b.chains[slot].push_back(std::move(ver));
      }
    }
    out->blocks.push_back(std::move(b));
  }

  uint64_t ntxns = 0;
  if (!GetVarint64(body, &pos, &ntxns) || ntxns > body.size() - pos)
    return Corrupt("txn count");
  out->txns.clear();
  out->txns.reserve(ntxns);
  for (uint64_t i = 0; i < ntxns; ++i) {
    Xid xid = 0;
    TxnStatusInfo info;
    if (!GetVarint64(body, &pos, &xid)) return Corrupt("txn xid");
    if (pos >= body.size()) return Corrupt("txn state");
    info.state = static_cast<TxnState>(body[pos++]);
    if (!GetVarint64(body, &pos, &v)) return Corrupt("txn scn");
    info.commit_scn = v;
    out->txns.emplace_back(xid, info);
  }
  return Status::OK();
}

void CaptureBlockImages(const BlockStore& store, std::vector<BlockImage>* out) {
  out->clear();
  const Dba high = store.HighWater();
  for (Dba dba = kTxnTableDbaCount; dba < high; ++dba) {
    const Block* b = store.GetBlock(dba);
    if (b == nullptr) continue;
    BlockImage img;
    img.dba = dba;
    img.object_id = b->object_id();
    img.tenant = b->tenant();
    img.frontier = b->SnapshotChains(&img.chains);
    out->push_back(std::move(img));
  }
  // "Dirty blocks ordered by LSN": oldest change frontier first, the order a
  // pagewise checkpointer would flush in.
  std::stable_sort(out->begin(), out->end(),
                   [](const BlockImage& a, const BlockImage& b) {
                     return a.frontier < b.frontier;
                   });
}

}  // namespace persist
}  // namespace stratus
