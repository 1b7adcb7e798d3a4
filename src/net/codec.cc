#include "net/codec.h"

#include "net/wire.h"

namespace stratus {
namespace net {

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

bool GetLengthPrefixed(const std::string& buf, size_t* pos, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint64(buf, pos, &len)) return false;
  if (len > buf.size() - *pos) return false;
  s->assign(buf.data() + *pos, static_cast<size_t>(len));
  *pos += static_cast<size_t>(len);
  return true;
}

void PutValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutVarint64(out, ZigzagEncode(v.as_int()));
      break;
    case ValueType::kString:
      PutLengthPrefixed(out, v.as_string());
      break;
  }
}

bool GetValue(const std::string& buf, size_t* pos, Value* out) {
  if (*pos >= buf.size()) return false;
  const uint8_t tag = static_cast<uint8_t>(buf[(*pos)++]);
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kInt: {
      uint64_t z = 0;
      if (!GetVarint64(buf, pos, &z)) return false;
      *out = Value(ZigzagDecode(z));
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!GetLengthPrefixed(buf, pos, &s)) return false;
      *out = Value(std::move(s));
      return true;
    }
  }
  return false;
}

void PutRow(std::string* out, const Row& row) {
  PutVarint64(out, row.size());
  for (const Value& v : row) PutValue(out, v);
}

bool GetRow(const std::string& buf, size_t* pos, Row* out) {
  uint64_t arity = 0;
  if (!GetVarint64(buf, pos, &arity)) return false;
  if (arity > buf.size() - *pos) return false;  // ≥1 byte per value.
  out->clear();
  out->reserve(static_cast<size_t>(arity));
  for (uint64_t i = 0; i < arity; ++i) {
    Value v;
    if (!GetValue(buf, pos, &v)) return false;
    out->push_back(std::move(v));
  }
  return true;
}

namespace {

// CV flag byte: the im_flag plus "has a row payload" / "has a DDL payload"
// markers so control CVs pay zero bytes for fields they do not carry.
constexpr uint8_t kCvImFlag = 0x1;
constexpr uint8_t kCvHasAfter = 0x2;
constexpr uint8_t kCvHasDdl = 0x4;

void EncodeWireCv(const ChangeVector& cv, Scn record_scn, std::string* out) {
  out->push_back(static_cast<char>(cv.kind));
  // CVs almost always share their record's SCN; encode the delta.
  PutVarint64(out, ZigzagEncode(static_cast<int64_t>(cv.scn) -
                                static_cast<int64_t>(record_scn)));
  PutVarint64(out, cv.xid);
  PutVarint64(out, cv.dba == kInvalidDba ? 0 : cv.dba + 1);  // Bias: ~0 is huge.
  PutVarint64(out, cv.object_id);
  PutVarint64(out, cv.tenant);
  PutVarint64(out, cv.slot);
  uint8_t flags = 0;
  if (cv.im_flag) flags |= kCvImFlag;
  if (!cv.after.empty()) flags |= kCvHasAfter;
  if (cv.ddl.op != DdlOp::kNone) flags |= kCvHasDdl;
  out->push_back(static_cast<char>(flags));
  if (flags & kCvHasAfter) PutRow(out, cv.after);
  if (flags & kCvHasDdl) {
    out->push_back(static_cast<char>(cv.ddl.op));
    PutVarint64(out, cv.ddl.object_id);
    PutVarint64(out, cv.ddl.tenant);
    PutVarint64(out, cv.ddl.column_idx);
    out->push_back(static_cast<char>(cv.ddl.im_service));
  }
}

bool DecodeWireCv(const std::string& buf, size_t* pos, Scn record_scn,
                  ChangeVector* cv) {
  if (*pos >= buf.size()) return false;
  cv->kind = static_cast<CvKind>(static_cast<uint8_t>(buf[(*pos)++]));
  uint64_t scn_delta = 0, xid = 0, dba = 0, object = 0, tenant = 0, slot = 0;
  if (!GetVarint64(buf, pos, &scn_delta) || !GetVarint64(buf, pos, &xid) ||
      !GetVarint64(buf, pos, &dba) || !GetVarint64(buf, pos, &object) ||
      !GetVarint64(buf, pos, &tenant) || !GetVarint64(buf, pos, &slot)) {
    return false;
  }
  cv->scn = static_cast<Scn>(static_cast<int64_t>(record_scn) +
                             ZigzagDecode(scn_delta));
  cv->xid = xid;
  cv->dba = dba == 0 ? kInvalidDba : dba - 1;
  cv->object_id = object;
  cv->tenant = static_cast<TenantId>(tenant);
  cv->slot = static_cast<SlotId>(slot);
  if (*pos >= buf.size()) return false;
  const uint8_t flags = static_cast<uint8_t>(buf[(*pos)++]);
  cv->im_flag = (flags & kCvImFlag) != 0;
  cv->after.clear();
  if ((flags & kCvHasAfter) && !GetRow(buf, pos, &cv->after)) return false;
  cv->ddl = DdlMarker{};
  if (flags & kCvHasDdl) {
    if (*pos >= buf.size()) return false;
    cv->ddl.op = static_cast<DdlOp>(static_cast<uint8_t>(buf[(*pos)++]));
    uint64_t ddl_object = 0, ddl_tenant = 0, column = 0;
    if (!GetVarint64(buf, pos, &ddl_object) ||
        !GetVarint64(buf, pos, &ddl_tenant) ||
        !GetVarint64(buf, pos, &column)) {
      return false;
    }
    cv->ddl.object_id = ddl_object;
    cv->ddl.tenant = static_cast<TenantId>(ddl_tenant);
    cv->ddl.column_idx = static_cast<uint32_t>(column);
    if (*pos >= buf.size()) return false;
    cv->ddl.im_service = static_cast<uint8_t>(buf[(*pos)++]);
  }
  return true;
}

}  // namespace

void EncodeRedoBatch(const std::vector<RedoRecord>& batch, std::string* out) {
  PutVarint64(out, batch.size());
  Scn prev_scn = 0;
  for (const RedoRecord& rec : batch) {
    // Streams are SCN-monotone, so deltas are small and non-negative on the
    // regular path; zigzag keeps arbitrary batches (tests) legal.
    PutVarint64(out, ZigzagEncode(static_cast<int64_t>(rec.scn) -
                                  static_cast<int64_t>(prev_scn)));
    prev_scn = rec.scn;
    PutVarint64(out, rec.thread);
    PutVarint64(out, rec.cvs.size());
    for (const ChangeVector& cv : rec.cvs) EncodeWireCv(cv, rec.scn, out);
  }
}

Status DecodeRedoBatch(const std::string& payload, std::vector<RedoRecord>* out) {
  out->clear();
  size_t pos = 0;
  uint64_t count = 0;
  if (!GetVarint64(payload, &pos, &count))
    return Status::Corruption("truncated redo batch count");
  if (count > payload.size() - pos)  // ≥1 byte per record.
    return Status::Corruption("redo batch count exceeds payload");
  out->reserve(static_cast<size_t>(count));
  Scn prev_scn = 0;
  for (uint64_t i = 0; i < count; ++i) {
    RedoRecord rec;
    uint64_t scn_delta = 0, thread = 0, cvs = 0;
    if (!GetVarint64(payload, &pos, &scn_delta) ||
        !GetVarint64(payload, &pos, &thread) ||
        !GetVarint64(payload, &pos, &cvs)) {
      return Status::Corruption("truncated redo record header");
    }
    rec.scn = static_cast<Scn>(static_cast<int64_t>(prev_scn) +
                               ZigzagDecode(scn_delta));
    prev_scn = rec.scn;
    rec.thread = static_cast<RedoThreadId>(thread);
    if (cvs > payload.size() - pos)
      return Status::Corruption("change vector count exceeds payload");
    rec.cvs.reserve(static_cast<size_t>(cvs));
    for (uint64_t c = 0; c < cvs; ++c) {
      ChangeVector cv;
      if (!DecodeWireCv(payload, &pos, rec.scn, &cv))
        return Status::Corruption("truncated change vector");
      rec.cvs.push_back(std::move(cv));
    }
    out->push_back(std::move(rec));
  }
  if (pos != payload.size())
    return Status::Corruption("trailing bytes after redo batch");
  return Status::OK();
}

void EncodeInvalidationMessage(const InvalidationMessage& msg, std::string* out) {
  out->push_back(static_cast<char>(msg.kind));
  switch (msg.kind) {
    case InvalKind::kGroups:
      PutVarint64(out, msg.groups.size());
      for (const InvalidationGroup& g : msg.groups) {
        PutVarint64(out, g.object_id);
        PutVarint64(out, g.tenant);
        PutVarint64(out, g.rows.size());
        Dba prev_dba = 0;
        for (const auto& [dba, slot] : g.rows) {
          PutVarint64(out, ZigzagEncode(static_cast<int64_t>(dba) -
                                        static_cast<int64_t>(prev_dba)));
          prev_dba = dba;
          PutVarint64(out, slot);
        }
      }
      return;
    case InvalKind::kCoarse:
      PutVarint64(out, msg.tenant);
      return;
    case InvalKind::kObjectDrop:
      PutVarint64(out, msg.object_id);
      return;
    case InvalKind::kPublish:
      PutVarint64(out, msg.scn);
      return;
  }
}

Status DecodeInvalidationMessage(const std::string& payload,
                                 InvalidationMessage* out) {
  *out = InvalidationMessage{};
  size_t pos = 0;
  if (payload.empty()) return Status::Corruption("empty invalidation message");
  const uint8_t kind = static_cast<uint8_t>(payload[pos++]);
  switch (static_cast<InvalKind>(kind)) {
    case InvalKind::kGroups: {
      out->kind = InvalKind::kGroups;
      uint64_t groups = 0;
      if (!GetVarint64(payload, &pos, &groups))
        return Status::Corruption("truncated group count");
      if (groups > payload.size() - pos)
        return Status::Corruption("group count exceeds payload");
      out->groups.reserve(static_cast<size_t>(groups));
      for (uint64_t i = 0; i < groups; ++i) {
        InvalidationGroup g;
        uint64_t object = 0, tenant = 0, rows = 0;
        if (!GetVarint64(payload, &pos, &object) ||
            !GetVarint64(payload, &pos, &tenant) ||
            !GetVarint64(payload, &pos, &rows)) {
          return Status::Corruption("truncated invalidation group header");
        }
        g.object_id = object;
        g.tenant = static_cast<TenantId>(tenant);
        if (rows > payload.size() - pos)
          return Status::Corruption("row count exceeds payload");
        g.rows.reserve(static_cast<size_t>(rows));
        Dba prev_dba = 0;
        for (uint64_t r = 0; r < rows; ++r) {
          uint64_t dba_delta = 0, slot = 0;
          if (!GetVarint64(payload, &pos, &dba_delta) ||
              !GetVarint64(payload, &pos, &slot)) {
            return Status::Corruption("truncated invalidation row");
          }
          const Dba dba = static_cast<Dba>(static_cast<int64_t>(prev_dba) +
                                           ZigzagDecode(dba_delta));
          prev_dba = dba;
          g.rows.emplace_back(dba, static_cast<SlotId>(slot));
        }
        out->groups.push_back(std::move(g));
      }
      break;
    }
    case InvalKind::kCoarse: {
      out->kind = InvalKind::kCoarse;
      uint64_t tenant = 0;
      if (!GetVarint64(payload, &pos, &tenant))
        return Status::Corruption("truncated tenant id");
      out->tenant = static_cast<TenantId>(tenant);
      break;
    }
    case InvalKind::kObjectDrop: {
      out->kind = InvalKind::kObjectDrop;
      uint64_t object = 0;
      if (!GetVarint64(payload, &pos, &object))
        return Status::Corruption("truncated object id");
      out->object_id = object;
      break;
    }
    case InvalKind::kPublish: {
      out->kind = InvalKind::kPublish;
      uint64_t scn = 0;
      if (!GetVarint64(payload, &pos, &scn))
        return Status::Corruption("truncated publish SCN");
      out->scn = scn;
      break;
    }
    default:
      return Status::Corruption("unknown invalidation message kind");
  }
  if (pos != payload.size())
    return Status::Corruption("trailing bytes after invalidation message");
  return Status::OK();
}

}  // namespace net
}  // namespace stratus
