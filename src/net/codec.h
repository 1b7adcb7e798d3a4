#ifndef STRATUS_NET_CODEC_H_
#define STRATUS_NET_CODEC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "imadg/invalidation.h"
#include "redo/change_vector.h"
#include "storage/value.h"

namespace stratus {
namespace net {

// ---------------------------------------------------------------------------
// Values, rows and length-prefixed strings: the one value coder, shared by
// the redo batch below and every persist file (checkpoint, IMCS snapshot,
// META). A value is its ValueType tag byte, then a zigzag varint (kInt) or a
// length-prefixed string (kString); a row is a varint arity, then its values.
// The Get side is bounds-checked: a length or arity larger than the bytes
// left fails the read instead of allocating or wrapping `*pos`.
// ---------------------------------------------------------------------------
void PutLengthPrefixed(std::string* out, const std::string& s);
bool GetLengthPrefixed(const std::string& buf, size_t* pos, std::string* s);
void PutValue(std::string* out, const Value& v);
bool GetValue(const std::string& buf, size_t* pos, Value* out);
void PutRow(std::string* out, const Row& row);
bool GetRow(const std::string& buf, size_t* pos, Row* out);

// ---------------------------------------------------------------------------
// Redo batches: the one redo encoding, on the wire (kRedoBatch frames) and
// in the standby's redo archive. Every integer field is a varint (SCNs are
// delta-encoded within a batch, values are zigzag varints) and control CVs
// pay nothing for the row and DDL payloads they do not carry, so a typical
// OLTP change vector costs a handful of bytes. Encode/decode are exact
// inverses: decoding an encoded batch and re-encoding it yields
// byte-identical output.
// ---------------------------------------------------------------------------
void EncodeRedoBatch(const std::vector<RedoRecord>& batch, std::string* out);
Status DecodeRedoBatch(const std::string& payload, std::vector<RedoRecord>* out);

// ---------------------------------------------------------------------------
// Invalidation messages (the RAC interconnect payloads): the four message
// kinds the master sends non-master standby instances.
// ---------------------------------------------------------------------------
enum class InvalKind : uint8_t {
  kGroups = 1,      ///< Batch of invalidation groups.
  kCoarse = 2,      ///< Coarse-invalidate a tenant.
  kObjectDrop = 3,  ///< Drop an object's IMCUs.
  kPublish = 4,     ///< New QuerySCN published.
};

struct InvalidationMessage {
  InvalKind kind = InvalKind::kPublish;
  std::vector<InvalidationGroup> groups;  ///< kGroups.
  TenantId tenant = kDefaultTenant;       ///< kCoarse.
  ObjectId object_id = kInvalidObjectId;  ///< kObjectDrop.
  Scn scn = kInvalidScn;                  ///< kPublish.
};

void EncodeInvalidationMessage(const InvalidationMessage& msg, std::string* out);
Status DecodeInvalidationMessage(const std::string& payload,
                                 InvalidationMessage* out);

}  // namespace net
}  // namespace stratus

#endif  // STRATUS_NET_CODEC_H_
