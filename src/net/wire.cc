#include "net/wire.h"

#include <limits>

namespace stratus {
namespace net {

void EncodeFrame(const Frame& frame, std::string* out) {
  std::string body;
  body.reserve(frame.payload.size() + 16);
  body.push_back(static_cast<char>(frame.type));
  PutVarint64(&body, frame.stream);
  PutVarint64(&body, frame.seq);
  PutVarint64(&body, frame.scn);
  body.append(frame.payload);

  out->reserve(out->size() + kFramePrefixBytes + body.size());
  PutU32(out, kFrameMagic);
  PutU32(out, static_cast<uint32_t>(body.size()));
  PutU32(out, Crc32c(body.data(), body.size()));
  out->append(body);
}

Status DecodeFrame(const char* data, size_t size, Frame* out, size_t* consumed) {
  if (size < kFramePrefixBytes)
    return Status::OutOfRange("incomplete frame prefix");
  if (LoadU32(data) != kFrameMagic)
    return Status::Corruption("bad frame magic");
  const uint32_t body_len = LoadU32(data + 4);
  if (body_len > kMaxFrameBodyBytes)
    return Status::Corruption("frame body length exceeds limit");
  if (body_len < 1)  // Body must hold at least the type byte.
    return Status::Corruption("empty frame body");
  if (size < kFramePrefixBytes + body_len)
    return Status::OutOfRange("incomplete frame body");
  const uint32_t want_crc = LoadU32(data + 8);
  const char* body = data + kFramePrefixBytes;
  if (Crc32c(body, body_len) != want_crc)
    return Status::Corruption("frame CRC mismatch");

  const uint8_t type = static_cast<uint8_t>(body[0]);
  if (type != static_cast<uint8_t>(FrameType::kRedoBatch) &&
      type != static_cast<uint8_t>(FrameType::kInvalidation) &&
      type != static_cast<uint8_t>(FrameType::kAck)) {
    return Status::Corruption("unknown frame type");
  }
  out->type = static_cast<FrameType>(type);
  size_t pos = 1;
  uint64_t stream = 0, seq = 0, scn = 0;
  if (!GetVarint64(body, body_len, &pos, &stream) ||
      !GetVarint64(body, body_len, &pos, &seq) ||
      !GetVarint64(body, body_len, &pos, &scn)) {
    return Status::Corruption("truncated frame header varints");
  }
  if (stream > std::numeric_limits<uint32_t>::max())
    return Status::Corruption("frame stream id out of range");
  out->stream = static_cast<uint32_t>(stream);
  out->seq = seq;
  out->scn = scn;
  out->payload.assign(body + pos, body_len - pos);
  *consumed = kFramePrefixBytes + body_len;
  return Status::OK();
}

}  // namespace net
}  // namespace stratus
