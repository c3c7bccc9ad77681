#include "softcache/protocol.h"

#include <algorithm>
#include <cstring>

namespace sc::softcache {
namespace {

// True for request types that carry a payload after the fixed frame.
bool IsWriteType(MsgType type) {
  return type == MsgType::kTextWrite || type == MsgType::kDataWriteback;
}

// Stores `v` little-endian at `at`. Every serializer sizes its frame once
// and then stores each field at its fixed offset.
void StoreU32(uint8_t* at, uint32_t v) {
  at[0] = static_cast<uint8_t>(v);
  at[1] = static_cast<uint8_t>(v >> 8);
  at[2] = static_cast<uint8_t>(v >> 16);
  at[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* bytes, size_t offset) {
  return static_cast<uint32_t>(bytes[offset]) |
         static_cast<uint32_t>(bytes[offset + 1]) << 8 |
         static_cast<uint32_t>(bytes[offset + 2]) << 16 |
         static_cast<uint32_t>(bytes[offset + 3]) << 24;
}

uint32_t GetU32(const std::vector<uint8_t>& bytes, size_t offset) {
  return GetU32(bytes.data(), offset);
}

// The type word carries the message type in its low 8 bits, the client id in
// bits 15..8, and the session epoch in its high 16 bits. Client id 0 with
// epoch 0 (single client, no crash has ever occurred) packs to exactly the
// seed protocol's bytes.
uint32_t PackTypeWord(MsgType type, uint32_t epoch, uint32_t client_id) {
  return (static_cast<uint32_t>(type) & kTypeMask) |
         ((client_id & kClientIdMask) << kClientIdShift) |
         ((epoch & kEpochMask) << kEpochShift);
}

// True for the request types whose type byte may carry a tracing rid in its
// high nibble (see the request-id section in protocol.h).
bool CarriesRid(uint32_t type_value) {
  return type_value == static_cast<uint32_t>(MsgType::kChunkRequest) ||
         type_value == static_cast<uint32_t>(MsgType::kChunkSharedRequest);
}

}  // namespace

uint32_t PeekFrameClientId(const std::vector<uint8_t>& frame) {
  // Only magic and type word are read, so a frame too short to parse still
  // names the session that stamps its error reply. A hostile id here can at
  // worst create an idle session (bounded by kMaxClients).
  if (frame.size() < 8) return 0;
  if (GetU32(frame, 0) != kProtocolMagic) return 0;
  // Bits 19..8 of the type word: the low byte plus the low nibble of the
  // next byte (the epoch occupies bits 31..20).
  return static_cast<uint32_t>(frame[5]) |
         (static_cast<uint32_t>(frame[6] & 0x0f) << 8);
}

uint32_t PeekFrameRid(const std::vector<uint8_t>& frame) {
  if (frame.size() < kRequestBytes) return 0;
  if (GetU32(frame, 0) != kProtocolMagic) return 0;
  const uint32_t type_byte = frame[4];
  if (!CarriesRid(type_byte & kRidTypeMask)) return 0;
  return type_byte >> kRidShift;
}

uint32_t PeekFrameType(const std::vector<uint8_t>& frame) {
  if (frame.size() < kRequestBytes) return 0;
  if (GetU32(frame, 0) != kProtocolMagic) return 0;
  const uint32_t type_byte = frame[4];
  if (CarriesRid(type_byte & kRidTypeMask)) return type_byte & kRidTypeMask;
  return type_byte;
}

uint32_t PeekFrameAddr(const std::vector<uint8_t>& frame) {
  if (frame.size() < kRequestBytes) return 0;
  if (GetU32(frame, 0) != kProtocolMagic) return 0;
  return GetU32(frame, 12);
}

uint32_t Checksum(const uint8_t* data, size_t len, uint32_t basis) {
  uint32_t hash = basis;
  if (len == 0) return hash;  // tolerate null `data` from empty vectors
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 16777619u;
  }
  return hash;
}

uint64_t ChunkDigest(uint32_t addr, uint32_t aux, uint32_t extra,
                     const uint8_t* words, size_t nbytes) {
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  for (uint32_t field : {addr, aux, extra}) {
    mix(static_cast<uint8_t>(field));
    mix(static_cast<uint8_t>(field >> 8));
    mix(static_cast<uint8_t>(field >> 16));
    mix(static_cast<uint8_t>(field >> 24));
  }
  for (size_t i = 0; i < nbytes; ++i) mix(words[i]);
  return hash;
}

std::vector<uint8_t> Request::Serialize() const {
  std::vector<uint8_t> out;
  SerializeTo(&out);
  return out;
}

void Request::SerializeTo(std::vector<uint8_t>* frame) const {
  std::vector<uint8_t>& out = *frame;
  out.resize(wire_bytes());
  uint8_t* const p = out.data();
  StoreU32(p, kProtocolMagic);
  uint32_t type_word = PackTypeWord(type, epoch, client_id);
  // A nonzero tracing rid rides the spare high nibble of the type byte on
  // chunk requests; rid 0 (tracing off) leaves the seed bytes untouched.
  if (rid != 0 && CarriesRid(static_cast<uint32_t>(type))) {
    type_word |= (rid & kRidMask) << kRidShift;
  }
  StoreU32(p + 4, type_word);
  StoreU32(p + 8, seq);
  StoreU32(p + 12, addr);
  StoreU32(p + 16, length);
  // Checksum over the first five fields, continued over the payload. A
  // payload-less frame serializes byte-identically to the header-only
  // checksum, so the fixed 24-byte frame format is unchanged.
  StoreU32(p + 20,
           Checksum(payload.data(), payload.size(), Checksum(p, 20)));
  if (!payload.empty()) {
    std::memcpy(p + kRequestBytes, payload.data(), payload.size());
  }
}

util::Result<Request> Request::Parse(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kRequestBytes) return util::Error{"request: short frame"};
  if (GetU32(bytes, 0) != kProtocolMagic) return util::Error{"request: bad magic"};
  const uint32_t checksum = GetU32(bytes, 20);
  const size_t payload_len = bytes.size() - kRequestBytes;
  if (checksum != Checksum(bytes.data() + kRequestBytes, payload_len,
                           Checksum(bytes.data(), 20))) {
    return util::Error{"request: checksum mismatch"};
  }
  Request req;
  const uint32_t type_word = GetU32(bytes, 4);
  uint32_t type_value = type_word & kTypeMask;
  // Strip a tracing rid from the high nibble of the type byte — but only
  // when the low nibble is a chunk-request type; every other type byte is
  // taken whole so unknown-type bytes still reach the kError path intact.
  if ((type_value >> kRidShift) != 0 && CarriesRid(type_value & kRidTypeMask)) {
    req.rid = type_value >> kRidShift;
    type_value &= kRidTypeMask;
  }
  req.type = static_cast<MsgType>(type_value);
  req.client_id = (type_word >> kClientIdShift) & kClientIdMask;
  req.epoch = (type_word >> kEpochShift) & kEpochMask;
  req.seq = GetU32(bytes, 8);
  req.addr = GetU32(bytes, 12);
  req.length = GetU32(bytes, 16);
  if (IsWriteType(req.type)) {
    if (req.length != payload_len) {
      return util::Error{"request: length mismatch"};
    }
  } else if (payload_len != 0) {
    return util::Error{"request: unexpected payload"};
  }
  req.payload.assign(bytes.begin() + kRequestBytes, bytes.end());
  return req;
}

std::vector<uint8_t> ReplyHeader::Serialize(const uint8_t* body,
                                            size_t size) const {
  std::vector<uint8_t> out(kReplyHeaderBytes + size + kReplyTrailerBytes);
  uint8_t* const p = out.data();
  StoreU32(p, kProtocolMagic);
  StoreU32(p + 4, PackTypeWord(type, epoch, client_id));
  StoreU32(p + 8, seq);
  StoreU32(p + 12, addr);
  StoreU32(p + 16, aux);
  StoreU32(p + 20, static_cast<uint32_t>(size));
  StoreU32(p + 24, extra);
  StoreU32(p + 28, Checksum(p, 28));
  if (size != 0) std::memcpy(p + kReplyHeaderBytes, body, size);
  StoreU32(p + kReplyHeaderBytes + size, Checksum(body, size));
  return out;
}

void AppendBatchChunk(std::vector<uint8_t>* payload, uint32_t addr,
                      uint32_t aux, uint32_t extra, const uint32_t* words,
                      uint32_t nwords) {
  const size_t offset = payload->size();
  payload->resize(offset + kBatchChunkHeaderBytes + nwords * 4);
  uint8_t* const p = payload->data() + offset;
  StoreU32(p, addr);
  StoreU32(p + 4, aux);
  StoreU32(p + 8, extra);
  StoreU32(p + 12, nwords);
  if (nwords != 0) {
    std::memcpy(p + kBatchChunkHeaderBytes, words, nwords * 4);
  }
}

util::Result<std::vector<BatchChunkView>> ParseBatchPayload(
    const uint8_t* payload, size_t size, uint32_t count) {
  std::vector<BatchChunkView> chunks;
  // `count` is attacker-controlled (it rides the reply's aux field): bound
  // the reservation by what the payload could actually hold.
  chunks.reserve(std::min<size_t>(count, size / kBatchChunkHeaderBytes));
  size_t offset = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (offset + kBatchChunkHeaderBytes > size) {
      return util::Error{"batch: short sub-chunk header"};
    }
    BatchChunkView view;
    view.addr = GetU32(payload, offset);
    view.aux = GetU32(payload, offset + 4);
    view.extra = GetU32(payload, offset + 8);
    view.nwords = GetU32(payload, offset + 12);
    offset += kBatchChunkHeaderBytes;
    if (view.nwords > (size - offset) / 4) {
      return util::Error{"batch: sub-chunk words overflow payload"};
    }
    view.words = payload + offset;
    offset += static_cast<size_t>(view.nwords) * 4;
    chunks.push_back(view);
  }
  if (offset != size) {
    return util::Error{"batch: trailing bytes after last sub-chunk"};
  }
  return chunks;
}

util::Result<ReplyView> ReplyView::Parse(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kReplyHeaderBytes + kReplyTrailerBytes) {
    return util::Error{"reply: short frame"};
  }
  if (GetU32(bytes, 0) != kProtocolMagic) return util::Error{"reply: bad magic"};
  if (GetU32(bytes, 28) != Checksum(bytes.data(), 28)) {
    return util::Error{"reply: header checksum mismatch"};
  }
  ReplyView reply;
  const uint32_t type_word = GetU32(bytes, 4);
  reply.type = static_cast<MsgType>(type_word & kTypeMask);
  reply.client_id = (type_word >> kClientIdShift) & kClientIdMask;
  reply.epoch = (type_word >> kEpochShift) & kEpochMask;
  reply.seq = GetU32(bytes, 8);
  reply.addr = GetU32(bytes, 12);
  reply.aux = GetU32(bytes, 16);
  const uint32_t payload_len = GetU32(bytes, 20);
  reply.extra = GetU32(bytes, 24);
  if (bytes.size() != kReplyHeaderBytes + payload_len + kReplyTrailerBytes) {
    return util::Error{"reply: length mismatch"};
  }
  reply.payload = bytes.data() + kReplyHeaderBytes;
  reply.payload_size = payload_len;
  if (GetU32(bytes, kReplyHeaderBytes + payload_len) !=
      Checksum(reply.payload, payload_len)) {
    return util::Error{"reply: payload checksum mismatch"};
  }
  return reply;
}

Reply ReplyView::ToReply() const {
  Reply reply;
  static_cast<ReplyHeader&>(reply) = *this;
  reply.payload.assign(payload, payload + payload_size);
  return reply;
}

util::Result<Reply> Reply::Parse(const std::vector<uint8_t>& bytes) {
  auto view = ReplyView::Parse(bytes);
  if (!view.ok()) return view.error();
  return view->ToReply();
}

}  // namespace sc::softcache
