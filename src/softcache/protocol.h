// The MC<->CC wire protocol.
//
// Every CC->MC request is a fixed 24-byte frame; every MC->CC reply is a
// 32-byte header plus payload plus a 4-byte checksum trailer. A chunk fetch
// therefore costs exactly 24 + 36 = 60 application bytes of overhead beyond
// the chunk payload — the figure the paper reports for its ARM prototype
// ("the network overhead for each code chunk downloaded [is] 60 application
// bytes"), reproduced by bench_net.
#pragma once

#include <cstdint>
#include <vector>

#include "util/result.h"

namespace sc::softcache {

inline constexpr uint32_t kProtocolMagic = 0x53434d43;  // "SCMC"
inline constexpr uint32_t kRequestBytes = 24;
inline constexpr uint32_t kReplyHeaderBytes = 32;
inline constexpr uint32_t kReplyTrailerBytes = 4;
// Application-level overhead of one fetch (request + reply framing).
inline constexpr uint32_t kPerChunkOverheadBytes =
    kRequestBytes + kReplyHeaderBytes + kReplyTrailerBytes;

enum class MsgType : uint32_t {
  kChunkRequest = 1,   // CC -> MC: code chunk at `addr`
  kChunkReply = 2,     // MC -> CC: chunk words
  kDataRequest = 3,    // CC -> MC: data block at `addr` (D-cache refill)
  kDataReply = 4,      // MC -> CC: data bytes
  kDataWriteback = 5,  // CC -> MC: dirty data block (payload carried)
  kWritebackAck = 6,   // MC -> CC: writeback acknowledged
  kError = 7,          // MC -> CC: request failed (message text in payload)
  kTextWrite = 8,      // CC -> MC: program text changed (self-modifying code)
  kTextWriteAck = 9,   // MC -> CC: text update applied
  kChunkBatchReply = 10,  // MC -> CC: demanded chunk + prefetched successors
  kHello = 11,     // CC -> MC: session handshake (crash recovery)
  kHelloAck = 12,  // MC -> CC: addr = boot epoch, aux/extra = stable-op
                   // watermarks (text ops / data ops)
  kChunkSharedRequest = 13,  // CC -> MC: chunk request, content-addressed
                             // replies allowed (kChunkDigestReply)
  kChunkDigestReply = 14,    // MC -> CC: aux/extra = chunk digest lo/hi,
                             // no body (client holds the bytes)
};

// --- Sessions, epochs (crash recovery) and client ids (multi-client) ---
//
// The type word packs three fields:
//
//   bits  7..0   message type
//   bits 19..8   client id   (which MC session this frame belongs to)
//   bits 31..20  session epoch
//
// The MC stamps its boot **epoch** into every reply, and clients stamp their
// last-known epoch into every request, riding the high bits of the frame's
// type word. With one MC serving N cache controllers, every client
// additionally stamps its **client id** into bits 19..8 so the server can
// demultiplex frames onto per-client sessions (`net::Switch` routes by
// transport port; the MC cross-checks the embedded id against the port).
// The epoch rides bits 31..20. The id/epoch split is 12/12: fleet-scale
// serving needs thousands of sessions, while the epoch only needs to make
// restarts *detectable* — it compares masked on both sides, so a 12-bit
// wraparound is handled exactly like the old 16-bit one (a client would
// have to sleep through 4096 restarts of its own session to alias).
//
// The seed protocol always wrote bits 31..8 as zero, every message type fits
// in 8 bits, the epoch starts at zero, and the default client id is zero —
// so a crash-free single-client run's wire traffic is byte-identical to the
// seed protocol (property-tested against golden re-encoders in
// tests/prefetch_test.cpp and tests/multiclient_test.cpp). After an MC
// session restart that session's epoch increments; a client that observes a
// mismatched epoch in a reply knows the server lost its volatile state and
// runs the kHello/kHelloAck handshake + journal replay described in
// docs/PROTOCOL.md. The MC rejects write-type requests carrying a stale
// epoch, which keeps its applied-op counters exactly aligned with the
// clients' journal indices. Epochs and crash recovery are per-session: one
// client's crash schedule never bumps another client's epoch.
inline constexpr uint32_t kEpochMask = 0xfff;
inline constexpr uint32_t kTypeMask = 0xff;
inline constexpr uint32_t kClientIdMask = 0xfff;
inline constexpr uint32_t kClientIdShift = 8;
inline constexpr uint32_t kEpochShift = 20;
// The id field is 12 bits wide, so one MC serves at most 4096 sessions.
inline constexpr uint32_t kMaxClients = kClientIdMask + 1;

// --- Request ids (causal tracing) ---
//
// Every message type fits in 4 bits (max value 14), so the high nibble of
// the type byte is spare on the wire. Chunk requests (kChunkRequest,
// kChunkSharedRequest) may stamp a 4-bit rolling **request id** (1..15;
// 0 = "no id") into that nibble so the observability layer can correlate a
// client-lane TCMISS span with the server-lane ticket/translate spans that
// serve it — the merged trace exporter turns matching ids into Perfetto
// flow arrows (docs/OBSERVABILITY.md).
//
// Wire compatibility: the CC stamps a nonzero rid only while its trace
// lane is actively recording, so with tracing off (and for every non-chunk
// type) the nibble stays zero and the frame is byte-identical to the seed
// protocol. Parse strips the nibble back out only when the low nibble is a
// chunk-request type AND the high nibble is nonzero; all other type bytes
// are passed through whole, so unknown-type handling is unchanged.
inline constexpr uint32_t kRidShift = 4;
inline constexpr uint32_t kRidMask = 0xf;
inline constexpr uint32_t kRidTypeMask = 0xf;

// Flow ids are globally unique per in-flight request across a 4096-client
// fleet: the client id makes the namespace, the rid rolls within it.
inline uint64_t FlowId(uint32_t client_id, uint32_t rid) {
  return (static_cast<uint64_t>(client_id & kClientIdMask) << 8) |
         (rid & kRidMask);
}

// Frame peeks for layers that route raw frames without a full Parse (the
// MC's port-less Handle, trace-lane routing). Return 0 on anything that is
// not a well-formed request frame carrying the field; the client id needs
// only the first 8 bytes (magic and type word).
uint32_t PeekFrameClientId(const std::vector<uint8_t>& frame);
uint32_t PeekFrameRid(const std::vector<uint8_t>& frame);
// The rid-stripped type value (kTypeMask range) and the addr field.
uint32_t PeekFrameType(const std::vector<uint8_t>& frame);
uint32_t PeekFrameAddr(const std::vector<uint8_t>& frame);

// --- Chunk batching (speculative prefetch) ---
//
// A kChunkBatchReply carries several chunks inside one framed payload: the
// demanded chunk first, then the MC's control-flow-predicted successors.
// N chunks thus cost ONE 60-byte frame overhead plus a 16-byte sub-header
// each, instead of N full 60-byte round trips. The outer header's `aux`
// holds the chunk count; each sub-chunk record is:
//
//   | offset | field  | notes                                       |
//   |      0 | addr   | chunk start address                         |
//   |      4 | aux    | PackChunkMeta (exit kind, folded, entry)    |
//   |      8 | extra  | taken/callee target                         |
//   |     12 | nwords | instruction words following                 |
//   |    16+ | words  | nwords * 4 bytes                            |
inline constexpr uint32_t kBatchChunkHeaderBytes = 16;

// A parsed view of one sub-chunk record inside a batch payload. `words`
// points into the payload buffer (valid as long as the Reply is alive).
struct BatchChunkView {
  uint32_t addr = 0;
  uint32_t aux = 0;
  uint32_t extra = 0;
  uint32_t nwords = 0;
  const uint8_t* words = nullptr;
};

// Appends one sub-chunk record to a batch payload under construction.
void AppendBatchChunk(std::vector<uint8_t>* payload, uint32_t addr,
                      uint32_t aux, uint32_t extra, const uint32_t* words,
                      uint32_t nwords);

// Splits a batch payload into `count` sub-chunk views; fails on any length
// inconsistency (short record, trailing bytes, overflowing nwords).
util::Result<std::vector<BatchChunkView>> ParseBatchPayload(
    const uint8_t* payload, size_t size, uint32_t count);
inline util::Result<std::vector<BatchChunkView>> ParseBatchPayload(
    const std::vector<uint8_t>& payload, uint32_t count) {
  return ParseBatchPayload(payload.data(), payload.size(), count);
}

// --- Prefetch hints ---
//
// A kChunkRequest's `length` field (unused by the seed protocol, where it
// was always zero) carries the client's prefetch budget so the MC knows how
// much speculative work one request may buy:
//
//   bits 31..28  policy  (0 = off: the request is byte-identical to the
//                         seed protocol and gets a plain kChunkReply;
//                         any nonzero value = next-N batch)
//   bits 27..24  depth   (CFG walk depth from the demanded chunk)
//   bits 23..16  chunks  (max extra chunks per batch)
//   bits 15..0   budget  (max extra payload bytes per batch)
struct PrefetchHints {
  uint32_t policy = 0;
  uint32_t depth = 0;
  uint32_t max_chunks = 0;
  uint32_t byte_budget = 0;
};

inline uint32_t PackPrefetchHints(const PrefetchHints& h) {
  const uint32_t policy = h.policy > 15 ? 15u : h.policy;
  const uint32_t depth = h.depth > 15 ? 15u : h.depth;
  const uint32_t chunks = h.max_chunks > 255 ? 255u : h.max_chunks;
  const uint32_t budget = h.byte_budget > 0xffff ? 0xffffu : h.byte_budget;
  return (policy << 28) | (depth << 24) | (chunks << 16) | budget;
}

inline PrefetchHints UnpackPrefetchHints(uint32_t length) {
  PrefetchHints h;
  h.policy = length >> 28;
  h.depth = (length >> 24) & 0xf;
  h.max_chunks = (length >> 16) & 0xff;
  h.byte_budget = length & 0xffff;
  return h;
}

struct Request {
  MsgType type = MsgType::kChunkRequest;
  uint32_t seq = 0;
  uint32_t addr = 0;
  uint32_t length = 0;  // data requests: bytes wanted
  uint32_t epoch = 0;   // client's last-known server epoch (low 12 bits used)
  uint32_t client_id = 0;  // MC session this frame belongs to (low 12 bits)
  // Tracing request id (chunk requests only; 0 = untraced — see the
  // request-id section above). Never affects request semantics.
  uint32_t rid = 0;
  // Writebacks carry payload after the fixed frame (accounted separately).
  std::vector<uint8_t> payload;

  uint32_t wire_bytes() const {
    return kRequestBytes + static_cast<uint32_t>(payload.size());
  }
  std::vector<uint8_t> Serialize() const;
  // Serializes into `frame`, replacing its contents but keeping its
  // storage (a link reuses one request buffer across calls).
  void SerializeTo(std::vector<uint8_t>* frame) const;
  static util::Result<Request> Parse(const std::vector<uint8_t>& bytes);
};

// The fields of a reply frame other than its payload.
struct ReplyHeader {
  MsgType type = MsgType::kChunkReply;
  uint32_t seq = 0;
  uint32_t addr = 0;        // original address of the chunk/block
  uint32_t aux = 0;         // chunk replies: packed exit kind | entry word
  uint32_t extra = 0;       // chunk replies: taken/callee/jump target
  uint32_t epoch = 0;       // server boot epoch (low 12 bits used)
  uint32_t client_id = 0;   // MC session the reply belongs to (low 12 bits)

  // The frame of this header around `size` payload bytes at `body`: the
  // server serializes a memoized chunk's words straight into it.
  std::vector<uint8_t> Serialize(const uint8_t* body, size_t size) const;
};

struct Reply : ReplyHeader {
  std::vector<uint8_t> payload;

  uint32_t wire_bytes() const {
    return kReplyHeaderBytes + static_cast<uint32_t>(payload.size()) +
           kReplyTrailerBytes;
  }
  using ReplyHeader::Serialize;
  std::vector<uint8_t> Serialize() const {
    return Serialize(payload.data(), payload.size());
  }
  static util::Result<Reply> Parse(const std::vector<uint8_t>& bytes);
};

// A reply parsed in place: its payload stays in the frame it arrived in,
// valid while that frame is alive and unchanged. The client's miss path
// copies chunk words straight out of it.
struct ReplyView : ReplyHeader {
  const uint8_t* payload = nullptr;
  uint32_t payload_size = 0;

  // Checks framing and both checksums; Reply::Parse is this plus a copy.
  static util::Result<ReplyView> Parse(const std::vector<uint8_t>& bytes);
  Reply ToReply() const;
};

// 32-bit FNV-1a over a byte range; used as the frame checksum. Streamable:
// pass a previous checksum as `basis` to continue it over another range
// (request frames checksum header + payload this way without changing the
// serialized bytes of payload-less frames).
uint32_t Checksum(const uint8_t* data, size_t len,
                  uint32_t basis = 2166136261u);

// --- Content-addressed shared replies (multicast coalescing) ---
//
// On a broadcast medium (the embedded fleets the paper targets share a bus
// or radio) the server transmits each chunk body ONCE: every attached client
// snoops body-bearing replies into a small content store keyed by digest.
// A client that opts in sends kChunkSharedRequest instead of kChunkRequest;
// when the server knows the body already crossed the medium it answers with
// a payload-less kChunkDigestReply (aux = digest low word, extra = digest
// high word, addr = chunk start) and the client installs from its store. A
// client whose store no longer holds the digest (bounded store, missed
// snoop) falls back to a plain kChunkRequest, which is always answered with
// a full body. Clients that never send kChunkSharedRequest never see a
// digest reply, so seed-protocol traffic is unchanged.
//
// The digest is 64-bit FNV-1a over the chunk's complete wire reconstruction
// state: addr, packed meta (aux), extra, then the instruction words. Server
// and snooping clients compute it over identical inputs, so equality means
// bit-identical installed code.
uint64_t ChunkDigest(uint32_t addr, uint32_t aux, uint32_t extra,
                     const uint8_t* words, size_t nbytes);

inline uint64_t DigestFromReply(const ReplyHeader& reply) {
  return static_cast<uint64_t>(reply.aux) |
         (static_cast<uint64_t>(reply.extra) << 32);
}

}  // namespace sc::softcache
