// Speculative prefetch tests: batch payload framing, hint packing, the
// kOff byte-identical-wire property, round trips saved, a zero-word chunk
// heading a batch, and the policy-nibble wire contract. Execution staying
// identical with batching on (under faults, crashes, tiny staging buffers
// and small tcaches) is the configuration oracle's (property_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "minicc/compiler.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/system.h"
#include "tests/testing.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using softcache::BatchChunkView;
using softcache::MsgType;
using softcache::PrefetchHints;
using softcache::PrefetchPolicy;
using softcache::SoftCacheConfig;
using softcache::SoftCacheSystem;
using softcache::Style;

image::Image Compile(std::string_view source) {
  auto img = minicc::CompileMiniC(source);
  SC_CHECK(img.ok()) << img.error().ToString();
  return std::move(*img);
}

SoftCacheConfig PrefetchConfig(Style style, PrefetchPolicy policy,
                               uint32_t tcache_bytes = 24 * 1024) {
  SoftCacheConfig config;
  config.style = style;
  config.tcache_bytes = tcache_bytes;
  config.prefetch.policy = policy;
  return config;
}

constexpr const char* kCallLoopProgram = R"(
  int leaf(int x) { return x * 3 + 1; }
  int mid(int x) { return leaf(x) + leaf(x + 1); }
  int top(int x) { return mid(x) + mid(x + 2); }
  int main() {
    int sum = 0;
    for (int i = 0; i < 300; i++) sum += top(i) % 13;
    return sum % 251;
  }
)";

// --- Batch payload framing ---

TEST(BatchPayload, RoundTripsMultipleChunks) {
  std::vector<uint8_t> payload;
  const uint32_t words_a[] = {0x11111111u, 0x22222222u, 0x33333333u};
  const uint32_t words_b[] = {0xdeadbeefu};
  softcache::AppendBatchChunk(&payload, 0x1000, 0xa5a5a5a5u, 0x2000, words_a, 3);
  softcache::AppendBatchChunk(&payload, 0x3000, 0x5a5a5a5au, 0x4000, words_b, 1);
  softcache::AppendBatchChunk(&payload, 0x5000, 0, 0, nullptr, 0);

  auto parsed = softcache::ParseBatchPayload(payload, 3);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  const BatchChunkView& a = (*parsed)[0];
  EXPECT_EQ(a.addr, 0x1000u);
  EXPECT_EQ(a.aux, 0xa5a5a5a5u);
  EXPECT_EQ(a.extra, 0x2000u);
  ASSERT_EQ(a.nwords, 3u);
  uint32_t word = 0;
  std::memcpy(&word, a.words + 4, 4);
  EXPECT_EQ(word, 0x22222222u);
  EXPECT_EQ((*parsed)[1].nwords, 1u);
  EXPECT_EQ((*parsed)[2].nwords, 0u);
  EXPECT_EQ((*parsed)[2].addr, 0x5000u);
}

TEST(BatchPayload, RejectsMalformedPayloads) {
  std::vector<uint8_t> payload;
  const uint32_t words[] = {1, 2};
  softcache::AppendBatchChunk(&payload, 0x1000, 0, 0, words, 2);

  // Count demands more records than the payload holds.
  EXPECT_FALSE(softcache::ParseBatchPayload(payload, 2).ok());

  // Truncated sub-chunk header.
  std::vector<uint8_t> shorty(payload.begin(), payload.begin() + 8);
  EXPECT_FALSE(softcache::ParseBatchPayload(shorty, 1).ok());

  // nwords claims more words than remain (overflow-safe check).
  std::vector<uint8_t> lying = payload;
  lying[12] = 0xff;
  lying[13] = 0xff;
  lying[14] = 0xff;
  lying[15] = 0xff;
  EXPECT_FALSE(softcache::ParseBatchPayload(lying, 1).ok());

  // Trailing bytes after the declared records.
  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(softcache::ParseBatchPayload(trailing, 1).ok());

  // Empty payload with zero count is fine.
  EXPECT_TRUE(softcache::ParseBatchPayload({}, 0).ok());
}

TEST(BatchPayload, HintsPackRoundTripAndClamp) {
  PrefetchHints h;
  h.policy = 2;
  h.depth = 3;
  h.max_chunks = 17;
  h.byte_budget = 4096;
  const PrefetchHints back =
      softcache::UnpackPrefetchHints(softcache::PackPrefetchHints(h));
  EXPECT_EQ(back.policy, 2u);
  EXPECT_EQ(back.depth, 3u);
  EXPECT_EQ(back.max_chunks, 17u);
  EXPECT_EQ(back.byte_budget, 4096u);

  // Oversized fields clamp to their field widths instead of corrupting
  // neighbours.
  PrefetchHints big;
  big.policy = 99;
  big.depth = 77;
  big.max_chunks = 100'000;
  big.byte_budget = 1 << 20;
  const PrefetchHints clamped =
      softcache::UnpackPrefetchHints(softcache::PackPrefetchHints(big));
  EXPECT_EQ(clamped.policy, 15u);
  EXPECT_EQ(clamped.depth, 15u);
  EXPECT_EQ(clamped.max_chunks, 255u);
  EXPECT_EQ(clamped.byte_budget, 0xffffu);

  // Policy off with no budgets packs to the seed protocol's zero.
  EXPECT_EQ(softcache::PackPrefetchHints(PrefetchHints{}), 0u);
}

// --- kOff wire-compatibility property ---

// Golden re-encoders, written out longhand from the protocol spec (PROTOCOL
// section "frame formats") so a serializer regression can't hide behind its
// own Parse.
void GoldenPutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GoldenFnv(const uint8_t* data, size_t len, uint32_t basis) {
  uint32_t hash = basis;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 16777619u;
  }
  return hash;
}

std::vector<uint8_t> GoldenRequest(uint32_t type, uint32_t seq, uint32_t addr,
                                   uint32_t length,
                                   const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  GoldenPutU32(out, 0x53434d43u);  // "SCMC"
  GoldenPutU32(out, type);
  GoldenPutU32(out, seq);
  GoldenPutU32(out, addr);
  GoldenPutU32(out, length);
  GoldenPutU32(out, GoldenFnv(payload.data(), payload.size(),
                              GoldenFnv(out.data(), 20, 2166136261u)));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<uint8_t> GoldenReply(uint32_t type, uint32_t seq, uint32_t addr,
                                 uint32_t aux, uint32_t extra,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  GoldenPutU32(out, 0x53434d43u);
  GoldenPutU32(out, type);
  GoldenPutU32(out, seq);
  GoldenPutU32(out, addr);
  GoldenPutU32(out, aux);
  GoldenPutU32(out, static_cast<uint32_t>(payload.size()));
  GoldenPutU32(out, extra);
  GoldenPutU32(out, GoldenFnv(out.data(), 28, 2166136261u));
  out.insert(out.end(), payload.begin(), payload.end());
  GoldenPutU32(out, GoldenFnv(payload.data(), payload.size(), 2166136261u));
  return out;
}

// With prefetch off, every frame that crosses the wire must be exactly what
// the seed protocol would have produced: chunk requests carry length == 0,
// no kChunkBatchReply ever appears, and re-encoding each parsed frame with
// the golden encoders reproduces the tapped bytes bit for bit.
TEST(PrefetchOffProperty, WireTrafficIsByteIdenticalToSeedProtocol) {
  const image::Image img = Compile(kCallLoopProgram);
  SoftCacheConfig config = PrefetchConfig(Style::kSparc, PrefetchPolicy::kOff);

  SoftCacheSystem system(img, config);
  uint64_t frames = 0;
  uint64_t chunk_requests = 0;
  system.mc().set_frame_tap([&](const std::vector<uint8_t>& request_bytes,
                                const std::vector<uint8_t>& reply_bytes) {
    ++frames;
    auto request = softcache::Request::Parse(request_bytes);
    ASSERT_TRUE(request.ok()) << request.error().ToString();
    if (request->type == MsgType::kChunkRequest) {
      ++chunk_requests;
      // The seed protocol leaves `length` zero on chunk requests; kOff must
      // not smuggle hints into it.
      EXPECT_EQ(request->length, 0u);
    }
    // A crash-free run stays in boot epoch 0, whose packed type word equals
    // the raw type — the session layer must be invisible on the wire.
    EXPECT_EQ(request->epoch, 0u);
    EXPECT_EQ(GoldenRequest(static_cast<uint32_t>(request->type), request->seq,
                            request->addr, request->length, request->payload),
              request_bytes);

    auto reply = softcache::Reply::Parse(reply_bytes);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    EXPECT_EQ(reply->epoch, 0u);
    EXPECT_NE(reply->type, MsgType::kChunkBatchReply)
        << "kOff produced a batched reply";
    EXPECT_EQ(GoldenReply(static_cast<uint32_t>(reply->type), reply->seq,
                          reply->addr, reply->aux, reply->extra,
                          reply->payload),
              reply_bytes);
  });

  const vm::RunResult result = system.Run(100'000'000);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted)
      << result.fault_message;
  EXPECT_GT(frames, 0u);
  EXPECT_GT(chunk_requests, 0u);

  // kOff does zero speculative work on either side of the link.
  const softcache::PrefetchStats& ps = system.stats().prefetch;
  EXPECT_EQ(ps.batches, 0u);
  EXPECT_EQ(ps.chunks_prefetched, 0u);
  EXPECT_EQ(ps.staged, 0u);
  EXPECT_EQ(ps.hits, 0u);
  EXPECT_EQ(system.mc().server().stats().batches_served, 0u);
}

// The epoch stamp rides the upper 12 bits of the type word and the client id
// the 12 below it (PROTOCOL section "sessions"): re-encode stamped frames
// longhand and require bit-equality, and show that epoch 0 degenerates to the
// seed encoding.
TEST(PrefetchOffProperty, EpochStampMatchesGoldenTypeWordPacking) {
  softcache::Request request;
  request.type = MsgType::kDataWriteback;
  request.seq = 77;
  request.addr = 0x2000;
  request.length = 4;
  request.payload = {9, 8, 7, 6};
  request.epoch = 0x0102;
  EXPECT_EQ(request.Serialize(),
            GoldenRequest(static_cast<uint32_t>(MsgType::kDataWriteback) |
                              (0x0102u << softcache::kEpochShift),
                          77, 0x2000, 4, request.payload));
  auto parsed = softcache::Request::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, MsgType::kDataWriteback);
  EXPECT_EQ(parsed->epoch, 0x0102u);

  softcache::Reply reply;
  reply.type = MsgType::kWritebackAck;
  reply.seq = 77;
  reply.addr = 0x2000;
  reply.epoch = 0x0102;
  EXPECT_EQ(reply.Serialize(),
            GoldenReply(static_cast<uint32_t>(MsgType::kWritebackAck) |
                            (0x0102u << softcache::kEpochShift),
                        77, 0x2000, 0, 0, {}));
  auto parsed_reply = softcache::Reply::Parse(reply.Serialize());
  ASSERT_TRUE(parsed_reply.ok());
  EXPECT_EQ(parsed_reply->type, MsgType::kWritebackAck);
  EXPECT_EQ(parsed_reply->epoch, 0x0102u);

  // Epoch 0 packs to the bare type: byte-identical to the seed protocol.
  request.epoch = 0;
  EXPECT_EQ(request.Serialize(),
            GoldenRequest(static_cast<uint32_t>(MsgType::kDataWriteback), 77,
                          0x2000, 4, request.payload));
}

// --- Execution equivalence with batching on ---

TEST(PrefetchEquivalence, PrefetchSavesRoundTrips) {
  const image::Image img = Compile(kCallLoopProgram);

  SoftCacheConfig off = PrefetchConfig(Style::kSparc, PrefetchPolicy::kOff);
  SoftCacheSystem sys_off(img, off);
  ASSERT_EQ(sys_off.Run(100'000'000).reason, vm::StopReason::kHalted);

  SoftCacheConfig on = PrefetchConfig(Style::kSparc, PrefetchPolicy::kNextN);
  SoftCacheSystem sys_on(img, on);
  ASSERT_EQ(sys_on.Run(100'000'000).reason, vm::StopReason::kHalted);

  EXPECT_EQ(sys_on.OutputString(), sys_off.OutputString());
  // Every staging hit is a round trip the kOff run had to pay for.
  EXPECT_LT(sys_on.stats().net.requests, sys_off.stats().net.requests);
}

// A block that is only a folded jump translates to zero words. When such a
// chunk heads a batch, the CC must still accept it as covering the demanded
// pc; compress95 demands one under bench_prefetch's depth-4, 1 KB walk.
TEST(PrefetchEquivalence, ZeroWordChunkHeadsBatch) {
  const auto* spec = workloads::FindWorkload("compress95");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const std::vector<uint8_t> input = workloads::MakeInput(spec->name, 1);
  std::string native_out;
  const vm::RunResult native = softcache::RunNative(
      img, std::string(input.begin(), input.end()), &native_out, 100'000'000);
  ASSERT_EQ(native.reason, vm::StopReason::kHalted);

  SoftCacheConfig config =
      PrefetchConfig(Style::kSparc, PrefetchPolicy::kNextN, 64 * 1024);
  config.prefetch.depth = 4;
  config.prefetch.byte_budget = 1024;
  SoftCacheSystem system(img, config);
  system.SetInput(input);
  const vm::RunResult cached = system.Run(100'000'000);
  ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
  EXPECT_EQ(cached.exit_code, native.exit_code);
  EXPECT_EQ(system.OutputString(), native_out);
  EXPECT_GT(system.stats().prefetch.batches, 0u);
}

// --- Policy nibble wire contract ---

// Any nonzero policy nibble asks for the next-N batch. Nibble 2 (once a
// temperature-ranked policy) and 15 get replies byte-identical to nibble 1's,
// so frames from older clients still parse and are served.
TEST(PrefetchWireContract, NonzeroPolicyNibbleServesNextN) {
  const image::Image img = Compile(kCallLoopProgram);
  const auto reply_for = [&img](uint32_t policy) {
    softcache::MemoryController mc(img, Style::kSparc, 64);
    softcache::Request request;
    request.type = MsgType::kChunkRequest;
    request.seq = 1;
    request.addr = img.entry;
    request.length =
        softcache::PackPrefetchHints(PrefetchHints{policy, 4, 8, 4096});
    return mc.Handle(request.Serialize());
  };
  const std::vector<uint8_t> next_n = reply_for(1);
  auto parsed = softcache::Reply::Parse(next_n);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->type, MsgType::kChunkBatchReply);
  EXPECT_GT(parsed->aux, 1u);  // the demanded chunk plus speculation
  EXPECT_EQ(reply_for(2), next_n);
  EXPECT_EQ(reply_for(15), next_n);
}

}  // namespace
}  // namespace sc
