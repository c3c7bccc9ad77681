// Shared-reply coalescing tests: content-addressed chunk digests, the
// broadcast snoop store, the MC's digest-reply path, the event-driven
// McServerLoop, and end-to-end fleet runs where N clients missing the same
// hot chunk cost the server ONE translation and ~ONE wire body.
//
// The invariant under test everywhere: shared-reply mode may change WIRE
// traffic and miss-path timing, never guest-visible behavior — output, exit
// code and instruction counts stay bit-identical to the solo run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "isa/isa.h"
#include "minicc/compiler.h"
#include "obs/metrics.h"
#include "softcache/content_store.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/server_loop.h"
#include "softcache/system.h"
#include "tests/testing.h"
#include "vm/machine.h"

namespace sc {
namespace {

using softcache::ChunkContentStore;
using softcache::ChunkDigest;
using softcache::DigestFromReply;
using softcache::McServerLoop;
using softcache::McServerLoopConfig;
using softcache::MemoryController;
using softcache::MsgType;
using softcache::Reply;
using softcache::Request;
using softcache::SharedReplyStats;

image::Image LoopImage() {
  auto img = minicc::CompileMiniC(R"(
    int a[256];
    int main() {
      int sum = 0;
      for (int i = 0; i < 256; i = i + 1) { a[i] = i * 3; }
      for (int i = 0; i < 256; i = i + 1) { sum = sum + a[i]; }
      return sum % 251;
    }
  )");
  SC_CHECK(img.ok());
  return std::move(*img);
}

Request SharedReq(uint32_t addr, uint32_t client_id, uint32_t seq = 1) {
  Request req;
  req.type = MsgType::kChunkSharedRequest;
  req.seq = seq;
  req.addr = addr;
  req.client_id = client_id;
  return req;
}

Reply MustParse(const std::vector<uint8_t>& bytes) {
  auto reply = Reply::Parse(bytes);
  SC_CHECK(reply.ok()) << reply.error().ToString();
  return std::move(*reply);
}

// ---------------------------------------------------------------------------
// ChunkDigest: the content address
// ---------------------------------------------------------------------------

TEST(ChunkDigestTest, DeterministicAndSensitiveToEveryField) {
  const std::vector<uint8_t> words = {1, 2, 3, 4, 5, 6, 7, 8};
  const uint64_t base = ChunkDigest(0x1000, 7, 9, words.data(), words.size());
  EXPECT_EQ(base, ChunkDigest(0x1000, 7, 9, words.data(), words.size()));
  EXPECT_NE(base, ChunkDigest(0x1004, 7, 9, words.data(), words.size()));
  EXPECT_NE(base, ChunkDigest(0x1000, 8, 9, words.data(), words.size()));
  EXPECT_NE(base, ChunkDigest(0x1000, 7, 10, words.data(), words.size()));
  std::vector<uint8_t> flipped = words;
  flipped[3] ^= 1;
  EXPECT_NE(base, ChunkDigest(0x1000, 7, 9, flipped.data(), flipped.size()));
  EXPECT_NE(base, ChunkDigest(0x1000, 7, 9, words.data(), words.size() - 4));
}

TEST(ChunkDigestTest, RoundTripsThroughReplyAuxExtra) {
  Reply reply;
  reply.type = MsgType::kChunkDigestReply;
  reply.aux = 0xdeadbeef;
  reply.extra = 0x01234567;
  EXPECT_EQ(DigestFromReply(reply), 0x01234567'deadbeefull);
}

// ---------------------------------------------------------------------------
// ChunkContentStore: the bounded snoop cache
// ---------------------------------------------------------------------------

std::shared_ptr<const std::vector<uint8_t>> Body(size_t nbytes, uint8_t fill) {
  return std::make_shared<const std::vector<uint8_t>>(nbytes, fill);
}

TEST(ContentStore, SnoopLookupAndDedup) {
  ChunkContentStore store(1024);
  SharedReplyStats stats;
  auto body = Body(64, 0xab);
  store.Snoop(42, 0x2000, 7, 9, body, &stats);
  store.Snoop(42, 0x2000, 7, 9, body, &stats);  // dup: no double accounting
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_EQ(store.bytes(), 64u);
  EXPECT_EQ(stats.snooped_chunks, 1u);
  EXPECT_EQ(stats.snooped_bytes, 64u);

  ChunkContentStore::StoredChunk out;
  ASSERT_TRUE(store.Lookup(42, &out));
  EXPECT_EQ(out.addr, 0x2000u);
  EXPECT_EQ(out.aux, 7u);
  EXPECT_EQ(out.extra, 9u);
  EXPECT_EQ(out.words->size(), 64u);
  EXPECT_FALSE(store.Lookup(43, &out));
}

TEST(ContentStore, FifoEvictionKeepsByteBound) {
  ChunkContentStore store(256);
  SharedReplyStats stats;
  for (uint64_t d = 0; d < 8; ++d) {
    store.Snoop(d, static_cast<uint32_t>(0x1000 + d * 64), 0, 0, Body(64, 1),
                &stats);
    EXPECT_LE(store.bytes(), 256u);
  }
  // 8 x 64B into a 256B store: exactly 4 survive, oldest-first displaced.
  EXPECT_EQ(store.entries(), 4u);
  EXPECT_EQ(stats.store_evictions, 4u);
  ChunkContentStore::StoredChunk out;
  EXPECT_FALSE(store.Lookup(0, &out));
  EXPECT_TRUE(store.Lookup(7, &out));

  // A body larger than the whole store is refused outright.
  store.Snoop(99, 0x9000, 0, 0, Body(512, 2), &stats);
  EXPECT_FALSE(store.Lookup(99, &out));
  EXPECT_LE(store.bytes(), 256u);
}

// ---------------------------------------------------------------------------
// MC digest-reply path: second demander of a published chunk gets 36 bytes
// ---------------------------------------------------------------------------

TEST(SharedReplyMc, SecondSharedRequestCoalescesToDigestFrameGolden) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint32_t entry = img.entry;

  // First shared demand: full body crosses the medium, digest is published.
  const std::vector<uint8_t> wire0 = mc.Handle(SharedReq(entry, 0).Serialize());
  const Reply r0 = MustParse(wire0);
  ASSERT_EQ(r0.type, MsgType::kChunkReply);
  ASSERT_FALSE(r0.payload.empty());
  const uint64_t digest =
      ChunkDigest(r0.addr, r0.aux, r0.extra, r0.payload.data(),
                  r0.payload.size());
  EXPECT_TRUE(mc.server().DigestPublished(digest));

  // Second session, same chunk: a header-only digest frame — EXACTLY the
  // 32-byte reply header plus the 4-byte trailer, no body.
  const std::vector<uint8_t> wire1 =
      mc.Handle(SharedReq(entry, 1, /*seq=*/2).Serialize());
  EXPECT_EQ(wire1.size(),
            softcache::kReplyHeaderBytes + softcache::kReplyTrailerBytes);
  const Reply r1 = MustParse(wire1);
  EXPECT_EQ(r1.type, MsgType::kChunkDigestReply);
  EXPECT_EQ(r1.client_id, 1u);
  EXPECT_EQ(r1.addr, entry);
  EXPECT_TRUE(r1.payload.empty());
  EXPECT_EQ(DigestFromReply(r1), digest);

  // Server accounting: one translate, one memo hit, one digest reply worth
  // the full body's bytes.
  EXPECT_EQ(mc.server().stats().translates, 1u);
  EXPECT_EQ(mc.server().stats().translate_memo_hits, 1u);
  EXPECT_EQ(mc.server().stats().shared_requests, 2u);
  EXPECT_EQ(mc.server().stats().digest_replies, 1u);
  EXPECT_EQ(mc.server().stats().digest_bytes_saved, r0.payload.size());

  // A PLAIN (non-shared) request never gets a digest reply, published or not.
  Request plain;
  plain.type = MsgType::kChunkRequest;
  plain.seq = 3;
  plain.addr = entry;
  plain.client_id = 2;
  const Reply r2 = MustParse(mc.Handle(plain.Serialize()));
  EXPECT_EQ(r2.type, MsgType::kChunkReply);
  EXPECT_EQ(r2.payload, r0.payload);
}

TEST(SharedReplyMc, CowSessionBypassesDigestPath) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint32_t entry = img.entry;

  // Publish the pristine entry chunk via client 0.
  const Reply r0 = MustParse(mc.Handle(SharedReq(entry, 0).Serialize()));
  ASSERT_EQ(r0.type, MsgType::kChunkReply);

  // Client 1 writes its text: it faults to a private image. Its shared
  // requests must now always carry the full (private) body — a digest frame
  // would hand it the PRISTINE artifact.
  isa::Instr nop;
  nop.op = isa::Opcode::kAddi;
  const uint32_t nop_word = isa::Encode(nop);
  Request write;
  write.type = MsgType::kTextWrite;
  write.seq = 2;
  write.addr = entry;
  write.client_id = 1;
  write.payload.resize(4);
  std::memcpy(write.payload.data(), &nop_word, 4);
  write.length = 4;
  MustParse(mc.Handle(write.Serialize()));
  ASSERT_TRUE(mc.session(1).has_private_text());

  const Reply r1 = MustParse(mc.Handle(SharedReq(entry, 1, /*seq=*/3).Serialize()));
  EXPECT_EQ(r1.type, MsgType::kChunkReply);
  EXPECT_FALSE(r1.payload.empty());
  EXPECT_NE(r1.payload, r0.payload);

  // Client 2 (pristine text) still coalesces against client 0's publication.
  const Reply r2 = MustParse(mc.Handle(SharedReq(entry, 2, /*seq=*/4).Serialize()));
  EXPECT_EQ(r2.type, MsgType::kChunkDigestReply);
}

// ---------------------------------------------------------------------------
// McServerLoop: the event-driven front end
// ---------------------------------------------------------------------------

TEST(ServerLoop, SingleThreadPassThroughPreservesReplyBytes) {
  McServerLoop loop(
      [](const McServerLoop::TicketInfo& ticket,
         const std::vector<uint8_t>& frame) {
        std::vector<uint8_t> reply = frame;
        reply.push_back(static_cast<uint8_t>(ticket.port));
        return reply;
      },
      nullptr, McServerLoopConfig{});
  const std::vector<uint8_t> frame = {1, 2, 3};
  EXPECT_EQ(loop.Submit(7, frame), (std::vector<uint8_t>{1, 2, 3, 7}));
  EXPECT_EQ(loop.stats().requests_enqueued, 1u);
  EXPECT_EQ(loop.stats().batches_drained, 1u);
  EXPECT_EQ(loop.stats().max_queue_depth, 1u);
}

TEST(ServerLoop, ConcurrentSubmittersOneAtATimeInCore) {
  // The handler asserts mutual exclusion by watching for overlapped entries;
  // every submitter must still get ITS OWN reply back.
  std::atomic<int> in_core{0};
  std::atomic<bool> overlapped{false};
  McServerLoop loop(
      [&](const McServerLoop::TicketInfo& ticket,
          const std::vector<uint8_t>& frame) {
        if (in_core.fetch_add(1) != 0) overlapped = true;
        std::vector<uint8_t> reply = frame;
        reply.push_back(static_cast<uint8_t>(ticket.port));
        in_core.fetch_sub(1);
        return reply;
      },
      nullptr, McServerLoopConfig{});
  constexpr int kThreads = 8;
  constexpr int kFramesEach = 200;
  std::atomic<int> wrong_replies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&loop, &wrong_replies, t] {
      for (int i = 0; i < kFramesEach; ++i) {
        const std::vector<uint8_t> frame = {static_cast<uint8_t>(t),
                                            static_cast<uint8_t>(i)};
        const auto reply = loop.Submit(static_cast<uint32_t>(t), frame);
        if (reply.size() != 3 || reply[0] != t || reply[1] != (i & 0xff) ||
            reply[2] != t) {
          ++wrong_replies;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(wrong_replies.load(), 0);
  EXPECT_EQ(loop.stats().requests_enqueued,
            static_cast<uint64_t>(kThreads * kFramesEach));
  // Batch drains can only merge tickets, never lose them.
  EXPECT_LE(loop.stats().batches_drained, loop.stats().requests_enqueued);
  EXPECT_GE(loop.stats().max_queue_depth, 1u);
}

TEST(ServerLoop, BoundedQueueDefersInsteadOfGrowing) {
  // A deliberately slow handler and 8 hot submitters against a 2-deep
  // queue: the bound must hold (depth never exceeds it), every deferred
  // submitter must eventually get its own reply, and deferral must
  // actually engage under this much pressure.
  McServerLoop loop(
      [](const McServerLoop::TicketInfo& ticket,
         const std::vector<uint8_t>& frame) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::vector<uint8_t> reply = frame;
        reply.push_back(static_cast<uint8_t>(ticket.port));
        return reply;
      },
      nullptr, McServerLoopConfig{1, /*max_queue=*/2});
  constexpr int kThreads = 8;
  constexpr int kFramesEach = 50;
  std::atomic<int> wrong_replies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&loop, &wrong_replies, t] {
      for (int i = 0; i < kFramesEach; ++i) {
        const std::vector<uint8_t> frame = {static_cast<uint8_t>(t),
                                            static_cast<uint8_t>(i)};
        const auto reply = loop.Submit(static_cast<uint32_t>(t), frame);
        if (reply.size() != 3 || reply[0] != t || reply[1] != (i & 0xff) ||
            reply[2] != t) {
          ++wrong_replies;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong_replies.load(), 0);
  EXPECT_EQ(loop.stats().requests_enqueued,
            static_cast<uint64_t>(kThreads * kFramesEach));
  EXPECT_LE(loop.stats().max_queue_depth, 2u);
  EXPECT_GT(loop.stats().requests_deferred, 0u);
}

TEST(ServerLoop, RunExclusiveSerializesAgainstFrames) {
  int handled = 0;
  McServerLoop loop(
      [&handled](const McServerLoop::TicketInfo&,
                 const std::vector<uint8_t>& frame) {
        ++handled;
        return frame;
      },
      nullptr, McServerLoopConfig{});
  bool ran = false;
  loop.RunExclusive([&ran] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.stats().exclusive_sections, 1u);
  loop.Submit(0, {1});
  EXPECT_EQ(handled, 1);
}

// ---------------------------------------------------------------------------
// End to end: shared-reply fleets stay bit-identical and cheaper on the wire
// ---------------------------------------------------------------------------

struct SoloBaseline {
  vm::RunResult result;
  std::string output;
};

SoloBaseline RunSolo(const image::Image& img,
                     const softcache::SoftCacheConfig& config) {
  softcache::SoftCacheSystem solo(img, config);
  SoloBaseline base;
  base.result = solo.Run();
  base.output = solo.OutputString();
  return base;
}

uint64_t FleetWireBytes(softcache::MultiClientSystem& fleet, uint32_t clients) {
  uint64_t bytes = 0;
  for (uint32_t i = 0; i < clients; ++i) {
    bytes += fleet.channel(i).stats().total_bytes();
  }
  return bytes;
}

TEST(SharedReplyFleet, BitIdenticalToSoloAndCheaperThanUnsharedFleet) {
  const image::Image img = LoopImage();
  constexpr uint32_t kClients = 4;

  softcache::MultiClientConfig base;
  base.clients = kClients;
  base.base.tcache_bytes = 8 * 1024;

  // Reference: the seed-style fleet, no coalescing.
  softcache::MultiClientSystem plain(img, base);
  const auto plain_results = plain.RunAll();
  const uint64_t plain_wire = FleetWireBytes(plain, kClients);

  softcache::MultiClientConfig shared_cfg = base;
  shared_cfg.base.shared_reply = true;
  shared_cfg.server.shards = 2;
  softcache::MultiClientSystem fleet(img, shared_cfg);
  const auto results = fleet.RunAll();
  const SoloBaseline solo = RunSolo(img, base.base);

  for (uint32_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(results[i].reason, vm::StopReason::kHalted) << "client " << i;
    EXPECT_EQ(results[i].exit_code, solo.result.exit_code) << "client " << i;
    EXPECT_EQ(results[i].instructions, solo.result.instructions)
        << "client " << i;
    EXPECT_EQ(fleet.OutputString(i), solo.output) << "client " << i;
    // Same chunks installed; they just arrived by digest instead of body.
    EXPECT_EQ(results[i].exit_code, plain_results[i].exit_code);
    EXPECT_EQ(results[i].instructions, plain_results[i].instructions);
  }

  // The coalescing actually fired: later demanders rode digest frames backed
  // by their snoop stores, and the fleet's total wire cost dropped.
  const auto& server = fleet.mc().server().stats();
  EXPECT_GT(server.shared_requests, 0u);
  EXPECT_GT(server.digest_replies, 0u);
  EXPECT_GT(server.digest_bytes_saved, 0u);
  EXPECT_LT(FleetWireBytes(fleet, kClients), plain_wire);
  uint64_t digest_hits = 0;
  for (uint32_t i = 0; i < kClients; ++i) {
    digest_hits += fleet.cc(i).stats().shared.digest_hits;
    EXPECT_EQ(fleet.cc(i).stats().shared.digest_misses, 0u) << "client " << i;
  }
  EXPECT_EQ(digest_hits, server.digest_replies);
}

TEST(SharedReplyFleet, HostThreadedRunStaysSoloIdentical) {
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 4;
  config.base.tcache_bytes = 8 * 1024;
  config.base.shared_reply = true;
  config.host_threads = 4;

  softcache::MultiClientSystem fleet(img, config);
  const auto results = fleet.RunAll();
  const SoloBaseline solo = RunSolo(img, [&] {
    softcache::SoftCacheConfig c = config.base;
    c.shared_reply = false;  // solo reference is the seed configuration
    return c;
  }());

  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].reason, vm::StopReason::kHalted) << "client " << i;
    EXPECT_EQ(results[i].exit_code, solo.result.exit_code) << "client " << i;
    EXPECT_EQ(results[i].instructions, solo.result.instructions)
        << "client " << i;
    EXPECT_EQ(fleet.OutputString(i), solo.output) << "client " << i;
  }
  // The event loop saw every frame the switch routed.
  EXPECT_EQ(fleet.server_loop().stats().requests_enqueued,
            fleet.net_switch().frames_switched());
}

TEST(SharedReplyFleet, MetricsExposeLoopShardsAndSharedCounters) {
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 2;
  config.base.shared_reply = true;
  config.server.shards = 2;
  softcache::MultiClientSystem fleet(img, config);
  obs::MetricsRegistry registry;
  fleet.RegisterMetrics(&registry);
  fleet.RunAll();

  const auto snap = registry.TakeSnapshot();
  ASSERT_TRUE(snap.counters.count("mc.loop.requests_enqueued"));
  ASSERT_TRUE(snap.counters.count("mc.shared_requests"));
  ASSERT_TRUE(snap.counters.count("mc.digest_replies"));
  ASSERT_TRUE(snap.counters.count("mc.digest_bytes_saved"));
  ASSERT_TRUE(snap.counters.count("mc.translate_memo_evictions"));
  ASSERT_TRUE(snap.gauges.count("mc.shard0.memo_entries"));
  ASSERT_TRUE(snap.gauges.count("mc.shard1.memo_entries"));
  ASSERT_TRUE(snap.counters.count("c0.shared.snooped_chunks"));
  ASSERT_TRUE(snap.counters.count("c1.shared.digest_hits"));
  EXPECT_GT(snap.counters.at("mc.loop.requests_enqueued"), 0u);
  EXPECT_GT(snap.counters.at("mc.shared_requests"), 0u);
  // Every translate landed in exactly one shard.
  EXPECT_EQ(snap.gauges.at("mc.shard0.memo_entries") +
                snap.gauges.at("mc.shard1.memo_entries"),
            static_cast<double>(fleet.mc().server().memo_entries()));
}

}  // namespace
}  // namespace sc
