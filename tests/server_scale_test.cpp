// Server-parallelism tests: the per-shard slice ownership of the MC core,
// the event loop's shard lanes in front of it, and the knobs that shape
// both.
//
// Covers the shard routing edge cases (one shard, a shard count that does
// not divide the text range, a chunk straddling a shard boundary), the
// loop's lane semantics (each frame served on its submitter's thread,
// bounded-lane deferral and the park-all exclusive barrier), the CLI-level validation of --shards, and
// digest-reply coalescing raced against a concurrent same-shard install (a
// TSan target: two handlers inside the core at once).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "minicc/compiler.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/server_loop.h"
#include "softcache/system.h"

namespace sc {
namespace {

using softcache::McServerConfig;
using softcache::McServerLoop;
using softcache::McServerLoopConfig;
using softcache::MemoryController;
using softcache::MsgType;
using softcache::Reply;
using softcache::Request;

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

Request ChunkReq(uint32_t addr, uint32_t client_id, uint32_t seq = 1) {
  Request req;
  req.type = MsgType::kChunkRequest;
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
// Shard routing edge cases
// ---------------------------------------------------------------------------

TEST(ShardRouting, OneShardMapsEveryAddressToZero) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const auto& server = mc.server();
  EXPECT_EQ(server.shards(), 1u);
  for (uint32_t addr : {0u, img.text_base, img.text_base + 4,
                        img.text_end() - 4, img.text_end(), 0xffffffffu}) {
    EXPECT_EQ(server.ShardFor(addr), 0u) << "addr " << addr;
  }
}

TEST(ShardRouting, NonDividingShardCountCoversWholeTextRange) {
  const image::Image img = LoopImage();
  McServerConfig config;
  config.shards = 3;  // never divides a word-aligned text span evenly
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, config);
  const auto& server = mc.server();
  uint32_t prev = 0;
  for (uint32_t addr = img.text_base; addr < img.text_end(); addr += 4) {
    const uint32_t shard = server.ShardFor(addr);
    ASSERT_LT(shard, 3u) << "addr " << addr << " routed out of range";
    ASSERT_GE(shard, prev) << "shard map not monotone at " << addr;
    prev = shard;
  }
  // The slices are contiguous and all non-empty for this text size: the
  // last in-range address must land in the last shard.
  EXPECT_EQ(server.ShardFor(img.text_end() - 4), 2u);
  // Outside the text range (including the one-past-the-end boundary)
  // everything folds into shard 0 — garbage frames get a stable home.
  EXPECT_EQ(server.ShardFor(img.text_end()), 0u);
  EXPECT_EQ(server.ShardFor(img.text_base - 4), 0u);
}

TEST(ShardRouting, InvalidateRangeStraddlingShardBoundaryDropsBothSlices) {
  const image::Image img = LoopImage();
  McServerConfig config;
  config.shards = 2;
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, config);
  auto& server = mc.server();
  // The first address owned by shard 1 is the boundary; memoize one chunk
  // ending just below it and one starting at it.
  uint32_t boundary = img.text_base;
  while (server.ShardFor(boundary) == 0) boundary += 4;
  ASSERT_EQ(server.ShardFor(boundary - 4), 0u);
  ASSERT_EQ(server.ShardFor(boundary), 1u);
  ASSERT_TRUE(server.CutShared(boundary - 4).ok());
  ASSERT_TRUE(server.CutShared(boundary).ok());
  ASSERT_GE(server.shard_memo_entries(0), 1u);
  ASSERT_GE(server.shard_memo_entries(1), 1u);

  // A write range straddling the boundary overlaps memoized chunks in BOTH
  // slices; the scan must cross the boundary and drop each side's entry.
  server.InvalidateMemoRange(boundary - 4, 8);
  EXPECT_EQ(server.shard_memo_entries(0), 0u);
  EXPECT_EQ(server.shard_memo_entries(1), 0u);
  EXPECT_GE(server.stats().memo_invalidations, 2u);
}

// ---------------------------------------------------------------------------
// CLI-level validation of the shard count
// ---------------------------------------------------------------------------

TEST(ValidateParallelism, AcceptsAndRejectsTheBoundaries) {
  std::string error;
  EXPECT_TRUE(softcache::ValidateShardCount(1, &error));
  EXPECT_TRUE(softcache::ValidateShardCount(4, &error));
  EXPECT_TRUE(softcache::ValidateShardCount(4096, &error));

  // Out-of-range shard counts are hard errors, never silent clamps.
  EXPECT_FALSE(softcache::ValidateShardCount(0, &error));
  EXPECT_NE(error.find("shards"), std::string::npos);
  EXPECT_FALSE(softcache::ValidateShardCount(-1, &error));
  EXPECT_FALSE(softcache::ValidateShardCount(4097, &error));
  EXPECT_NE(error.find("4096"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Loop semantics (test-double handler, no MC underneath)
// ---------------------------------------------------------------------------

// Echo handler: reply = [port, frame...]; lets every assertion check that a
// submitter's reply came from ITS OWN frame.
std::vector<uint8_t> Echo(const McServerLoop::TicketInfo& ticket,
                          const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> reply(frame.size() + 1);
  reply[0] = static_cast<uint8_t>(ticket.port);
  std::copy(frame.begin(), frame.end(), reply.begin() + 1);
  return reply;
}

// The submitter id of the calling thread, set by the test's client threads.
thread_local uint32_t submitter_id = 0;

TEST(LaneService, EverySubmitterServesItsOwnFrame) {
  // Eight submitters crowd one lane with a slow handler, so most frames
  // arrive while the lane is claimed. Each must still be handled on the
  // thread that submitted it: no thread serves another's frame.
  std::atomic<uint32_t> foreign{0};
  McServerLoop loop(
      [&foreign](const McServerLoop::TicketInfo& ticket,
                 const std::vector<uint8_t>& frame) {
        if (ticket.port != submitter_id) ++foreign;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return Echo(ticket, frame);
      },
      nullptr, McServerLoopConfig{});
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kFramesEach = 50;
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&loop, t] {
      submitter_id = t;
      for (uint32_t i = 0; i < kFramesEach; ++i) {
        const std::vector<uint8_t> reply =
            loop.Submit(t, {static_cast<uint8_t>(i)});
        EXPECT_EQ(reply, (std::vector<uint8_t>{static_cast<uint8_t>(t),
                                               static_cast<uint8_t>(i)}));
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(foreign.load(), 0u);
  EXPECT_EQ(loop.stats().requests_enqueued, kThreads * kFramesEach);
  EXPECT_EQ(loop.stats().batches_drained, kThreads * kFramesEach);
}

TEST(LaneService, BoundedLaneDefersTheOverflowingSubmitter) {
  // One lane bounded at 1 waiter. The handler parks until all three
  // submitters have arrived, so the admission order is forced: one frame
  // in service, one waiting (at the bound), one deferred.
  // `arrived` counts submitters about to call Submit, not ones inside it,
  // so the handler also gives a preempted submitter time to reach the lane
  // (without the grace period this failed under a loaded ctest -j4).
  std::atomic<uint32_t> arrived{0};
  McServerLoop loop(
      [&arrived](const McServerLoop::TicketInfo& ticket,
                 const std::vector<uint8_t>& frame) {
        while (arrived.load() < 3) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Echo(ticket, frame);
      },
      nullptr, McServerLoopConfig{1, /*max_queue=*/1});
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      ++arrived;
      const std::vector<uint8_t> reply = loop.Submit(t, {7});
      EXPECT_EQ(reply.size(), 2u);
      EXPECT_EQ(reply[0], t);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(loop.stats().requests_enqueued, 3u);
  EXPECT_EQ(loop.stats().max_queue_depth, 1u);  // the bound held
  EXPECT_GE(loop.stats().requests_deferred, 1u);
}

TEST(LaneService, ParkAllExclusiveWaitsOutInFlightHandlers) {
  std::atomic<uint32_t> in_flight{0};
  std::atomic<bool> gate{false};
  McServerLoop loop(
      [&](const McServerLoop::TicketInfo& ticket,
          const std::vector<uint8_t>& frame) {
        ++in_flight;
        while (!gate.load()) std::this_thread::yield();
        --in_flight;
        return Echo(ticket, frame);
      },
      [](uint32_t, const std::vector<uint8_t>& frame) {
        return static_cast<uint32_t>(frame[0]);
      },
      McServerLoopConfig{/*lanes=*/2});
  // Two frames in flight on two lanes, both parked inside the handler,
  // each on its own submitter's thread.
  std::thread c0([&loop] { loop.Submit(0, {0}); });
  std::thread c1([&loop] { loop.Submit(1, {1}); });
  while (in_flight.load() < 2) std::this_thread::yield();

  std::atomic<bool> ran{false};
  std::atomic<uint32_t> observed{99};
  std::thread excl([&] {
    loop.RunExclusive([&] {
      observed = in_flight.load();  // must be 0: the barrier drained first
      ran = true;
    });
  });
  // The exclusive section must NOT start while handlers are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
  gate = true;  // drain the handlers; the barrier then admits the exclusive
  excl.join();
  c0.join();
  c1.join();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(observed.load(), 0u);
  EXPECT_EQ(loop.stats().exclusive_sections, 1u);

  // The lanes resume after the exclusive: a fresh frame still completes.
  const std::vector<uint8_t> reply = loop.Submit(5, {0});
  EXPECT_EQ(reply[0], 5u);
}

// ---------------------------------------------------------------------------
// Digest reply raced against a concurrent same-shard install (TSan target)
// ---------------------------------------------------------------------------

TEST(SharedReplyRace, ConcurrentSameShardDemandsStayCoherent) {
  const image::Image img = LoopImage();
  McServerConfig config;
  config.shards = 1;  // force every demand into ONE slice
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, config);

  // Two clients demand the same chunk sequence concurrently, straight into
  // the endpoint (the un-switched surface is the documented thread-safe
  // path): every CutShared races on the single shard's lock and every
  // publish/lookup races on the digest window. TSan verifies the ownership
  // map; the assertions verify the protocol stays coherent — a digest
  // reply may only ever follow a published body.
  constexpr uint32_t kRounds = 50;
  std::atomic<uint32_t> bad{0};
  auto client = [&](uint32_t id) {
    for (uint32_t r = 0; r < kRounds; ++r) {
      const uint32_t addr = img.entry + (r % 8) * 4;
      Request req = ChunkReq(addr, id, r + 1);
      req.type = MsgType::kChunkSharedRequest;
      const Reply reply = MustParse(mc.Handle(req.Serialize()));
      if (reply.type == MsgType::kChunkDigestReply) {
        // Payload-less coalesced reply (aux/extra = digest lo/hi): the body
        // must already have crossed the wire, i.e. its digest is published.
        const uint64_t digest = static_cast<uint64_t>(reply.aux) |
                                (static_cast<uint64_t>(reply.extra) << 32);
        if (reply.payload.empty() == false ||
            !mc.server().DigestPublished(digest)) {
          ++bad;
        }
      } else if (reply.type != MsgType::kChunkReply &&
                 reply.type != MsgType::kChunkBatchReply) {
        ++bad;
      }
    }
  };
  std::thread a(client, 1);
  std::thread b(client, 2);
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0u);
  const auto& stats = mc.server().stats();
  // Every demand was served, each distinct chunk cut exactly once
  // fleet-wide, and at least one reply coalesced to a digest.
  EXPECT_EQ(stats.shared_requests, 2 * kRounds);
  // Each frame counted once, by the session it arrived on.
  EXPECT_EQ(stats.requests_served, 2 * kRounds);
  EXPECT_EQ(mc.session(1).stats().requests, kRounds);
  EXPECT_EQ(mc.session(2).stats().requests, kRounds);
  EXPECT_EQ(mc.server().shard_memo_entries(0), 8u);
  EXPECT_GE(stats.digest_replies, 1u);
  EXPECT_EQ(stats.translates + stats.translate_memo_hits, 2 * kRounds);
}

}  // namespace
}  // namespace sc
