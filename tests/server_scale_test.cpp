// Server-parallelism tests: the per-shard slice ownership of the MC core,
// the event loop's shard lanes in front of it, and the knobs that shape
// both.
//
// Covers the shard routing edge cases (one shard, a shard count that does
// not divide the text range, a chunk straddling a shard boundary), the
// loop semantics (static lane ownership; bounded-lane deferral and the
// park-all exclusive barrier under both the submitter pump and the worker
// pool), the CLI-level validation of --shards/--workers combinations,
// digest-reply coalescing raced against a concurrent same-shard install (a
// TSan target: two handlers inside the core at once), and end-to-end bit
// identity — the round-robin fleet must produce identical guest results
// INCLUDING cycle counts no matter how many workers drain the lanes, crash
// schedules and all.
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
#include "vm/machine.h"

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
// CLI-level validation of the parallelism knobs
// ---------------------------------------------------------------------------

TEST(ValidateParallelism, AcceptsAndRejectsTheBoundaries) {
  std::string error;
  // Happy paths, including workers == shards.
  EXPECT_TRUE(softcache::ValidateServerParallelism(1, 0, 1, &error));
  EXPECT_TRUE(softcache::ValidateServerParallelism(4, 4, 2, &error));
  EXPECT_TRUE(softcache::ValidateServerParallelism(4096, 8, 64, &error));

  // Zero-value boundaries are hard errors, never silent clamps.
  EXPECT_FALSE(softcache::ValidateServerParallelism(0, 0, 1, &error));
  EXPECT_NE(error.find("shards"), std::string::npos);
  EXPECT_FALSE(softcache::ValidateServerParallelism(4097, 0, 1, &error));

  // workers > shards: extra workers would never own a lane.
  EXPECT_FALSE(softcache::ValidateServerParallelism(2, 3, 4, &error));
  EXPECT_NE(error.find("workers"), std::string::npos);
  EXPECT_FALSE(softcache::ValidateServerParallelism(4, -1, 4, &error));

  // A worker pool needs a fleet: solo runs bypass the loop entirely.
  EXPECT_FALSE(softcache::ValidateServerParallelism(4, 2, 1, &error));
  EXPECT_NE(error.find("clients"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Loop semantics (test-double handler, no MC underneath)
// ---------------------------------------------------------------------------

// Echo handler: reply = [port, frame...]; lets every assertion check that a
// ticket's reply came from ITS OWN frame, whatever thread serviced it.
std::vector<uint8_t> Echo(const McServerLoop::TicketInfo& ticket,
                          const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> reply(frame.size() + 1);
  reply[0] = static_cast<uint8_t>(ticket.port);
  std::copy(frame.begin(), frame.end(), reply.begin() + 1);
  return reply;
}

TEST(WorkerPool, StaticLaneOwnershipServicesEveryFrame) {
  // 3 lanes, 2 workers: worker 0 owns lanes {0, 2}, worker 1 owns {1} — a
  // deliberately non-dividing split. Route by the first frame byte.
  McServerLoop loop(
      Echo,
      [](uint32_t, const std::vector<uint8_t>& frame) {
        return static_cast<uint32_t>(frame[0]);
      },
      McServerLoopConfig{3, 2, 0});
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kFrames = 64;
  std::vector<std::thread> clients;
  std::atomic<uint32_t> wrong{0};
  for (uint32_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&loop, &wrong, t] {
      for (uint32_t i = 0; i < kFrames; ++i) {
        const std::vector<uint8_t> frame = {static_cast<uint8_t>(i % 3),
                                            static_cast<uint8_t>(t),
                                            static_cast<uint8_t>(i)};
        const std::vector<uint8_t> reply = loop.Submit(t, frame);
        if (reply.size() != 4 || reply[0] != t || reply[1] != frame[0] ||
            reply[2] != t || reply[3] != static_cast<uint8_t>(i)) {
          ++wrong;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(loop.stats().requests_enqueued, kThreads * kFrames);
  // Every serviced frame is attributed to exactly one pool worker.
  uint64_t worker_frames = 0;
  for (const auto& w : loop.worker_stats()) worker_frames += w.frames;
  EXPECT_EQ(worker_frames, kThreads * kFrames);
  EXPECT_GE(loop.stats().batches_drained, 1u);
}

// The lane-service proofs below run once per way a lane gets claimed: by
// the submitter that finds it unclaimed (workers = 0, "pump") and by the
// pool worker that owns it (one worker per lane, "pool").
class LaneService : public ::testing::TestWithParam<bool> {
 protected:
  uint32_t Workers(uint32_t lanes) const { return GetParam() ? lanes : 0; }
};

INSTANTIATE_TEST_SUITE_P(PumpAndPool, LaneService, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "pool" : "pump";
                         });

TEST_P(LaneService, BoundedLaneDefersTheOverflowingSubmitter) {
  // One lane bounded at 1 ticket. The handler parks until all three
  // submitters have arrived, so the queue admission order is forced: one
  // ticket in service, one queued (at the bound), one deferred.
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
      nullptr, McServerLoopConfig{1, Workers(1), 1});
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

TEST_P(LaneService, ParkAllExclusiveWaitsOutInFlightHandlers) {
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
      McServerLoopConfig{2, Workers(2), 0});
  // Two tickets in flight on two lanes, both parked inside the handler:
  // each pumped by its own submitter, or each held by its lane's worker.
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

  // The lanes resume after the exclusive: a fresh ticket still completes.
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
  EXPECT_EQ(mc.server().shard_memo_entries(0), 8u);
  EXPECT_GE(stats.digest_replies, 1u);
  EXPECT_EQ(stats.translates + stats.translate_memo_hits, 2 * kRounds);
}

// ---------------------------------------------------------------------------
// End-to-end bit identity across worker counts
// ---------------------------------------------------------------------------

struct FleetStory {
  std::vector<std::string> outputs;
  std::vector<uint64_t> cycles;
  std::vector<uint64_t> instructions;
  uint64_t translates = 0;
};

FleetStory RunFleetStory(const image::Image& img, uint32_t shards,
                         uint32_t workers, uint64_t crash_period = 0) {
  softcache::MultiClientConfig config;
  config.clients = 4;
  config.base.style = softcache::Style::kSparc;
  config.base.tcache_bytes = 8 * 1024;
  config.server.shards = shards;
  config.server.workers = workers;
  if (crash_period != 0) {
    config.base.fault.seed = 11;
    config.base.fault.crash_period = crash_period;
  }
  softcache::MultiClientSystem fleet(img, config);
  const auto results = fleet.RunAll(200'000'000ull);
  FleetStory story;
  for (uint32_t i = 0; i < config.clients; ++i) {
    SC_CHECK(results[i].reason == vm::StopReason::kHalted)
        << "client " << i << ": " << results[i].fault_message;
    story.outputs.push_back(fleet.OutputString(i));
    story.cycles.push_back(results[i].cycles);
    story.instructions.push_back(results[i].instructions);
  }
  story.translates = fleet.mc().server().stats().translates;
  return story;
}

TEST(WorkerFleetIdentity, RoundRobinIsBitIdenticalAcrossWorkerCounts) {
  const image::Image img = LoopImage();
  // The round-robin scheduler keeps ONE frame in flight fleet-wide, so the
  // worker pool may change nothing at all — cycles included.
  const FleetStory w0 = RunFleetStory(img, 2, 0);
  const FleetStory w1 = RunFleetStory(img, 2, 1);
  const FleetStory w2 = RunFleetStory(img, 2, 2);
  EXPECT_EQ(w0.outputs, w1.outputs);
  EXPECT_EQ(w0.outputs, w2.outputs);
  EXPECT_EQ(w0.cycles, w1.cycles);
  EXPECT_EQ(w0.cycles, w2.cycles);
  EXPECT_EQ(w0.instructions, w2.instructions);
  EXPECT_EQ(w0.translates, w2.translates);
}

TEST(WorkerFleetIdentity, CrashRestartsAreIdenticalUnderWorkers) {
  const image::Image img = LoopImage();
  // Server crash schedules restart sessions through the loop's park-all
  // exclusive section; a worker pool must not change what the guest sees.
  const FleetStory w0 = RunFleetStory(img, 2, 0, /*crash_period=*/3000);
  const FleetStory w2 = RunFleetStory(img, 2, 2, /*crash_period=*/3000);
  EXPECT_EQ(w0.outputs, w2.outputs);
  EXPECT_EQ(w0.cycles, w2.cycles);
  EXPECT_EQ(w0.instructions, w2.instructions);
}

}  // namespace
}  // namespace sc
