// Transport and reliability-layer tests: deterministic fault injection,
// retry/timeout/backoff behaviour, strict seq matching, the MC's idempotent
// replay cache, and end-to-end equivalence of every workload over a lossy
// link (the repo's central equivalence property, now under datagram
// semantics).
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dcache/dcache.h"
#include "minicc/compiler.h"
#include "net/transport.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/reliable.h"
#include "softcache/system.h"
#include "tests/testing.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using softcache::LinkStats;
using softcache::MemoryController;
using softcache::MsgType;
using softcache::ReliableLink;
using softcache::Reply;
using softcache::Request;
using testing::McDataByte;
using softcache::RetryConfig;

image::Image TestImage() {
  auto img = minicc::CompileMiniC(R"(
    int f(int x) { return x * 2 + 1; }
    int main() { return f(20); }
  )");
  SC_CHECK(img.ok());
  return std::move(*img);
}

// ---------------------------------------------------------------------------
// Transport unit tests
// ---------------------------------------------------------------------------

TEST(Transport, LoopbackPreservesChannelAccounting) {
  net::Channel channel;
  net::LoopbackTransport transport(
      channel, [](const std::vector<uint8_t>& frame) {
        std::vector<uint8_t> reply(frame);
        reply.push_back(0xee);
        return reply;
      });
  const std::vector<uint8_t> frame(24, 0xab);
  const uint64_t send_cycles = transport.Send(frame);
  EXPECT_EQ(send_cycles, channel.CyclesFor(24));
  EXPECT_EQ(channel.stats().messages_to_server, 1u);
  EXPECT_EQ(channel.stats().bytes_to_server, 24u);

  std::vector<uint8_t> reply;
  uint64_t recv_cycles = 0;
  ASSERT_TRUE(transport.Recv(&reply, &recv_cycles));
  EXPECT_EQ(reply.size(), 25u);
  EXPECT_EQ(recv_cycles, channel.CyclesFor(25));
  EXPECT_EQ(channel.stats().messages_to_client, 1u);
  // Exactly-once: nothing else pending.
  EXPECT_FALSE(transport.Recv(&reply, &recv_cycles));
}

TEST(Transport, FaultyTransportIsDeterministicPerSeed) {
  const auto run = [](uint64_t seed) {
    net::Channel channel;
    net::FaultConfig fault;
    fault.seed = seed;
    fault.drop = 0.2;
    fault.corrupt = 0.2;
    fault.duplicate = 0.2;
    fault.delay = 0.2;
    net::FaultyTransport transport(
        channel, [](const std::vector<uint8_t>& frame) { return frame; },
        fault);
    std::vector<std::vector<uint8_t>> delivered;
    std::vector<uint8_t> frame(32);
    for (int i = 0; i < 500; ++i) {
      frame[0] = static_cast<uint8_t>(i);
      transport.Send(frame);
      std::vector<uint8_t> out;
      uint64_t cycles = 0;
      while (transport.Recv(&out, &cycles)) delivered.push_back(out);
    }
    return std::make_pair(delivered, transport.stats());
  };
  const auto [delivered_a, stats_a] = run(99);
  const auto [delivered_b, stats_b] = run(99);
  EXPECT_EQ(delivered_a, delivered_b);
  EXPECT_EQ(stats_a.frames_dropped, stats_b.frames_dropped);
  EXPECT_EQ(stats_a.frames_corrupted, stats_b.frames_corrupted);
  EXPECT_EQ(stats_a.frames_duplicated, stats_b.frames_duplicated);
  EXPECT_EQ(stats_a.frames_delayed, stats_b.frames_delayed);
  // Every fault class actually fired at these rates.
  EXPECT_GT(stats_a.frames_dropped, 0u);
  EXPECT_GT(stats_a.frames_corrupted, 0u);
  EXPECT_GT(stats_a.frames_duplicated, 0u);
  EXPECT_GT(stats_a.frames_delayed, 0u);
  // A different seed produces a different fault pattern.
  const auto [delivered_c, stats_c] = run(100);
  EXPECT_NE(delivered_a, delivered_c);
}

// ---------------------------------------------------------------------------
// ReliableLink behaviour
// ---------------------------------------------------------------------------

// A transport the test scripts directly: `on_send` decides what lands in
// the inbox for each transmitted frame.
class ScriptedTransport : public net::Transport {
 public:
  using SendHook =
      std::function<void(const std::vector<uint8_t>&,
                         std::deque<std::vector<uint8_t>>*)>;
  explicit ScriptedTransport(SendHook on_send) : on_send_(std::move(on_send)) {}

  uint64_t Send(const std::vector<uint8_t>& frame) override {
    ++stats_.frames_sent;
    on_send_(frame, &inbox_);
    return 0;
  }
  bool Recv(std::vector<uint8_t>* frame, uint64_t* cycles) override {
    if (inbox_.empty()) return false;
    *frame = std::move(inbox_.front());
    inbox_.pop_front();
    *cycles = 0;
    ++stats_.frames_delivered;
    return true;
  }
  const net::TransportStats& stats() const override { return stats_; }

 private:
  SendHook on_send_;
  std::deque<std::vector<uint8_t>> inbox_;
  net::TransportStats stats_;
};

Request ChunkRequest(uint32_t seq, uint32_t addr) {
  Request request;
  request.type = MsgType::kChunkRequest;
  request.seq = seq;
  request.addr = addr;
  return request;
}

TEST(ReliableLink, RecoversThroughHeavyFaults) {
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Channel channel;
  net::FaultConfig fault;
  fault.seed = 1;
  fault.drop = 0.2;
  fault.corrupt = 0.2;
  fault.duplicate = 0.2;
  LinkStats stats;
  ReliableLink link(softcache::MakeTransport(
                        [&mc](const auto& frame) { return mc.Handle(frame); },
                        channel, fault, [&mc] { mc.Restart(); }),
                    {}, &stats);
  for (uint32_t seq = 1; seq <= 200; ++seq) {
    uint64_t cycles = 0;
    auto reply = link.Call(ChunkRequest(seq, img.entry), &cycles);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    EXPECT_EQ(reply->seq, seq);
    EXPECT_EQ(reply->type, MsgType::kChunkReply);
    EXPECT_GT(cycles, 0u);
  }
  EXPECT_EQ(stats.requests, 200u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.timeouts, 0u);
  EXPECT_GT(stats.corrupt_frames, 0u);
  EXPECT_GT(stats.stale_replies, 0u);
  EXPECT_EQ(stats.giveups, 0u);
}

TEST(ReliableLink, DiscardsMismatchedSeqReplies) {
  // The transport answers every send with a stale reply (wrong seq) first
  // and the genuine one second; the link must skip the impostor.
  auto transport = std::make_unique<ScriptedTransport>(
      [](const std::vector<uint8_t>& frame,
         std::deque<std::vector<uint8_t>>* inbox) {
        auto request = Request::Parse(frame);
        SC_CHECK(request.ok());
        Reply stale;
        stale.type = MsgType::kChunkReply;
        stale.seq = request->seq + 17;
        inbox->push_back(stale.Serialize());
        Reply genuine;
        genuine.type = MsgType::kChunkReply;
        genuine.seq = request->seq;
        genuine.addr = request->addr;
        inbox->push_back(genuine.Serialize());
      });
  LinkStats stats;
  ReliableLink link(std::move(transport), {}, &stats);
  uint64_t cycles = 0;
  auto reply = link.Call(ChunkRequest(5, 0x1000), &cycles);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->seq, 5u);
  EXPECT_EQ(reply->addr, 0x1000u);
  EXPECT_EQ(stats.stale_replies, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(ReliableLink, GivesUpAfterBoundedBackoff) {
  // A black-hole transport: every frame vanishes. The link must back off
  // exponentially and give up after exactly max_attempts sends.
  auto transport = std::make_unique<ScriptedTransport>(
      [](const std::vector<uint8_t>&, std::deque<std::vector<uint8_t>>*) {});
  ScriptedTransport* raw = transport.get();
  RetryConfig retry;
  retry.timeout_cycles = 10;
  retry.max_timeout_cycles = 1000;
  retry.max_attempts = 4;
  LinkStats stats;
  ReliableLink link(std::move(transport), retry, &stats);
  uint64_t cycles = 0;
  auto reply = link.Call(ChunkRequest(1, 0x1000), &cycles);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(raw->stats().frames_sent, 4u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.timeouts, 4u);
  EXPECT_EQ(stats.giveups, 1u);
  // Backoff waits: 10 + 20 + 40 + 80 cycles (transport itself is free).
  EXPECT_EQ(cycles, 150u);
}

TEST(ReliableLink, DeadlineCapsStallUnderTotalLoss) {
  // Same black hole, but a per-op cycle deadline: the link must stop as
  // soon as the charged cycles cross the deadline, long before the attempt
  // budget runs out, and say so in the error.
  auto transport = std::make_unique<ScriptedTransport>(
      [](const std::vector<uint8_t>&, std::deque<std::vector<uint8_t>>*) {});
  ScriptedTransport* raw = transport.get();
  RetryConfig retry;
  retry.timeout_cycles = 10;
  retry.max_timeout_cycles = 1000;
  retry.max_attempts = 1000;
  retry.attempt_deadline_cycles = 100;
  LinkStats stats;
  ReliableLink link(std::move(transport), retry, &stats);
  uint64_t cycles = 0;
  auto reply = link.Call(ChunkRequest(1, 0x1000), &cycles);
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.error().message.find("deadline"), std::string::npos)
      << reply.error().message;
  EXPECT_EQ(stats.giveups, 1u);
  // Waits 10 + 20 + 40 + 80 = 150: the first total at/past the deadline.
  EXPECT_EQ(cycles, 150u);
  EXPECT_EQ(raw->stats().frames_sent, 4u);
}

TEST(ReliableLink, JitterDecorrelatesBackoffButStaysSeeded) {
  auto make_link = [](uint64_t seed, double jitter, LinkStats* stats,
                      uint64_t* cycles) {
    auto transport = std::make_unique<ScriptedTransport>(
        [](const std::vector<uint8_t>&,
           std::deque<std::vector<uint8_t>>*) {});
    RetryConfig retry;
    retry.timeout_cycles = 1000;
    retry.max_timeout_cycles = 100000;
    retry.max_attempts = 6;
    retry.backoff_jitter = jitter;
    retry.jitter_seed = seed;
    ReliableLink link(std::move(transport), retry, stats);
    auto reply = link.Call(ChunkRequest(1, 0x1000), cycles);
    EXPECT_FALSE(reply.ok());
  };
  // jitter = 0 reproduces the exact historical doubling.
  LinkStats s0;
  uint64_t base = 0;
  make_link(1, 0.0, &s0, &base);
  EXPECT_EQ(base, 1000u + 2000 + 4000 + 8000 + 16000 + 32000);
  // Same seed, same jittered schedule; different seed, different schedule.
  LinkStats s1, s2, s3;
  uint64_t a = 0, b = 0, c = 0;
  make_link(7, 0.5, &s1, &a);
  make_link(7, 0.5, &s2, &b);
  make_link(8, 0.5, &s3, &c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Every jittered total stays inside the [0.5x, 1.5x) envelope.
  EXPECT_GE(a, base / 2);
  EXPECT_LT(a, base + base / 2);
  EXPECT_GE(c, base / 2);
  EXPECT_LT(c, base + base / 2);
}

TEST(ReliableLink, TotalLossDegradesToCleanFailEndToEnd) {
  // 100% frame loss: the guest cannot make progress past its first miss,
  // and the run must degrade to a clean Fail (a fault with the transport's
  // giveup message), not a hang or a crash.
  const image::Image img = TestImage();
  softcache::SoftCacheConfig config;
  config.fault.seed = 3;
  config.fault.drop = 1.0;
  config.retry.timeout_cycles = 10;
  config.retry.max_timeout_cycles = 1000;
  config.retry.max_attempts = 8;
  config.retry.attempt_deadline_cycles = 500;
  softcache::SoftCacheSystem system(img, config);
  const vm::RunResult result = system.Run(1'000'000);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_NE(result.fault_message.find("transport:"), std::string::npos)
      << result.fault_message;
  EXPECT_GT(system.stats().net.giveups, 0u);
}

// ---------------------------------------------------------------------------
// MC replay cache (write idempotency)
// ---------------------------------------------------------------------------

TEST(McReplayCache, SuppressesRetransmittedWrites) {
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);

  Request write;
  write.type = MsgType::kDataWriteback;
  write.seq = 500;
  write.addr = img.data_base;
  write.length = 4;
  write.payload = {0xde, 0xad, 0xbe, 0xef};
  const auto frame = write.Serialize();

  const auto first = mc.Handle(frame);
  EXPECT_EQ(mc.server().stats().replays_suppressed, 0u);
  auto first_reply = Reply::Parse(first);
  ASSERT_TRUE(first_reply.ok());
  EXPECT_EQ(first_reply->type, MsgType::kWritebackAck);

  // The identical retransmitted frame is answered from cache, bit for bit.
  const auto second = mc.Handle(frame);
  EXPECT_EQ(mc.server().stats().replays_suppressed, 1u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(McDataByte(mc, img.data_base), 0xde);

  // A *different* write with a fresh seq is applied normally.
  Request next = write;
  next.seq = 501;
  next.payload = {0x01, 0x02, 0x03, 0x04};
  auto reply = Reply::Parse(mc.Handle(next.Serialize()));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kWritebackAck);
  EXPECT_EQ(mc.server().stats().replays_suppressed, 1u);
  EXPECT_EQ(McDataByte(mc, img.data_base), 0x01);
}

TEST(McReplayCache, DistinguishesPayloadsUnderSameSeq) {
  // Same (type, seq, addr) but different payload must NOT replay — it is a
  // different write (a buggy or hostile client, not a retransmission).
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  Request write;
  write.type = MsgType::kDataWriteback;
  write.seq = 7;
  write.addr = img.data_base;
  write.length = 4;
  write.payload = {1, 1, 1, 1};
  (void)mc.Handle(write.Serialize());
  write.payload = {2, 2, 2, 2};
  (void)mc.Handle(write.Serialize());
  EXPECT_EQ(mc.server().stats().replays_suppressed, 0u);
  EXPECT_EQ(McDataByte(mc, img.data_base), 2);
}

// ---------------------------------------------------------------------------
// End-to-end: every workload over a lossy link
// ---------------------------------------------------------------------------

class FaultedWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultedWorkloadTest, CompletesIdenticallyUnderFaults) {
  const auto* spec = workloads::FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput(spec->name, 1);

  vm::Machine native;
  native.LoadImage(img);
  native.SetInput(input);
  const vm::RunResult native_result = native.Run(4'000'000'000ull);
  ASSERT_EQ(native_result.reason, vm::StopReason::kHalted);

  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 64 * 1024;
  config.fault.seed = 1234;
  config.fault.drop = 0.1;
  config.fault.corrupt = 0.1;
  config.fault.duplicate = 0.1;
  softcache::SoftCacheSystem system(img, config);
  system.SetInput(input);
  const vm::RunResult cached = system.Run(8'000'000'000ull);
  ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
  EXPECT_EQ(cached.exit_code, native_result.exit_code);
  EXPECT_EQ(system.OutputString(), native.OutputString());
  EXPECT_GT(system.stats().net.retries, 0u);
  EXPECT_EQ(system.stats().net.giveups, 0u);
  system.cc().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FaultedWorkloadTest,
                         ::testing::Values("compress95", "adpcm_enc",
                                           "adpcm_dec", "gzip", "cjpeg",
                                           "mpeg2enc", "hextobdd", "sha256",
                                           "dijkstra"),
                         [](const auto& param_info) { return param_info.param; });

TEST(FaultedWorkloads, ArmStyleSurvivesTwentyPercentFaults) {
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput(spec->name, 1);

  vm::Machine native;
  native.LoadImage(img);
  native.SetInput(input);
  const vm::RunResult native_result = native.Run(4'000'000'000ull);
  ASSERT_EQ(native_result.reason, vm::StopReason::kHalted);

  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kArm;
  config.tcache_bytes = 64 * 1024;
  config.fault.seed = 5;
  config.fault.drop = 0.2;
  config.fault.corrupt = 0.2;
  config.fault.duplicate = 0.2;
  softcache::SoftCacheSystem system(img, config);
  system.SetInput(input);
  const vm::RunResult cached = system.Run(8'000'000'000ull);
  ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
  EXPECT_EQ(cached.exit_code, native_result.exit_code);
  EXPECT_EQ(system.OutputString(), native.OutputString());
  EXPECT_GT(system.stats().net.retries, 0u);
  system.cc().CheckInvariants();
}

// ---------------------------------------------------------------------------
// Faulted D-cache: lossy link under data traffic, writebacks idempotent
// ---------------------------------------------------------------------------

TEST(FaultedDcache, DataEquivalentAndWritesNotAppliedTwice) {
  // Streams over an array much larger than the cache so evictions force a
  // steady stream of kDataWriteback traffic through the lossy link.
  const image::Image img = *minicc::CompileMiniC(R"(
    int a[2048];
    int main() {
      for (int pass = 0; pass < 3; pass++) {
        for (int i = 0; i < 2048; i++) a[i] = a[i] + i * pass;
      }
      int sum = 0;
      for (int i = 0; i < 2048; i++) sum += a[i];
      return sum % 251;
    }
  )");

  vm::Machine native;
  native.LoadImage(img);
  const vm::RunResult native_result = native.Run(2'000'000'000);
  ASSERT_EQ(native_result.reason, vm::StopReason::kHalted);

  vm::Machine machine;
  machine.LoadImage(img);
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Channel channel;
  dcache::DCacheConfig config;
  config.dcache_blocks = 16;  // tiny: force eviction writebacks
  config.fault.seed = 9;
  config.fault.drop = 0.1;
  config.fault.corrupt = 0.1;
  config.fault.duplicate = 0.1;
  dcache::DataCache cache(machine, mc, channel, config);
  cache.Attach();
  const vm::RunResult cached = machine.Run(2'000'000'000);
  ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
  cache.FlushAll();
  EXPECT_EQ(cached.exit_code, native_result.exit_code);

  // Flushed server memory must match native memory over data + bss.
  const uint32_t lo = img.data_base;
  const uint32_t hi = img.heap_base();
  for (uint32_t addr = lo; addr < hi; ++addr) {
    ASSERT_EQ(McDataByte(mc, addr), *(native.mem_data() + addr))
        << "data divergence at 0x" << std::hex << addr;
  }
  EXPECT_GT(cache.stats().writebacks, 0u);
  EXPECT_GT(cache.stats().net.retries, 0u);
  // Duplicated/retransmitted writebacks were answered from the replay
  // cache, not applied twice.
  EXPECT_GT(mc.server().stats().replays_suppressed, 0u);
}

}  // namespace
}  // namespace sc
