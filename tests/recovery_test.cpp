// Crash-recovery tests: the MC crash model (stable image + flush barriers +
// epoch bump), the seeded crash injector, the epoch-fenced Session (journal
// replay, durable-ack synthesis, bounded recovery), cycle-triggered crashes
// through the system, and the D-cache's data under crashes. Workloads
// staying bit-identical under crash schedules is the configuration
// oracle's (property_test), whose vector draws every crash knob.
//
// The D-cache crash test runs SOFTCACHE_TEST_SEEDS fault seeds (default 1).
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dcache/dcache.h"
#include "minicc/compiler.h"
#include "net/transport.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/reliable.h"
#include "softcache/session.h"
#include "softcache/system.h"
#include "tests/testing.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using softcache::kMcWriteFlushIntervalOps;
using softcache::LinkStats;
using softcache::MemoryController;
using softcache::MsgType;
using softcache::Reply;
using softcache::Request;
using testing::McDataByte;
using softcache::RetryConfig;
using softcache::Session;
using softcache::SessionStats;

image::Image ArrayImage() {
  auto img = minicc::CompileMiniC(R"(
    int a[1024];
    int main() { return 0; }
  )");
  SC_CHECK(img.ok());
  return std::move(*img);
}

Request Writeback(uint32_t addr, uint8_t marker, uint32_t epoch = 0) {
  Request write;
  write.type = MsgType::kDataWriteback;
  write.addr = addr;
  write.length = 4;
  write.payload = {marker, marker, marker, marker};
  write.epoch = epoch;
  return write;
}

Reply MustParse(const std::vector<uint8_t>& bytes) {
  auto reply = Reply::Parse(bytes);
  SC_CHECK(reply.ok()) << reply.error().ToString();
  return std::move(*reply);
}

// ---------------------------------------------------------------------------
// MC crash model: stable image, flush barriers, epoch, hello
// ---------------------------------------------------------------------------

TEST(CrashRecoveryMc, RestartDropsUnflushedWritesAndBumpsEpoch) {
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint8_t original = McDataByte(mc, img.data_base);

  Request write = Writeback(img.data_base, 0xde);
  write.seq = 1;
  (void)mc.Handle(write.Serialize());
  EXPECT_EQ(McDataByte(mc, img.data_base), 0xde);
  EXPECT_EQ(mc.session(0).applied_data_ops(), 1u);
  EXPECT_EQ(mc.session(0).stable_data_ops(), 0u);  // below the flush barrier

  mc.Restart();
  EXPECT_EQ(mc.session(0).epoch(), 1u);
  EXPECT_EQ(mc.server().stats().restarts, 1u);
  // The unflushed write died with it.
  EXPECT_EQ(McDataByte(mc, img.data_base), original);
  EXPECT_EQ(mc.session(0).applied_data_ops(), 0u);
}

TEST(CrashRecoveryMc, FlushBarrierMakesWritesDurable) {
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);

  // Exactly one barrier's worth of writes: all flushed into the stable image.
  for (uint32_t i = 0; i < kMcWriteFlushIntervalOps; ++i) {
    Request write = Writeback(img.data_base + i * 4, 0x40);
    write.seq = 100 + i;
    const Reply reply = MustParse(mc.Handle(write.Serialize()));
    ASSERT_EQ(reply.type, MsgType::kWritebackAck);
  }
  EXPECT_EQ(mc.session(0).applied_data_ops(), kMcWriteFlushIntervalOps);
  EXPECT_EQ(mc.session(0).stable_data_ops(), kMcWriteFlushIntervalOps);

  // Five more stay pending; a crash reverts exactly those five.
  for (uint32_t i = 0; i < 5; ++i) {
    Request write = Writeback(img.data_base + i * 4, 0x77);
    write.seq = 200 + i;
    (void)mc.Handle(write.Serialize());
  }
  EXPECT_EQ(McDataByte(mc, img.data_base), 0x77);
  mc.Restart();
  // The flushed value, not the pending one.
  EXPECT_EQ(McDataByte(mc, img.data_base), 0x40);
  EXPECT_EQ(McDataByte(mc, img.data_base + 5 * 4), 0x40);
  EXPECT_EQ(mc.session(0).applied_data_ops(), kMcWriteFlushIntervalOps);
  EXPECT_EQ(mc.session(0).stable_data_ops(), kMcWriteFlushIntervalOps);
}

TEST(CrashRecoveryMc, HelloReportsEpochAndStableWatermarks) {
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);

  Request hello;
  hello.type = MsgType::kHello;
  hello.seq = 1;
  Reply ack = MustParse(mc.Handle(hello.Serialize()));
  EXPECT_EQ(ack.type, MsgType::kHelloAck);
  EXPECT_EQ(ack.addr, 0u);   // epoch
  EXPECT_EQ(ack.aux, 0u);    // stable text ops
  EXPECT_EQ(ack.extra, 0u);  // stable data ops
  EXPECT_EQ(ack.epoch, 0u);

  for (uint32_t i = 0; i < kMcWriteFlushIntervalOps; ++i) {
    Request write = Writeback(img.data_base + i * 4, 0x11);
    write.seq = 10 + i;
    (void)mc.Handle(write.Serialize());
  }
  mc.Restart();
  hello.seq = 2;
  hello.epoch = 0;  // hellos are served regardless of the stamped epoch
  ack = MustParse(mc.Handle(hello.Serialize()));
  EXPECT_EQ(ack.type, MsgType::kHelloAck);
  EXPECT_EQ(ack.addr, 1u);
  EXPECT_EQ(ack.extra, kMcWriteFlushIntervalOps);
  EXPECT_EQ(ack.epoch, 1u);
}

TEST(CrashRecoveryMc, RejectsStaleEpochWrites) {
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  mc.Restart();  // epoch 1

  Request write = Writeback(img.data_base, 0xaa, /*epoch=*/0);
  write.seq = 9;
  const uint8_t before = McDataByte(mc, img.data_base);
  const Reply reply = MustParse(mc.Handle(write.Serialize()));
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.epoch, 1u);  // the rejection itself carries the live epoch
  EXPECT_EQ(McDataByte(mc, img.data_base), before);
  EXPECT_EQ(mc.server().stats().stale_epoch_rejects, 1u);
  // Counters stay journal-aligned.
  EXPECT_EQ(mc.session(0).applied_data_ops(), 0u);

  // Reads are idempotent and served regardless of the stamped epoch.
  Request fetch;
  fetch.type = MsgType::kChunkRequest;
  fetch.seq = 10;
  fetch.addr = img.entry;
  fetch.epoch = 0;
  const Reply chunk = MustParse(mc.Handle(fetch.Serialize()));
  EXPECT_EQ(chunk.type, MsgType::kChunkReply);
  EXPECT_EQ(chunk.epoch, 1u);
}

TEST(CrashRecoveryMc, ReplayCacheDropsStaleEpochEntries) {
  // Satellite (a): a replay-cache hit requires the entry's epoch to match.
  // A pre-crash write retransmitted after a restart must NOT be answered
  // from the cache (that would claim durability the crash revoked).
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);

  Request write = Writeback(img.data_base, 0xde, /*epoch=*/0);
  write.seq = 500;
  const auto frame = write.Serialize();
  const auto first_bytes = mc.Handle(frame);
  EXPECT_EQ(MustParse(first_bytes).type, MsgType::kWritebackAck);
  EXPECT_EQ(mc.Handle(frame), first_bytes);  // retransmit: cached, bit for bit
  EXPECT_EQ(mc.server().stats().replays_suppressed, 1u);
  const uint64_t suppressed = mc.server().stats().replays_suppressed;

  mc.Restart();
  const Reply after = MustParse(mc.Handle(frame));
  EXPECT_EQ(after.type, MsgType::kError);  // stale epoch, not a cached ack
  EXPECT_EQ(mc.server().stats().replays_suppressed, suppressed);

  // Same story in the new epoch: a fresh write replays only within epoch 1.
  Request fresh = Writeback(img.data_base, 0x55, /*epoch=*/1);
  fresh.seq = 501;
  const auto fresh_frame = fresh.Serialize();
  EXPECT_EQ(MustParse(mc.Handle(fresh_frame)).type, MsgType::kWritebackAck);
  EXPECT_EQ(MustParse(mc.Handle(fresh_frame)).type, MsgType::kWritebackAck);
  EXPECT_EQ(mc.server().stats().replays_suppressed, suppressed + 1);
}

// ---------------------------------------------------------------------------
// Crash injector schedules
// ---------------------------------------------------------------------------

TEST(CrashRecoveryInjector, PeriodicScheduleCrashesEveryNth) {
  net::Channel channel;
  net::FaultConfig fault;
  fault.crash_period = 3;
  net::FaultyTransport transport(
      channel, [](const std::vector<uint8_t>& frame) { return frame; }, fault);
  uint64_t crashes = 0;
  transport.set_crash_handler([&crashes] { ++crashes; });

  const std::vector<uint8_t> frame(24, 0xab);
  for (int i = 0; i < 9; ++i) transport.Send(frame);
  EXPECT_EQ(crashes, 3u);  // arrivals 3, 6, 9
  EXPECT_EQ(transport.stats().server_crashes, 3u);

  // The triggering requests died with the server: only 6 replies emerge.
  std::vector<uint8_t> out;
  uint64_t cycles = 0;
  int delivered = 0;
  while (transport.Recv(&out, &cycles)) ++delivered;
  EXPECT_EQ(delivered, 6);
}

TEST(CrashRecoveryInjector, OneShotSchedulesFireOnce) {
  net::Channel channel;
  net::FaultConfig fault;
  fault.crash_after_requests = 5;
  net::FaultyTransport transport(
      channel, [](const std::vector<uint8_t>& frame) { return frame; }, fault);
  uint64_t crashes = 0;
  transport.set_crash_handler([&crashes] { ++crashes; });
  const std::vector<uint8_t> frame(24, 0xab);
  for (int i = 0; i < 10; ++i) transport.Send(frame);
  EXPECT_EQ(crashes, 1u);

  // crash_at_cycle fires once at the first arrival at/after the threshold.
  net::Channel channel2;
  net::FaultConfig fault2;
  fault2.crash_at_cycle = 100;
  net::FaultyTransport at_cycle(
      channel2, [](const std::vector<uint8_t>& f) { return f; }, fault2);
  uint64_t cycle_crashes = 0;
  at_cycle.set_crash_handler([&cycle_crashes] { ++cycle_crashes; });
  uint64_t now = 50;
  at_cycle.set_cycle_source(&now);
  at_cycle.Send(frame);
  EXPECT_EQ(cycle_crashes, 0u);
  now = 150;
  at_cycle.Send(frame);
  at_cycle.Send(frame);
  EXPECT_EQ(cycle_crashes, 1u);
}

TEST(CrashRecoveryInjector, SeededRateIsDeterministic) {
  const auto run = [](uint64_t seed) {
    net::Channel channel;
    net::FaultConfig fault;
    fault.seed = seed;
    fault.crash = 0.2;
    net::FaultyTransport transport(
        channel, [](const std::vector<uint8_t>& frame) { return frame; },
        fault);
    uint64_t crashes = 0;
    transport.set_crash_handler([&crashes] { ++crashes; });
    std::vector<uint8_t> frame(24);
    for (int i = 0; i < 200; ++i) {
      frame[0] = static_cast<uint8_t>(i);
      transport.Send(frame);
    }
    return crashes;
  };
  const uint64_t a = run(42);
  EXPECT_EQ(a, run(42));
  EXPECT_GT(a, 0u);
}

// ---------------------------------------------------------------------------
// Session: journal replay, durable-ack synthesis, mid-recovery crashes
// ---------------------------------------------------------------------------

// Deterministic crash scripting: forwards frames to a real MC, crashing it
// (and dropping the frame) at scripted arrival ordinals, and optionally
// swallowing the reply of scripted arrivals (an "ack lost" event).
class CrashScriptTransport : public net::Transport {
 public:
  CrashScriptTransport(MemoryController& mc, std::set<uint64_t> crash_at,
                       std::set<uint64_t> drop_reply_at = {})
      : mc_(mc),
        crash_at_(std::move(crash_at)),
        drop_reply_at_(std::move(drop_reply_at)) {}

  uint64_t Send(const std::vector<uint8_t>& frame) override {
    ++stats_.frames_sent;
    ++arrivals_;
    if (crash_at_.count(arrivals_) != 0) {
      mc_.Restart();
      return 0;  // the request died with the server
    }
    auto reply = mc_.Handle(frame);
    if (drop_reply_at_.count(arrivals_) != 0) return 0;
    inbox_.push_back(std::move(reply));
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
  MemoryController& mc_;
  std::set<uint64_t> crash_at_;
  std::set<uint64_t> drop_reply_at_;
  uint64_t arrivals_ = 0;
  std::deque<std::vector<uint8_t>> inbox_;
  net::TransportStats stats_;
};

TEST(CrashRecoverySession, ReplaysJournalThroughMidRecoveryCrash) {
  // Crash #1 lands on the 4th write; crash #2 lands *during the replay* the
  // first recovery runs. The session must re-handshake and replay again.
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  RetryConfig retry;
  retry.timeout_cycles = 10;
  LinkStats link_stats;
  SessionStats stats;
  Session session(
      std::make_unique<CrashScriptTransport>(mc, std::set<uint64_t>{4, 8}),
      retry, &link_stats, &stats, MsgType::kDataWriteback, /*first_seq=*/1000);

  uint64_t cycles = 0;
  for (uint32_t i = 0; i < 6; ++i) {
    auto reply = session.Call(
        Writeback(img.data_base + i * 4, static_cast<uint8_t>(0xb0 + i)),
        &cycles);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    ASSERT_EQ(reply->type, MsgType::kWritebackAck);
  }
  EXPECT_TRUE(session.Synchronize(&cycles).ok());

  EXPECT_EQ(mc.server().stats().restarts, 2u);
  EXPECT_EQ(session.epoch(), 2u);
  EXPECT_EQ(stats.recoveries, 1u);       // one successful recovery...
  EXPECT_EQ(stats.epoch_changes, 2u);    // ...that saw two epoch changes
  EXPECT_GE(stats.journal_replays, 4u);  // partial replay + full replay
  EXPECT_EQ(stats.recovery_failures, 0u);
  EXPECT_GT(stats.recovery_cycles, 0u);
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(McDataByte(mc, img.data_base + i * 4), 0xb0 + i)
        << "write " << i << " lost";
  }
}

TEST(CrashRecoverySession, SynthesizesAckForFlushedOpWhoseAckWasLost) {
  // Op 31 crosses the flush barrier (durable) but its ack is swallowed; the
  // server then crashes before the retransmit lands. Recovery's watermark
  // proves the op durable, so the session answers it with a synthesized ack
  // instead of replaying (replaying would double-apply nothing here, but the
  // journal no longer holds it — the watermark already truncated it).
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  RetryConfig retry;
  retry.timeout_cycles = 10;
  LinkStats link_stats;
  SessionStats stats;
  const uint64_t n = kMcWriteFlushIntervalOps;  // ops 0..31; arrivals 1..32
  Session session(std::make_unique<CrashScriptTransport>(
                      mc, /*crash_at=*/std::set<uint64_t>{n + 1},
                      /*drop_reply_at=*/std::set<uint64_t>{n}),
                  retry, &link_stats, &stats, MsgType::kDataWriteback,
                  /*first_seq=*/1000);

  uint64_t cycles = 0;
  for (uint32_t i = 0; i < n; ++i) {
    auto reply =
        session.Call(Writeback(img.data_base + i * 4, 0xc0), &cycles);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    ASSERT_EQ(reply->type, MsgType::kWritebackAck) << "op " << i;
  }
  EXPECT_EQ(mc.server().stats().restarts, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.journal_replays, 0u);  // nothing left to replay: all durable
  EXPECT_EQ(session.journal_size(), 0u);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(McDataByte(mc, img.data_base + i * 4), 0xc0)
        << "write " << i << " lost";
  }
}

TEST(CrashRecoverySession, SynchronizeReplaysAfterIdleCrash) {
  // The server crashes after this client's last RPC; nothing would ever
  // observe the new epoch. The end-of-run barrier must.
  const image::Image img = ArrayImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Channel channel;
  RetryConfig retry;
  LinkStats link_stats;
  SessionStats stats;
  Session session(softcache::MakeTransport(
                      [&mc](const auto& frame) { return mc.Handle(frame); },
                      channel, {}, [&mc] { mc.Restart(); }),
                  retry, &link_stats, &stats, MsgType::kDataWriteback,
                  /*first_seq=*/1000);
  uint64_t cycles = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    auto reply = session.Call(
        Writeback(img.data_base + i * 4, static_cast<uint8_t>(0xe0 + i)),
        &cycles);
    ASSERT_TRUE(reply.ok());
  }
  mc.Restart();
  ASSERT_TRUE(session.Synchronize(&cycles).ok());
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.journal_replays, 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(McDataByte(mc, img.data_base + i * 4), 0xe0 + i);
  }

  // Nothing journaled since: Synchronize after truncation is a no-op.
  const uint64_t requests_before = link_stats.requests;
  // (journal still holds the replayed suffix until a barrier truncates it,
  // so a second synchronize re-handshakes but finds the epoch unchanged.)
  ASSERT_TRUE(session.Synchronize(&cycles).ok());
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GE(link_stats.requests, requests_before);
}

// ---------------------------------------------------------------------------
// Clean failure: link give-up and bounded recovery
// ---------------------------------------------------------------------------

TEST(CrashRecoveryFailure, LinkGiveUpFailsRunCleanly) {
  // Satellite (b): a server that crashes on *every* request is equivalent to
  // a dead link. The run must degrade to a clean fault (kFault stop, give-up
  // counted) — not hang, not abort.
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);

  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 64 * 1024;
  config.fault.crash_period = 1;  // every arrival kills the server
  config.retry.timeout_cycles = 10;
  config.retry.max_timeout_cycles = 100;
  config.retry.max_attempts = 3;
  softcache::SoftCacheSystem system(img, config);
  system.SetInput(workloads::MakeInput(spec->name, 1));
  const vm::RunResult result = system.Run(1'000'000'000ull);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_FALSE(result.fault_message.empty());
  EXPECT_GE(system.stats().net.giveups, 1u);
  EXPECT_GT(system.mc().server().stats().restarts, 0u);
}

TEST(CrashRecoveryFailure, DcacheGiveUpFailsRunCleanly) {
  const image::Image img = *minicc::CompileMiniC(R"(
    int a[512];
    int main() {
      int sum = 0;
      for (int i = 0; i < 512; i++) { a[i] = i; sum += a[i]; }
      return sum % 251;
    }
  )");
  vm::Machine machine;
  machine.LoadImage(img);
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Channel channel;
  dcache::DCacheConfig config;
  config.dcache_blocks = 8;
  config.fault.crash_period = 1;
  config.retry.timeout_cycles = 10;
  config.retry.max_timeout_cycles = 100;
  config.retry.max_attempts = 3;
  dcache::DataCache cache(machine, mc, channel, config);
  cache.Attach();
  const vm::RunResult result = machine.Run(1'000'000'000ull);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_TRUE(cache.failed());
  cache.FlushAll();  // must be a no-op on a failed run, not an abort
  EXPECT_GE(cache.stats().net.giveups, 1u);
}

TEST(CrashRecoveryFailure, RecoveryAttemptsAreBounded) {
  // A hostile server whose every reply claims yet another epoch: recovery
  // can never converge and must abandon cleanly after the configured bound.
  class EpochChurnTransport : public net::Transport {
   public:
    uint64_t Send(const std::vector<uint8_t>& frame) override {
      ++stats_.frames_sent;
      auto request = Request::Parse(frame);
      SC_CHECK(request.ok());
      Reply reply;
      reply.seq = request->seq;
      if (request->type == MsgType::kHello) {
        reply.type = MsgType::kHelloAck;
        reply.addr = ++server_epoch_;  // a new incarnation every handshake
      } else {
        reply.type = MsgType::kWritebackAck;
        reply.addr = request->addr;
      }
      reply.epoch = (request->epoch + 1) & softcache::kEpochMask;
      inbox_.push_back(reply.Serialize());
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
    uint32_t server_epoch_ = 0;
    std::deque<std::vector<uint8_t>> inbox_;
    net::TransportStats stats_;
  };

  RetryConfig retry;
  retry.max_recovery_attempts = 4;
  LinkStats link_stats;
  SessionStats stats;
  Session session(std::make_unique<EpochChurnTransport>(), retry, &link_stats,
                  &stats, MsgType::kDataWriteback, /*first_seq=*/1);
  uint64_t cycles = 0;
  auto reply = session.Call(Writeback(0x2000, 0x99), &cycles);
  EXPECT_FALSE(reply.ok());
  EXPECT_FALSE(reply.error().message.empty());
  EXPECT_GE(stats.recovery_failures, 1u);
  EXPECT_EQ(stats.recoveries, 0u);
  EXPECT_GT(stats.epoch_changes, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: a cycle-triggered crash through the system
// ---------------------------------------------------------------------------

struct E2eRun {
  vm::RunResult result;
  std::string output;
  uint64_t restarts = 0;
  SessionStats session;
};

E2eRun RunWorkload(const image::Image& img, const std::vector<uint8_t>& input,
                   softcache::SoftCacheConfig config) {
  softcache::SoftCacheSystem system(img, config);
  system.SetInput(input);
  E2eRun run;
  run.result = system.Run(8'000'000'000ull);
  SC_CHECK(run.result.reason == vm::StopReason::kHalted)
      << run.result.fault_message;
  if (config.fault.crash_enabled()) {
    SC_CHECK(system.cc().SyncSession());
  }
  system.cc().CheckInvariants();
  run.output = system.OutputString();
  run.restarts = system.mc().server().stats().restarts;
  run.session = system.stats().session;
  return run;
}

TEST(CrashRecoveryPrefetch, CycleTriggeredCrashIsWiredThroughSystem) {
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput(spec->name, 1);

  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 16 * 1024;
  const E2eRun base = RunWorkload(img, input, config);

  config.fault.crash_at_cycle = 1'000'000;
  const E2eRun crashed = RunWorkload(img, input, config);
  EXPECT_EQ(crashed.restarts, 1u);
  EXPECT_EQ(crashed.output, base.output);
  EXPECT_EQ(crashed.result.instructions, base.result.instructions);
}

// ---------------------------------------------------------------------------
// End-to-end: dcache writeback journal under crashes
// ---------------------------------------------------------------------------

TEST(CrashRecoveryDcache, DataIdenticalUnderPeriodicCrashes) {
  // Writeback-heavy traffic (tiny cache over a big array): crashes revert
  // unflushed writebacks on the server, and the dcache session's journal
  // must restore them. Flushed server memory must equal native memory.
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

  // Each further SOFTCACHE_TEST_SEEDS seed moves the crash points.
  for (int seed = 0; seed < testing::TestSeeds() && !HasFailure(); ++seed) {
    vm::Machine machine;
    machine.LoadImage(img);
    MemoryController mc(img, softcache::Style::kSparc, 64);
    net::Channel channel;
    dcache::DCacheConfig config;
    config.dcache_blocks = 16;
    config.fault.seed = 7 + static_cast<uint64_t>(seed);
    // Longer than a full journal replay (a barrier's worth of writes plus
    // the handshake), so recovery always makes progress between crashes.
    config.fault.crash_period =
        kMcWriteFlushIntervalOps + 8 + 5 * static_cast<uint64_t>(seed);
    dcache::DataCache cache(machine, mc, channel, config);
    cache.Attach();
    const vm::RunResult cached = machine.Run(2'000'000'000);
    ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
    cache.FlushAll();
    ASSERT_FALSE(cache.failed());
    EXPECT_EQ(cached.exit_code, native_result.exit_code);

    EXPECT_GT(mc.server().stats().restarts, 0u);
    EXPECT_GT(cache.stats().session.recoveries, 0u);
    EXPECT_GT(cache.stats().session.journal_replays, 0u);
    EXPECT_GT(mc.server().stats().stale_epoch_rejects, 0u);

    const uint32_t lo = img.data_base;
    const uint32_t hi = img.heap_base();
    for (uint32_t addr = lo; addr < hi; ++addr) {
      ASSERT_EQ(McDataByte(mc, addr), *(native.mem_data() + addr))
          << "data divergence at 0x" << std::hex << addr << ", seed "
          << seed;
    }
  }
}

}  // namespace
}  // namespace sc
