// Multi-client MC tests: one shared McServer core serving N per-client
// McSessions through the net::Switch demux.
//
// Covers the wire format (client id packing, golden id-0 frames identical to
// the seed protocol), the memoized translation cache (two sessions, ONE
// translate — counter-proven), per-session copy-on-write text/data isolation,
// per-session crash isolation, switch-level spoof rejection, and end-to-end
// bit identity: every client of a MultiClientSystem must behave exactly like
// its solo run, including under per-client fault/crash schedules.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/isa.h"
#include "minicc/compiler.h"
#include "net/switch.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/system.h"
#include "tests/testing.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using softcache::kClientIdMask;
using softcache::kClientIdShift;
using softcache::kEpochShift;
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
// Wire format: client id packing and seed-protocol golden frames
// ---------------------------------------------------------------------------

TEST(ClientIdWire, RoundTripsThroughTypeWord) {
  for (uint32_t id : {0u, 1u, 7u, 255u, 256u, 2048u, 4095u}) {
    Request req = ChunkReq(0x1000, id, 42);
    req.epoch = 3;
    const auto bytes = req.Serialize();
    // The id rides bits 19..8 of the type word: all of byte 5 plus the low
    // nibble of byte 6 (the epoch owns the rest of byte 6 and byte 7).
    EXPECT_EQ(bytes[5], id & 0xff);
    EXPECT_EQ(bytes[6] & 0x0f, (id >> 8) & 0x0f);
    auto parsed = Request::Parse(bytes);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->client_id, id);
    EXPECT_EQ(parsed->epoch, 3u);
    EXPECT_EQ(parsed->type, MsgType::kChunkRequest);

    Reply reply;
    reply.type = MsgType::kChunkReply;
    reply.seq = 42;
    reply.client_id = id;
    reply.epoch = 3;
    auto parsed_reply = Reply::Parse(reply.Serialize());
    ASSERT_TRUE(parsed_reply.ok());
    EXPECT_EQ(parsed_reply->client_id, id);
  }
  // The widened epoch field (bits 31..20) round-trips to its 12-bit edge
  // alongside a full-width id — the two fields may not bleed into each
  // other.
  Request req = ChunkReq(0x1000, 0xabc, 42);
  req.epoch = 0xfff;
  auto parsed = Request::Parse(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->client_id, 0xabcu);
  EXPECT_EQ(parsed->epoch, 0xfffu);
}

// Golden-frame test: a client-id-0, epoch-0 request must serialize to EXACTLY
// the seed protocol's bytes, re-encoded here by hand. Any header growth or
// field move breaks this loudly.
TEST(ClientIdWire, IdZeroFrameMatchesSeedBytesGolden) {
  Request req = ChunkReq(0x2040, /*client_id=*/0, /*seq=*/9);
  req.length = 0;
  const auto bytes = req.Serialize();
  ASSERT_EQ(bytes.size(), softcache::kRequestBytes);

  auto put = [](std::vector<uint8_t>& out, uint32_t v) {
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
  };
  // The seed layout: magic, bare type word, seq, addr, length, checksum.
  std::vector<uint8_t> golden;
  put(golden, softcache::kProtocolMagic);
  put(golden, static_cast<uint32_t>(MsgType::kChunkRequest));
  put(golden, 9);
  put(golden, 0x2040);
  put(golden, 0);
  put(golden, softcache::Checksum(golden.data(), golden.size()));
  EXPECT_EQ(bytes, golden);

  // A nonzero id diverges from the seed bytes in exactly one octet.
  Request req1 = req;
  req1.client_id = 1;
  const auto bytes1 = req1.Serialize();
  int diffs = 0;
  for (size_t i = 0; i < 20; ++i) {
    if (bytes[i] != bytes1[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1);
  EXPECT_EQ(bytes1[5], 1);
}

// ---------------------------------------------------------------------------
// Shared translation memo
// ---------------------------------------------------------------------------

TEST(SharedMemo, TwoSessionsExactlyOneTranslate) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint32_t entry = img.entry;

  const Reply r0 = MustParse(mc.Handle(ChunkReq(entry, 0).Serialize()));
  const Reply r1 = MustParse(mc.Handle(ChunkReq(entry, 1).Serialize()));

  // Counter-proven: the second session's fetch was served from the memo.
  EXPECT_EQ(mc.server().stats().translates, 1u);
  EXPECT_EQ(mc.server().stats().translate_memo_hits, 1u);
  EXPECT_EQ(mc.sessions_active(), 2u);

  // Identical artifact, per-session stamping.
  EXPECT_EQ(r0.payload, r1.payload);
  EXPECT_EQ(r0.aux, r1.aux);
  EXPECT_EQ(r0.extra, r1.extra);
  EXPECT_EQ(r0.client_id, 0u);
  EXPECT_EQ(r1.client_id, 1u);

  // A third fetch of the same chunk (even from a brand-new session) still
  // costs zero translation work.
  MustParse(mc.Handle(ChunkReq(entry, 2).Serialize()));
  EXPECT_EQ(mc.server().stats().translates, 1u);
  EXPECT_EQ(mc.server().stats().translate_memo_hits, 2u);
}

TEST(SharedMemo, TextWriteInvalidatesWithoutCorruptingOtherClients) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint32_t entry = img.entry;

  const Reply before0 = MustParse(mc.Handle(ChunkReq(entry, 0).Serialize()));
  MustParse(mc.Handle(ChunkReq(entry, 1).Serialize()));
  ASSERT_EQ(mc.server().stats().translates, 1u);

  // Client 1 patches the first word of the entry chunk (self-modifying
  // code): the entry jump becomes a NOP, so its chunk now falls through.
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
  write.length = static_cast<uint32_t>(write.payload.size());
  const Reply ack = MustParse(mc.Handle(write.Serialize()));
  EXPECT_EQ(ack.type, MsgType::kTextWriteAck);

  // The write faulted client 1 to a private text image and dropped the
  // shared memo entry covering the written range.
  EXPECT_TRUE(mc.session(1).has_private_text());
  EXPECT_FALSE(mc.session(0).has_private_text());
  EXPECT_GE(mc.server().stats().memo_invalidations, 1u);

  // Client 0 re-fetches: re-translated from the PRISTINE image — the other
  // client's write must not leak in.
  const Reply after0 =
      MustParse(mc.Handle(ChunkReq(entry, 0, /*seq=*/3).Serialize()));
  EXPECT_EQ(after0.payload, before0.payload);
  EXPECT_EQ(after0.aux, before0.aux);

  // Client 1 re-fetches: sees its own patched text.
  const Reply after1 =
      MustParse(mc.Handle(ChunkReq(entry, 1, /*seq=*/4).Serialize()));
  ASSERT_GE(after1.payload.size(), 4u);
  uint32_t first_word = 0;
  std::memcpy(&first_word, after1.payload.data(), 4);
  EXPECT_EQ(first_word, nop_word);
  EXPECT_NE(after1.payload, before0.payload);
}

// ---------------------------------------------------------------------------
// Copy-on-write data isolation
// ---------------------------------------------------------------------------

TEST(CowData, WritebackIsPrivatePerSession) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint32_t addr = img.data_base;

  Request write;
  write.type = MsgType::kDataWriteback;
  write.seq = 1;
  write.addr = addr;
  write.client_id = 0;
  write.payload = {0xaa, 0xbb, 0xcc, 0xdd};
  write.length = 4;
  MustParse(mc.Handle(write.Serialize()));

  auto read_four = [&mc, addr](uint32_t client_id) {
    Request req;
    req.type = MsgType::kDataRequest;
    req.seq = 7;
    req.addr = addr;
    req.length = 4;
    req.client_id = client_id;
    return MustParse(mc.Handle(req.Serialize())).payload;
  };

  // The writer reads its own bytes back; a second session still sees the
  // pristine store; the shared store itself never changed.
  EXPECT_EQ(read_four(0), (std::vector<uint8_t>{0xaa, 0xbb, 0xcc, 0xdd}));
  EXPECT_EQ(read_four(1),
            std::vector<uint8_t>(mc.server().shared_data().begin(),
                                 mc.server().shared_data().begin() + 4));
  EXPECT_NE(read_four(1), read_four(0));
  EXPECT_EQ(mc.session(0).private_data_pages(), 1u);
  EXPECT_EQ(mc.session(1).private_data_pages(), 0u);
  EXPECT_EQ(mc.session(0).stats().data_cow_page_faults, 1u);
}

// ---------------------------------------------------------------------------
// Per-session crash isolation
// ---------------------------------------------------------------------------

TEST(SessionIsolation, RestartOneSessionLeavesOthersIntact) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint32_t addr = img.data_base;

  auto write_marker = [&mc, addr](uint32_t client_id, uint8_t marker,
                                  uint32_t epoch) {
    Request write;
    write.type = MsgType::kDataWriteback;
    write.seq = 1;
    write.addr = addr;
    write.client_id = client_id;
    write.epoch = epoch;
    write.payload = {marker, marker, marker, marker};
    write.length = 4;
    return MustParse(mc.Handle(write.Serialize()));
  };
  write_marker(0, 0x11, 0);
  write_marker(1, 0x22, 0);

  mc.RestartSession(1);

  // Only session 1's epoch moved, and only its unflushed write was lost.
  EXPECT_EQ(mc.session(0).epoch(), 0u);
  EXPECT_EQ(mc.session(1).epoch(), 1u);
  auto read_one = [&mc, addr](uint32_t client_id) {
    Request req;
    req.type = MsgType::kDataRequest;
    req.seq = 9;
    req.addr = addr;
    req.length = 1;
    req.client_id = client_id;
    req.epoch = mc.session(client_id).epoch();
    return MustParse(mc.Handle(req.Serialize())).payload[0];
  };
  EXPECT_EQ(read_one(0), 0x11);
  EXPECT_NE(read_one(1), 0x22);

  // A write still stamped with session 1's pre-crash epoch is fenced off;
  // session 0 (same epoch number!) keeps accepting its own.
  const Reply stale = write_marker(1, 0x33, 0);
  EXPECT_EQ(stale.type, MsgType::kError);
  EXPECT_EQ(mc.session(1).stats().stale_epoch_rejects, 1u);
  EXPECT_EQ(mc.session(0).stats().stale_epoch_rejects, 0u);
  const Reply ok = write_marker(0, 0x44, 0);
  EXPECT_EQ(ok.type, MsgType::kWritebackAck);
  EXPECT_EQ(mc.server().stats().restarts, 1u);
  EXPECT_EQ(mc.server().stats().stale_epoch_rejects, 1u);
}

// ---------------------------------------------------------------------------
// Switch demux: spoofed ids never reach another session
// ---------------------------------------------------------------------------

TEST(SwitchDemux, MisroutedIdIsRejectedAtArrivalPort) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Switch net_switch(
      [&mc](uint32_t port, const std::vector<uint8_t>& frame) {
        return mc.HandlePort(port, frame);
      });
  net::FrameHandler port1 = net_switch.Port(1);

  // A frame claiming client 2 arriving on port 1 is rejected on port 1 and
  // never creates (or touches) session 2.
  const Reply reply = MustParse(port1(ChunkReq(img.entry, 2).Serialize()));
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.client_id, 1u);
  const std::string message(reply.payload.begin(), reply.payload.end());
  EXPECT_NE(message.find("client id mismatch"), std::string::npos);
  EXPECT_EQ(mc.server().stats().misrouted_frames, 1u);
  EXPECT_EQ(mc.FindSession(2), nullptr);
  EXPECT_EQ(mc.server().stats().translates, 0u);

  // The correctly-stamped frame on the same port sails through.
  const Reply good = MustParse(port1(ChunkReq(img.entry, 1).Serialize()));
  EXPECT_EQ(good.type, MsgType::kChunkReply);
  EXPECT_EQ(net_switch.frames_switched(), 2u);
  EXPECT_EQ(net_switch.port_frames(1), 2u);
}

// ---------------------------------------------------------------------------
// Fleet-size cap: one constant, validated at the boundary, never an assert
// ---------------------------------------------------------------------------

TEST(ClientCap, ValidateClientCountBoundaries) {
  std::string error;
  EXPECT_TRUE(softcache::ValidateClientCount(1, &error));
  EXPECT_TRUE(softcache::ValidateClientCount(4095, &error));
  EXPECT_TRUE(softcache::ValidateClientCount(softcache::kMaxClients, &error));

  // 4097: one past the 12-bit wire id space — rejected with a message that
  // names the actual cap (srun prints this instead of assert-crashing).
  EXPECT_FALSE(softcache::ValidateClientCount(4097, &error));
  EXPECT_NE(error.find("4096"), std::string::npos);
  EXPECT_FALSE(softcache::ValidateClientCount(0, &error));
  EXPECT_FALSE(softcache::ValidateClientCount(-1, &error));
  EXPECT_FALSE(softcache::ValidateClientCount(1'000'000, &error));
}

TEST(ClientCap, FleetConstructsAndTopOfIdSpaceServes) {
  // A real slice of the fleet constructs (256 machines, 256 sessions) —
  // the full 4096-VM cap is exercised by bench_multiclient's synthetic
  // scale sweep instead, since 4096 eager guest images don't belong in a
  // unit test's memory budget.
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 256;
  softcache::MultiClientSystem fleet(img, config);
  EXPECT_EQ(fleet.mc().sessions_active(), 256u);
  EXPECT_NE(fleet.mc().FindSession(255), nullptr);

  // The TOP of the widened id space serves at the session layer: the
  // server opens a session for id kMaxClients-1 and the reply carries the
  // full 12-bit id back.
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const uint32_t top = softcache::kMaxClients - 1;
  const Reply reply = MustParse(mc.Handle(ChunkReq(img.entry, top).Serialize()));
  EXPECT_EQ(reply.type, MsgType::kChunkReply);
  EXPECT_EQ(reply.client_id, top);
  EXPECT_NE(mc.FindSession(top), nullptr);
}

// ---------------------------------------------------------------------------
// Bounded translation memo: heat-ranked eviction, invalidation under churn
// ---------------------------------------------------------------------------

TEST(SharedMemo, BoundedMemoEvictsColdKeepsHot) {
  const image::Image img = LoopImage();
  softcache::McServerConfig server_config;
  server_config.shards = 1;
  server_config.memo_capacity = 4;
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, server_config);
  const uint32_t entry = img.entry;
  const uint32_t text_words = static_cast<uint32_t>(img.text.size() / 4);
  ASSERT_GE(text_words, 16u) << "loop image too small for churn";

  // Make the entry chunk HOT: six distinct sessions demand it.
  for (uint32_t c = 0; c < 6; ++c) {
    MustParse(mc.Handle(ChunkReq(entry, c, /*seq=*/c + 1).Serialize()));
  }
  ASSERT_EQ(mc.server().stats().translates, 1u);

  // Churn: demand 12 distinct cold chunks through a 4-entry memo. The bound
  // must hold throughout and evictions must fire...
  for (uint32_t k = 1; k <= 12; ++k) {
    MustParse(mc.Handle(
        ChunkReq(img.text_base + 4 * (k % text_words), 0, /*seq=*/100 + k)
            .Serialize()));
    EXPECT_LE(mc.server().memo_entries(), server_config.memo_capacity);
  }
  EXPECT_GT(mc.server().stats().memo_evictions, 0u);

  // ...but the heat signal protects the hot entry chunk: re-demanding it is
  // still a memo hit, not a re-translation.
  const uint64_t translates_before = mc.server().stats().translates;
  MustParse(mc.Handle(ChunkReq(entry, 7, /*seq=*/200).Serialize()));
  EXPECT_EQ(mc.server().stats().translates, translates_before);
}

TEST(SharedMemo, InvalidationStaysCorrectUnderEvictionChurn) {
  // Regression: a memo entry can be EVICTED and later re-admitted; a text
  // write must still drop the covering entry so no stale translation
  // survives, and the sharded invalidation must walk every shard.
  const image::Image img = LoopImage();
  softcache::McServerConfig server_config;
  server_config.shards = 2;
  server_config.memo_capacity = 4;
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, server_config);
  const uint32_t entry = img.entry;
  const uint32_t text_words = static_cast<uint32_t>(img.text.size() / 4);

  const Reply before = MustParse(mc.Handle(ChunkReq(entry, 0).Serialize()));
  for (uint32_t k = 1; k <= 10; ++k) {
    MustParse(mc.Handle(
        ChunkReq(img.text_base + 4 * (k % text_words), 0, /*seq=*/k + 1)
            .Serialize()));
  }

  // Client 1 patches the entry word; the shared memo must shed the range
  // whether or not churn already displaced the entry.
  isa::Instr nop;
  nop.op = isa::Opcode::kAddi;
  const uint32_t nop_word = isa::Encode(nop);
  Request write;
  write.type = MsgType::kTextWrite;
  write.seq = 50;
  write.addr = entry;
  write.client_id = 1;
  write.payload.resize(4);
  std::memcpy(write.payload.data(), &nop_word, 4);
  write.length = 4;
  MustParse(mc.Handle(write.Serialize()));

  // Client 0 re-fetches from pristine text: identical artifact, and the
  // memo stays within its bound with evictions accounted.
  const Reply after =
      MustParse(mc.Handle(ChunkReq(entry, 0, /*seq=*/51).Serialize()));
  EXPECT_EQ(after.payload, before.payload);
  EXPECT_EQ(after.aux, before.aux);
  EXPECT_LE(mc.server().memo_entries(), server_config.memo_capacity);
  EXPECT_GT(mc.server().stats().memo_evictions, 0u);

  // Client 1 sees its own patch, never the memoized pristine chunk.
  const Reply patched =
      MustParse(mc.Handle(ChunkReq(entry, 1, /*seq=*/52).Serialize()));
  ASSERT_GE(patched.payload.size(), 4u);
  uint32_t first_word = 0;
  std::memcpy(&first_word, patched.payload.data(), 4);
  EXPECT_EQ(first_word, nop_word);
}

// ---------------------------------------------------------------------------
// Switch port bookkeeping: out-of-order creation, spoof property sweep
// ---------------------------------------------------------------------------

TEST(SwitchDemux, OutOfOrderPortCreationCountsPortsExactly) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Switch net_switch(
      [&mc](uint32_t port, const std::vector<uint8_t>& frame) {
        return mc.HandlePort(port, frame);
      });

  // Creating port 5 before port 2 must not phantom-create ports 0..4: the
  // port count tracks real creations while the frame table spans the
  // highest-numbered port.
  net::FrameHandler port5 = net_switch.Port(5);
  net::FrameHandler port2 = net_switch.Port(2);
  EXPECT_EQ(net_switch.ports(), 2u);
  EXPECT_EQ(net_switch.port_span(), 6u);

  MustParse(port5(ChunkReq(img.entry, 5).Serialize()));
  MustParse(port2(ChunkReq(img.entry, 2).Serialize()));
  MustParse(port2(ChunkReq(img.entry, 2, /*seq=*/2).Serialize()));
  EXPECT_EQ(net_switch.port_frames(5), 1u);
  EXPECT_EQ(net_switch.port_frames(2), 2u);
  EXPECT_EQ(net_switch.port_frames(0), 0u);
  EXPECT_EQ(net_switch.port_frames(99), 0u);
  EXPECT_EQ(net_switch.frames_switched(), 3u);

  // Re-requesting an existing port's handler is not a new port.
  net::FrameHandler port5_again = net_switch.Port(5);
  EXPECT_EQ(net_switch.ports(), 2u);
}

TEST(SwitchDemux, SpoofedIdPropertySweepNeverCrossesSessions) {
  // Property: for EVERY (arrival port, claimed id) pair with port != id, the
  // frame is rejected at the arrival port, charged to the arrival port's
  // session, and the claimed session is never created by the spoof.
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Switch net_switch(
      [&mc](uint32_t port, const std::vector<uint8_t>& frame) {
        return mc.HandlePort(port, frame);
      });
  constexpr uint32_t kPorts = 6;
  std::vector<net::FrameHandler> ports;
  for (uint32_t p = 0; p < kPorts; ++p) ports.push_back(net_switch.Port(p));

  uint64_t spoofs = 0;
  for (uint32_t port = 0; port < kPorts; ++port) {
    for (uint32_t claimed : {0u, 1u, 3u, 5u, 17u, 255u}) {
      const Reply reply = MustParse(ports[port](
          ChunkReq(img.entry, claimed,
                   /*seq=*/static_cast<uint32_t>(spoofs + 1))
              .Serialize()));
      if (claimed == port) {
        EXPECT_EQ(reply.type, MsgType::kChunkReply);
        continue;
      }
      ++spoofs;
      EXPECT_EQ(reply.type, MsgType::kError)
          << "port " << port << " claimed " << claimed;
      EXPECT_EQ(reply.client_id, port);
      if (claimed >= kPorts) {
        // Sessions only exist for real ports; a spoofed id outside the
        // fleet must not have materialized one.
        EXPECT_EQ(mc.FindSession(claimed), nullptr);
      }
    }
  }
  EXPECT_EQ(mc.server().stats().misrouted_frames, spoofs);
  // Spoofed frames never translated anything: only the on-port requests did.
  EXPECT_EQ(mc.server().stats().translates, 1u);
}

// ---------------------------------------------------------------------------
// End to end: N clients behave exactly like N solo runs
// ---------------------------------------------------------------------------

struct SoloBaseline {
  vm::RunResult result;
  std::string output;
  uint64_t translated = 0;
};

SoloBaseline RunSolo(const image::Image& img,
                     const softcache::SoftCacheConfig& config,
                     const std::string& input) {
  softcache::SoftCacheSystem solo(img, config);
  solo.SetInput(input);
  SoloBaseline base;
  base.result = solo.Run();
  if (config.fault.crash_enabled()) {
    EXPECT_TRUE(solo.cc().SyncSession());
  }
  base.output = solo.OutputString();
  base.translated = solo.stats().blocks_translated;
  return base;
}

TEST(MultiClientSystem, CleanRunBitIdenticalToSoloWithSharedTranslation) {
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 4;
  config.base.tcache_bytes = 8 * 1024;

  softcache::MultiClientSystem fleet(img, config);
  const auto results = fleet.RunAll();
  const SoloBaseline solo = RunSolo(img, config.base, "");

  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].reason, vm::StopReason::kHalted) << "client " << i;
    EXPECT_EQ(results[i].exit_code, solo.result.exit_code) << "client " << i;
    EXPECT_EQ(results[i].instructions, solo.result.instructions)
        << "client " << i;
    EXPECT_EQ(results[i].cycles, solo.result.cycles) << "client " << i;
    EXPECT_EQ(fleet.OutputString(i), solo.output) << "client " << i;
    EXPECT_EQ(fleet.cc(i).stats().blocks_translated, solo.translated)
        << "client " << i;
  }

  // The tentpole property: the server translated each chunk ONCE, not once
  // per client — total server cuts equal the solo run's, and every other
  // client's fetch was a memo hit.
  EXPECT_EQ(fleet.mc().server().stats().translates, solo.translated);
  EXPECT_GE(fleet.mc().server().stats().translate_memo_hits,
            3 * solo.translated);
  EXPECT_EQ(fleet.mc().sessions_active(), 4u);
  EXPECT_GT(fleet.net_switch().frames_switched(), 0u);
}

TEST(MultiClientSystem, PerClientFaultSchedulesStayBitIdenticalAndIsolated) {
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 3;
  config.base.tcache_bytes = 8 * 1024;
  config.client_faults.resize(3);
  // Client 0: clean. Client 1: lossy link. Client 2: crashing server session.
  config.client_faults[1].seed = 11;
  config.client_faults[1].drop = 0.05;
  config.client_faults[1].corrupt = 0.02;
  config.client_faults[2].seed = 22;
  config.client_faults[2].crash_period = 8;

  softcache::MultiClientSystem fleet(img, config);
  const auto results = fleet.RunAll();
  EXPECT_TRUE(fleet.SyncSessions());

  for (size_t i = 0; i < 3; ++i) {
    softcache::SoftCacheConfig solo_config = config.base;
    solo_config.fault = config.client_faults[i];
    const SoloBaseline solo = RunSolo(img, solo_config, "");
    EXPECT_EQ(results[i].exit_code, solo.result.exit_code) << "client " << i;
    EXPECT_EQ(results[i].instructions, solo.result.instructions)
        << "client " << i;
    EXPECT_EQ(fleet.OutputString(i), solo.output) << "client " << i;
  }

  // Client 2's crashes restarted only ITS session: the fleet saw restarts,
  // but sessions 0 and 1 never changed epoch.
  EXPECT_GT(fleet.mc().server().stats().restarts, 0u);
  EXPECT_EQ(fleet.mc().session(0).epoch(), 0u);
  EXPECT_EQ(fleet.mc().session(1).epoch(), 0u);
  EXPECT_GT(fleet.mc().session(2).epoch(), 0u);
  EXPECT_EQ(fleet.mc().session(2).stats().restarts,
            fleet.mc().server().stats().restarts);
}

TEST(MultiClientSystem, WorkloadInputFlowsPerClient) {
  // Distinct inputs per client: each client's output must match ITS solo
  // run, proving inputs don't bleed across machines.
  auto img = minicc::CompileMiniC(R"(
    int main() {
      int c = getchar();
      putchar(c + 1);
      return c;
    }
  )");
  ASSERT_TRUE(img.ok());
  softcache::MultiClientConfig config;
  config.clients = 2;
  softcache::MultiClientSystem fleet(*img, config);
  fleet.SetInput(0, std::string("A"));
  fleet.SetInput(1, std::string("x"));
  const auto results = fleet.RunAll();
  EXPECT_EQ(results[0].exit_code, 'A');
  EXPECT_EQ(results[1].exit_code, 'x');
  EXPECT_EQ(fleet.OutputString(0), "B");
  EXPECT_EQ(fleet.OutputString(1), "y");
}

TEST(MultiClientSystem, BoundedQueueSurvives256ClientFlood) {
  // 256 clients hammering one server through a 4-deep bounded ticket queue
  // on 8 host threads: no deadlock, no unbounded queue growth, and every
  // client still gets its solo-identical result.
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 256;
  config.base.tcache_bytes = 8 * 1024;
  config.server.max_queue = 4;
  config.host_threads = 8;

  softcache::MultiClientSystem fleet(img, config);
  const auto results = fleet.RunAll();
  const SoloBaseline solo = RunSolo(img, config.base, "");

  ASSERT_EQ(results.size(), 256u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted)
        << "client " << i << ": " << results[i].fault_message;
    EXPECT_EQ(results[i].exit_code, solo.result.exit_code) << "client " << i;
    EXPECT_EQ(results[i].instructions, solo.result.instructions)
        << "client " << i;
  }
  const auto& loop_stats = fleet.server_loop().stats();
  EXPECT_EQ(loop_stats.requests_enqueued,
            fleet.mc().server().stats().requests_served);
  // The bound held: the inbound queue never grew past max_queue.
  EXPECT_LE(loop_stats.max_queue_depth, 4u);
}

// A client that stops on its budget resumes on the next RunAll, at one and
// two host threads: a sliced run tells the same guest story as an unsliced
// one.
class RunAllResume : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RunAllResume, SlicedRunAllEqualsOneRunAll) {
  const image::Image img =
      workloads::CompileWorkload(*workloads::FindWorkload("adpcm_enc"));
  softcache::MultiClientConfig config;
  config.clients = 2;
  config.base.tcache_bytes = 4 * 1024;
  config.host_threads = GetParam();
  const auto make_fleet = [&] {
    auto fleet = std::make_unique<softcache::MultiClientSystem>(img, config);
    for (size_t i = 0; i < config.clients; ++i) {
      fleet->SetInput(i, workloads::MakeInput("adpcm_enc", 1, 7 + i));
    }
    return fleet;
  };
  auto whole = make_fleet();
  const auto expected = whole->RunAll();
  auto sliced = make_fleet();
  const auto first = sliced->RunAll(1000);
  for (const vm::RunResult& r : first) {
    ASSERT_EQ(r.reason, vm::StopReason::kInstrLimit);
    EXPECT_EQ(r.instructions, 1000u);
  }
  const auto rest = sliced->RunAll();
  for (size_t i = 0; i < config.clients; ++i) {
    ASSERT_EQ(expected[i].reason, vm::StopReason::kHalted) << "client " << i;
    EXPECT_EQ(rest[i].reason, vm::StopReason::kHalted) << "client " << i;
    EXPECT_EQ(rest[i].exit_code, expected[i].exit_code) << "client " << i;
    EXPECT_EQ(rest[i].instructions, expected[i].instructions)
        << "client " << i;
    EXPECT_EQ(rest[i].cycles, expected[i].cycles) << "client " << i;
    EXPECT_EQ(sliced->OutputString(i), whole->OutputString(i))
        << "client " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, RunAllResume, ::testing::Values(0u, 2u),
                         [](const auto& param_info) {
                           return "host_threads_" +
                                  std::to_string(param_info.param);
                         });

TEST(MultiClientSystemDeathTest, ZeroQuantumIsRejected) {
  // Every step would run zero instructions: RunAll could never finish.
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.quantum_instructions = 0;
  EXPECT_DEATH(softcache::MultiClientSystem(img, config), "zero scheduler");
}

TEST(MultiClientSystemDeathTest, RetiredWorkersFieldIsRejected) {
  // The server has no worker pool; a config still asking for one is a bug.
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 2;
  config.server.shards = 2;
  config.server.workers = 1;
  EXPECT_DEATH(softcache::MultiClientSystem(img, config), "retired");
}

// ---------------------------------------------------------------------------
// Metrics: per-client labels, per-session labels, server aggregates
// ---------------------------------------------------------------------------

TEST(MultiClientSystem, MetricsCarryPerClientAndPerSessionLabels) {
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 2;
  softcache::MultiClientSystem fleet(img, config);
  obs::MetricsRegistry registry;
  fleet.RegisterMetrics(&registry);
  fleet.RunAll();

  const auto snap = registry.TakeSnapshot();
  ASSERT_TRUE(snap.counters.count("c0.cc.blocks_translated"));
  ASSERT_TRUE(snap.counters.count("c1.cc.blocks_translated"));
  ASSERT_TRUE(snap.counters.count("c0.net.channel.bytes_to_server"));
  ASSERT_TRUE(snap.counters.count("c1.vm.instructions"));
  ASSERT_TRUE(snap.counters.count("mc.translates"));
  ASSERT_TRUE(snap.counters.count("mc.translate_memo_hits"));
  ASSERT_TRUE(snap.gauges.count("mc.sessions_active"));
  ASSERT_TRUE(snap.counters.count("mc.s0.requests"));
  ASSERT_TRUE(snap.counters.count("mc.s1.requests"));
  ASSERT_TRUE(snap.counters.count("net.switch.frames"));

  // Both clients ran the same program: identical per-client progress, and
  // the switch saw every MC-bound frame.
  EXPECT_EQ(snap.counters.at("c0.vm.instructions"),
            snap.counters.at("c1.vm.instructions"));
  EXPECT_GT(snap.counters.at("c0.cc.blocks_translated"), 0u);
  EXPECT_EQ(snap.gauges.at("mc.sessions_active"), 2.0);
  EXPECT_EQ(snap.counters.at("net.switch.frames"),
            snap.counters.at("mc.requests_served"));
  EXPECT_GT(snap.counters.at("mc.s1.requests"), 0u);
  EXPECT_EQ(snap.counters.at("mc.s0.requests") +
                snap.counters.at("mc.s1.requests"),
            snap.counters.at("mc.requests_served"));
  EXPECT_GT(snap.counters.at("mc.translate_memo_hits"), 0u);
}

}  // namespace
}  // namespace sc
