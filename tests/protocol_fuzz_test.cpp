// Robustness fuzzing of the MC/CC wire protocol: the memory controller must
// answer EVERY byte string — random garbage, truncations, bit flips of valid
// frames, hostile lengths — with a well-formed reply (usually kError) and
// never crash or corrupt state. An embedded deployment lives or dies on
// this: the server cannot trust the radio link.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "minicc/compiler.h"
#include "net/switch.h"
#include "net/transport.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/system.h"
#include "util/rng.h"

namespace sc {
namespace {

using softcache::MemoryController;
using softcache::MsgType;
using softcache::Reply;
using softcache::Request;

image::Image TestImage() {
  auto img = minicc::CompileMiniC(R"(
    int f(int x) { return x * 2 + 1; }
    int main() { return f(20); }
  )");
  SC_CHECK(img.ok());
  return std::move(*img);
}

// Every reply must itself parse as a valid frame.
void ExpectWellFormedReply(const std::vector<uint8_t>& reply_bytes) {
  auto reply = Reply::Parse(reply_bytes);
  ASSERT_TRUE(reply.ok()) << "MC produced an unparseable reply";
}

TEST(ProtocolFuzz, RandomGarbageNeverCrashesTheServer) {
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  util::Rng rng(404);
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> garbage(rng.Below(200));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Below(256));
    ExpectWellFormedReply(mc.Handle(garbage));
  }
}

TEST(ProtocolFuzz, BitFlippedValidRequests) {
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  util::Rng rng(405);
  Request request;
  request.type = MsgType::kChunkRequest;
  request.addr = img.entry;
  const auto valid = request.Serialize();
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Below(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
    }
    ExpectWellFormedReply(mc.Handle(mutated));
  }
}

TEST(ProtocolFuzz, TruncatedAndExtendedFrames) {
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  Request request;
  request.type = MsgType::kDataRequest;
  request.addr = img.data_base;
  request.length = 32;
  const auto valid = request.Serialize();
  for (size_t len = 0; len <= valid.size(); ++len) {
    std::vector<uint8_t> prefix(valid.begin(), valid.begin() + static_cast<long>(len));
    ExpectWellFormedReply(mc.Handle(prefix));
  }
  auto extended = valid;
  extended.resize(valid.size() + 1000, 0xab);
  ExpectWellFormedReply(mc.Handle(extended));
}

TEST(ProtocolFuzz, HostileRequestFields) {
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const struct {
    MsgType type;
    uint32_t addr;
    uint32_t length;
  } kCases[] = {
      {MsgType::kChunkRequest, 0, 0},                      // null address
      {MsgType::kChunkRequest, 0xffffffff, 0},             // wild address
      {MsgType::kChunkRequest, img.entry + 1, 0},          // misaligned
      {MsgType::kDataRequest, img.data_base, 0xffffffff},  // huge length
      {MsgType::kDataRequest, 0xfffffff0, 64},             // wraps address space
      {MsgType::kDataRequest, 0, 16},                      // below data base
      {MsgType::kTextWrite, img.text_base - 4, 8},         // below text
      {MsgType::kTextWrite, img.text_end() - 4, 8},        // straddles end
      {static_cast<MsgType>(0xdead), 0, 0},                // unknown type
  };
  for (const auto& c : kCases) {
    Request request;
    request.type = c.type;
    request.addr = c.addr;
    request.length = c.length;
    if (c.type == MsgType::kTextWrite) request.payload.resize(c.length, 0);
    const auto reply_bytes = mc.Handle(request.Serialize());
    auto reply = Reply::Parse(reply_bytes);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MsgType::kError)
        << "type=" << static_cast<uint32_t>(c.type) << " addr=0x" << std::hex
        << c.addr;
  }
}

TEST(ProtocolFuzz, HelloFramesSurviveAbuse) {
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);

  // A clean hello handshakes regardless of hostile addr/length/epoch fields.
  Request hello;
  hello.type = MsgType::kHello;
  hello.addr = 0xffffffff;
  hello.epoch = 0xbeef;
  auto ack = Reply::Parse(mc.Handle(hello.Serialize()));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, MsgType::kHelloAck);
  EXPECT_EQ(ack->addr, mc.session(0).epoch());

  // A hello carrying a payload is malformed (hellos are header-only).
  Request fat = hello;
  fat.length = 8;
  fat.payload.assign(8, 0x5a);
  auto reply = Reply::Parse(mc.Handle(fat.Serialize()));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kError);

  // Bit-flipped hellos and hello-acks-as-requests never crash the server.
  util::Rng rng(407);
  const auto valid = hello.Serialize();
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Below(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
    }
    ExpectWellFormedReply(mc.Handle(mutated));
  }
  Request impostor;
  impostor.type = MsgType::kHelloAck;  // a reply type arriving as a request
  ExpectWellFormedReply(mc.Handle(impostor.Serialize()));
}

TEST(ProtocolFuzz, RandomEpochStampsNeverBreakTheServer) {
  // Reads are served whatever epoch they claim; writes from other epochs are
  // rejected; every reply stays well-formed and carries the live epoch.
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  util::Rng rng(408);
  for (int i = 0; i < 500; ++i) {
    Request request;
    request.type = (i % 2 == 0) ? MsgType::kChunkRequest
                                : MsgType::kDataWriteback;
    request.seq = static_cast<uint32_t>(1000 + i);
    request.addr = (i % 2 == 0) ? img.entry : img.data_base;
    request.epoch = static_cast<uint32_t>(rng.Below(0x10000));
    if (request.type == MsgType::kDataWriteback) {
      request.length = 4;
      request.payload = {1, 2, 3, 4};
    }
    auto reply = Reply::Parse(mc.Handle(request.Serialize()));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->epoch, mc.session(0).epoch());
    if (request.type == MsgType::kChunkRequest) {
      EXPECT_EQ(reply->type, MsgType::kChunkReply);
    } else if (request.epoch != mc.session(0).epoch()) {
      EXPECT_EQ(reply->type, MsgType::kError);
    }
    if (i % 100 == 99) mc.Restart();  // keep the live epoch moving
  }
}

// A transport that answers chunk requests with attacker-crafted batch
// replies (everything else is served by the real MC). Exercises the CC's
// kChunkBatchReply install path — sub-chunk header parsing, word-count
// bounds, trailing-byte detection — under the sanitizer build.
class HostileBatchTransport : public net::Transport {
 public:
  using Craft = std::function<Reply(const Request&)>;
  HostileBatchTransport(MemoryController& mc, Craft craft)
      : mc_(mc), craft_(std::move(craft)) {}

  uint64_t Send(const std::vector<uint8_t>& frame) override {
    ++stats_.frames_sent;
    auto request = Request::Parse(frame);
    SC_CHECK(request.ok());
    if (request->type == MsgType::kChunkRequest) {
      Reply evil = craft_(*request);
      evil.seq = request->seq;
      inbox_.push_back(evil.Serialize());
    } else {
      inbox_.push_back(mc_.Handle(frame));
    }
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
  Craft craft_;
  std::deque<std::vector<uint8_t>> inbox_;
  net::TransportStats stats_;
};

TEST(ProtocolFuzz, HostileBatchRepliesFailCleanlyThroughCcInstallPath) {
  const image::Image img = TestImage();
  struct Case {
    const char* name;
    HostileBatchTransport::Craft craft;
  };
  const auto batch = [](uint32_t count, std::vector<uint8_t> payload) {
    Reply reply;
    reply.type = MsgType::kChunkBatchReply;
    reply.aux = count;
    reply.payload = std::move(payload);
    return reply;
  };
  const std::vector<Case> kCases = {
      {"short sub-chunk header",
       [&](const Request&) { return batch(2, std::vector<uint8_t>(8, 0xaa)); }},
      {"word count overflows payload",
       [&](const Request& r) {
         std::vector<uint8_t> payload(16, 0);
         payload[0] = static_cast<uint8_t>(r.addr);  // addr field (ignored)
         payload[12] = 0xff;                         // nwords = huge
         payload[13] = 0xff;
         return batch(1, payload);
       }},
      {"trailing bytes after last sub-chunk",
       [&](const Request&) {
         std::vector<uint8_t> payload(16, 0);  // one empty sub-chunk
         payload.push_back(0xcc);
         payload.push_back(0xcc);
         return batch(1, payload);
       }},
      {"empty batch",
       [&](const Request&) { return batch(0, std::vector<uint8_t>{}); }},
      {"absurd chunk count",
       [&](const Request&) {
         return batch(0xffffff, std::vector<uint8_t>(24, 0x11));
       }},
  };

  for (const Case& c : kCases) {
    softcache::SoftCacheConfig config;
    MemoryController* mc_ptr = nullptr;
    config.transport_factory =
        [&](MemoryController& mc,
            net::Channel&) -> std::unique_ptr<net::Transport> {
      mc_ptr = &mc;
      return std::make_unique<HostileBatchTransport>(mc, c.craft);
    };
    softcache::SoftCacheSystem system(img, config);
    const vm::RunResult result = system.Run(1'000'000);
    EXPECT_EQ(result.reason, vm::StopReason::kFault) << c.name;
    EXPECT_FALSE(result.fault_message.empty()) << c.name;
    ASSERT_NE(mc_ptr, nullptr);
  }
}

TEST(ProtocolFuzz, ChunkReplyForAnotherAddressFailsCleanly) {
  // A well-formed, checksummed chunk reply for a chunk that does not cover
  // the demanded address (here: the server's own reply for the other
  // function) must not serve the miss. The ARM style would otherwise index
  // that procedure's word map with the demanded address.
  const image::Image img = TestImage();
  std::vector<uint32_t> functions;
  for (const image::Symbol& sym : img.symbols) {
    if (sym.kind == image::SymbolKind::kFunction) functions.push_back(sym.addr);
  }
  ASSERT_GE(functions.size(), 2u);
  for (const softcache::Style style :
       {softcache::Style::kSparc, softcache::Style::kArm}) {
    softcache::SoftCacheConfig config;
    config.style = style;
    config.transport_factory =
        [&](MemoryController& mc,
            net::Channel&) -> std::unique_ptr<net::Transport> {
      return std::make_unique<HostileBatchTransport>(
          mc, [&mc, &functions](const Request& r) {
            Request other = r;
            other.addr = r.addr == functions[0] ? functions[1] : functions[0];
            return *Reply::Parse(mc.Handle(other.Serialize()));
          });
    };
    softcache::SoftCacheSystem system(img, config);
    const vm::RunResult result = system.Run(1'000'000);
    EXPECT_EQ(result.reason, vm::StopReason::kFault);
    EXPECT_NE(result.fault_message.find("does not cover"), std::string::npos)
        << result.fault_message;
    EXPECT_EQ(system.stats().blocks_translated, 0u);
  }
}

TEST(ProtocolFuzz, HostileClientIdsThroughTheSwitchDemux) {
  // Frames carrying arbitrary client ids arrive on switch ports they don't
  // belong to: every one must come back as a well-formed reply, misrouted
  // ids must never create or touch the spoofed session, and the port's own
  // session must keep working afterwards.
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Switch net_switch(
      [&mc](uint32_t port, const std::vector<uint8_t>& frame) {
        return mc.HandlePort(port, frame);
      });
  net::FrameHandler ports[3] = {net_switch.Port(0), net_switch.Port(1),
                                net_switch.Port(2)};
  util::Rng rng(505);
  uint64_t misroutes = 0;
  for (int i = 0; i < 2000; ++i) {
    Request request;
    request.type = static_cast<MsgType>(rng.Below(16));
    request.seq = static_cast<uint32_t>(1 + rng.Below(1000));
    request.addr = static_cast<uint32_t>(rng.Below(1u << 20));
    request.epoch = static_cast<uint32_t>(rng.Below(4));
    request.client_id = static_cast<uint32_t>(rng.Below(256));
    if (request.type == MsgType::kDataWriteback ||
        request.type == MsgType::kTextWrite) {
      request.payload.resize(rng.Below(16));
      request.length = static_cast<uint32_t>(request.payload.size());
    }
    const uint32_t port = static_cast<uint32_t>(rng.Below(3));
    const auto reply_bytes = ports[port](request.Serialize());
    ExpectWellFormedReply(reply_bytes);
    const auto reply = Reply::Parse(reply_bytes);
    if (request.client_id != port) {
      ++misroutes;
      // Rejected at the demux: the reply is an error stamped with the PORT's
      // session identity, never the spoofed one.
      EXPECT_EQ(reply->type, MsgType::kError);
      EXPECT_EQ(reply->client_id, port);
    }
  }
  EXPECT_GT(misroutes, 0u);
  EXPECT_EQ(mc.server().stats().misrouted_frames, misroutes);
  // Only the three ports (plus the pre-created session 0) ever materialized:
  // spoofing 253 other ids never instantiated their sessions.
  EXPECT_LE(mc.sessions_active(), 3u);
  for (uint32_t id = 3; id < 256; ++id) {
    EXPECT_EQ(mc.FindSession(id), nullptr);
  }
  // The abused ports still serve real traffic.
  for (uint32_t port = 0; port < 3; ++port) {
    Request request;
    request.type = MsgType::kChunkRequest;
    request.seq = 5000 + port;
    request.addr = img.entry;
    request.client_id = port;
    request.epoch = mc.session(port).epoch();
    const auto reply = Reply::Parse(ports[port](request.Serialize()));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MsgType::kChunkReply);
  }
}

TEST(ProtocolFuzz, CrossPostedStaleEpochFramesStayFenced) {
  // A frame replayed onto the RIGHT port but carrying a pre-restart epoch
  // (e.g. a delayed duplicate surfacing after that session crashed) must be
  // rejected by the epoch fence without touching any other session.
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Switch net_switch(
      [&mc](uint32_t port, const std::vector<uint8_t>& frame) {
        return mc.HandlePort(port, frame);
      });
  net::FrameHandler port1 = net_switch.Port(1);
  net::FrameHandler port2 = net_switch.Port(2);

  Request write;
  write.type = MsgType::kDataWriteback;
  write.seq = 1;
  write.addr = img.data_base;
  write.client_id = 1;
  write.epoch = 0;
  write.payload = {1, 2, 3, 4};
  write.length = 4;
  const auto frame = write.Serialize();  // captured pre-crash
  ASSERT_EQ(Reply::Parse(port1(frame))->type, MsgType::kWritebackAck);

  mc.RestartSession(1);

  // Same bytes, right port, stale epoch -> fenced.
  const auto fenced = Reply::Parse(port1(frame));
  EXPECT_EQ(fenced->type, MsgType::kError);
  EXPECT_EQ(mc.session(1).stats().stale_epoch_rejects, 1u);
  // Same bytes cross-posted to another port -> rejected as misrouted BEFORE
  // the epoch fence; session 2's epoch state is untouched.
  const auto crossed = Reply::Parse(port2(frame));
  EXPECT_EQ(crossed->type, MsgType::kError);
  EXPECT_EQ(crossed->client_id, 2u);
  EXPECT_EQ(mc.session(2).stats().stale_epoch_rejects, 0u);
  EXPECT_EQ(mc.session(2).stats().requests, 0u);
  EXPECT_EQ(mc.server().stats().misrouted_frames, 1u);
}

// ---------------------------------------------------------------------------
// Corrupted digest/batch replies against the integrity-enabled install path
// ---------------------------------------------------------------------------

// A transport that rewrites kChunkSharedRequest answers into hostile
// kChunkDigestReply frames (everything else served by the real MC):
// the CC must treat every crafted digest as untrusted and heal through
// the full-body fallback, never silently installing someone else's body.
class HostileDigestTransport : public net::Transport {
 public:
  using Craft = std::function<Reply(const Request&)>;
  HostileDigestTransport(MemoryController& mc, Craft craft)
      : mc_(mc), craft_(std::move(craft)) {}

  uint64_t Send(const std::vector<uint8_t>& frame) override {
    ++stats_.frames_sent;
    auto request = Request::Parse(frame);
    SC_CHECK(request.ok());
    if (request->type == MsgType::kChunkSharedRequest) {
      Reply evil = craft_(*request);
      evil.seq = request->seq;
      inbox_.push_back(evil.Serialize());
    } else {
      inbox_.push_back(mc_.Handle(frame));
    }
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
  Craft craft_;
  std::deque<std::vector<uint8_t>> inbox_;
  net::TransportStats stats_;
};

TEST(ProtocolFuzz, CorruptedDigestRepliesHealThroughFullBodyFallback) {
  // Every shared request is answered with a digest that matches nothing
  // (bit-flipped per request). With integrity checking on, the CC must
  // fall back to a full-body fetch for every single one and still produce
  // the correct run — zero silent installs, zero faults.
  const image::Image img = TestImage();

  softcache::SoftCacheConfig clean_config;
  softcache::SoftCacheSystem clean(img, clean_config);
  const vm::RunResult clean_result = clean.Run(1'000'000);
  ASSERT_EQ(clean_result.reason, vm::StopReason::kHalted);

  softcache::SoftCacheConfig config;
  config.shared_reply = true;
  config.integrity.enabled = true;
  config.transport_factory =
      [&](MemoryController& mc,
          net::Channel&) -> std::unique_ptr<net::Transport> {
    return std::make_unique<HostileDigestTransport>(
        mc, [](const Request& r) {
          Reply evil;
          evil.type = MsgType::kChunkDigestReply;
          // A digest nothing in the run ever published: both words are
          // address-derived garbage.
          evil.aux = r.addr ^ 0xdeadbeef;
          evil.extra = ~r.addr;
          return evil;
        });
  };
  softcache::SoftCacheSystem system(img, config);
  const vm::RunResult result = system.Run(1'000'000);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_EQ(result.exit_code, clean_result.exit_code);
  EXPECT_EQ(system.OutputString(), clean.OutputString());
  // Every crafted digest read as a miss and healed through the fallback.
  EXPECT_GT(system.stats().shared.digest_replies, 0u);
  EXPECT_EQ(system.stats().shared.digest_misses,
            system.stats().shared.digest_replies);
  EXPECT_EQ(system.stats().shared.digest_hits, 0u);
}

TEST(ProtocolFuzz, HostileBatchRepliesFailCleanlyWithIntegrityOn) {
  // The same hostile batch payloads as above, but with the integrity layer
  // stamping/verifying installs: every corruption must still be rejected
  // before execution (clean Fail), never silently installed — and the
  // digest machinery must not mask the parse errors.
  const image::Image img = TestImage();
  struct Case {
    const char* name;
    HostileBatchTransport::Craft craft;
  };
  const auto batch = [](uint32_t count, std::vector<uint8_t> payload) {
    Reply reply;
    reply.type = MsgType::kChunkBatchReply;
    reply.aux = count;
    reply.payload = std::move(payload);
    return reply;
  };
  const std::vector<Case> kCases = {
      {"short sub-chunk header",
       [&](const Request&) { return batch(2, std::vector<uint8_t>(8, 0xaa)); }},
      {"word count overflows payload",
       [&](const Request& r) {
         std::vector<uint8_t> payload(16, 0);
         payload[0] = static_cast<uint8_t>(r.addr);
         payload[12] = 0xff;
         payload[13] = 0xff;
         return batch(1, payload);
       }},
      {"head addr is not the demanded addr",
       [&](const Request& r) {
         // A structurally valid one-chunk batch whose head claims a
         // different address: must be rejected by the addr binding, not
         // installed at the attacker's address.
         std::vector<uint8_t> payload(16, 0);
         const uint32_t addr = r.addr + 0x40;
         payload[0] = static_cast<uint8_t>(addr);
         payload[1] = static_cast<uint8_t>(addr >> 8);
         payload[2] = static_cast<uint8_t>(addr >> 16);
         payload[3] = static_cast<uint8_t>(addr >> 24);
         return batch(1, payload);
       }},
      {"empty batch",
       [&](const Request&) { return batch(0, std::vector<uint8_t>{}); }},
  };

  for (const Case& c : kCases) {
    softcache::SoftCacheConfig config;
    config.integrity.enabled = true;
    config.transport_factory =
        [&](MemoryController& mc,
            net::Channel&) -> std::unique_ptr<net::Transport> {
      return std::make_unique<HostileBatchTransport>(mc, c.craft);
    };
    softcache::SoftCacheSystem system(img, config);
    const vm::RunResult result = system.Run(1'000'000);
    EXPECT_EQ(result.reason, vm::StopReason::kFault) << c.name;
    EXPECT_FALSE(result.fault_message.empty()) << c.name;
    EXPECT_EQ(system.stats().blocks_translated, 0u)
        << c.name << ": a hostile batch reached the install path";
  }
}

TEST(ProtocolFuzz, ValidRequestsStillServedAfterAbuse) {
  // After a storm of garbage, the server must still answer real requests.
  const image::Image img = TestImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  util::Rng rng(406);
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> garbage(rng.Below(100));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Below(256));
    (void)mc.Handle(garbage);
  }
  Request request;
  request.type = MsgType::kChunkRequest;
  request.addr = img.entry;
  auto reply = Reply::Parse(mc.Handle(request.Serialize()));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kChunkReply);
  EXPECT_GT(reply->payload.size(), 0u);
}

}  // namespace
}  // namespace sc
