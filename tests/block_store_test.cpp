// The cache controller's block store: a slab of blocks, a per-tcache-word
// owner index and a per-original-text-word index. These tests run real
// programs through tiny tcaches and, after every miss, check the store
// against a brute-force model built from the slab alone (property test) or
// against CacheController::CheckInvariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "minicc/compiler.h"
#include "softcache/system.h"
#include "tests/program_gen.h"
#include "tests/testing.h"
#include "util/rng.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc::softcache {

// Reaches into the block store (CacheController befriends it).
struct CacheControllerPeer {
  struct LiveBlock {
    uint32_t slot;
    uint32_t orig_addr;
    uint32_t orig_span;
    uint32_t tc_addr;
    uint32_t tc_bytes;
    bool pinned;
    std::vector<uint32_t> index_map;
  };

  // Every live slab slot, sorted by tcache address: the model's block list,
  // found without the owner index.
  static std::vector<LiveBlock> LiveBlocks(const CacheController& cc) {
    std::vector<LiveBlock> live;
    for (uint32_t slot = 0; slot < cc.slab_.size(); ++slot) {
      const CacheController::Block& b = cc.slab_[slot];
      if (b.id == 0) continue;
      live.push_back(LiveBlock{slot, b.orig_addr, b.orig_span, b.tc_addr,
                               b.tc_bytes, b.pinned, b.index_map});
    }
    std::sort(live.begin(), live.end(),
              [](const LiveBlock& a, const LiveBlock& b) {
                return a.tc_addr < b.tc_addr;
              });
    return live;
  }
  static size_t SlabSize(const CacheController& cc) { return cc.slab_.size(); }
  static size_t FreeSlots(const CacheController& cc) {
    return cc.free_slots_.size();
  }
  static std::vector<uint16_t> OwnerWords(const CacheController& cc) {
    return std::vector<uint16_t>(cc.owner_.begin(), cc.owner_.end());
  }
  static bool FindResident(CacheController& cc, uint32_t orig, uint32_t* tc) {
    return cc.FindResident(orig, tc) != nullptr;
  }
  static uint32_t NthBlockTc(const CacheController& cc, uint64_t k) {
    return cc.NthBlock(k).tc_addr;
  }
  // The id of the block containing tcache address `tc` (0 if none).
  static uint64_t BlockIdAt(CacheController& cc, uint32_t tc) {
    const CacheController::Block* block = cc.BlockAt(tc);
    return block == nullptr ? 0 : block->id;
  }
  static bool Alive(CacheController& cc, uint64_t id) {
    return cc.BlockById(id) != nullptr;
  }
  static uint32_t OrigAt(CacheController& cc, uint32_t tc) {
    return cc.OrigForTcacheAddr(*cc.BlockAt(tc), tc);
  }
  static uint32_t Resolve(CacheController& cc, uint32_t orig) {
    return cc.ResolveEntry(orig).tc_addr;
  }
  static void FlushAll(CacheController& cc) { cc.FlushAll(); }
  static LiveBlock LiveBlockAt(CacheController& cc, uint32_t tc) {
    const CacheController::Block& b = *cc.BlockAt(tc);
    return LiveBlock{static_cast<uint32_t>(b.id & CacheController::kSlotMask),
                     b.orig_addr, b.orig_span, b.tc_addr, b.tc_bytes, b.pinned,
                     b.index_map};
  }
};

namespace {

// Forwards the machine's traps to the cache controller and hands every
// resolved miss target to `after`, which returns the pc to resume at.
class MissHook : public vm::TrapHandler {
 public:
  MissHook(CacheController& cc, std::function<uint32_t(uint32_t)> after)
      : cc_(cc), after_(std::move(after)) {}

  uint32_t OnTcMiss(vm::Machine& m, uint32_t stub) override {
    const uint32_t target = cc_.OnTcMiss(m, stub);
    return target == 0 ? 0 : after_(target);
  }
  uint32_t OnTcJalr(vm::Machine& m, const isa::Instr& instr,
                    uint32_t pc) override {
    const uint32_t target = cc_.OnTcJalr(m, instr, pc);
    return target == 0 ? 0 : after_(target);
  }
  uint32_t OnIcacheInvalidate(vm::Machine& m, uint32_t addr, uint32_t len,
                              uint32_t pc) override {
    return cc_.OnIcacheInvalidate(m, addr, len, pc);
  }

 private:
  CacheController& cc_;
  std::function<uint32_t(uint32_t)> after_;
};

using Peer = CacheControllerPeer;

// Brute-force check of the store: walk order, owner words, the original
// index (IsResident / FindResident over every text word), the k-th block
// pick and the free-slot count, all derived from the slab's live slots.
void ExpectStoreMatchesModel(CacheController& cc, const image::Image& img,
                             Style style, util::Rng& rng) {
  const std::vector<Peer::LiveBlock> live = Peer::LiveBlocks(cc);
  ASSERT_EQ(cc.ResidentBlocks(), live.size());
  ASSERT_EQ(Peer::FreeSlots(cc) + live.size(), Peer::SlabSize(cc));

  const std::vector<CacheController::BlockView> walk = cc.SnapshotBlocks();
  ASSERT_EQ(walk.size(), live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(walk[i].tc_addr, live[i].tc_addr) << "walk order, block " << i;
    ASSERT_EQ(walk[i].orig_addr, live[i].orig_addr);
    ASSERT_EQ(walk[i].tc_bytes, live[i].tc_bytes);
    ASSERT_EQ(walk[i].pinned, live[i].pinned);
  }

  std::vector<uint16_t> owners(Peer::OwnerWords(cc).size(), 0);
  for (const Peer::LiveBlock& b : live) {
    for (uint32_t a = b.tc_addr; a < b.tc_addr + b.tc_bytes; a += 4) {
      const uint32_t w = (a - cc.local_base()) / 4;
      ASSERT_EQ(owners[w], 0) << "overlapping blocks";
      owners[w] = static_cast<uint16_t>(b.slot + 1);
    }
  }
  ASSERT_EQ(Peer::OwnerWords(cc), owners) << "owner words";

  for (uint32_t orig = img.text_base; orig <= img.text_end(); orig += 4) {
    const Peer::LiveBlock* want = nullptr;
    bool starts_block = false;
    for (const Peer::LiveBlock& b : live) {
      if (b.orig_addr == orig) starts_block = true;
      const bool covers = style == Style::kArm
                              ? orig >= b.orig_addr &&
                                    orig < b.orig_addr + b.orig_span
                              : orig == b.orig_addr;
      if (covers) want = &b;
    }
    ASSERT_EQ(cc.IsResident(orig), starts_block) << "IsResident " << orig;
    uint32_t tc = 0;
    ASSERT_EQ(Peer::FindResident(cc, orig, &tc), want != nullptr)
        << "FindResident " << orig;
    if (want != nullptr) {
      const uint32_t want_tc =
          want->index_map.empty()
              ? want->tc_addr
              : want->tc_addr +
                    want->index_map[(orig - want->orig_addr) / 4] * 4;
      ASSERT_EQ(tc, want_tc) << "FindResident tc " << orig;
    }
  }

  if (!live.empty()) {
    const uint64_t k = rng.Below(live.size());
    ASSERT_EQ(Peer::NthBlockTc(cc, k), live[k].tc_addr) << "k-th block " << k;
  }
}

// The smallest ARM tcache that always has room: three times the largest
// translated procedure (a call site grows by three words), so a pinned
// procedure leaves a window the size of any other on one side of it.
uint32_t ArmTcacheBytes(const image::Image& img) {
  uint32_t largest = 0;
  for (const image::Symbol& sym : img.symbols) {
    if (sym.kind != image::SymbolKind::kFunction) continue;
    uint32_t bytes = sym.size;
    for (uint32_t a = sym.addr; a < sym.addr + sym.size; a += 4) {
      if (isa::Decode(img.TextWord(a)).op == isa::Opcode::kJal) bytes += 12;
    }
    largest = std::max(largest, bytes);
  }
  return std::max(1024u, 3 * largest);
}

constexpr uint32_t kModelChecksPerRun = 1500;
constexpr int kParams = 4;

// Runs `img` under a `tcache_bytes` tcache with seeded random Pin/Unpin,
// FlushAll and icache invalidations between misses, checking the store
// against the model after each of the first kModelChecksPerRun misses; the
// run must still match native execution.
void RunBlockStoreProperty(const image::Image& img, const std::string& input,
                           Style style, uint32_t tcache_bytes, uint64_t seed) {
  std::string native_out;
  const vm::RunResult native =
      RunNative(img, input, &native_out, 400'000'000);
  ASSERT_EQ(native.reason, vm::StopReason::kHalted);

  util::Rng rng(seed * 31 + (style == Style::kArm ? 7 : 3));
  SoftCacheConfig config;
  config.style = style;
  config.tcache_bytes = tcache_bytes;
  config.evict = rng.Chance(1, 2) ? EvictPolicy::kFifoRing : EvictPolicy::kFlushAll;
  SoftCacheSystem system(img, config);
  system.SetInput(input);
  ASSERT_EQ(system.Run(0).reason, vm::StopReason::kInstrLimit);  // attaches
  CacheController& cc = system.cc();

  std::vector<uint32_t> demanded;  // chunk starts the program asked for
  std::vector<uint32_t> pinned;
  uint32_t checks = 0;
  MissHook hook(cc, [&](uint32_t target) -> uint32_t {
    const uint32_t target_orig = Peer::OrigAt(cc, target);
    const uint64_t target_block = Peer::BlockIdAt(cc, target);
    if (demanded.size() < 4096) demanded.push_back(target_orig);
    if (checks >= kModelChecksPerRun) return target;
    // ARM procedures miss rarely once resident, so stir them more often.
    switch (rng.Below(style == Style::kArm ? 5 : 16)) {
      case 0:
        if (pinned.empty()) {
          const uint32_t orig = demanded[rng.Below(demanded.size())];
          EXPECT_TRUE(cc.Pin(orig));
          pinned.push_back(orig);
          // A large pinned block could leave no window for the biggest
          // block; keep only small ones pinned.
          uint32_t tc = 0;
          if (Peer::FindResident(cc, orig, &tc) &&
              Peer::LiveBlockAt(cc, tc).tc_bytes > tcache_bytes / 16) {
            cc.Unpin(orig);
            pinned.pop_back();
          }
        }
        break;
      case 1:
        if (!pinned.empty()) {
          cc.Unpin(pinned.back());
          pinned.pop_back();
        }
        break;
      case 2:
        Peer::FlushAll(cc);
        break;
      case 3: {
        // A guest icache invalidation of a few (unchanged) text words.
        const uint32_t orig = demanded[rng.Below(demanded.size())];
        const uint32_t len = 4 * static_cast<uint32_t>(1 + rng.Below(8));
        const uint32_t end = std::min(orig + len, img.text_end());
        cc.OnIcacheInvalidate(system.machine(), orig, end - orig, /*pc=*/0);
        uint32_t tc = 0;
        if (!pinned.empty() && !Peer::FindResident(cc, pinned.back(), &tc)) {
          pinned.pop_back();  // invalidation evicts pinned blocks too
        }
        break;
      }
      default:
        break;
    }
    // The operation may have evicted the block the miss resolved to.
    const uint32_t resume = Peer::Alive(cc, target_block)
                                ? target
                                : Peer::Resolve(cc, target_orig);
    ++checks;
    ExpectStoreMatchesModel(cc, img, style, rng);
    return ::testing::Test::HasFailure() ? 0 : resume;
  });
  system.machine().set_trap_handler(&hook);
  const vm::RunResult result = system.Run(400'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted)
      << result.fault_message << " seed=" << seed;
  EXPECT_EQ(result.exit_code, native.exit_code);
  EXPECT_EQ(system.OutputString(), native_out);
  EXPECT_GT(checks, 0u);
  cc.CheckInvariants();
}

void RunRandomProgram(uint64_t seed, Style style) {
  ProgramGen gen(seed);
  const std::string source = gen.Generate(/*arm_safe=*/style == Style::kArm);
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  RunBlockStoreProperty(*img, "", style,
                        style == Style::kArm ? ArmTcacheBytes(*img) : 1024,
                        seed);
}

class BlockStoreProperty : public ::testing::TestWithParam<int> {
 protected:
  // This parameter's seeds: GetParam(), then every kParams-th after it.
  template <typename Fn>
  void ForEachSeed(Fn&& fn) {
    for (int i = 0; i < testing::TestSeeds() && !HasFailure(); ++i) {
      fn(static_cast<uint64_t>(GetParam() + i * kParams));
    }
  }
};

TEST_P(BlockStoreProperty, SparcMatchesBruteForceModel) {
  ForEachSeed([](uint64_t seed) { RunRandomProgram(seed, Style::kSparc); });
}

TEST_P(BlockStoreProperty, ArmMatchesBruteForceModel) {
  ForEachSeed([](uint64_t seed) { RunRandomProgram(seed, Style::kArm); });
}

// Generated ARM-safe programs make few calls, so few procedure misses; a
// real workload at a tcache below its hot set misses tens of thousands of
// times.
TEST_P(BlockStoreProperty, ArmWorkloadMatchesBruteForceModel) {
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const std::vector<uint8_t> bytes = workloads::MakeInput("adpcm_enc", 1);
  const std::string input(bytes.begin(), bytes.end());
  ForEachSeed([&](uint64_t seed) {
    RunBlockStoreProperty(img, input, Style::kArm, 1536, seed);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockStoreProperty,
                         ::testing::Range(1, 1 + kParams));

// CheckInvariants (owner words, original-text index, slab accounting, edges,
// stubs and cells) after every miss of a workload that evicts constantly.
void ExpectInvariantsAfterEveryMiss(Style style, uint32_t tcache_bytes) {
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  SoftCacheConfig config;
  config.style = style;
  config.tcache_bytes = tcache_bytes;
  SoftCacheSystem system(img, config);
  system.SetInput(workloads::MakeInput("adpcm_enc", 1));
  ASSERT_EQ(system.Run(0).reason, vm::StopReason::kInstrLimit);  // attaches
  uint64_t misses = 0;
  MissHook hook(system.cc(), [&](uint32_t target) {
    system.cc().CheckInvariants();
    ++misses;
    return target;
  });
  system.machine().set_trap_handler(&hook);
  const vm::RunResult result = system.Run(400'000);
  ASSERT_EQ(result.reason, vm::StopReason::kInstrLimit)
      << result.fault_message;
  EXPECT_GT(misses, 1000u);
  EXPECT_GT(system.stats().evictions, 1000u);
}

TEST(BlockStore, InvariantsHoldAfterEveryMissSparc) {
  ExpectInvariantsAfterEveryMiss(Style::kSparc, 1024);
}

TEST(BlockStore, InvariantsHoldAfterEveryMissArm) {
  ExpectInvariantsAfterEveryMiss(Style::kArm, 1024);
}

}  // namespace
}  // namespace sc::softcache
