#include "softcache/cc.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "image/layout.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"

namespace sc::softcache {

using isa::Instr;
using isa::Opcode;

namespace {

std::unique_ptr<net::Transport> SessionTransport(const SoftCacheConfig& config,
                                                 MemoryController& mc,
                                                 net::Channel& channel) {
  SC_CHECK(config.transport_factory) << "MultiClientSystem wires every CC";
  return config.transport_factory(mc, channel);
}

}  // namespace

CacheController::CacheController(vm::Machine& machine, MemoryController& mc,
                                 net::Channel& channel, const SoftCacheConfig& config)
    : machine_(machine),
      mc_(mc),
      config_(config),
      session_(SessionTransport(config, mc, channel),
               config.retry, &stats_.net, &stats_.session, MsgType::kTextWrite,
               // Starts at 1: the MC answers unparseable requests with seq 0,
               // which must never match.
               /*first_seq=*/1, config.client_id),
      // Miss-handling latency spread: one bucket per 512 cycles covers the
      // loopback round trip (~12k cycles) with room for retry storms; worse
      // misses clamp into the last bucket.
      miss_latency_(0, 65536, 128),
      fetch_counts_(256),
      // Flat-table sizing: typical translated blocks run well past 16 bytes
      // (body + exit slots), so tcache_bytes/16 covers the realistic resident
      // population (the table still grows for degenerate one-word blocks);
      // the cell region holds exactly one word per forward cell.
      block_tc_(config.tcache_bytes / 16),
      cell_for_orig_(config.forward_cell_bytes / 4) {
  SC_CHECK_EQ(config_.tcache_bytes % 4, 0u);
  SC_CHECK_GE(config_.tcache_bytes, 64u);
  // Conditional-branch patches must reach anywhere in the tcache (imm16
  // word offsets span +-128 KB).
  SC_CHECK_LE(config_.tcache_bytes, 128u * 1024) << "tcache exceeds branch reach";
  SC_CHECK_EQ(config_.forward_cell_bytes % 4, 0u);
  local_base_ = image::kLocalBase;
  cells_base_ = local_base_ + config_.tcache_bytes;
  cells_bytes_ = config_.forward_cell_bytes;
  SC_CHECK_LE(cells_base_ + cells_bytes_, image::kLocalLimit);
  session_.set_quiesce_hook([this] { QuiesceForRecovery(); });
  if (config_.shared_reply) {
    content_store_ =
        std::make_unique<ChunkContentStore>(config_.shared_store_bytes);
  }
  if (config_.integrity.enabled) {
    // One independent fault stream per client-side domain (integrity.h).
    inj_tcache_ = std::make_unique<MemFaultInjector>(config_.integrity.memfault,
                                                     FaultDomain::kTcache);
    inj_staged_ = std::make_unique<MemFaultInjector>(config_.integrity.memfault,
                                                     FaultDomain::kStaged);
    inj_store_ = std::make_unique<MemFaultInjector>(config_.integrity.memfault,
                                                    FaultDomain::kStore);
    inj_sb_ = std::make_unique<MemFaultInjector>(config_.integrity.memfault,
                                                 FaultDomain::kSuperblock);
    machine_.set_sb_integrity(true);
  }
}

void CacheController::Fail(const std::string& what) {
  machine_.RaiseFault("softcache: " + what);
}

void CacheController::Attach() {
  machine_.set_trap_handler(this);
  if (config_.restrict_exec) {
    machine_.SetExecRange(local_base_, local_limit());
  }
  const Resolution entry = ResolveEntry(machine_.pc());
  if (entry.block == nullptr) return;  // fault already raised
  machine_.set_pc(entry.tc_addr);
}

// ---------------------------------------------------------------------------
// Fetching and translation
// ---------------------------------------------------------------------------

namespace {

// Rebuilds a Chunk from its wire form: (addr, packed meta, extra, words).
// Shared by the plain-reply and batched-reply paths; the fallthrough /
// continuation target is reconstructed as the word after the terminator in
// the original program.
Chunk ChunkFromWire(uint32_t addr, uint32_t aux, uint32_t extra,
                    const uint8_t* words, uint32_t nwords) {
  Chunk chunk;
  chunk.orig_addr = addr;
  chunk.exit = UnpackExit(aux);
  chunk.jump_folded = UnpackJumpFolded(aux);
  chunk.entry_word = UnpackEntryWord(aux);
  chunk.taken_target = extra;
  chunk.words.resize(nwords);
  if (nwords != 0) std::memcpy(chunk.words.data(), words, nwords * 4u);
  if (chunk.exit == ExitKind::kBranch || chunk.exit == ExitKind::kCall ||
      chunk.exit == ExitKind::kComputed) {
    chunk.fall_target = chunk.orig_addr + chunk.size_bytes();
  }
  return chunk;
}

}  // namespace

util::Result<Chunk> CacheController::FetchChunk(uint32_t orig_pc) {
  OBS_SPAN("cc", "fetch", "orig", orig_pc);
  pending_flow_id_ = 0;
  current_rid_ = 0;
  // Per-chunk heat: how often this client demanded each chunk start.
  if (uint32_t* heat = fetch_counts_.Find(orig_pc)) {
    ++*heat;
  } else {
    fetch_counts_.Put(orig_pc, 1);
  }
  // A staged prefetched chunk answers the miss with zero round trips.
  Chunk staged;
  if (TakeStaged(orig_pc, &staged)) {
    ++stats_.prefetch.hits;
    OBS_INSTANT("prefetch", "hit", "orig", orig_pc);
    return staged;
  }

  Request request;
  // An opted-in client asks with kChunkSharedRequest, allowing the server to
  // answer with a payload-less digest when the body already crossed the
  // broadcast medium. The frame is otherwise identical to kChunkRequest.
  request.type = config_.shared_reply ? MsgType::kChunkSharedRequest
                                      : MsgType::kChunkRequest;
  request.addr = orig_pc;
  if (config_.prefetch.policy != PrefetchPolicy::kOff) {
    // The hint rides in the otherwise-unused length field; with the policy
    // nibble zero (kOff) the request is byte-identical to the seed protocol.
    request.length = PackPrefetchHints(
        PrefetchHints{static_cast<uint32_t>(config_.prefetch.policy),
                      config_.prefetch.depth, config_.prefetch.max_chunks,
                      config_.prefetch.byte_budget});
  }

  // Causal tracing: stamp a rolling 4-bit request id into the frame's spare
  // type-byte nibble and open a flow arrow from this fetch span. Only while
  // the lane is actively recording — with tracing off the rid stays 0 and
  // the wire bytes are byte-identical to the seed protocol.
  if (obs::Tracer* t = obs::tracer(); t != nullptr && t->recording()) {
    current_rid_ = next_rid_;
    next_rid_ = next_rid_ >= kRidMask ? 1 : next_rid_ + 1;
    request.rid = current_rid_;
    pending_flow_id_ = FlowId(config_.client_id, current_rid_);
    t->FlowStart("flow", "miss", pending_flow_id_);
  }

  uint64_t link_cycles = 0;
  auto reply = session_.Call(std::move(request), &link_cycles);
  Charge(link_cycles);
  Charge(config_.cost.mc_service_cycles);
  ++stats_.prefetch.demand_fetches;

  if (!reply.ok()) return reply.error();
  if (reply->type == MsgType::kError) {
    return util::Error{"MC error: " + std::string(reply->payload.begin(),
                                                  reply->payload.end())};
  }
  if (reply->type == MsgType::kChunkDigestReply) {
    // The body crossed the medium earlier and we (should have) snooped it.
    ++stats_.shared.digest_replies;
    ChunkContentStore::StoredChunk stored;
    bool store_hit = false;
    if (content_store_ != nullptr) {
      if (config_.integrity.enabled) {
        // Verify-on-use: a corrupted snooped body reads as a miss (and is
        // dropped), so the full-body fallback heals it — corrupted words
        // never reach the install path.
        bool dropped = false;
        store_hit = content_store_->VerifiedLookup(DigestFromReply(*reply),
                                                   &stored, &dropped);
        if (dropped) {
          ++stats_.integrity.corruptions_detected;
          ++stats_.integrity.store_drops;
          OBS_INSTANT("cc", "store_corrupt", "orig", orig_pc);
        }
      } else {
        store_hit = content_store_->Lookup(DigestFromReply(*reply), &stored);
      }
    }
    if (store_hit &&
        (orig_pc < stored.addr ||
         orig_pc >= stored.addr + static_cast<uint32_t>(stored.words->size()))) {
      // The digest binds the chunk's address, so a digest that resolves to a
      // body NOT covering the demanded pc can only come from a corrupted or
      // hostile reply. (Coverage, not equality: ARM whole-procedure chunks
      // legitimately start at the symbol, below a mid-procedure demand.)
      // Installing it would pollute the tcache at the wrong address and
      // never satisfy this miss; treat it as a store miss and refetch
      // ground truth through the full-body path instead.
      if (config_.integrity.enabled) {
        ++stats_.integrity.corruptions_detected;
      }
      OBS_INSTANT("cc", "store_addr_mismatch", "orig", orig_pc);
      store_hit = false;
    }
    if (store_hit) {
      ++stats_.shared.digest_hits;
      stats_.shared.bytes_saved += stored.words->size();
      OBS_INSTANT("shared", "digest_hit", "orig", orig_pc);
      return ChunkFromWire(stored.addr, stored.aux, stored.extra,
                           stored.words->data(),
                           static_cast<uint32_t>(stored.words->size() / 4));
    }
    // The bounded store displaced the body (or the snoop never reached us):
    // fall back to a plain kChunkRequest, which always carries a full body.
    ++stats_.shared.digest_misses;
    OBS_INSTANT("shared", "digest_miss", "orig", orig_pc);
    return FetchChunkFullBody(orig_pc);
  }
  if (reply->type == MsgType::kChunkBatchReply) {
    auto views = ParseBatchPayload(reply->payload, reply->aux);
    if (!views.ok()) return views.error();
    if (views->empty()) return util::Error{"empty batch reply"};
    ++stats_.prefetch.batches;
    // The demanded chunk leads the batch; the rest are speculative and go to
    // the staging buffer.
    const BatchChunkView& head = (*views)[0];
    if (orig_pc != head.addr &&
        (orig_pc < head.addr ||
         orig_pc - head.addr >= static_cast<uint64_t>(head.nwords) * 4)) {
      // A legitimate batch always leads with the chunk covering the demanded
      // pc (ARM procedure chunks start at the symbol, which may sit below a
      // mid-procedure demand; a block that is only a folded jump translates
      // to zero words, so its start address still counts); anything else is
      // a corrupted or hostile reply and must not reach install.
      return util::Error{"batch head addr mismatch"};
    }
    Chunk chunk =
        ChunkFromWire(head.addr, head.aux, head.extra, head.words, head.nwords);
    for (size_t i = 1; i < views->size(); ++i) {
      const BatchChunkView& view = (*views)[i];
      ++stats_.prefetch.chunks_prefetched;
      StageChunk(
          ChunkFromWire(view.addr, view.aux, view.extra, view.words, view.nwords));
    }
    return chunk;
  }
  if (reply->type != MsgType::kChunkReply || reply->payload.size() % 4 != 0) {
    return util::Error{"malformed chunk reply"};
  }
  return ChunkFromWire(reply->addr, reply->aux, reply->extra,
                       reply->payload.data(),
                       static_cast<uint32_t>(reply->payload.size() / 4));
}

util::Result<Chunk> CacheController::FetchChunkFullBody(uint32_t orig_pc) {
  Request request;
  request.type = MsgType::kChunkRequest;
  request.addr = orig_pc;
  // The digest-miss fallback is the second leg of the same miss: reuse the
  // rid so the server-side spans of both RPCs join the same flow arrow.
  request.rid = current_rid_;
  uint64_t link_cycles = 0;
  auto reply = session_.Call(std::move(request), &link_cycles);
  Charge(link_cycles);
  Charge(config_.cost.mc_service_cycles);
  ++stats_.prefetch.demand_fetches;
  if (!reply.ok()) return reply.error();
  if (reply->type == MsgType::kError) {
    return util::Error{"MC error: " + std::string(reply->payload.begin(),
                                                  reply->payload.end())};
  }
  if (reply->type != MsgType::kChunkReply || reply->payload.size() % 4 != 0) {
    return util::Error{"malformed chunk reply"};
  }
  return ChunkFromWire(reply->addr, reply->aux, reply->extra,
                       reply->payload.data(),
                       static_cast<uint32_t>(reply->payload.size() / 4));
}

// ---------------------------------------------------------------------------
// Prefetch staging
// ---------------------------------------------------------------------------

uint32_t CacheController::StagedCost(const Chunk& chunk) {
  return kBatchChunkHeaderBytes + static_cast<uint32_t>(chunk.words.size()) * 4;
}

void CacheController::UnstageAt(uint32_t orig_addr) {
  const auto it = staged_.find(orig_addr);
  if (it == staged_.end()) return;
  staged_bytes_ -= StagedCost(it->second);
  staged_.erase(it);
  staged_digest_.erase(orig_addr);
  for (auto fifo = staged_fifo_.begin(); fifo != staged_fifo_.end(); ++fifo) {
    if (*fifo == orig_addr) {
      staged_fifo_.erase(fifo);
      break;
    }
  }
}

void CacheController::StageChunk(Chunk&& chunk) {
  const uint32_t cost = StagedCost(chunk);
  // Useless speculation: already translated, already staged, or bigger than
  // the whole staging buffer.
  if (FindResident(chunk.orig_addr) != nullptr ||
      staged_.count(chunk.orig_addr) != 0 ||
      cost > config_.prefetch.staging_bytes) {
    ++stats_.prefetch.dropped;
    OBS_INSTANT("prefetch", "drop", "orig", chunk.orig_addr);
    return;
  }
  while (staged_bytes_ + cost > config_.prefetch.staging_bytes) {
    SC_CHECK(!staged_fifo_.empty());
    OBS_INSTANT("prefetch", "evict_staged", "orig", staged_fifo_.front());
    UnstageAt(staged_fifo_.front());
    ++stats_.prefetch.evictions;
  }
  OBS_INSTANT("prefetch", "stage", "orig", chunk.orig_addr, "bytes", cost);
  staged_fifo_.push_back(chunk.orig_addr);
  staged_bytes_ += cost;
  if (config_.integrity.enabled) {
    staged_digest_[chunk.orig_addr] = StagedDigest(chunk);
  }
  staged_.emplace(chunk.orig_addr, std::move(chunk));
  ++stats_.prefetch.staged;
}

bool CacheController::TakeStaged(uint32_t orig_pc, Chunk* out) {
  auto it = staged_.find(orig_pc);
  if (it == staged_.end() && config_.style == Style::kArm && !staged_.empty()) {
    // ARM style: the demand may land inside a staged procedure.
    auto below = staged_.upper_bound(orig_pc);
    if (below != staged_.begin()) {
      --below;
      const Chunk& chunk = below->second;
      if (orig_pc >= chunk.orig_addr &&
          orig_pc < chunk.orig_addr + chunk.orig_span_bytes()) {
        it = below;
      }
    }
  }
  if (it == staged_.end()) return false;
  if (config_.integrity.enabled) {
    // Verify-on-use: corrupted staged words must never reach the install
    // path. A mismatch discards the chunk and the miss goes over the wire.
    const auto dig = staged_digest_.find(it->first);
    if (dig == staged_digest_.end() ||
        dig->second != StagedDigest(it->second)) {
      ++stats_.integrity.corruptions_detected;
      ++stats_.integrity.staged_drops;
      OBS_INSTANT("cc", "staged_corrupt", "orig", it->first);
      UnstageAt(it->first);
      return false;
    }
  }
  *out = std::move(it->second);
  out->entry_word = (orig_pc - out->orig_addr) / 4;
  const uint32_t key = it->first;
  staged_.erase(it);
  staged_bytes_ -= StagedCost(*out);
  for (auto fifo = staged_fifo_.begin(); fifo != staged_fifo_.end(); ++fifo) {
    if (*fifo == key) {
      staged_fifo_.erase(fifo);
      break;
    }
  }
  return true;
}

void CacheController::QuiesceForRecovery() {
  while (!staged_fifo_.empty()) {
    OBS_INSTANT("prefetch", "invalidate", "orig", staged_fifo_.front());
    UnstageAt(staged_fifo_.front());
    ++stats_.prefetch.invalidated;
  }
}

bool CacheController::SyncSession() {
  uint64_t link_cycles = 0;
  auto status = session_.Synchronize(&link_cycles);
  Charge(link_cycles);
  if (!status.ok()) {
    Fail(status.error().message);
    return false;
  }
  return true;
}

void CacheController::DropStagedRange(uint32_t addr, uint32_t len) {
  std::vector<uint32_t> victims;
  for (const auto& [start, chunk] : staged_) {
    if (start < addr + len && start + chunk.orig_span_bytes() > addr) {
      victims.push_back(start);
    }
  }
  for (uint32_t start : victims) {
    OBS_INSTANT("prefetch", "invalidate", "orig", start);
    UnstageAt(start);
    ++stats_.prefetch.invalidated;
  }
}

CacheController::Block* CacheController::Translate(uint32_t orig_pc) {
  OBS_SPAN("cc", "translate", "orig", orig_pc);
  auto chunk = FetchChunk(orig_pc);
  if (!chunk.ok()) {
    Fail(chunk.error().message);
    return nullptr;
  }
  Block* block = nullptr;
  {
    OBS_SPAN("cc", "install", "orig", chunk->orig_addr);
    // Close the causal arrow opened at FetchChunk: the flow ends at the
    // install slice that makes the missed chunk executable.
    if (pending_flow_id_ != 0) {
      if (obs::Tracer* t = obs::tracer(); t != nullptr && t->recording()) {
        t->FlowEnd("flow", "miss", pending_flow_id_);
      }
      pending_flow_id_ = 0;
    }
    block = config_.style == Style::kSparc ? InstallSparc(*chunk)
                                           : InstallArm(*chunk);
  }
  if (block != nullptr) {
    ++stats_.blocks_translated;
    stats_.words_installed += block->tc_bytes / 4;
    Charge(static_cast<uint64_t>(config_.cost.install_cycles_per_word) *
           (block->tc_bytes / 4));
    occupancy_.Add(machine_.cycles(), live_bytes_);
    if (config_.integrity.enabled) {
      // Stamp after the last install-time write so the digest covers the
      // final bytes; later patches restamp through RefreshDigestAt.
      block->digest = BlockDigest(*block);
      if (pending_heal_.erase(block->orig_addr) != 0) {
        ++stats_.integrity.heals;
        OBS_INSTANT("cc", "heal", "orig", block->orig_addr);
      }
      if (poisoned_origs_.count(block->orig_addr) != 0) {
        // Degradation ladder, rung 1: this chunk keeps getting corrupted;
        // run it per-instruction under the threaded engine from now on.
        machine_.PoisonCodeRange(block->tc_addr, block->tc_bytes);
        block->poisoned = true;
        ++stats_.integrity.poisoned_blocks;
        OBS_INSTANT("cc", "poison", "orig", block->orig_addr);
      }
    }
  }
  return block;
}

void CacheController::DecodeChunk(const Chunk& chunk) {
  install_decoded_.resize(chunk.words.size());
  for (size_t i = 0; i < chunk.words.size(); ++i) {
    install_decoded_[i] = isa::Decode(chunk.words[i]);
  }
}

CacheController::Block* CacheController::InstallSparc(const Chunk& chunk) {
  const uint32_t body_words = static_cast<uint32_t>(chunk.words.size());
  uint32_t slots = 0;
  switch (chunk.exit) {
    case ExitKind::kNone: slots = 0; break;
    case ExitKind::kFallthrough: slots = 1; break;
    case ExitKind::kComputed: slots = 1; break;
    case ExitKind::kBranch: slots = 2; break;
    case ExitKind::kCall: slots = 2; break;
  }
  DecodeChunk(chunk);
  // Trace chunking: every conditional branch that is not the terminator is
  // a mid-chunk side exit needing its own miss slot.
  const auto is_mid_branch = [this, &chunk, body_words](uint32_t i) {
    if (!isa::IsConditionalBranch(install_decoded_[i].op)) return false;
    return !(i == body_words - 1 && chunk.exit == ExitKind::kBranch);
  };
  uint32_t mid_count = 0;
  for (uint32_t i = 0; i < body_words; ++i) {
    if (is_mid_branch(i)) ++mid_count;
  }
  const uint32_t total_words = body_words + slots + mid_count;
  const uint32_t total_bytes = total_words * 4;
  const uint32_t tc = Allocate(total_bytes);
  if (tc == 0) return nullptr;

  Block block;
  block.id = next_block_id_++;
  block.orig_addr = chunk.orig_addr;
  block.orig_span = chunk.orig_span_bytes();
  block.tc_addr = tc;
  block.tc_bytes = total_bytes;
  block.body_words = body_words;
  block.exit = chunk.exit;
  block.taken_orig = chunk.taken_target;
  block.fall_orig = chunk.fall_target;
  block.slot_words = slots + mid_count;
  if (slots >= 1) block.slot_a = tc + body_words * 4;
  if (slots >= 2) block.slot_b = tc + (body_words + 1) * 4;
  uint32_t next_mid_slot = tc + (body_words + slots) * 4;

  // Stage the block; the terminator (last word) is rewritten to point at the
  // exit slots, and mid-chunk side-exit branches at their miss slots.
  std::vector<uint32_t>& out = install_words_;
  out.resize(total_words);
  const auto stage = [&out, tc](uint32_t addr, uint32_t word) {
    out[(addr - tc) / 4] = word;
  };
  for (uint32_t i = 0; i < body_words; ++i) {
    uint32_t word = chunk.words[i];
    const uint32_t addr = tc + i * 4;
    Instr in = install_decoded_[i];
    if (is_mid_branch(i)) {
      const uint32_t orig_pc = chunk.orig_addr + i * 4;
      const uint32_t taken_orig = isa::BranchTarget(orig_pc, in.imm);
      const uint32_t slot = next_mid_slot;
      next_mid_slot += 4;
      in.imm = isa::OffsetFor(addr, slot);
      stage(addr, isa::Encode(in));
      const uint32_t stub = NewStub(StubInfo{true, taken_orig, addr,
                                             PatchKind::kBranch16, slot, block.id});
      stage(slot, isa::EncTcMiss(stub));
      block.own_stubs.emplace_back(stub, stubs_[stub].generation);
      block.mid_slots.emplace_back(slot, taken_orig);
      continue;
    }
    if (i == body_words - 1) {
      switch (chunk.exit) {
        case ExitKind::kBranch:
          in.imm = isa::OffsetFor(addr, block.slot_b);
          word = isa::Encode(in);
          break;
        case ExitKind::kCall:
          SC_CHECK(in.op == Opcode::kJal);
          in.imm = isa::OffsetFor(addr, block.slot_b);
          word = isa::Encode(in);
          break;
        case ExitKind::kComputed:
          SC_CHECK(in.op == Opcode::kJalr);
          in.op = Opcode::kTcJalr;
          word = isa::Encode(in);
          break;
        default:
          break;  // kNone keeps the return/halt; kFallthrough has no terminator
      }
    }
    stage(addr, word);
  }

  // Exit slot A: fallthrough / continuation / folded-jump target.
  if (block.slot_a != 0) {
    const uint32_t target = chunk.exit == ExitKind::kFallthrough
                                ? chunk.taken_target
                                : chunk.fall_target;
    const uint32_t stub = NewStub(StubInfo{true, target, block.slot_a,
                                           PatchKind::kSlot, block.slot_a, block.id});
    stage(block.slot_a, isa::EncTcMiss(stub));
    block.own_stubs.emplace_back(stub, stubs_[stub].generation);
  }
  // Exit slot B: taken target / callee.
  if (block.slot_b != 0) {
    const uint32_t term_addr = tc + (body_words - 1) * 4;
    const PatchKind kind = chunk.exit == ExitKind::kCall ? PatchKind::kJump26
                                                         : PatchKind::kBranch16;
    const uint32_t stub = NewStub(StubInfo{true, chunk.taken_target, term_addr,
                                           kind, block.slot_b, block.id});
    stage(block.slot_b, isa::EncTcMiss(stub));
    block.own_stubs.emplace_back(stub, stubs_[stub].generation);
  }
  machine_.WriteBlock(tc, out.data(), total_bytes);

  const uint32_t tc_addr = block.tc_addr;
  const uint64_t id = block.id;
  stats_.extra_words_live += slots + mid_count;
  by_orig_[block.orig_addr] = id;
  block_tc_.Put(id, tc_addr);
  auto [it, inserted] = blocks_.emplace(tc_addr, std::move(block));
  SC_CHECK(inserted);
  return &it->second;
}

CacheController::Block* CacheController::InstallArm(const Chunk& chunk) {
  const uint32_t orig_words = static_cast<uint32_t>(chunk.words.size());
  DecodeChunk(chunk);
  // Pass 1: classify and size. Every JAL call site expands to 3 words
  // (lui ra / ori ra / j) plus one appended exit slot.
  std::vector<uint32_t> index_map(orig_words, 0);
  uint32_t tc_words = 0;
  uint32_t call_sites = 0;
  for (uint32_t i = 0; i < orig_words; ++i) {
    index_map[i] = tc_words;
    const uint32_t orig_pc = chunk.orig_addr + i * 4;
    const Instr& in = install_decoded_[i];
    switch (in.op) {
      case Opcode::kJal:
        tc_words += 3;
        ++call_sites;
        break;
      case Opcode::kJalr:
        if (!isa::IsReturn(chunk.words[i])) {
          Fail("ARM-style prototype does not support indirect jumps");
          return nullptr;
        }
        tc_words += 1;
        break;
      case Opcode::kIllegal:
      case Opcode::kTcMiss:
      case Opcode::kTcJalr:
        Fail("illegal instruction in procedure chunk");
        return nullptr;
      default:
        if (isa::IsConditionalBranch(in.op) || in.op == Opcode::kJ) {
          const uint32_t target = isa::BranchTarget(orig_pc, in.imm);
          if (target < chunk.orig_addr ||
              target >= chunk.orig_addr + orig_words * 4) {
            Fail("procedure chunk contains a branch that escapes the procedure");
            return nullptr;
          }
        }
        tc_words += 1;
        break;
    }
  }
  const uint32_t body_tc_words = tc_words;
  const uint32_t total_bytes = (body_tc_words + call_sites) * 4;
  const uint32_t tc = Allocate(total_bytes);
  if (tc == 0) return nullptr;

  Block block;
  block.id = next_block_id_++;
  block.orig_addr = chunk.orig_addr;
  block.orig_span = orig_words * 4;
  block.tc_addr = tc;
  block.tc_bytes = total_bytes;
  block.body_words = body_tc_words;
  block.slot_words = call_sites;
  block.exit = ExitKind::kNone;
  block.index_map = std::move(index_map);

  // Register the block before emission so ForwardCell can link cells to it.
  const uint64_t id = block.id;
  by_orig_[block.orig_addr] = id;
  block_tc_.Put(id, tc);
  auto [map_it, inserted] = blocks_.emplace(tc, std::move(block));
  SC_CHECK(inserted);
  Block& blk = map_it->second;
  // Accounted here (not after emission) so a mid-emission rollback through
  // EvictBlock stays symmetric.
  stats_.extra_words_live += blk.slot_words;

  // Pass 2: emit into the staging buffer; one write installs it at the end.
  std::vector<uint32_t>& out = install_words_;
  out.resize(body_tc_words + call_sites);
  const auto stage = [&out, tc](uint32_t addr, uint32_t word) {
    out[(addr - tc) / 4] = word;
  };
  uint32_t next_slot = tc + body_tc_words * 4;
  for (uint32_t i = 0; i < orig_words; ++i) {
    const uint32_t orig_pc = chunk.orig_addr + i * 4;
    const uint32_t tc_pc = tc + blk.index_map[i] * 4;
    const Instr& in = install_decoded_[i];

    if (isa::IsConditionalBranch(in.op) || in.op == Opcode::kJ) {
      // Internal control transfer (validated in pass 1): remap the offset
      // through the index map.
      const uint32_t target_orig = isa::BranchTarget(orig_pc, in.imm);
      const uint32_t target_tc = tc + blk.index_map[(target_orig - chunk.orig_addr) / 4] * 4;
      Instr patched = in;
      patched.imm = isa::OffsetFor(tc_pc, target_tc);
      stage(tc_pc, isa::Encode(patched));
      continue;
    }
    if (in.op == Opcode::kJal) {
      // Call expansion: route the return address through a permanent cell.
      const uint32_t callee_orig = isa::BranchTarget(orig_pc, in.imm);
      const uint32_t cont_orig = orig_pc + 4;
      const uint32_t cont_tc = tc + blk.index_map[(cont_orig - chunk.orig_addr) / 4] * 4;
      const uint32_t cell = ForwardCell(cont_orig, cont_tc, &blk);
      if (cell == 0) {
        // Forward-cell region exhausted mid-emission: the block is already
        // registered (pass 2 needs ForwardCell to link cells to it), so
        // unwind the registration, the stubs and cell edges created so far.
        // EvictBlock does exactly that unwinding; it just is not an
        // eviction, so take its statistics back. Nothing was written to
        // the tcache yet.
        EvictBlock(blk.id);
        --stats_.evictions;
        stats_.eviction_timeline.RemoveLast(machine_.cycles());
        return nullptr;
      }
      stage(tc_pc, isa::EncI(Opcode::kLui, isa::kRa, 0,
                             static_cast<int32_t>(cell >> 16)));
      stage(tc_pc + 4, isa::EncI(Opcode::kOri, isa::kRa, isa::kRa,
                                 static_cast<int32_t>(cell & 0xffff)));
      const uint32_t jump_addr = tc_pc + 8;
      const uint32_t slot = next_slot;
      next_slot += 4;
      if (callee_orig == chunk.orig_addr) {
        // Self-recursion: the callee is this very procedure — link directly.
        stage(jump_addr, isa::EncJ(Opcode::kJ, isa::OffsetFor(jump_addr, tc)));
        blk.in_edges.push_back(InEdge{blk.id, jump_addr, PatchKind::kJump26,
                                      slot, callee_orig});
        blk.out_edges.emplace_back(blk.id, jump_addr);
        // The slot stays dead until the self-edge is unlinked (never — the
        // block dies with it), but keep the layout uniform.
        stage(slot, isa::EncNop());
      } else {
        const uint32_t stub = NewStub(StubInfo{true, callee_orig, jump_addr,
                                               PatchKind::kJump26, slot, blk.id});
        stage(slot, isa::EncTcMiss(stub));
        stage(jump_addr, isa::EncJ(Opcode::kJ, isa::OffsetFor(jump_addr, slot)));
        blk.own_stubs.emplace_back(stub, stubs_[stub].generation);
      }
      continue;
    }
    stage(tc_pc, chunk.words[i]);
  }
  machine_.WriteBlock(tc, out.data(), total_bytes);
  // Each call site also adds two ra-setup words beyond the original code.
  return &blk;
}

CacheController::Block* CacheController::FindResident(uint32_t orig_pc,
                                                      uint32_t* tc_addr) {
  // Exact hit on a block start.
  const auto exact = by_orig_.find(orig_pc);
  if (exact != by_orig_.end()) {
    Block* block = BlockById(exact->second);
    SC_CHECK(block != nullptr);
    if (tc_addr != nullptr) *tc_addr = block->tc_addr;
    return block;
  }
  // ARM style: the address may be interior to a resident procedure.
  if (config_.style == Style::kArm && !by_orig_.empty()) {
    auto it = by_orig_.upper_bound(orig_pc);
    if (it != by_orig_.begin()) {
      --it;
      Block* block = BlockById(it->second);
      SC_CHECK(block != nullptr);
      if (orig_pc >= block->orig_addr &&
          orig_pc < block->orig_addr + block->orig_span) {
        if (tc_addr != nullptr) {
          *tc_addr = block->tc_addr +
                     block->index_map[(orig_pc - block->orig_addr) / 4] * 4;
        }
        return block;
      }
    }
  }
  return nullptr;
}

CacheController::Resolution CacheController::ResolveEntry(uint32_t orig_pc) {
  Resolution res;
  if (Block* resident = FindResident(orig_pc, &res.tc_addr)) {
    // Verify-on-use: the block's bytes must still match their install
    // stamp before control is allowed to enter them.
    if (!config_.integrity.enabled || VerifyResident(resident)) {
      res.block = resident;
      return res;
    }
    // The corrupted copy was quarantined; unless the heal budget died with
    // it, fall through to the miss path and refetch a pristine copy.
    res.tc_addr = 0;
    if (integrity_fatal_) return res;  // fault raised
  }
  // Miss: fetch and translate.
  Block* block = Translate(orig_pc);
  if (block == nullptr) return res;  // fault raised
  res.block = block;
  res.translated = true;
  if (config_.style == Style::kArm) {
    res.tc_addr =
        block->tc_addr + block->index_map[(orig_pc - block->orig_addr) / 4] * 4;
  } else {
    res.tc_addr = block->tc_addr;
  }
  return res;
}

// ---------------------------------------------------------------------------
// Allocation and eviction
// ---------------------------------------------------------------------------

uint32_t CacheController::Allocate(uint32_t bytes) {
  SC_CHECK_EQ(bytes % 4, 0u);
  if (bytes > config_.tcache_bytes) {
    std::ostringstream msg;
    msg << "chunk of " << bytes << " bytes exceeds tcache of "
        << config_.tcache_bytes << " bytes";
    Fail(msg.str());
    return 0;
  }
  // Flush-all: when the bump allocator runs out, drop everything unpinned
  // and restart; the ring logic below then only has pinned blocks to skip.
  if (config_.evict == EvictPolicy::kFlushAll &&
      alloc_cursor_ + bytes > config_.tcache_bytes) {
    FlushAll();
  }
  // FIFO ring: wrap the cursor, then evict every block overlapping the
  // allocation window. Pinned blocks are skipped: the window restarts just
  // past them.
  int wraps = 0;
  for (;;) {
    if (alloc_cursor_ + bytes > config_.tcache_bytes) {
      alloc_cursor_ = 0;
      if (++wraps > 2) {
        Fail("tcache allocation failed: pinned blocks leave no room");
        return 0;
      }
    }
    const uint32_t lo = local_base_ + alloc_cursor_;
    const uint32_t hi = lo + bytes;
    bool restarted = false;
    for (;;) {
      // Find any block overlapping [lo, hi).
      auto it = blocks_.lower_bound(lo);
      if (it != blocks_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.tc_addr + prev->second.tc_bytes > lo) it = prev;
      }
      if (it == blocks_.end() || it->second.tc_addr >= hi) break;
      if (it->second.pinned) {
        // Cannot evict: move the allocation window past the pinned block.
        alloc_cursor_ = it->second.tc_addr + it->second.tc_bytes - local_base_;
        restarted = true;
        break;
      }
      EvictBlock(it->second.id);
    }
    if (restarted) continue;
    alloc_cursor_ += bytes;
    live_bytes_ += bytes;
    stats_.tcache_bytes_used_peak =
        std::max(stats_.tcache_bytes_used_peak, live_bytes_);
    return lo;
  }
}

bool CacheController::Pin(uint32_t orig_addr) {
  const Resolution res = ResolveEntry(orig_addr);
  if (res.block == nullptr) return false;
  res.block->pinned = true;
  return true;
}

void CacheController::Unpin(uint32_t orig_addr) {
  // Symmetric with Pin: resolve ARM-interior addresses to the containing
  // procedure, so Pin(p + 8); Unpin(p + 8); really unpins the block.
  Block* block = FindResident(orig_addr);
  if (block == nullptr) return;
  block->pinned = false;
}

uint64_t CacheController::pinned_bytes() const {
  uint64_t total = 0;
  for (const auto& [tc, block] : blocks_) {
    if (block.pinned) total += block.tc_bytes;
  }
  return total;
}

void CacheController::EvictBlock(uint64_t block_id) {
  const uint32_t* tc_ptr = block_tc_.Find(block_id);
  SC_CHECK(tc_ptr != nullptr);
  const uint32_t tc_victim = *tc_ptr;
  Block block = std::move(blocks_.at(tc_victim));
  blocks_.erase(tc_victim);
  block_tc_.Erase(block_id);
  by_orig_.erase(block.orig_addr);

  // Unlink incoming edges: every branch/jump/cell that points here goes back
  // to a miss stub.
  for (const InEdge& edge : block.in_edges) {
    if (edge.from_block == block.id) continue;  // self-edge dies with us
    UnlinkEdge(edge);
  }
  // Remove our outgoing edges from the targets' incoming lists.
  for (const auto& [target_id, patch_addr] : block.out_edges) {
    if (target_id == block.id) continue;
    Block* target = BlockById(target_id);
    if (target == nullptr) continue;  // target already evicted
    auto& edges = target->in_edges;
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [&, pa = patch_addr](const InEdge& e) {
                                 return e.patch_addr == pa;
                               }),
                edges.end());
  }
  // Free stubs whose TCMISS words lived inside this block.
  for (const auto& [stub_id, generation] : block.own_stubs) {
    if (stubs_[stub_id].live && stubs_[stub_id].generation == generation) {
      FreeStub(stub_id);
    }
  }
  // SPARC style: in-flight return addresses may point into this block.
  if (config_.style == Style::kSparc) {
    FixStaleReturnAddresses(block);
  }
  if (block.poisoned) {
    machine_.UnpoisonCodeRange(block.tc_addr, block.tc_bytes);
  }
  live_bytes_ -= block.tc_bytes;
  stats_.extra_words_live -= block.slot_words;
  ++stats_.evictions;
  stats_.eviction_timeline.Add(machine_.cycles());
  occupancy_.Add(machine_.cycles(), live_bytes_);
  OBS_INSTANT("cc", "evict", "orig", block.orig_addr, "bytes", block.tc_bytes);
  // The tcache range is dead, not merely rewritten: drop any superblocks and
  // decode-cache entries built from it now rather than waiting for the next
  // install to overwrite the words.
  machine_.InvalidateCode(block.tc_addr, block.tc_bytes);

#ifdef SOFTCACHE_DEBUG_SCAN
  {
    const uint32_t lo = block.tc_addr, hi = block.tc_addr + block.tc_bytes;
    for (int r = 0; r < 32; ++r) {
      const uint32_t v = machine_.reg(static_cast<uint8_t>(r));
      if (v >= lo && v < hi) {
        fprintf(stderr, "[scan] reg %s holds 0x%x into evicted block %llu\n",
                isa::RegName(static_cast<uint8_t>(r)), v,
                (unsigned long long)block.id);
      }
    }
    for (uint32_t a = machine_.reg(isa::kSp) & ~3u; a < image::kStackTop; a += 4) {
      const uint32_t v = machine_.ReadWord(a);
      if (v >= lo && v < hi) {
        fprintf(stderr, "[scan] stack[0x%x] holds 0x%x into evicted block %llu (sp=0x%x fp=0x%x)\n",
                a, v, (unsigned long long)block.id, machine_.reg(isa::kSp),
                machine_.reg(isa::kFp));
      }
    }
  }
#endif
}

void CacheController::FlushAll() {
  OBS_SPAN("cc", "flush_all");
  ++stats_.flushes;
  std::vector<uint64_t> victims;
  for (const auto& [tc, block] : blocks_) {
    if (!block.pinned) victims.push_back(block.id);
  }
  for (uint64_t id : victims) EvictBlock(id);
  alloc_cursor_ = 0;
  SC_CHECK_EQ(live_bytes_, pinned_bytes());
}

// ---------------------------------------------------------------------------
// Stubs, cells and patching
// ---------------------------------------------------------------------------

uint32_t CacheController::NewStub(const StubInfo& info) {
  uint32_t id;
  if (!free_stub_ids_.empty()) {
    id = free_stub_ids_.back();
    free_stub_ids_.pop_back();
    stubs_[id] = info;
  } else {
    id = static_cast<uint32_t>(stubs_.size());
    stubs_.push_back(info);
  }
  stubs_[id].live = true;
  stubs_[id].generation = ++stub_generation_;
  return id;
}

void CacheController::FreeStub(uint32_t stub_id) {
  SC_CHECK(stubs_.at(stub_id).live);
  stubs_[stub_id].live = false;
  free_stub_ids_.push_back(stub_id);
}

void CacheController::WriteStubWord(uint32_t addr, uint32_t stub_id) {
  machine_.WriteWord(addr, isa::EncTcMiss(stub_id));
  RefreshDigestAt(addr);
}

void CacheController::LinkEdge(const StubInfo& stub, Block& target,
                               uint32_t target_tc) {
  switch (stub.kind) {
    case PatchKind::kBranch16: {
      Instr in = isa::Decode(machine_.ReadWord(stub.patch_addr));
      in.imm = isa::OffsetFor(stub.patch_addr, target_tc);
      SC_CHECK(isa::FitsImm16(in.imm)) << "branch patch out of reach";
      machine_.WriteWord(stub.patch_addr, isa::Encode(in));
      break;
    }
    case PatchKind::kJump26: {
      Instr in = isa::Decode(machine_.ReadWord(stub.patch_addr));
      in.imm = isa::OffsetFor(stub.patch_addr, target_tc);
      machine_.WriteWord(stub.patch_addr, isa::Encode(in));
      break;
    }
    case PatchKind::kSlot:
      machine_.WriteWord(stub.patch_addr,
                         isa::EncJ(Opcode::kJ, isa::OffsetFor(stub.patch_addr, target_tc)));
      break;
  }
  ++stats_.patches_applied;
  RefreshDigestAt(stub.patch_addr);
  OBS_INSTANT("cc", "patch", "addr", stub.patch_addr, "target", target_tc);
  target.in_edges.push_back(InEdge{stub.from_block, stub.patch_addr, stub.kind,
                                   stub.miss_slot, stub.target_orig});
  if (stub.from_block != 0) {
    Block* source = BlockById(stub.from_block);
    SC_CHECK(source != nullptr);
    source->out_edges.emplace_back(target.id, stub.patch_addr);
  }
}

void CacheController::UnlinkEdge(const InEdge& edge) {
  const uint32_t stub = NewStub(StubInfo{true, edge.target_orig, edge.patch_addr,
                                         edge.kind, edge.miss_slot, edge.from_block});
  WriteStubWord(edge.miss_slot, stub);
  if (edge.kind != PatchKind::kSlot) {
    // Re-point the branch/jump at its own miss slot.
    Instr in = isa::Decode(machine_.ReadWord(edge.patch_addr));
    in.imm = isa::OffsetFor(edge.patch_addr, edge.miss_slot);
    machine_.WriteWord(edge.patch_addr, isa::Encode(in));
    RefreshDigestAt(edge.patch_addr);
  }
  if (edge.from_block != 0) {
    Block* source = BlockById(edge.from_block);
    SC_CHECK(source != nullptr);
    source->own_stubs.emplace_back(stub, stubs_[stub].generation);
    auto& outs = source->out_edges;
    outs.erase(std::remove_if(outs.begin(), outs.end(),
                              [&](const auto& oe) {
                                return oe.second == edge.patch_addr;
                              }),
               outs.end());
  }
  ++stats_.patches_applied;
  OBS_INSTANT("cc", "unpatch", "addr", edge.patch_addr);
}

uint32_t CacheController::ForwardCell(uint32_t cont_orig, uint32_t known_tc,
                                      Block* owner) {
  uint32_t cell;
  const uint32_t* existing = cell_for_orig_.Find(cont_orig);
  if (existing != nullptr) {
    cell = *existing;
    if (known_tc == 0) return cell;  // existing content is still valid
    // The cell currently holds a TCMISS (its target was evicted); free that
    // stub before rebinding.
    const Instr in = isa::Decode(machine_.ReadWord(cell));
    if (in.op == Opcode::kTcMiss) {
      FreeStub(static_cast<uint32_t>(in.imm));
    } else {
      // It holds a live J edge to an older copy; that copy must have been
      // evicted before this translation (edge unlink would have restored a
      // TCMISS). Reaching here means the cell already points somewhere live.
      SC_UNREACHABLE() << "forward cell rebound while live";
    }
  } else {
    if (cells_used_ + 4 > cells_bytes_) {
      Fail("forward-cell region exhausted");
      return 0;
    }
    cell = cells_base_ + cells_used_;
    cells_used_ += 4;
    cell_for_orig_.Put(cont_orig, cell);
    if (config_.style == Style::kArm) {
      ++stats_.redirector_words;
    } else {
      ++stats_.return_stub_words;
    }
    if (known_tc == 0) {
      const uint32_t stub = NewStub(
          StubInfo{true, cont_orig, cell, PatchKind::kSlot, cell, 0});
      WriteStubWord(cell, stub);
      return cell;
    }
  }
  // Bind the cell to a known tcache address.
  SC_CHECK(owner != nullptr);
  machine_.WriteWord(cell, isa::EncJ(Opcode::kJ, isa::OffsetFor(cell, known_tc)));
  owner->in_edges.push_back(
      InEdge{0, cell, PatchKind::kSlot, cell, cont_orig});
  return cell;
}

// ---------------------------------------------------------------------------
// Invalidation
// ---------------------------------------------------------------------------

uint32_t CacheController::OrigForTcacheAddr(const Block& block,
                                            uint32_t tc_addr) const {
  if (tc_addr == block.slot_a) {
    return block.exit == ExitKind::kFallthrough ? block.taken_orig
                                                : block.fall_orig;
  }
  if (tc_addr == block.slot_b) return block.taken_orig;
  for (const auto& [slot, taken_orig] : block.mid_slots) {
    if (tc_addr == slot) return taken_orig;
  }
  const uint32_t word = (tc_addr - block.tc_addr) / 4;
  if (block.index_map.empty()) {
    SC_CHECK_LT(word, block.body_words);
    return block.orig_addr + word * 4;  // SPARC: identity layout
  }
  for (uint32_t i = 0; i < block.index_map.size(); ++i) {
    if (block.index_map[i] == word) return block.orig_addr + i * 4;
  }
  SC_UNREACHABLE() << "address maps to the middle of a call expansion";
  return 0;
}

void CacheController::FixStaleReturnAddresses(const Block& block) {
  const uint32_t lo = block.tc_addr;
  const uint32_t hi = block.tc_addr + block.tc_bytes;
  const auto fix = [&](uint32_t value) -> uint32_t {
    if (value < lo || value >= hi) return value;
    const uint32_t cont_orig = OrigForTcacheAddr(block, value);
    const uint32_t cell = ForwardCell(cont_orig, 0, nullptr);
    ++stats_.return_addr_fixups;
    return cell;
  };

  machine_.set_reg(isa::kRa, fix(machine_.reg(isa::kRa)));

  // Walk the frame-pointer chain. The programming model guarantees: fp = 0
  // terminates; saved ra at fp-4; saved caller fp at fp-8; frames strictly
  // increase toward the stack top. Every memory access goes through the
  // machine's data-hook translation so the walker sees the same stack a
  // software D-cache presents to the program.
  uint32_t fp = machine_.reg(isa::kFp);
  uint32_t prev_fp = 0;
  int guard = 0;
  while (fp != 0) {
    if (fp % 4 != 0 || fp <= prev_fp || fp > image::kStackTop ||
        fp < image::kDataBase || ++guard > 100000) {
      Fail("stack walk failed: frame chain violates the programming model");
      return;
    }
    const uint32_t ra_slot = machine_.TranslateForHost(fp - 4, 4, /*is_store=*/false);
    const uint32_t fixed = fix(machine_.ReadWord(ra_slot));
    machine_.WriteWord(machine_.TranslateForHost(fp - 4, 4, /*is_store=*/true),
                       fixed);
    prev_fp = fp;
    fp = machine_.ReadWord(machine_.TranslateForHost(fp - 8, 4, /*is_store=*/false));
    ++stats_.stack_walk_frames;
    Charge(config_.cost.stack_walk_frame_cycles);
  }
}

uint32_t CacheController::OnIcacheInvalidate(vm::Machine& m, uint32_t addr,
                                             uint32_t len, uint32_t pc) {
  OBS_SPAN("cc", "icache_invalidate", "addr", addr, "len", len);
  // Self-modifying code contract (the paper: "self-modifying programs must
  // explicitly invalidate newly-written instructions before they can be
  // used"): forward the client's rewritten text to the MC, then evict every
  // affected tcache block so the next execution re-translates it.
  const uint32_t lo = addr & ~3u;
  const uint32_t hi = (addr + len + 3) & ~3u;
  if (mc_.server().image().ContainsText(lo) && hi <= mc_.server().image().text_end() && hi > lo) {
    Request request;
    request.type = MsgType::kTextWrite;
    request.addr = lo;
    request.length = hi - lo;
    request.payload.resize(hi - lo);
    m.ReadBlock(lo, request.payload.data(), hi - lo);
    uint64_t link_cycles = 0;
    auto reply = session_.Call(std::move(request), &link_cycles);
    Charge(link_cycles);
    if (!reply.ok() || reply->type != MsgType::kTextWriteAck) {
      Fail("text write rejected by MC");
      return 0;
    }
  }
  // The invalidation may cover the very block that issued it; remember the
  // original continuation so execution can be relocated into fresh code.
  uint32_t resume_orig = 0;
  {
    auto it = blocks_.upper_bound(pc);
    if (it != blocks_.begin()) {
      --it;
      const Block& current = it->second;
      if (pc >= current.tc_addr && pc < current.tc_addr + current.tc_bytes &&
          current.orig_addr < addr + len &&
          current.orig_addr + current.orig_span > addr) {
        resume_orig = OrigForTcacheAddr(current, pc + 4);
      }
    }
  }
  // Evict every block whose original range overlaps [addr, addr+len).
  std::vector<uint64_t> victims;
  for (const auto& [tc, block] : blocks_) {
    if (block.orig_addr < addr + len && block.orig_addr + block.orig_span > addr) {
      victims.push_back(block.id);
    }
  }
  for (uint64_t id : victims) {
    if (block_tc_.Contains(id)) EvictBlock(id);
  }
  // Staged prefetched chunks covering the rewritten range hold stale words.
  DropStagedRange(addr, len);
  if (resume_orig == 0) return pc + 4;
  const Resolution res = ResolveEntry(resume_orig);
  if (res.block == nullptr) return 0;  // fault raised
  return res.tc_addr;
}

// ---------------------------------------------------------------------------
// Trap entry points
// ---------------------------------------------------------------------------

uint32_t CacheController::OnTcMiss(vm::Machine& m, uint32_t stub_index) {
  (void)m;
  const uint64_t miss_start = stats_.miss_cycles;
  OBS_SPAN("cc", "tcmiss", "stub", stub_index);
  ++stats_.tcmiss_traps;
  Charge(config_.cost.miss_trap_cycles);
  SC_CHECK_LT(stub_index, stubs_.size());
  const StubInfo stub = stubs_[stub_index];  // snapshot: eviction may free it
  SC_CHECK(stub.live) << "TCMISS fired a dead stub: id=" << stub_index
                      << " pc=0x" << std::hex << m.pc() << " target=0x"
                      << stub.target_orig << " patch=0x" << stub.patch_addr
                      << " slot=0x" << stub.miss_slot << " from=" << std::dec
                      << stub.from_block;

  const Resolution res = ResolveEntry(stub.target_orig);
  if (res.block == nullptr) return 0;  // fault raised
  if (!res.translated) ++stats_.patch_only_misses;

  // Back-patch the branch that missed — unless translation evicted the
  // trapping block (stub freed, possibly reused: detect via generation) or
  // rebound the cell that fired (ARM continuation cells).
  const bool stub_intact = stubs_[stub_index].live &&
                           stubs_[stub_index].generation == stub.generation;
  const bool source_alive =
      stub.from_block == 0 || block_tc_.Contains(stub.from_block);
  if (stub_intact && source_alive) {
    LinkEdge(stub, *res.block, res.tc_addr);
    FreeStub(stub_index);
    Charge(config_.cost.patch_cycles);
  }
  miss_latency_.Add(static_cast<double>(stats_.miss_cycles - miss_start));
  return res.tc_addr;
}

uint32_t CacheController::OnTcJalr(vm::Machine& m, const isa::Instr& instr,
                                   uint32_t pc) {
  OBS_INSTANT("cc", "tcjalr", "pc", pc);
  ++stats_.hash_lookups;
  Charge(config_.cost.hash_lookup_cycles);
  const uint32_t target_orig =
      (m.reg(instr.rs1) + static_cast<uint32_t>(instr.imm)) & ~3u;
  if (!mc_.server().image().ContainsText(target_orig)) {
    std::ostringstream msg;
    msg << "computed jump to non-text address 0x" << std::hex << target_orig;
    Fail(msg.str());
    return 0;
  }
  // Link register: the physical next word (slot A of this block).
  m.set_reg(instr.rd, pc + 4);
  const Resolution res = ResolveEntry(target_orig);
  if (res.block == nullptr) return 0;
  if (res.translated) ++stats_.hash_lookup_misses;
  return res.tc_addr;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

CacheController::Block* CacheController::BlockById(uint64_t id) {
  const uint32_t* tc = block_tc_.Find(id);
  if (tc == nullptr) return nullptr;
  return &blocks_.at(*tc);
}

std::vector<std::pair<uint64_t, uint64_t>> CacheController::ChunkFetchCounts()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(fetch_counts_.size());
  fetch_counts_.ForEach([&out](uint32_t orig, uint32_t count) {
    out.emplace_back(orig, count);
  });
  return out;
}


std::vector<CacheController::BlockView> CacheController::SnapshotBlocks()
    const {
  std::vector<BlockView> views;
  views.reserve(blocks_.size());
  for (const auto& [tc_addr, block] : blocks_) {
    BlockView view;
    view.orig_addr = block.orig_addr;
    view.orig_span = block.orig_span;
    view.tc_addr = block.tc_addr;
    view.tc_bytes = block.tc_bytes;
    view.out_edges = static_cast<uint32_t>(block.out_edges.size());
    view.in_edges = static_cast<uint32_t>(block.in_edges.size());
    view.pinned = block.pinned;
    views.push_back(view);
  }
  return views;
}

std::vector<std::pair<uint32_t, uint32_t>> CacheController::SnapshotStaged()
    const {
  std::vector<std::pair<uint32_t, uint32_t>> staged;
  staged.reserve(staged_fifo_.size());
  for (const uint32_t orig : staged_fifo_) {
    const auto it = staged_.find(orig);
    if (it != staged_.end()) staged.emplace_back(orig, StagedCost(it->second));
  }
  return staged;
}

std::string CacheController::DumpState() const {
  std::ostringstream out;
  out << "=== tcache state ===\n";
  out << "region: [0x" << std::hex << local_base_ << ", 0x" << cells_base_
      << ")  cells: [0x" << cells_base_ << ", 0x" << cells_base_ + cells_used_
      << ")\n" << std::dec;
  out << "blocks: " << blocks_.size() << "  live bytes: " << live_bytes_
      << "  cursor: " << alloc_cursor_ << "\n";
  for (const auto& [tc, block] : blocks_) {
    out << std::hex << "  block#" << std::dec << block.id << std::hex
        << "  tc=[0x" << block.tc_addr << ",0x" << block.tc_addr + block.tc_bytes
        << ")  orig=[0x" << block.orig_addr << ",0x"
        << block.orig_addr + block.orig_span << ")" << std::dec;
    if (block.pinned) out << "  PINNED";
    out << "  in-edges=" << block.in_edges.size()
        << "  out-edges=" << block.out_edges.size();
    if (!block.index_map.empty()) out << "  (procedure chunk)";
    out << "\n";
    // Exit states: decode the slots.
    const auto slot_state = [this](uint32_t slot_addr) -> std::string {
      if (slot_addr == 0) return "-";
      const Instr in = isa::Decode(machine_.ReadWord(slot_addr));
      std::ostringstream s;
      if (in.op == Opcode::kTcMiss) {
        s << "MISSING(stub#" << in.imm << " -> 0x" << std::hex
          << stubs_[static_cast<uint32_t>(in.imm)].target_orig << ")";
      } else if (in.op == Opcode::kJ) {
        s << "LINKED(0x" << std::hex << isa::BranchTarget(slot_addr, in.imm) << ")";
      } else {
        s << isa::MnemonicOf(in.op);
      }
      return s.str();
    };
    if (block.slot_a != 0) out << "    slot A: " << slot_state(block.slot_a) << "\n";
    if (block.slot_b != 0) out << "    slot B: " << slot_state(block.slot_b) << "\n";
    for (const auto& [slot, taken] : block.mid_slots) {
      out << "    mid slot @0x" << std::hex << slot << std::dec << ": "
          << slot_state(slot) << "\n";
    }
  }
  uint32_t live_stub_count = 0;
  for (const StubInfo& stub : stubs_) {
    if (stub.live) ++live_stub_count;
  }
  out << "stubs: " << live_stub_count << " live of " << stubs_.size()
      << " allocated\n";
  out << "forward cells: " << cell_for_orig_.size() << "\n";
  // Address order, for a stable dump independent of the table's probing.
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  cell_for_orig_.ForEach([&cells](uint32_t orig, uint32_t cell) {
    cells.emplace_back(cell, orig);
  });
  std::sort(cells.begin(), cells.end());
  for (const auto& [cell, orig] : cells) {
    const Instr in = isa::Decode(machine_.ReadWord(cell));
    out << "  cell 0x" << std::hex << cell << " for orig 0x" << orig << ": "
        << (in.op == Opcode::kTcMiss ? "MISSING" : "LINKED") << std::dec << "\n";
  }
  if (!staged_.empty()) {
    out << "staged prefetched chunks: " << staged_.size() << " ("
        << staged_bytes_ << " bytes)\n";
    for (const auto& [orig, chunk] : staged_) {
      out << "  staged orig=[0x" << std::hex << orig << ",0x"
          << orig + chunk.orig_span_bytes() << ")" << std::dec << "\n";
    }
  }
  return out.str();
}

bool CacheController::IsResident(uint32_t orig_addr) const {
  return by_orig_.count(orig_addr) != 0;
}

void CacheController::CheckInvariants() const {
  uint64_t total_bytes = 0;
  uint32_t prev_end = 0;
  for (const auto& [tc, block] : blocks_) {
    SC_CHECK_EQ(tc, block.tc_addr);
    SC_CHECK_GE(tc, local_base_);
    SC_CHECK_LE(tc + block.tc_bytes, cells_base_);
    SC_CHECK_GE(tc, prev_end) << "blocks overlap in the tcache";
    prev_end = tc + block.tc_bytes;
    total_bytes += block.tc_bytes;
    // Map consistency.
    SC_CHECK_EQ(by_orig_.at(block.orig_addr), block.id);
    SC_CHECK_EQ(block_tc_.At(block.id), tc);
    // Incoming edges really point at us.
    for (const InEdge& edge : block.in_edges) {
      const Instr in = isa::Decode(machine_.ReadWord(edge.patch_addr));
      uint32_t pointed = 0;
      switch (edge.kind) {
        case PatchKind::kBranch16:
          SC_CHECK(isa::IsConditionalBranch(in.op));
          pointed = isa::BranchTarget(edge.patch_addr, in.imm);
          break;
        case PatchKind::kJump26:
          SC_CHECK(in.op == Opcode::kJ || in.op == Opcode::kJal);
          pointed = isa::BranchTarget(edge.patch_addr, in.imm);
          break;
        case PatchKind::kSlot:
          SC_CHECK(in.op == Opcode::kJ) << "cell does not hold a jump";
          pointed = isa::BranchTarget(edge.patch_addr, in.imm);
          break;
      }
      SC_CHECK_GE(pointed, block.tc_addr);
      SC_CHECK_LT(pointed, block.tc_addr + block.tc_bytes);
    }
    // Outgoing edges are mirrored by the target's incoming list.
    for (const auto& [target_id, patch_addr] : block.out_edges) {
      const uint32_t* target_tc = block_tc_.Find(target_id);
      SC_CHECK(target_tc != nullptr) << "out-edge to evicted block";
      const Block& target = blocks_.at(*target_tc);
      const bool found = std::any_of(
          target.in_edges.begin(), target.in_edges.end(),
          [&, pa = patch_addr](const InEdge& e) { return e.patch_addr == pa; });
      SC_CHECK(found) << "out-edge without matching in-edge";
    }
  }
  SC_CHECK_EQ(total_bytes, live_bytes_);
  // Live stubs hold TCMISS words carrying their own id.
  for (uint32_t id = 0; id < stubs_.size(); ++id) {
    const StubInfo& stub = stubs_[id];
    if (!stub.live) continue;
    const Instr in = isa::Decode(machine_.ReadWord(stub.miss_slot));
    SC_CHECK(in.op == Opcode::kTcMiss) << "live stub slot is not a TCMISS";
    SC_CHECK_EQ(static_cast<uint32_t>(in.imm), id);
  }
  // Cells hold either a live TCMISS or a jump into a live block.
  cell_for_orig_.ForEach([this](uint32_t orig, uint32_t cell) {
    (void)orig;
    const Instr in = isa::Decode(machine_.ReadWord(cell));
    SC_CHECK(in.op == Opcode::kTcMiss || in.op == Opcode::kJ);
    if (in.op == Opcode::kTcMiss) {
      SC_CHECK(stubs_.at(static_cast<uint32_t>(in.imm)).live);
    }
  });
  // Staging accounting: byte counter and FIFO mirror the staged map exactly.
  uint64_t staged_total = 0;
  for (const auto& [orig, chunk] : staged_) {
    SC_CHECK_EQ(orig, chunk.orig_addr);
    SC_CHECK(std::find(staged_fifo_.begin(), staged_fifo_.end(), orig) !=
             staged_fifo_.end());
    staged_total += StagedCost(chunk);
  }
  SC_CHECK_EQ(staged_fifo_.size(), staged_.size());
  SC_CHECK_EQ(staged_total, staged_bytes_);
  SC_CHECK_LE(staged_bytes_, config_.prefetch.staging_bytes);
}

// ---------------------------------------------------------------------------
// Integrity fault domain: digests, scrubbing, quarantine, and healing.

uint64_t CacheController::BlockDigest(const Block& block) const {
  // Covers the installed tcache bytes exactly as the machine will execute
  // them, so any link/unlink patch must restamp (RefreshDigestAt).
  return ChunkDigest(block.orig_addr, block.tc_addr, block.tc_bytes,
                     machine_.mem_data() + block.tc_addr, block.tc_bytes);
}

uint64_t CacheController::StagedDigest(const Chunk& chunk) const {
  return ChunkDigest(chunk.orig_addr, 0, chunk.taken_target,
                     reinterpret_cast<const uint8_t*>(chunk.words.data()),
                     chunk.words.size() * 4);
}

void CacheController::RefreshDigestAt(uint32_t addr) {
  if (!config_.integrity.enabled) return;
  auto it = blocks_.upper_bound(addr);
  if (it == blocks_.begin()) return;
  --it;
  Block& block = it->second;
  if (addr < block.tc_addr || addr >= block.tc_addr + block.tc_bytes) return;
  block.digest = BlockDigest(block);
}

uint32_t CacheController::AnyResidentTcacheByteForTest() const {
  const uint32_t pc = machine_.pc();
  for (const auto& [tc, block] : blocks_) {
    if (pc >= block.tc_addr && pc < block.tc_addr + block.tc_bytes) continue;
    return block.tc_addr + block.tc_bytes / 2;
  }
  return 0;
}

bool CacheController::VerifyResident(Block* block) {
  if (BlockDigest(*block) == block->digest) return true;
  ++stats_.integrity.corruptions_detected;
  OBS_INSTANT("cc", "corrupt", "orig", block->orig_addr);
  Quarantine(block);
  return false;
}

bool CacheController::Quarantine(Block* block) {
  const uint32_t orig = block->orig_addr;
  ++stats_.integrity.quarantines;
  const uint32_t heals_of_this = ++heal_counts_[orig];
  OBS_INSTANT("cc", "quarantine", "orig", orig);
  EvictBlock(block->id);  // unlinks edges, fixes stale returns, invalidates
  if (quarantine_hook_) quarantine_hook_(orig);
  if (config_.integrity.max_heal_attempts != 0 &&
      stats_.integrity.quarantines > config_.integrity.max_heal_attempts) {
    ++stats_.integrity.heal_failures;
    integrity_fatal_ = true;
    Fail("integrity: heal budget exhausted (" +
         std::to_string(stats_.integrity.quarantines) + " quarantines)");
    return false;
  }
  pending_heal_.insert(orig);
  if (config_.integrity.poison_after != 0 &&
      heals_of_this >= config_.integrity.poison_after) {
    poisoned_origs_.insert(orig);
  }
  return true;
}

void CacheController::ScrubCachedState() {
  ++stats_.integrity.scrubs;
  OBS_SPAN("cc", "scrub");
  // Client SRAM domains charge guest cycles for the scan (the embedded CPU
  // walks its own tcache and staging buffer); the cross-client content store
  // and the host-side decoded superblocks do not.
  uint64_t charged_words = 0;
  // Collect first, quarantine after: Quarantine's unlink patches restamp
  // OTHER blocks' digests (RefreshDigestAt), and must never restamp a block
  // we have already decided is corrupt.
  std::vector<uint64_t> corrupt_ids;
  for (auto& [tc, block] : blocks_) {
    charged_words += block.tc_bytes / 4;
    if (BlockDigest(block) != block.digest) corrupt_ids.push_back(block.id);
  }
  for (uint64_t id : corrupt_ids) {
    Block* block = BlockById(id);
    if (block == nullptr) continue;  // evicted by an earlier quarantine
    ++stats_.integrity.corruptions_detected;
    OBS_INSTANT("cc", "corrupt", "orig", block->orig_addr);
    if (!Quarantine(block)) return;  // heal budget exhausted: machine faulted
  }
  std::vector<uint32_t> corrupt_staged;
  for (const auto& [orig, chunk] : staged_) {
    charged_words += chunk.words.size();
    auto it = staged_digest_.find(orig);
    if (it == staged_digest_.end() || StagedDigest(chunk) != it->second) {
      corrupt_staged.push_back(orig);
    }
  }
  for (uint32_t orig : corrupt_staged) {
    ++stats_.integrity.corruptions_detected;
    ++stats_.integrity.staged_drops;
    OBS_INSTANT("cc", "staged_corrupt", "orig", orig);
    UnstageAt(orig);
  }
  stats_.integrity.scrubbed_words += charged_words;
  Charge(charged_words / 16);  // wide compare: 16 words per guest cycle
  if (content_store_ != nullptr) {
    uint64_t store_words = 0;
    const uint32_t dropped = content_store_->ScrubIntegrity(&store_words);
    stats_.integrity.scrubbed_words += store_words;
    stats_.integrity.corruptions_detected += dropped;
    stats_.integrity.store_drops += dropped;
  }
  uint64_t sb_words = 0;
  const uint32_t killed = machine_.ScrubSuperblocks(&sb_words);
  stats_.integrity.scrubbed_words += sb_words;
  stats_.integrity.corruptions_detected += killed;
  stats_.integrity.sb_drops += killed;
}

bool CacheController::IntegrityTick() {
  if (!config_.integrity.enabled || integrity_fatal_) return false;
  ++stats_.integrity.ticks;
  const bool scrub_tick = config_.integrity.scrub_every != 0 &&
                          stats_.integrity.ticks %
                                  config_.integrity.scrub_every ==
                              0;
  if (config_.integrity.memfault.enabled()) {
    const uint64_t* cyc = machine_.cycles_counter();
    // Every domain's Due() is drawn unconditionally each tick so each RNG
    // stream advances as a pure function of tick count, independent of what
    // the other domains (or cache occupancy) happen to do.
    if (inj_staged_->Due(cyc) && !staged_.empty()) {
      util::Rng& rng = inj_staged_->rng();
      auto victim = staged_.begin();
      std::advance(victim, static_cast<long>(rng.Below(staged_.size())));
      if (!victim->second.words.empty()) {
        const uint64_t bit = rng.Below(victim->second.words.size() * 32);
        victim->second.words[bit / 32] ^= 1u << (bit % 32);
        ++stats_.integrity.flips_injected;
        OBS_INSTANT("cc", "mem_flip", "domain", 1, "orig", victim->first);
      }
    }
    if (content_store_ != nullptr && inj_store_->Due(cyc)) {
      if (content_store_->CorruptBit(inj_store_->rng())) {
        ++stats_.integrity.flips_injected;
        OBS_INSTANT("cc", "mem_flip", "domain", 2);
      }
    }
    // Executable domains are injected only on scrub ticks: the flip lands
    // and the scrub below detects it within the same tick, so no corrupted
    // instruction is ever reachable by the engine between ticks.
    if (scrub_tick) {
      if (inj_tcache_->Due(cyc) && !blocks_.empty()) {
        util::Rng& rng = inj_tcache_->rng();
        auto victim = blocks_.begin();
        std::advance(victim, static_cast<long>(rng.Below(blocks_.size())));
        const Block& block = victim->second;
        const uint64_t bit = rng.Below(static_cast<uint64_t>(block.tc_bytes) * 8);
        // Model restriction: spare the block the program counter currently
        // sits in. Quarantining it at a scrub boundary would strand the pc
        // in freed tcache memory, and detecting execution *out of* the
        // corrupted word is beyond a software-only scrub (a real SoC leans
        // on ECC traps there). The victim/bit draws are consumed either
        // way, so the schedule stays a pure function of the tick count.
        const uint32_t pc = machine_.pc();
        if (pc < block.tc_addr || pc >= block.tc_addr + block.tc_bytes) {
          // Poke raw memory, not WriteWord: a real SRAM fault does not pass
          // through the write-invalidate path. The interpreter's decode
          // cache self-validates by word compare; superblocks are killed by
          // the same-tick scrub.
          machine_.mem_data()[block.tc_addr + bit / 8] ^=
              static_cast<uint8_t>(1u << (bit % 8));
          ++stats_.integrity.flips_injected;
          OBS_INSTANT("cc", "mem_flip", "domain", 0, "orig", block.orig_addr);
        }
      }
      if (inj_sb_->Due(cyc) && machine_.CorruptSuperblockBit(inj_sb_->rng())) {
        ++stats_.integrity.flips_injected;
        OBS_INSTANT("cc", "mem_flip", "domain", 3);
      }
    }
  }
  if (!scrub_tick) return false;
  ScrubCachedState();
  return true;
}

}  // namespace sc::softcache
