#include "dcache/dcache.h"

#include <algorithm>

#include "image/layout.h"
#include "softcache/protocol.h"
#include "util/check.h"

namespace sc::dcache {

using softcache::MsgType;
using softcache::Reply;
using softcache::Request;

namespace {

bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

DataCache::DataCache(vm::Machine& machine, softcache::MemoryController& mc,
                     net::Channel& channel, const DCacheConfig& config)
    : machine_(machine),
      mc_(mc),
      config_(config),
      session_(softcache::MakeTransport(
                   [&mc](const auto& frame) { return mc.Handle(frame); },
                   channel, config.fault, [&mc] { mc.Restart(); }),
               config.retry, &stats_.net, &stats_.session,
               MsgType::kDataWriteback, /*first_seq=*/1000,
               config.client_id) {
  SC_CHECK(IsPow2(config_.block_bytes));
  SC_CHECK_GE(config_.block_bytes, 4u);
  SC_CHECK(IsPow2(config_.scache_bytes));
  SC_CHECK(IsPow2(config_.scache_line_bytes));
  SC_CHECK_EQ(config_.scache_bytes % config_.scache_line_bytes, 0u);
  SC_CHECK_GT(config_.dcache_blocks, 1u);

  data_lo_ = mc_.server().DataBase();
  stack_lo_ = image::kStackTop & ~0xfffffu;  // 1 MB stack window

  const uint32_t base =
      config_.local_base != 0 ? config_.local_base : image::kLocalBase;
  dcache_base_ = base;
  scache_base_ = dcache_base_ + config_.dcache_blocks * config_.block_bytes;
  pinned_base_ = scache_base_ + config_.scache_bytes;

  slot_used_.resize(config_.dcache_blocks, false);
  scache_line_tag_.resize(config_.scache_bytes / config_.scache_line_bytes,
                          UINT32_MAX);
  scache_line_dirty_.resize(scache_line_tag_.size(), false);

  // Identify pinned scalar globals through the symbol table (the stand-in
  // for the rewriter's constant-address analysis).
  if (config_.pin_scalar_globals) {
    uint32_t offset = 0;
    for (const image::Symbol& sym : mc_.server().image().symbols) {
      if (sym.kind == image::SymbolKind::kObject && sym.size == 4 &&
          sym.addr % 4 == 0) {
        pinned_offsets_[sym.addr] = offset;
        pinned_touched_[sym.addr] = false;
        offset += 4;
      }
    }
    pinned_bytes_ = offset;
  }
  SC_CHECK_LE(pinned_base_ + pinned_bytes_, machine_.mem_size());
}

void DataCache::Attach() {
  machine_.SetDataHook(this, data_lo_, image::kStackTop + 16);
}

uint32_t DataCache::GuaranteedLatencyCycles() const {
  // Worst on-chip case: predictor miss, full binary search depth.
  uint32_t depth = 1;
  while ((1u << depth) < config_.dcache_blocks) ++depth;
  return config_.slow_hit_base_cycles + depth * config_.slow_hit_step_cycles;
}

// ---------------------------------------------------------------------------
// Server transfer helpers
// ---------------------------------------------------------------------------

void DataCache::FailRun(const std::string& what) {
  failed_ = true;
  machine_.RaiseFault(what);
}

Reply DataCache::Call(Request request) {
  if (failed_) {
    // The run is already stopping; don't burn more retry attempts.
    Reply error;
    error.type = MsgType::kError;
    return error;
  }
  uint64_t link_cycles = 0;
  auto reply = session_.Call(std::move(request), &link_cycles);
  Charge(link_cycles);
  if (!reply.ok()) {
    FailRun("dcache: " + reply.error().message);
    Reply error;
    error.type = MsgType::kError;
    return error;
  }
  return reply->ToReply();
}

void DataCache::FetchBlock(uint32_t tag, uint32_t slot) {
  Request request;
  request.type = MsgType::kDataRequest;
  request.addr = tag * config_.block_bytes;
  request.length = config_.block_bytes;
  const Reply reply = Call(request);
  if (reply.type != MsgType::kDataReply ||
      reply.payload.size() != config_.block_bytes) {
    FailRun("dcache: data fetch failed");
    return;
  }
  machine_.WriteBlock(dcache_base_ + slot * config_.block_bytes,
                      reply.payload.data(), config_.block_bytes);
}

void DataCache::WritebackSlot(uint32_t slot, uint32_t tag) {
  Request request;
  request.type = MsgType::kDataWriteback;
  request.addr = tag * config_.block_bytes;
  request.length = config_.block_bytes;
  request.payload.resize(config_.block_bytes);
  machine_.ReadBlock(dcache_base_ + slot * config_.block_bytes,
                     request.payload.data(), config_.block_bytes);
  const Reply reply = Call(request);
  if (reply.type != MsgType::kWritebackAck) {
    FailRun("dcache: writeback rejected by server");
    return;
  }
  ++stats_.writebacks;
}

// ---------------------------------------------------------------------------
// dcache path
// ---------------------------------------------------------------------------

int DataCache::FindBlock(uint32_t tag) const {
  int lo = 0;
  int hi = static_cast<int>(sorted_.size()) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (sorted_[mid].tag == tag) return mid;
    if (sorted_[mid].tag < tag) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

uint32_t DataCache::TranslateDcache(uint32_t vaddr, bool is_store) {
  const uint32_t tag = vaddr / config_.block_bytes;
  const uint32_t offset = vaddr % config_.block_bytes;
  const uint32_t site = machine_.pc();

  // 1. Predicted probe (the Figure 10 bottom sequence).
  int found = -1;
  SitePrediction& pred = predictions_[site];
  if (config_.prediction != Prediction::kNone && !sorted_.empty()) {
    ++stats_.prediction_probes;
    int guess = -1;
    switch (config_.prediction) {
      case Prediction::kLastIndex:
        guess = pred.last_index;
        break;
      case Prediction::kStride:
        guess = pred.last_index >= 0 ? pred.last_index + pred.stride : -1;
        break;
      case Prediction::kSecondChance:
        guess = pred.last_index;
        break;
      case Prediction::kNone:
        break;
    }
    Charge(config_.fast_hit_cycles);
    if (guess >= 0 && guess < static_cast<int>(sorted_.size()) &&
        sorted_[guess].tag == tag) {
      found = guess;
      ++stats_.prediction_hits;
    } else if (config_.prediction == Prediction::kSecondChance && guess >= 0 &&
               guess + 1 < static_cast<int>(sorted_.size()) &&
               sorted_[guess + 1].tag == tag) {
      Charge(4);  // second probe
      found = guess + 1;
      ++stats_.prediction_hits;
    }
  }

  if (found >= 0) {
    ++stats_.fast_hits;
  } else {
    // 2. Binary search: a slow hit if present.
    uint32_t depth = 1;
    while ((1u << depth) < std::max<uint32_t>(2, static_cast<uint32_t>(sorted_.size()))) {
      ++depth;
    }
    Charge(config_.slow_hit_base_cycles + depth * config_.slow_hit_step_cycles);
    found = FindBlock(tag);
    if (found >= 0) {
      ++stats_.slow_hits;
    } else {
      // 3. Miss: allocate a slot (FIFO replacement), fetch from the server.
      ++stats_.misses;
      Charge(config_.miss_trap_cycles);
      uint32_t slot;
      if (fifo_slots_.size() < config_.dcache_blocks) {
        slot = static_cast<uint32_t>(fifo_slots_.size());
      } else {
        slot = fifo_slots_.front();
        fifo_slots_.erase(fifo_slots_.begin());
        // Evict the sorted entry that owns this slot.
        const auto victim = std::find_if(
            sorted_.begin(), sorted_.end(),
            [slot](const Block& b) { return b.slot == slot; });
        SC_CHECK(victim != sorted_.end());
        if (victim->dirty) WritebackSlot(slot, victim->tag);
        sorted_.erase(victim);
      }
      fifo_slots_.push_back(slot);
      FetchBlock(tag, slot);
      // Sorted insertion (the array reorganization the paper charges).
      const auto pos = std::lower_bound(
          sorted_.begin(), sorted_.end(), tag,
          [](const Block& b, uint32_t t) { return b.tag < t; });
      const auto moved = static_cast<uint64_t>(sorted_.end() - pos);
      Charge(moved * config_.reorg_cycles_per_word);
      found = static_cast<int>(pos - sorted_.begin());
      sorted_.insert(pos, Block{tag, slot, false});
    }
    pred.stride = pred.last_index >= 0 ? found - pred.last_index : 0;
    pred.last_index = found;
  }

  Block& block = sorted_[found];
  if (is_store) block.dirty = true;
  return dcache_base_ + block.slot * config_.block_bytes + offset;
}

// ---------------------------------------------------------------------------
// scache path
// ---------------------------------------------------------------------------

uint32_t DataCache::TranslateScache(uint32_t vaddr, bool is_store) {
  ++stats_.scache_accesses;
  const uint32_t line_tag = vaddr / config_.scache_line_bytes;
  const uint32_t line_slot = line_tag % static_cast<uint32_t>(scache_line_tag_.size());
  if (scache_line_tag_[line_slot] != line_tag) {
    // Presence event: the circular buffer wraps onto a different frame line.
    ++stats_.scache_line_switches;
    Charge(config_.scache_line_switch_cycles);
    const uint32_t old_tag = scache_line_tag_[line_slot];
    const uint32_t slot_addr =
        scache_base_ + line_slot * config_.scache_line_bytes;
    if (old_tag != UINT32_MAX && scache_line_dirty_[line_slot]) {
      // Spill the displaced line to the server.
      ++stats_.scache_spills;
      Request request;
      request.type = MsgType::kDataWriteback;
      request.addr = old_tag * config_.scache_line_bytes;
      request.length = config_.scache_line_bytes;
      request.payload.resize(config_.scache_line_bytes);
      machine_.ReadBlock(slot_addr, request.payload.data(),
                         config_.scache_line_bytes);
      const Reply spill_reply = Call(request);
      if (spill_reply.type != MsgType::kWritebackAck) {
        FailRun("dcache: scache spill rejected by server");
        return scache_base_ + (vaddr % config_.scache_bytes);
      }
    }
    // Fill the line from the server (fresh stack lines read back zeros).
    ++stats_.scache_fills;
    Request request;
    request.type = MsgType::kDataRequest;
    request.addr = line_tag * config_.scache_line_bytes;
    request.length = config_.scache_line_bytes;
    const Reply reply = Call(request);
    if (reply.type != MsgType::kDataReply ||
        reply.payload.size() != config_.scache_line_bytes) {
      FailRun("dcache: scache fill failed");
      return scache_base_ + (vaddr % config_.scache_bytes);
    }
    machine_.WriteBlock(slot_addr, reply.payload.data(),
                        config_.scache_line_bytes);
    scache_line_tag_[line_slot] = line_tag;
    scache_line_dirty_[line_slot] = false;
  }
  if (is_store) scache_line_dirty_[line_slot] = true;
  return scache_base_ + (vaddr % config_.scache_bytes);
}

// ---------------------------------------------------------------------------
// pinned scalars
// ---------------------------------------------------------------------------

uint32_t DataCache::TranslatePinned(uint32_t vaddr, bool is_store, bool* handled) {
  *handled = false;
  const uint32_t base = vaddr & ~3u;
  const auto it = pinned_offsets_.find(base);
  if (it == pinned_offsets_.end()) return 0;
  *handled = true;
  if (!pinned_touched_[base]) {
    // First touch: fetch the scalar from the server and pin it.
    pinned_touched_[base] = true;
    Request request;
    request.type = MsgType::kDataRequest;
    request.addr = base;
    request.length = 4;
    const Reply reply = Call(request);
    if (reply.type != MsgType::kDataReply || reply.payload.size() != 4) {
      FailRun("dcache: pinned scalar fetch failed");
    } else {
      machine_.WriteBlock(pinned_base_ + it->second, reply.payload.data(), 4);
    }
  }
  (void)is_store;  // pinned scalars write back only at FlushAll
  ++stats_.pinned_hits;
  return pinned_base_ + it->second + (vaddr & 3u);
}

// ---------------------------------------------------------------------------
// Hook entry and flush
// ---------------------------------------------------------------------------

uint32_t DataCache::Translate(vm::Machine& m, uint32_t vaddr, uint32_t size,
                              bool is_store) {
  (void)m;
  (void)size;
  CommitPendingWriteThrough();
  ++stats_.accesses;
  uint32_t paddr;
  if (vaddr >= stack_lo_) {
    paddr = TranslateScache(vaddr, is_store);
  } else {
    bool pinned = false;
    paddr = TranslatePinned(vaddr, is_store, &pinned);
    if (!pinned) {
      paddr = TranslateDcache(vaddr, is_store);
      if (is_store && config_.write_through) {
        // Push the store straight to the server (the block copy was already
        // updated by the VM after this translation returns; we forward the
        // value from the about-to-be-written location's current block after
        // the fact is impossible here, so write-through sends the whole
        // block — simple and correct, like a write-through line buffer).
        const uint32_t tag = vaddr / config_.block_bytes;
        const int idx = FindBlock(tag);
        SC_CHECK_GE(idx, 0);
        ++stats_.write_throughs;
        pending_wt_slot_ = sorted_[idx].slot;
        pending_wt_tag_ = tag;
      }
    }
  }
  // Bank-conflict accounting (novel capability 3): would this access and
  // the previous one serialize on banked SRAM?
  if (config_.banks > 1) {
    const uint32_t bank = (paddr / 4) % config_.banks;
    if (has_last_bank_ && bank == last_bank_) ++stats_.bank_conflicts;
    last_bank_ = bank;
    has_last_bank_ = true;
  }
  return paddr;
}

void DataCache::CommitPendingWriteThrough() {
  if (pending_wt_slot_ == UINT32_MAX) return;
  WritebackSlot(pending_wt_slot_, pending_wt_tag_);
  const int idx = FindBlock(pending_wt_tag_);
  if (idx >= 0) sorted_[idx].dirty = false;
  pending_wt_slot_ = UINT32_MAX;
}

void DataCache::FlushAll() {
  CommitPendingWriteThrough();
  // Blocks first, pinned scalars last: a block may hold a stale shadow of a
  // pinned address, and the pinned value must win at the server.
  for (const Block& block : sorted_) {
    if (block.dirty) WritebackSlot(block.slot, block.tag);
  }
  for (Block& block : sorted_) block.dirty = false;
  for (uint32_t line = 0; line < scache_line_tag_.size(); ++line) {
    if (scache_line_tag_[line] != UINT32_MAX && scache_line_dirty_[line]) {
      Request request;
      request.type = MsgType::kDataWriteback;
      request.addr = scache_line_tag_[line] * config_.scache_line_bytes;
      request.length = config_.scache_line_bytes;
      request.payload.resize(config_.scache_line_bytes);
      machine_.ReadBlock(scache_base_ + line * config_.scache_line_bytes,
                         request.payload.data(), config_.scache_line_bytes);
      if (Call(request).type != MsgType::kWritebackAck) {
        FailRun("dcache: scache flush rejected by server");
        return;
      }
      scache_line_dirty_[line] = false;
    }
  }
  for (const auto& [base, offset] : pinned_offsets_) {
    if (!pinned_touched_[base]) continue;
    Request request;
    request.type = MsgType::kDataWriteback;
    request.addr = base;
    request.length = 4;
    request.payload.resize(4);
    machine_.ReadBlock(pinned_base_ + offset, request.payload.data(), 4);
    if (Call(request).type != MsgType::kWritebackAck) {
      FailRun("dcache: pinned flush rejected by server");
      return;
    }
  }
  if (failed_) return;
  // End-of-run barrier: if a crash fired after our last RPC, nobody would
  // ever replay the journal; confirm the epoch and replay if needed.
  uint64_t link_cycles = 0;
  auto status = session_.Synchronize(&link_cycles);
  Charge(link_cycles);
  if (!status.ok()) FailRun("dcache: " + status.error().message);
}

}  // namespace sc::dcache
