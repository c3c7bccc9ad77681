#include "softcache/inspector.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "softcache/cc.h"
#include "softcache/mc.h"
#include "softcache/system.h"
#include "vm/machine.h"
#include "vm/superblock.h"

namespace sc::softcache {
namespace {

// Digests are 64-bit; hex strings keep them exact in every JSON reader.
std::string HexU64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

}  // namespace

void Inspector::WriteClient(std::ostream& out, uint32_t id,
                            const vm::Machine& machine, CacheController& cc) {
  out << "{\"id\":" << id << ",\"cycles\":" << machine.cycles()
      << ",\"instructions\":" << machine.instructions();

  // Tcache occupancy map: every resident rewritten block, tcache order.
  out << ",\"tcache\":{\"base\":" << cc.local_base()
      << ",\"capacity_bytes\":" << (cc.cells_base() - cc.local_base())
      << ",\"live_bytes\":" << cc.live_tcache_bytes() << ",\"blocks\":[";
  bool first = true;
  for (const CacheController::BlockView& block : cc.SnapshotBlocks()) {
    if (!first) out << ",";
    first = false;
    out << "{\"orig\":" << block.orig_addr << ",\"span\":" << block.orig_span
        << ",\"tc\":" << block.tc_addr << ",\"bytes\":" << block.tc_bytes
        << ",\"in_edges\":" << block.in_edges
        << ",\"out_edges\":" << block.out_edges
        << ",\"pinned\":" << (block.pinned ? "true" : "false") << "}";
  }
  out << "]}";

  // Prefetch staging buffer (raw untranslated chunks), FIFO order.
  out << ",\"staged\":{\"bytes\":" << cc.staged_bytes() << ",\"chunks\":[";
  first = true;
  for (const auto& [orig, cost] : cc.SnapshotStaged()) {
    if (!first) out << ",";
    first = false;
    out << "{\"orig\":" << orig << ",\"cost\":" << cost << "}";
  }
  out << "]}";

  // Threaded-engine superblock cache and its chain graph (absent under the
  // interpreter, where the machine never builds one).
  const vm::SbStats& sb_stats = machine.sb_stats();
  out << ",\"superblocks\":{\"fills\":" << sb_stats.fills
      << ",\"chains\":" << sb_stats.chains
      << ",\"invalidations\":" << sb_stats.invalidations
      << ",\"retargets\":" << sb_stats.retargets
      << ",\"flushes\":" << sb_stats.flushes;
  if (const vm::SuperblockCache* sb_cache = machine.sb_cache()) {
    out << ",\"live\":" << sb_cache->live_blocks()
        << ",\"pool\":" << sb_cache->pool_size() << ",\"blocks\":[";
    first = true;
    sb_cache->ForEachLive([&](const vm::Superblock& sb,
                              const vm::Superblock* taken,
                              const vm::Superblock* fall) {
      if (!first) out << ",";
      first = false;
      out << "{\"start\":" << sb.start << ",\"span\":" << sb.span
          << ",\"ops\":" << sb.n_ops << ",\"taken\":";
      if (taken != nullptr) {
        out << taken->start;
      } else {
        out << "null";
      }
      out << ",\"fall\":";
      if (fall != nullptr) {
        out << fall->start;
      } else {
        out << "null";
      }
      out << "}";
    });
    out << "]}";
  } else {
    out << ",\"live\":0,\"pool\":0,\"blocks\":[]}";
  }

  // Shared-reply snoop store residency (null when the mode is off).
  if (ChunkContentStore* store = cc.content_store()) {
    out << ",\"content_store\":{\"capacity_bytes\":" << store->capacity_bytes()
        << ",\"bytes\":" << store->bytes() << ",\"chunks\":[";
    first = true;
    for (const ChunkContentStore::EntryView& entry : store->SnapshotEntries()) {
      if (!first) out << ",";
      first = false;
      out << "{\"digest\":\"" << HexU64(entry.digest)
          << "\",\"addr\":" << entry.addr << ",\"bytes\":" << entry.bytes
          << "}";
    }
    out << "]}";
  } else {
    out << ",\"content_store\":null";
  }
  out << "}";
}

void Inspector::WriteServer(std::ostream& out, const MemoryController& mc) {
  const McServer& server = mc.server();
  out << "{\"shards\":" << server.shards()
      << ",\"memo_entries\":" << server.memo_entries()
      << ",\"published_digests\":" << server.published_digests();

  out << ",\"shard_stats\":[";
  for (uint32_t s = 0; s < server.shards(); ++s) {
    if (s != 0) out << ",";
    out << "{\"translates\":" << server.shard_translates(s)
        << ",\"memo_hits\":" << server.shard_memo_hits(s)
        << ",\"entries\":" << server.shard_memo_entries(s) << "}";
  }
  out << "]";

  // Memoized-translation residency with fleet demand heat, (shard, addr)
  // order.
  out << ",\"memo\":[";
  bool first = true;
  for (const McServer::MemoEntryView& entry : server.SnapshotMemo()) {
    if (!first) out << ",";
    first = false;
    out << "{\"shard\":" << entry.shard << ",\"addr\":" << entry.addr
        << ",\"span\":" << entry.span_bytes << ",\"words\":" << entry.words
        << ",\"heat\":" << entry.heat << "}";
  }
  out << "]";

  // Per-session COW overlay footprints and journal watermarks.
  out << ",\"sessions\":[";
  first = true;
  for (uint32_t id : mc.SessionIds()) {
    const McSession* session = mc.FindSession(id);
    if (session == nullptr) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"id\":" << id << ",\"epoch\":" << session->epoch()
        << ",\"applied_text_ops\":" << session->applied_text_ops()
        << ",\"stable_text_ops\":" << session->stable_text_ops()
        << ",\"applied_data_ops\":" << session->applied_data_ops()
        << ",\"stable_data_ops\":" << session->stable_data_ops()
        << ",\"private_text\":"
        << (session->has_private_text() ? "true" : "false")
        << ",\"data_pages\":" << session->private_data_pages()
        << ",\"stable_data_pages\":" << session->stable_private_data_pages()
        << ",\"pending_text\":" << session->pending_text_writes()
        << ",\"pending_data\":" << session->pending_data_writes()
        << ",\"page_indexes\":[";
    bool first_page = true;
    for (uint32_t page : session->PrivateDataPageIndexes()) {
      if (!first_page) out << ",";
      first_page = false;
      out << page;
    }
    out << "]}";
  }
  out << "]}";
}

void Inspector::WriteJson(std::ostream& out, const std::string& reason,
                          Scope scope) {
  out << "{\"softcache_inspector\":1,\"reason\":\"" << reason
      << "\",\"seq\":" << seq_ << ",\"scope\":\""
      << (scope == Scope::kFull ? "full" : "server") << "\"";
  ++seq_;

  out << ",\"clients\":[";
  if (scope == Scope::kFull) {
    for (size_t i = 0; i < fleet_->clients(); ++i) {
      if (i != 0) out << ",";
      WriteClient(out, static_cast<uint32_t>(i), fleet_->machine(i),
                  fleet_->cc(i));
    }
  }
  out << "]";

  out << ",\"server\":";
  WriteServer(out, fleet_->mc());
  out << "}\n";
}

bool Inspector::WriteFile(const std::string& path, const std::string& reason,
                          Scope scope) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[obs] inspector: cannot open %s\n", path.c_str());
    return false;
  }
  WriteJson(out, reason, scope);
  return true;
}

}  // namespace sc::softcache
