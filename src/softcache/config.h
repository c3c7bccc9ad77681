// Software-cache configuration.
//
// Two prototype styles, mirroring the paper:
//   * kSparc — basic-block chunks; computed jumps supported through a hash
//     lookup (TCJALR); returns run at full speed; eviction walks the stack
//     to fix in-flight return addresses.
//   * kArm — whole-procedure chunks; call sites are expanded to route return
//     addresses through permanent "redirector" cells so eviction never walks
//     the stack; computed jumps are not supported (translation faults).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/channel.h"
#include "net/transport.h"
#include "softcache/integrity.h"
#include "softcache/reliable.h"

namespace sc::softcache {

class MemoryController;

enum class Style : uint8_t { kSparc, kArm };

// Speculative chunk prefetch (MC-side CFG walk + batched replies).
enum class PrefetchPolicy : uint8_t {
  // No speculation: every miss is one 60-byte round trip, and the wire
  // traffic is byte-identical to the seed protocol.
  kOff,
  // Ship the demanded chunk's static CFG successors in BFS order until the
  // depth/chunk/byte budgets run out.
  kNextN,
};

struct PrefetchConfig {
  PrefetchPolicy policy = PrefetchPolicy::kOff;
  // CFG walk depth from the demanded chunk (capped at 15 on the wire).
  uint32_t depth = 2;
  // Max extra chunks shipped per batch (capped at 255 on the wire).
  uint32_t max_chunks = 8;
  // Max extra payload bytes (sub-headers + words) per batch (capped at
  // 65535 on the wire).
  uint32_t byte_budget = 4096;
  // CC-side staging buffer bound: prefetched chunks wait here as raw
  // untranslated words, consuming no tcache space, until demanded or
  // FIFO-evicted.
  uint32_t staging_bytes = 16 * 1024;
};

enum class EvictPolicy : uint8_t {
  // Flush the whole tcache when an allocation does not fit (Dynamo-style).
  kFlushAll,
  // Evict blocks in allocation order using a circular bump allocator
  // (fragment-cache-style FIFO ring).
  kFifoRing,
};

struct CostModel {
  // CC-side trap entry/exit overhead for a TCMISS, before any work.
  uint32_t miss_trap_cycles = 30;
  // CC-side cost of installing one instruction word into the tcache.
  uint32_t install_cycles_per_word = 2;
  // CC-side cost of patching one branch/jump/slot word.
  uint32_t patch_cycles = 12;
  // Cost of one hash-table lookup for a computed jump (TCJALR). This is the
  // software fallback path of Figure 4's tcache map.
  uint32_t hash_lookup_cycles = 14;
  // Cost of visiting one stack frame during an eviction stack walk.
  uint32_t stack_walk_frame_cycles = 8;
  // Server-side chunk preparation time, charged to the client's wait. The
  // paper notes this "could easily be reduced to near zero by more powerful
  // MC systems"; it defaults small.
  uint32_t mc_service_cycles = 100;
};

struct SoftCacheConfig {
  Style style = Style::kSparc;
  EvictPolicy evict = EvictPolicy::kFifoRing;

  // Size of the translation cache (code region) in bytes.
  uint32_t tcache_bytes = 24 * 1024;
  // Basic-block chunking cap: a block is cut after this many instructions
  // even without a control transfer (bounds message sizes).
  uint32_t max_block_instrs = 64;
  // Trace chunking (SPARC style only): a chunk may run through up to
  // max_trace_blocks-1 conditional branches, which become mid-chunk side
  // exits. 1 = plain basic blocks (the paper's SPARC prototype).
  uint32_t max_trace_blocks = 1;
  // Size of the permanent forward-cell region (return-address landing pads /
  // ARM redirectors), one word per distinct continuation address.
  uint32_t forward_cell_bytes = 8 * 1024;

  // Speculative prefetch + batched replies. kOff reproduces the seed
  // protocol's wire traffic bit for bit.
  PrefetchConfig prefetch;

  // Which MC session this client owns; stamped into every frame. The
  // default 0 keeps single-client wire traffic byte-identical to the seed
  // protocol. Multi-client systems assign each client a distinct id.
  uint32_t client_id = 0;

  // Content-addressed shared replies (broadcast-medium coalescing): when on,
  // chunk requests go out as kChunkSharedRequest, the CC snoops every
  // body-bearing reply on the switch into a bounded content store, and a
  // payload-less kChunkDigestReply installs from that store. Guest output /
  // exit / instruction counts stay bit-identical to a solo run (installs are
  // digest-verified copies of the same artifact); only wire bytes and
  // therefore channel cycle accounting change. Off = seed-identical traffic.
  bool shared_reply = false;
  // Byte bound of the snoop content store (FIFO displacement; a lost body
  // only costs one full-body fallback fetch).
  uint32_t shared_store_bytes = 256 * 1024;

  // Integrity fault domain: digest stamping + verify-on-use + periodic
  // scrub over every client-side cached artifact, plus an optional seeded
  // bit-flip storm. Off by default: the hot paths skip all digest work and
  // the scheduler never slices for integrity ticks.
  IntegrityConfig integrity;

  CostModel cost;
  net::ChannelConfig channel;
  // Link fault injection (all zeros = reliable loopback transport) and the
  // retry/backoff policy that recovers from it.
  net::FaultConfig fault;
  RetryConfig retry;

  // How the CC reaches the MC; the CC requires it. MultiClientSystem, which
  // owns every CC, leaves a caller-supplied factory in place (a test seam:
  // hostile or scripted transports on the CC install path, timing probes)
  // and otherwise supplies a transport over the client's switch port.
  std::function<std::unique_ptr<net::Transport>(MemoryController&,
                                                net::Channel&)>
      transport_factory;

  // Restrict the VM's instruction fetch to the local-memory region, proving
  // the client never executes from the original (server-side) text.
  bool restrict_exec = true;
};

}  // namespace sc::softcache
