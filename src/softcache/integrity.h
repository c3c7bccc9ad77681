// Memory-fault injection + integrity metadata: the self-healing fault
// domain of the software cache.
//
// The paper targets embedded SoCs whose on-chip SRAM holds the rewritten
// code — exactly the memory most exposed to soft errors. Up to PR 8 the
// repo's fault model stopped at the wire (frame drop/corrupt/duplicate,
// PR 1) and at whole-server crashes (PR 4): a bit flip inside the tcache,
// the staged-prefetch buffer, the content store, the decoded superblock
// cache, or the server's translation memo would silently execute corrupted
// code. This header supplies the missing pieces:
//
//   * MemFaultConfig — a seeded, deterministic bit-flip schedule with the
//     same four knobs as net::FaultConfig's crash schedules (rate /
//     after-N / every-Nth / at-cycle), evaluated by the shared
//     net::FaultSchedule so the streams replay bit-identically.
//
//   * MemFaultInjector — one schedule + one independent RNG stream per
//     fault DOMAIN (tcache / staged / content store / superblocks / server
//     memo). Independent streams mean turning one domain's faults on never
//     perturbs another domain's schedule, and client-side injection can
//     never perturb the server's.
//
//   * IntegrityConfig — the client-side policy: verify-on-use + periodic
//     scrub cadence (in scheduler quanta), the bounded heal budget, and
//     the poison ladder threshold (a chunk that keeps getting corrupted is
//     demoted to per-instruction superblock dispatch).
//
//   * IntegrityStats — the mem.fault.* counters.
//
// Integrity metadata itself reuses the 64-bit FNV-1a ChunkDigest of
// protocol.h: every install (tcache block, staged chunk, content-store
// body, decoded superblock, memo entry) is stamped with a digest of the
// installed bytes, verify-on-use checks it before the artifact is trusted,
// and the periodic scrub walks everything resident between uses. Healing
// is transparent: a corrupted artifact is quarantined (evicted through the
// existing invalidation paths) and refetched through the normal miss path;
// the server heals memo corruption by re-translating from the pristine
// image. See docs/DESIGN.md ("Fault domains") for the full trust map.
#pragma once

#include <cstdint>
#include <string>

#include "net/fault_schedule.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace sc::softcache {

// Seeded bit-flip schedule, mirroring net::FaultConfig's crash knobs.
// `rate` is a per-opportunity probability; an "opportunity" is one
// integrity tick (client domains, one per scheduler quantum) or one
// translate-request arrival (the server memo domain).
struct MemFaultConfig {
  uint64_t seed = 1;
  double rate = 0.0;     // per-tick flip probability
  uint64_t after = 0;    // flip once on the first tick at/past N
  uint64_t period = 0;   // flip on every Nth tick
  uint64_t at_cycle = 0; // flip once at the first tick at/past guest cycle C

  bool enabled() const {
    return rate > 0 || after > 0 || period > 0 || at_cycle > 0;
  }
};

// Which cached state a MemFaultInjector targets. Each domain owns an
// independent RNG stream (seed xor a per-domain salt).
enum class FaultDomain : uint32_t {
  kTcache = 0,      // rewritten blocks resident in the tcache
  kStaged,          // raw prefetched chunks in the staging buffer
  kStore,           // snooped bodies in the content store
  kSuperblock,      // decoded superblocks (threaded engine)
  kMemo,            // server-side memoized translations
};

class MemFaultInjector {
 public:
  // `substream` splits one domain's storm into independent per-slice
  // streams (e.g. one per server memo shard) that are each still a pure
  // function of the config seed; substream 0 is byte-identical to the
  // historical single-stream injector.
  MemFaultInjector(const MemFaultConfig& config, FaultDomain domain,
                   uint32_t substream = 0);

  // Evaluates one injection opportunity; true = flip a bit now. The cycle
  // source (may be null) feeds the at-cycle knob.
  bool Due(const uint64_t* cycle_source) {
    return schedule_.Due(rng_, cycle_source);
  }

  // Victim-selection draws come from the same per-domain stream.
  util::Rng& rng() { return rng_; }
  uint64_t ticks() const { return schedule_.arrived; }

 private:
  net::FaultSchedule schedule_;
  util::Rng rng_;
};

// Client-side integrity policy. `enabled` turns on digest stamping,
// verify-on-use and the scrub walk even with no faults injected (that is
// the configuration the overhead criterion measures); `memfault` adds the
// seeded corruption storm on top.
struct IntegrityConfig {
  bool enabled = false;
  MemFaultConfig memfault;

  // Integrity ticks fire every this many guest instructions (0 = 1024).
  // With integrity on, the fleet scheduler steps a client by this quantum
  // rather than MultiClientConfig::quantum_instructions, so the tick
  // sequence is identical whether the client runs solo or in a fleet on
  // any number of host threads.
  uint64_t quantum_instructions = 1024;

  // Background scrub cadence, in integrity ticks (0 = verify-on-use only).
  // Executable domains (tcache blocks, superblocks) are *injected* only on
  // scrub ticks, inject-then-scrub, so a flip is always detected before
  // the next instruction from that memory can execute.
  uint32_t scrub_every = 8;

  // Degradation ladder, rung 2: total quarantines this client may heal
  // before the run degrades to a clean Fail with a nonzero exit (0 =
  // unbounded).
  uint32_t max_heal_attempts = 64;

  // Degradation ladder, rung 1: after this many heals of the SAME chunk,
  // its tcache range is poisoned — the threaded engine stops forming
  // multi-op superblocks over it and falls back to per-instruction
  // dispatch, interpreter-equivalent (0 = never poison).
  uint32_t poison_after = 4;
};

// The mem.fault.* counter block (client side; the server memo domain
// counts into McServerStats instead).
struct IntegrityStats {
  uint64_t ticks = 0;             // integrity ticks evaluated
  uint64_t flips_injected = 0;    // bits flipped across all client domains
  uint64_t scrubs = 0;            // background scrub passes
  uint64_t scrubbed_words = 0;    // words walked by those passes
  uint64_t corruptions_detected = 0;  // digest mismatches, any domain
  uint64_t quarantines = 0;       // tcache blocks quarantined + evicted
  uint64_t heals = 0;             // quarantined chunks reinstalled clean
  uint64_t staged_drops = 0;      // corrupted staged chunks discarded
  uint64_t store_drops = 0;       // corrupted content-store bodies discarded
  uint64_t sb_drops = 0;          // corrupted superblocks invalidated
  uint64_t poisoned_blocks = 0;   // installs demoted to per-instr dispatch
  uint64_t heal_failures = 0;     // heal budget exhausted (run degraded)

  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;
};

}  // namespace sc::softcache
