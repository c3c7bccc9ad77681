// Counters collected by the cache controller, used by every benchmark.
//
// These structs are the single source of truth the hot paths increment;
// the observability layer (obs::MetricsRegistry, wired up in
// MultiClientSystem::RegisterClientMetrics) exports them as named metrics
// rather than keeping parallel copies.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "softcache/integrity.h"

namespace sc::softcache {

// Reliability-layer counters (one ReliableLink per client). On a loopback
// transport everything but `requests` stays zero; under fault injection
// these expose exactly how much work the retry machinery did.
struct LinkStats {
  uint64_t requests = 0;       // Call() invocations (logical RPCs)
  uint64_t retries = 0;        // retransmissions beyond the first attempt
  uint64_t timeouts = 0;       // attempts that expired with no matching reply
  uint64_t corrupt_frames = 0; // replies that failed to parse
  uint64_t stale_replies = 0;  // parseable replies with mismatched seq/id
  uint64_t giveups = 0;        // RPCs abandoned after max_attempts

  // Every stats struct registers its own fields (views over this storage;
  // the struct must outlive the registry). `prefix` carries the full dotted
  // path, e.g. "net.link." or "c3.net.link." for client 3 of a fleet.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const {
    registry->RegisterCounter(prefix + "requests", &requests);
    registry->RegisterCounter(prefix + "retries", &retries);
    registry->RegisterCounter(prefix + "timeouts", &timeouts);
    registry->RegisterCounter(prefix + "corrupt_frames", &corrupt_frames);
    registry->RegisterCounter(prefix + "stale_replies", &stale_replies);
    registry->RegisterCounter(prefix + "giveups", &giveups);
    // Event-name alias: the `link.gaveup` OBS instant and this counter
    // should read the same on a dashboard.
    registry->RegisterCounter(prefix + "gaveup", &giveups);
  }
};

// Session-layer counters (one Session per client). All zero on a crash-free
// run; under a crash schedule these expose exactly how much recovery work
// the epoch fencing + journal replay machinery did.
struct SessionStats {
  uint64_t epoch_changes = 0;      // replies observed with a new server epoch
  uint64_t recoveries = 0;         // completed handshake+replay cycles
  uint64_t journaled_ops = 0;      // non-idempotent ops appended to journal
  uint64_t journal_replays = 0;    // journal entries retransmitted in replay
  uint64_t journal_truncated = 0;  // entries dropped as durable (flush/ack)
  uint64_t recovery_cycles = 0;    // client cycles spent inside recovery
  uint64_t recovery_failures = 0;  // recoveries abandoned after the bound

  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const {
    registry->RegisterCounter(prefix + "epoch_changes", &epoch_changes);
    registry->RegisterCounter(prefix + "recoveries", &recoveries);
    registry->RegisterCounter(prefix + "journaled_ops", &journaled_ops);
    registry->RegisterCounter(prefix + "journal_replays", &journal_replays);
    registry->RegisterCounter(prefix + "journal_truncated",
                              &journal_truncated);
    registry->RegisterCounter(prefix + "recovery_cycles", &recovery_cycles);
    registry->RegisterCounter(prefix + "recovery_failures",
                              &recovery_failures);
  }
};

// Speculative-prefetch counters (CC side). Accuracy is "of the chunks the
// MC shipped speculatively, how many were eventually demanded"; coverage is
// "of all demand fetches, how many were answered from the staging buffer
// with zero round trips".
struct PrefetchStats {
  uint64_t batches = 0;            // kChunkBatchReply frames received
  uint64_t chunks_prefetched = 0;  // extra chunks carried by those batches
  uint64_t staged = 0;             // prefetched chunks actually staged
  uint64_t hits = 0;               // demand fetches served from staging
  uint64_t demand_fetches = 0;     // chunk fetches that went over the wire
  uint64_t dropped = 0;            // arrived already resident or staged
  uint64_t evictions = 0;          // staged chunks displaced by FIFO bound
  uint64_t invalidated = 0;        // staged chunks dropped by text writes

  double accuracy() const {
    return chunks_prefetched == 0
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(chunks_prefetched);
  }
  double coverage() const {
    const uint64_t fetches = hits + demand_fetches;
    return fetches == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(fetches);
  }

  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const {
    registry->RegisterCounter(prefix + "batches", &batches);
    registry->RegisterCounter(prefix + "chunks_prefetched",
                              &chunks_prefetched);
    registry->RegisterCounter(prefix + "staged", &staged);
    registry->RegisterCounter(prefix + "hits", &hits);
    registry->RegisterCounter(prefix + "demand_fetches", &demand_fetches);
    registry->RegisterCounter(prefix + "dropped", &dropped);
    registry->RegisterCounter(prefix + "evictions", &evictions);
    registry->RegisterCounter(prefix + "invalidated", &invalidated);
    registry->RegisterGauge(prefix + "accuracy", [this] { return accuracy(); });
    registry->RegisterGauge(prefix + "coverage", [this] { return coverage(); });
  }
};

// Content-addressed shared-reply counters (CC side): the snoop store's
// traffic plus the digest-reply fast path. All zero unless the client opted
// in (SoftCacheConfig::shared_reply).
struct SharedReplyStats {
  uint64_t snooped_chunks = 0;   // bodies captured off the broadcast medium
  uint64_t snooped_bytes = 0;    // their payload bytes
  uint64_t store_evictions = 0;  // snooped bodies displaced by the byte bound
  uint64_t digest_replies = 0;   // payload-less kChunkDigestReply received
  uint64_t digest_hits = 0;      // installed straight from the snoop store
  uint64_t digest_misses = 0;    // store had lost the body; refetched in full
  uint64_t bytes_saved = 0;      // body bytes the digest path kept off our leg

  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const {
    registry->RegisterCounter(prefix + "snooped_chunks", &snooped_chunks);
    registry->RegisterCounter(prefix + "snooped_bytes", &snooped_bytes);
    registry->RegisterCounter(prefix + "store_evictions", &store_evictions);
    registry->RegisterCounter(prefix + "digest_replies", &digest_replies);
    registry->RegisterCounter(prefix + "digest_hits", &digest_hits);
    registry->RegisterCounter(prefix + "digest_misses", &digest_misses);
    registry->RegisterCounter(prefix + "bytes_saved", &bytes_saved);
  }
};

struct SoftCacheStats {
  // Translation activity. `blocks_translated` is the numerator of the
  // paper's software miss-rate metric (Figure 7): blocks translated divided
  // by instructions executed.
  uint64_t blocks_translated = 0;
  uint64_t words_installed = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;

  // Trap activity.
  uint64_t tcmiss_traps = 0;
  uint64_t patch_only_misses = 0;  // target already resident; just relink
  uint64_t hash_lookups = 0;       // TCJALR resolutions
  uint64_t hash_lookup_misses = 0; // TCJALR that had to translate

  // Rewriting activity.
  uint64_t patches_applied = 0;
  uint64_t stack_walk_frames = 0;
  uint64_t return_addr_fixups = 0;

  // Space accounting (bytes of guest local memory).
  uint64_t tcache_bytes_used_peak = 0;
  uint64_t extra_words_live = 0;   // slot words currently in the tcache
  uint64_t return_stub_words = 0;
  uint64_t redirector_words = 0;

  // Cycle accounting (client-visible miss-handling time).
  uint64_t miss_cycles = 0;

  // Eviction timeline: cycle timestamps of every eviction (Figure 8 bins
  // these into evictions/second). Bounded: exact timestamps up to the
  // sample capacity, collapsing into uniform time bins beyond that, so a
  // pathologically thrashing run can no longer grow this without bound. The
  // cap covers Figure 8's heaviest sustained-paging run (~850k evictions)
  // with exact timestamps.
  obs::Timeline eviction_timeline{1u << 21, 4096};

  // Speculative-prefetch activity.
  PrefetchStats prefetch;

  // Content-addressed shared-reply activity.
  SharedReplyStats shared;

  // Memory-fault / integrity activity (client domains).
  IntegrityStats integrity;

  // MC link reliability counters.
  LinkStats net;

  // Crash-recovery session counters.
  SessionStats session;

  // Registers this struct's own scalars plus its nested stats blocks.
  // `prefix` is the client-level prefix ("" for a single-client system,
  // "c3." for client 3 of a fleet); the canonical subsystem names (cc.*,
  // prefetch.*, net.link.*, session.*) are appended here so every consumer
  // sees the same dotted scheme.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const {
    const std::string cc = prefix + "cc.";
    registry->RegisterCounter(cc + "blocks_translated", &blocks_translated);
    registry->RegisterCounter(cc + "words_installed", &words_installed);
    registry->RegisterCounter(cc + "evictions", &evictions);
    registry->RegisterCounter(cc + "flushes", &flushes);
    registry->RegisterCounter(cc + "tcmiss_traps", &tcmiss_traps);
    registry->RegisterCounter(cc + "patch_only_misses", &patch_only_misses);
    registry->RegisterCounter(cc + "hash_lookups", &hash_lookups);
    registry->RegisterCounter(cc + "hash_lookup_misses", &hash_lookup_misses);
    registry->RegisterCounter(cc + "patches_applied", &patches_applied);
    registry->RegisterCounter(cc + "stack_walk_frames", &stack_walk_frames);
    registry->RegisterCounter(cc + "return_addr_fixups", &return_addr_fixups);
    registry->RegisterCounter(cc + "tcache_bytes_used_peak",
                              &tcache_bytes_used_peak);
    registry->RegisterCounter(cc + "extra_words_live", &extra_words_live);
    registry->RegisterCounter(cc + "return_stub_words", &return_stub_words);
    registry->RegisterCounter(cc + "redirector_words", &redirector_words);
    registry->RegisterCounter(cc + "miss_cycles", &miss_cycles);
    registry->RegisterTimeline(cc + "eviction_timeline", &eviction_timeline);
    prefetch.RegisterMetrics(registry, prefix + "prefetch.");
    shared.RegisterMetrics(registry, prefix + "shared.");
    integrity.RegisterMetrics(registry, prefix + "mem.fault.");
    net.RegisterMetrics(registry, prefix + "net.link.");
    session.RegisterMetrics(registry, prefix + "session.");
  }
};

}  // namespace sc::softcache
