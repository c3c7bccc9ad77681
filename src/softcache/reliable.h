// Reliability layer over an unreliable transport: the CC/dcache side of the
// request/reply protocol.
//
// Every client RPC goes through ReliableLink::Call, which implements a
// classic stop-and-wait ARQ in simulated cycles:
//
//   send frame -> drain replies {
//     unparseable  -> count corrupt, keep draining
//     wrong seq    -> count stale (duplicate/late reply), keep draining
//     matching seq -> done (kError replies are returned to the caller)
//   } -> nothing matched: timeout, double the backoff, retransmit
//
// Retransmission is bounded by max_attempts; an exhausted call returns an
// Error and the caller decides whether that is fatal. Write-type requests
// (kTextWrite, kDataWriteback) may be retransmitted after the server already
// applied them — the MC's replay cache (mc.h) recognizes the identical frame
// and answers from cache instead of applying it twice.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/transport.h"
#include "softcache/protocol.h"
#include "util/result.h"
#include "util/rng.h"

namespace sc::softcache {

class MemoryController;
struct LinkStats;

struct RetryConfig {
  // Backoff schedule, in client cycles: first retransmission waits
  // timeout_cycles, each following one doubles, capped at
  // max_timeout_cycles. The defaults sit well above one round trip of the
  // default 10 Mbps channel so a loopback run can never time out.
  uint64_t timeout_cycles = 100'000;
  uint64_t max_timeout_cycles = 1'600'000;
  // Attempts per RPC (first send included). At per-attempt failure rates as
  // bad as ~0.6 (all fault knobs at 0.2), 32 attempts make giveup
  // probability negligible (~5e-8 per call) while still bounding the loop.
  uint32_t max_attempts = 32;
  // Bound on back-to-back session recoveries (handshake + journal replay)
  // one logical operation may trigger before the Session degrades to a
  // clean error — covers crash schedules that keep firing mid-recovery.
  uint32_t max_recovery_attempts = 8;
  // Hard per-op deadline, in client cycles charged by ONE Call (sends,
  // deliveries and backoff waits). A call that reaches the deadline gives
  // up even with retransmission attempts left, so the worst-case stall a
  // dead server can impose is bounded in guest time, not just in attempt
  // count. 0 = unbounded (the historical behavior).
  uint64_t attempt_deadline_cycles = 0;
  // Backoff jitter fraction in [0, 1): each wait is scaled by a uniform
  // factor in [1-jitter, 1+jitter) drawn from a seeded stream, decorrelating
  // the retry storms of clients that lost the same broadcast. 0 = the exact
  // historical deterministic doubling (the jitter stream is never drawn).
  double backoff_jitter = 0.0;
  uint64_t jitter_seed = 1;
};

class ReliableLink {
 public:
  // `stats` must outlive the link (it lives in the owner's stats block).
  ReliableLink(std::unique_ptr<net::Transport> transport,
               const RetryConfig& retry, LinkStats* stats);

  // Performs one request/reply RPC. `*cycles` accumulates every
  // client-visible cost: transmissions, deliveries, and backoff waits. The
  // returned Reply has the matching seq but may be kError — protocol-level
  // failure is the caller's business; this layer only guarantees delivery.
  util::Result<Reply> Call(const Request& request, uint64_t* cycles);

  net::Transport& transport() { return *transport_; }

 private:
  std::unique_ptr<net::Transport> transport_;
  RetryConfig retry_;
  LinkStats* stats_;
  util::Rng jitter_rng_;  // drawn only when backoff_jitter > 0
};

// Builds a client transport over an arbitrary server endpoint (e.g. one
// port of a net::Switch): a LoopbackTransport when `fault` is all zeros
// (bit-identical to the historical direct-call path), otherwise a
// FaultyTransport seeded from the config, with `crash` invoked at each
// scheduled server crash (typically MemoryController::RestartSession).
std::unique_ptr<net::Transport> MakeTransport(net::FrameHandler handler,
                                              net::Channel& channel,
                                              const net::FaultConfig& fault,
                                              std::function<void()> crash);

// A port-less transport for callers outside a MultiClientSystem (the
// D-cache, tests, timing probes): frames go straight to mc.Handle and a
// scheduled crash restarts every session. A CacheController never uses it.
std::unique_ptr<net::Transport> MakeMcTransport(MemoryController& mc,
                                                net::Channel& channel,
                                                const net::FaultConfig& fault);

}  // namespace sc::softcache
