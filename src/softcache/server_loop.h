// McServerLoop: the event-driven front end of the memory controller.
//
// The seed server was a synchronous function call: each client's transport
// invoked MemoryController::HandlePort and got the reply on the stack. This
// loop replaces that with inbound request queues and explicit service:
//
//   * every arriving frame becomes a *ticket*, routed to a **lane** (one
//     bounded queue per memo shard when a router is installed, a single
//     lane otherwise);
//   * the loop owns no threads. The first submitter to find its lane
//     unclaimed pumps it: it pops, services and completes the lane's
//     tickets in arrival order — its own AND any queued behind it — while
//     other submitters to that lane block until their reply is ready;
//   * frames routed to different lanes are serviced concurrently (there is
//     no core-wide lock on the frame path).
//
// A one-thread fleet has at most one frame in flight fleet-wide, so the
// submitter always services its own ticket and ticket service order — hence
// replies, wire traffic and guest execution — is a pure function of the
// guest run.
//
// RunExclusive is a park-all barrier (the same stop/drain/resume shape as
// the fleet scheduler's inspection safepoint): out-of-band server
// mutations (crash-schedule restarts, whole-fleet snapshots) first stop new
// ticket service, wait for every in-flight handler to finish, run, then
// wake the lanes back up. A restart can therefore never interleave with
// frame handling, however many client threads are pumping. RunOnLane is
// the one-lane form: it claims a single lane the way a pumper does (traced
// memo scrubs write one shard's trace lane at a time) and leaves the
// others serving.
//
// Lock ownership (the loop side of the table in docs/DESIGN.md): ONE mutex
// (mu_) owns every queue, flag, loop counter and the queue-wait histogram —
// no loop statistic is ever touched under two different locks. Handlers run
// with no loop lock held; the server core below has its own per-shard
// ownership (see mc.h).
//
// Observability: the loop records no trace events. It hands the handler
// the lane index and the ticket's guest-cycle enqueue stamp, and the
// handler writes the ticket's spans into that lane's trace lane — a lane is
// pumped by one thread at a time, so that trace lane has one writer at a
// time. The host-nanosecond queue-wait histogram (enqueue -> handler
// entry) never charges guest cycles and is excluded from snapshot
// determinism.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace sc::obs {
class MetricsRegistry;
}

namespace sc::softcache {

struct McServerLoopStats {
  uint64_t requests_enqueued = 0;  // tickets admitted to the lane queues
  uint64_t batches_drained = 0;    // contiguous drain bursts (one per pump)
  uint64_t max_queue_depth = 0;    // deepest single lane ever observed
  uint64_t queue_depth_sum = 0;    // sum of lane depth-at-enqueue
  uint64_t exclusive_sections = 0; // RunExclusive invocations
  uint64_t requests_deferred = 0;  // submits parked by the lane bound
};

// How the loop's queues are shaped. The default is one unbounded lane.
struct McServerLoopConfig {
  // Lane (queue) count; with a router installed this should equal the
  // server's shard count so each shard's translations queue independently.
  uint32_t lanes = 1;
  // Per-lane ticket bound (0 = unbounded). A submitter arriving at a full
  // lane defers — parks WITHOUT holding a queued ticket — and retries once
  // the lane drains below the bound, so the server's memory footprint under
  // a flood stays bounded while service always makes progress.
  size_t max_queue = 0;
};

class McServerLoop {
 public:
  // What a handler learns about the ticket it services.
  struct TicketInfo {
    uint32_t lane = 0;  // the lane the router queued it on
    uint32_t port = 0;  // the switch port it arrived on
    // Guest-cycle timestamp on the submitting thread's trace lane clock (0
    // when that thread is untraced): downstream trace lanes advance their
    // manual clocks to it so server spans sort after their cause.
    uint64_t enqueue_ts = 0;
  };

  // Handles one frame (MemoryController::HandlePort, or a test double).
  // Invoked by one thread at a time per lane, and concurrently across
  // lanes (the core's per-shard ownership makes that safe).
  using PortHandler = std::function<std::vector<uint8_t>(
      const TicketInfo& ticket, const std::vector<uint8_t>& frame)>;

  // Maps an arriving frame to the lane that must service it (frames that
  // touch the same server slice must map to the same lane). Must be pure
  // and thread-safe; called outside every lock. Return values are folded
  // into range with `% lanes`.
  using LaneRouter = std::function<uint32_t(
      uint32_t port, const std::vector<uint8_t>& frame)>;

  // A null router sends every frame to lane 0.
  McServerLoop(PortHandler handler, LaneRouter router,
               const McServerLoopConfig& config);

  McServerLoop(const McServerLoop&) = delete;
  McServerLoop& operator=(const McServerLoop&) = delete;

  // The switch's server handler: enqueues the frame on its lane, pumps the
  // lane (or waits for its current pumper) until the reply is ready, and
  // returns it. Safe to call from many threads.
  std::vector<uint8_t> Submit(uint32_t port, const std::vector<uint8_t>& frame);

  // Park-all barrier: stops new ticket service, waits for every in-flight
  // handler to drain, runs `fn` with the core exclusively held, then
  // resumes the lanes. Used for crash-schedule restarts arriving off the
  // frame path and whole-server snapshots. Must not be called from inside
  // a handler (it would wait on itself).
  void RunExclusive(const std::function<void()>& fn);

  // Claims lane `lane` as its pumper would, runs `fn` while no ticket of
  // that lane is serviced, then releases it. Other lanes keep serving, and
  // an exclusive section waits for `fn` like for a handler. Not counted in
  // any loop statistic. Must not be called from inside a handler.
  void RunOnLane(uint32_t lane, const std::function<void()>& fn);

  // Quiescent read surface: loop counters are written only under mu_; read
  // them after the run (or inside an exclusive section / safepoint).
  const McServerLoopStats& stats() const { return stats_; }

  uint32_t lanes() const { return static_cast<uint32_t>(lanes_.size()); }

  // Host nanoseconds each ticket spent queued before a handler took it.
  const util::Histogram& queue_wait_ns() const { return queue_wait_ns_; }

  // Registers the queue counters under `prefix` (e.g. "mc.loop.").
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  struct Ticket {
    TicketInfo info;
    const std::vector<uint8_t>* frame = nullptr;
    std::vector<uint8_t> reply;
    bool done = false;
    std::chrono::steady_clock::time_point enqueue_host;  // queue-wait start
  };

  // One inbound queue. `pumping` is set while a submitter claims the lane.
  struct Lane {
    std::deque<Ticket*> queue;
    bool pumping = false;
  };

  // True while an exclusive section runs or waits to: no new ticket service
  // may start. Caller holds mu_.
  bool ExclusivePending() const {
    return exclusive_active_ || exclusive_waiters_ != 0;
  }
  // Pops lane `l`'s next ticket; null when the lane is empty or an
  // exclusive is pending. Caller holds mu_.
  Ticket* Pop(uint32_t l);
  // Runs the handler on a popped ticket with mu_ released, then completes
  // it. `lock` holds mu_ on entry and on return.
  void Service(std::unique_lock<std::mutex>& lock, Ticket* t);

  PortHandler handler_;
  LaneRouter router_;
  const size_t max_queue_;

  // THE loop lock: queues, flags, stats, histogram.
  // Mutable so const registration lambdas can lock for gauges.
  mutable std::mutex mu_;
  // Ticket completion, pump handoff, deferred admission, exclusive parking.
  std::condition_variable cv_;

  std::deque<Lane> lanes_;
  uint64_t busy_ = 0;               // threads currently inside the handler
  uint32_t exclusive_waiters_ = 0;  // RunExclusive calls waiting to park all
  bool exclusive_active_ = false;   // an exclusive section is running
  McServerLoopStats stats_;
  util::Histogram queue_wait_ns_;  // written under mu_
};

}  // namespace sc::softcache
