// McServerLoop: the front end of the memory controller.
//
// In the paper one MC serves many devices, each with at most one request in
// flight, so the front end only has to serialize frames per memo shard. The
// loop does exactly that and nothing more:
//
//   * every arriving frame is routed to a **lane** (one per memo shard when
//     a router is installed, a single lane otherwise);
//   * the loop owns no threads and passes no frames between threads. A
//     submitter claims its frame's lane, runs the handler on its own frame
//     on its own thread, and releases the lane. Submitters that find the
//     lane claimed wait on that lane's condition variable for their turn;
//   * frames routed to different lanes are serviced concurrently (there is
//     no core-wide lock on the frame path).
//
// A one-thread fleet has at most one frame in flight fleet-wide, so service
// order — hence replies, wire traffic and guest execution — is a pure
// function of the guest run.
//
// RunExclusive is a park-all barrier (the same stop/drain/resume shape as
// the fleet scheduler's inspection safepoint): out-of-band server
// mutations (crash-schedule restarts, whole-fleet snapshots) first stop new
// lane claims, wait for every claimed lane to be released, run, then wake
// the lanes back up. A restart can therefore never interleave with frame
// handling, however many client threads are submitting. RunOnLane is the
// one-lane form: it claims a single lane the way a submitter does (traced
// memo scrubs write one shard's trace lane at a time) and leaves the
// others serving.
//
// Lock ownership (the loop side of the table in docs/DESIGN.md): ONE mutex
// (mu_) owns every lane, flag, loop counter and the queue-wait histogram —
// no loop statistic is ever touched under two different locks. Handlers run
// with no loop lock held; the server core below has its own per-shard
// ownership (see mc.h).
//
// Observability: the loop records no trace events. It hands the handler
// the lane index and the frame's guest-cycle arrival stamp, and the
// handler writes the frame's spans into that lane's trace lane — a lane is
// claimed by one thread at a time, so that trace lane has one writer at a
// time. The host-nanosecond queue-wait histogram (arrival -> lane claim)
// never charges guest cycles and is excluded from snapshot determinism.
#pragma once

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
  uint64_t requests_enqueued = 0;  // frames admitted to a lane
  uint64_t batches_drained = 0;    // frames served; equals requests_enqueued
  uint64_t max_queue_depth = 0;    // most submitters ever waiting on one lane
  uint64_t queue_depth_sum = 0;    // sum of lane waiters at each arrival
  uint64_t exclusive_sections = 0; // RunExclusive invocations
  uint64_t requests_deferred = 0;  // submits parked by the lane bound
};

// How the loop's lanes are shaped. The default is one unbounded lane.
struct McServerLoopConfig {
  // Lane count; with a router installed this should equal the server's
  // shard count so each shard's translations queue independently.
  uint32_t lanes = 1;
  // Per-lane bound on submitters waiting for the lane, not counting the one
  // being served (0 = unbounded). A submitter arriving at a full lane
  // defers — parks without joining the waiters — until a waiter claims the
  // lane, so the waiters under a flood stay bounded while service always
  // makes progress.
  size_t max_queue = 0;
};

class McServerLoop {
 public:
  // What a handler learns about the frame it serves.
  struct TicketInfo {
    uint32_t lane = 0;  // the lane the router sent it to
    uint32_t port = 0;  // the switch port it arrived on
    // Guest-cycle timestamp on the submitting thread's trace lane clock (0
    // when that thread is untraced): downstream trace lanes advance their
    // manual clocks to it so server spans sort after their cause.
    uint64_t enqueue_ts = 0;
  };

  // Handles one frame (MemoryController::HandlePort, or a test double).
  // Invoked on the submitting thread, by one thread at a time per lane, and
  // concurrently across lanes (the core's per-shard ownership makes that
  // safe).
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

  // The switch's server handler: waits for the frame's lane, claims it,
  // runs the handler on the frame, releases the lane and returns the reply.
  // Safe to call from many threads.
  std::vector<uint8_t> Submit(uint32_t port, const std::vector<uint8_t>& frame);

  // Park-all barrier: stops new lane claims, waits for every claimed lane
  // to be released, runs `fn` with the core exclusively held, then resumes
  // the lanes. Used for crash-schedule restarts arriving off the
  // frame path and whole-server snapshots. Must not be called from inside
  // a handler (it would wait on itself).
  void RunExclusive(const std::function<void()>& fn);

  // Claims lane `lane` as a submitter would, runs `fn` while no frame of
  // that lane is served, then releases it. Other lanes keep serving, and
  // an exclusive section waits for `fn` like for a handler. Not counted in
  // any loop statistic. Must not be called from inside a handler.
  void RunOnLane(uint32_t lane, const std::function<void()>& fn);

  // Quiescent read surface: loop counters are written only under mu_; read
  // them after the run (or inside an exclusive section / safepoint).
  const McServerLoopStats& stats() const { return stats_; }

  uint32_t lanes() const { return static_cast<uint32_t>(lanes_.size()); }

  // Host nanoseconds each frame waited between arrival and lane claim.
  const util::Histogram& queue_wait_ns() const { return queue_wait_ns_; }

  // Registers the queue counters under `prefix` (e.g. "mc.loop.").
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  // One memo shard's front door. A submitter counts in `waiting` from
  // arrival until it claims the lane; `claimed` is set while it serves.
  struct Lane {
    std::condition_variable cv;  // claim handoff and deferred admission
    size_t waiting = 0;
    bool claimed = false;
  };

  // True while an exclusive section runs or waits to: no lane may be
  // claimed. Caller holds mu_.
  bool ExclusivePending() const {
    return exclusive_active_ || exclusive_waiters_ != 0;
  }
  // Waits until `lane` is unclaimed and no exclusive is pending, then
  // claims it. `lock` holds mu_.
  void Claim(std::unique_lock<std::mutex>& lock, Lane& lane);
  // Releases a claimed lane, unlocks `lock` (which holds mu_) and wakes
  // whoever waits for the lane.
  void Release(std::unique_lock<std::mutex>& lock, Lane& lane);

  PortHandler handler_;
  LaneRouter router_;
  const size_t max_queue_;

  // THE loop lock: lanes, flags, stats, histogram.
  // Mutable so const registration lambdas can lock for gauges.
  mutable std::mutex mu_;
  std::condition_variable exclusive_cv_;  // exclusive sections' parking

  std::deque<Lane> lanes_;
  uint64_t claimed_ = 0;            // lanes currently claimed
  uint32_t exclusive_waiters_ = 0;  // RunExclusive calls waiting to park all
  bool exclusive_active_ = false;   // an exclusive section is running
  McServerLoopStats stats_;
  util::Histogram queue_wait_ns_;  // written under mu_
};

}  // namespace sc::softcache
