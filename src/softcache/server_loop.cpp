#include "softcache/server_loop.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace sc::softcache {

McServerLoop::McServerLoop(PortHandler handler, LaneRouter router,
                           const McServerLoopConfig& config)
    : handler_(std::move(handler)),
      router_(std::move(router)),
      max_queue_(config.max_queue),
      lanes_(std::max<uint32_t>(config.lanes, 1)),
      // Queue waits are host time: sub-microsecond uncontended, tens of
      // microseconds when many client threads arrive at once. One bucket
      // per 8 us to 1 ms; slower outliers clamp into the last bucket.
      queue_wait_ns_(0, 1e6, 128) {
  SC_CHECK(handler_ != nullptr) << "McServerLoop needs a port handler";
}

void McServerLoop::Claim(std::unique_lock<std::mutex>& lock, Lane& lane) {
  lane.cv.wait(lock, [&] { return !lane.claimed && !ExclusivePending(); });
  lane.claimed = true;
  ++claimed_;
}

void McServerLoop::Release(std::unique_lock<std::mutex>& lock, Lane& lane) {
  lane.claimed = false;
  const bool wake_exclusive = --claimed_ == 0 && exclusive_waiters_ != 0;
  lock.unlock();
  lane.cv.notify_all();
  if (wake_exclusive) exclusive_cv_.notify_all();
}

std::vector<uint8_t> McServerLoop::Submit(uint32_t port,
                                          const std::vector<uint8_t>& frame) {
  TicketInfo ticket;
  ticket.port = port;
  // Stamp the arrival: guest cycles from the submitting thread's own trace
  // lane (its clock — no cross-thread reads), host time for the queue-wait
  // histogram.
  if (obs::Tracer* lane = obs::tracer();
      lane != nullptr && lane->recording()) {
    ticket.enqueue_ts = lane->CurrentTimestamp();
  }
  const auto arrival = std::chrono::steady_clock::now();

  // Route outside every lock; garbage frames fold to lane 0 and get their
  // error reply from whichever slice serves them.
  if (router_ != nullptr && lanes_.size() > 1) {
    ticket.lane = router_(port, frame) % static_cast<uint32_t>(lanes_.size());
  }

  std::unique_lock<std::mutex> lock(mu_);
  Lane& lane = lanes_[ticket.lane];
  // Backpressure: defer while this lane's waiters sit at the bound. Every
  // waiter claims the lane in turn, so deferral cannot deadlock. A
  // one-thread fleet never defers: it has no waiter but itself.
  if (max_queue_ != 0 && lane.waiting >= max_queue_) {
    ++stats_.requests_deferred;
    lane.cv.wait(lock, [&] { return lane.waiting < max_queue_; });
  }
  ++lane.waiting;
  ++stats_.requests_enqueued;
  stats_.queue_depth_sum += lane.waiting;
  stats_.max_queue_depth =
      std::max<uint64_t>(stats_.max_queue_depth, lane.waiting);

  Claim(lock, lane);
  --lane.waiting;
  // Dropping below the bound admits the deferred submitters.
  if (max_queue_ != 0 && lane.waiting + 1 == max_queue_) lane.cv.notify_all();
  ++stats_.batches_drained;
  lock.unlock();
  const auto claimed_at = std::chrono::steady_clock::now();
  std::vector<uint8_t> reply = handler_(ticket, frame);
  lock.lock();
  queue_wait_ns_.Add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(claimed_at -
                                                           arrival)
          .count()));
  Release(lock, lane);
  return reply;
}

void McServerLoop::RunExclusive(const std::function<void()>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.exclusive_sections;
  // Park-all: raising exclusive_waiters_ stops new lane claims; claimed_
  // reaching zero means every in-flight handler has drained. Concurrent
  // exclusives serialize on exclusive_active_.
  ++exclusive_waiters_;
  exclusive_cv_.wait(lock,
                     [this] { return !exclusive_active_ && claimed_ == 0; });
  --exclusive_waiters_;
  exclusive_active_ = true;
  lock.unlock();
  fn();
  lock.lock();
  exclusive_active_ = false;
  // Resume the lanes and any exclusive queued behind this one.
  for (Lane& lane : lanes_) lane.cv.notify_all();
  exclusive_cv_.notify_all();
}

void McServerLoop::RunOnLane(uint32_t l, const std::function<void()>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  Lane& lane = lanes_[l];
  Claim(lock, lane);
  lock.unlock();
  fn();
  lock.lock();
  Release(lock, lane);
}

void McServerLoop::RegisterMetrics(obs::MetricsRegistry* registry,
                                   const std::string& prefix) const {
  registry->RegisterCounter(prefix + "requests_enqueued",
                            &stats_.requests_enqueued);
  registry->RegisterCounter(prefix + "batches_drained",
                            &stats_.batches_drained);
  registry->RegisterCounter(prefix + "max_queue_depth",
                            &stats_.max_queue_depth);
  registry->RegisterCounter(prefix + "queue_depth_sum",
                            &stats_.queue_depth_sum);
  registry->RegisterCounter(prefix + "exclusive_sections",
                            &stats_.exclusive_sections);
  registry->RegisterCounter(prefix + "requests_deferred",
                            &stats_.requests_deferred);
  registry->RegisterGauge(prefix + "queue_depth", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t depth = 0;
    for (const Lane& lane : lanes_) depth += lane.waiting;
    return static_cast<double>(depth);
  });
  registry->RegisterGauge(prefix + "avg_queue_depth", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.requests_enqueued == 0
               ? 0.0
               : static_cast<double>(stats_.queue_depth_sum) /
                     static_cast<double>(stats_.requests_enqueued);
  });
  // Host-time histogram: excluded from snapshot determinism on purpose.
  registry->RegisterHistogram(prefix + "queue_wait_ns", &queue_wait_ns_);
}

}  // namespace sc::softcache
