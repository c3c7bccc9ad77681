#include "softcache/server_loop.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace sc::softcache {

McServerLoop::McServerLoop(PortHandler handler, LaneRouter router,
                           const McServerLoopConfig& config)
    : handler_(std::move(handler)),
      router_(std::move(router)),
      max_queue_(config.max_queue),
      worker_count_(config.workers),
      lanes_(std::max<uint32_t>(config.lanes, 1)),
      worker_stats_(config.workers),
      // Queue waits are host time: sub-microsecond uncontended, tens of
      // microseconds when many client threads arrive at once. One bucket
      // per 8 us to 1 ms; slower outliers clamp into the last bucket.
      queue_wait_ns_(0, 1e6, 128) {
  SC_CHECK(handler_ != nullptr) << "McServerLoop needs a port handler";
  threads_.reserve(config.workers);
  for (uint32_t w = 0; w < config.workers; ++w) {
    threads_.emplace_back([this, w] { WorkerMain(w); });
  }
}

McServerLoop::~McServerLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

McServerLoop::Ticket* McServerLoop::Pop(uint32_t l) {
  Lane& lane = lanes_[l];
  if (ExclusivePending() || lane.queue.empty()) return nullptr;
  Ticket* t = lane.queue.front();
  lane.queue.pop_front();
  // Dropping below the bound re-admits one deferred submitter.
  if (max_queue_ != 0 && lane.queue.size() + 1 == max_queue_) {
    cv_.notify_all();
  }
  queue_wait_ns_.Add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t->enqueue_host)
          .count()));
  return t;
}

void McServerLoop::Service(std::unique_lock<std::mutex>& lock, Ticket* t,
                           McWorkerStats* worker) {
  ++busy_;
  lock.unlock();
  const bool timed = worker != nullptr;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  std::vector<uint8_t> reply = handler_(t->info, *t->frame);
  const auto end = timed ? std::chrono::steady_clock::now() : start;
  lock.lock();
  --busy_;
  if (timed) {
    ++worker->frames;
    worker->busy_hist_ns.Add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count()));
  }
  t->reply = std::move(reply);
  t->done = true;
  // Wakes the ticket's submitter, deferred submitters, and any exclusive
  // waiting for busy_ to reach zero.
  cv_.notify_all();
}

void McServerLoop::WorkerMain(uint32_t w) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint32_t n = static_cast<uint32_t>(lanes_.size());
  uint64_t burst = 0;  // tickets serviced since the last idle wait
  for (;;) {
    if (shutdown_) return;
    // Static ownership: worker w drains exactly the lanes congruent to w
    // modulo the pool size, so a given lane — hence a given memo shard — is
    // only ever touched by one worker thread.
    Ticket* t = nullptr;
    for (uint32_t l = w; l < n && t == nullptr; l += worker_count_) {
      t = Pop(l);
    }
    if (t == nullptr) {
      if (burst != 0) {
        ++stats_.batches_drained;
        burst = 0;
      }
      work_cv_.wait(lock);
      continue;
    }
    Service(lock, t, &worker_stats_[w]);
    ++burst;
  }
}

std::vector<uint8_t> McServerLoop::Submit(uint32_t port,
                                          const std::vector<uint8_t>& frame) {
  Ticket ticket;
  ticket.info.port = port;
  ticket.frame = &frame;
  // Stamp the enqueue moment: guest cycles from the enqueuing thread's own
  // trace lane (its clock — no cross-thread reads), host time for the
  // queue-wait histogram.
  if (obs::Tracer* lane = obs::tracer();
      lane != nullptr && lane->recording()) {
    ticket.info.enqueue_ts = lane->CurrentTimestamp();
  }
  ticket.enqueue_host = std::chrono::steady_clock::now();

  // Route outside every lock; garbage frames fold to lane 0 and get their
  // error reply from whichever slice services them.
  uint32_t lane_index = 0;
  if (router_ != nullptr && lanes_.size() > 1) {
    lane_index = router_(port, frame) % static_cast<uint32_t>(lanes_.size());
  }
  ticket.info.lane = lane_index;

  std::unique_lock<std::mutex> lock(mu_);
  Lane& lane = lanes_[lane_index];
  // Backpressure: defer while this lane sits at its bound. The waiter holds
  // no queued ticket, so service (the lane's pumper, or its owning worker)
  // always has a live thread to drain the lane — deferral cannot deadlock.
  // The single-threaded schedulers never defer: their depth is at most 1.
  if (max_queue_ != 0 && lane.queue.size() >= max_queue_) {
    ++stats_.requests_deferred;
    cv_.wait(lock, [&] { return lane.queue.size() < max_queue_; });
  }
  lane.queue.push_back(&ticket);
  ++stats_.requests_enqueued;
  stats_.queue_depth_sum += lane.queue.size();
  stats_.max_queue_depth =
      std::max<uint64_t>(stats_.max_queue_depth, lane.queue.size());

  if (worker_count_ != 0) {
    // Worker pool: hand the ticket to the lane's owner and wait.
    work_cv_.notify_all();
    cv_.wait(lock, [&] { return ticket.done; });
    return std::move(ticket.reply);
  }

  // No pool: claim the lane and pump it ourselves, unless another thread is
  // already pumping it (it will complete our ticket) or an exclusive is
  // pending (it would starve if we started new service).
  for (;;) {
    cv_.wait(lock, [&] {
      return ticket.done || (!lane.pumping && !ExclusivePending());
    });
    if (ticket.done) return std::move(ticket.reply);
    // Drain in arrival order. Tickets that arrive while we are inside the
    // server core are seen on the next Pop, so one drain services every
    // frame queued behind ours too.
    lane.pumping = true;
    while (Ticket* t = Pop(lane_index)) Service(lock, t, nullptr);
    lane.pumping = false;
    ++stats_.batches_drained;
    cv_.notify_all();
  }
}

void McServerLoop::RunExclusive(const std::function<void()>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.exclusive_sections;
  // Park-all: raising exclusive_waiters_ stops pumpers and workers from
  // starting new tickets; busy_ reaching zero means every in-flight handler
  // has drained. Concurrent exclusives serialize on exclusive_active_.
  ++exclusive_waiters_;
  cv_.wait(lock, [this] { return !exclusive_active_ && busy_ == 0; });
  --exclusive_waiters_;
  exclusive_active_ = true;
  lock.unlock();
  fn();
  lock.lock();
  exclusive_active_ = false;
  // Resume the lanes: wake parked pumpers/submitters and idle workers.
  cv_.notify_all();
  work_cv_.notify_all();
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
    for (const Lane& lane : lanes_) depth += lane.queue.size();
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
  // Per-pool-worker service counters: mc.worker<i>.* alongside mc.loop.*.
  // The vector is sized once in the constructor, so the addresses are
  // stable for the registry's whole lifetime.
  const std::string root = prefix.substr(0, prefix.find('.') + 1);
  for (size_t w = 0; w < worker_stats_.size(); ++w) {
    const std::string wp = root + "worker" + std::to_string(w) + ".";
    registry->RegisterCounter(wp + "frames", &worker_stats_[w].frames);
    // Host wall-clock, so a histogram (per-ticket service ns): host-time
    // metrics stay out of the scalar snapshot determinism checks.
    registry->RegisterHistogram(wp + "busy_ns",
                                &worker_stats_[w].busy_hist_ns);
  }
}

}  // namespace sc::softcache
