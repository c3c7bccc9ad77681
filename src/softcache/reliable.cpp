#include "softcache/reliable.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"
#include "softcache/stats.h"
#include "util/check.h"

namespace sc::softcache {

ReliableLink::ReliableLink(std::unique_ptr<net::Transport> transport,
                           const RetryConfig& retry, LinkStats* stats)
    : transport_(std::move(transport)),
      retry_(retry),
      stats_(stats),
      jitter_rng_(retry.jitter_seed) {
  SC_CHECK(transport_ != nullptr);
  SC_CHECK(stats_ != nullptr);
  SC_CHECK_GT(retry_.max_attempts, 0u);
  SC_CHECK_GT(retry_.timeout_cycles, 0u);
}

util::Result<ReplyView> ReliableLink::Call(const Request& request,
                                           uint64_t* cycles) {
  OBS_SPAN("link", "call", "seq", request.seq,
           "type", static_cast<uint64_t>(request.type));
  // A traced miss passes through here on its way to the wire: add the
  // transmit point of its causal flow arrow inside the link.call slice.
  if (request.rid != 0) {
    if (obs::Tracer* t = obs::tracer(); t != nullptr && t->recording()) {
      t->FlowStep("flow", "miss", FlowId(request.client_id, request.rid));
    }
  }
  ++stats_->requests;
  request.SerializeTo(&request_frame_);
  uint64_t timeout = retry_.timeout_cycles;
  // Cycles this call has charged so far — the attempt deadline's clock.
  uint64_t spent = 0;
  const auto charge = [&](uint64_t c) {
    *cycles += c;
    spent += c;
  };
  for (uint32_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_->retries;
      OBS_INSTANT("link", "retry", "seq", request.seq, "attempt", attempt);
    }
    charge(transport_->Send(request_frame_));
    uint64_t recv_cycles = 0;
    while (transport_->Recv(&reply_frame_, &recv_cycles)) {
      charge(recv_cycles);
      auto reply = ReplyView::Parse(reply_frame_);
      if (!reply.ok()) {
        ++stats_->corrupt_frames;
        OBS_INSTANT("link", "corrupt_frame", "seq", request.seq);
        continue;
      }
      if (reply->seq != request.seq) {
        // A duplicate of an earlier reply, or the MC's seq-0 answer to a
        // request that was corrupted in flight. Either way: not ours.
        ++stats_->stale_replies;
        OBS_INSTANT("link", "stale_reply", "want", request.seq,
                    "got", reply->seq);
        continue;
      }
      if (reply->client_id != (request.client_id & kClientIdMask)) {
        // A seq collision with another client's session (each client owns a
        // disjoint seq range, so this only happens under hostile traffic or
        // a misbehaving switch). Not ours.
        ++stats_->stale_replies;
        OBS_INSTANT("link", "stale_reply", "want", request.seq,
                    "got_client", reply->client_id);
        continue;
      }
      return reply;
    }
    // Nothing pending matches: the request or every copy of its reply was
    // lost. Wait out the backoff and retransmit.
    ++stats_->timeouts;
    uint64_t wait = timeout;
    if (retry_.backoff_jitter > 0) {
      // Scale by a uniform factor in [1-j, 1+j). Drawn only on this branch,
      // so jitter-off calls replay the historical stream bit-identically.
      const double factor = 1.0 - retry_.backoff_jitter +
                            2.0 * retry_.backoff_jitter *
                                jitter_rng_.NextDouble();
      wait = std::max<uint64_t>(1, static_cast<uint64_t>(
                                       static_cast<double>(timeout) * factor));
    }
    OBS_INSTANT("link", "timeout", "seq", request.seq, "waited", wait);
    charge(wait);
    timeout = std::min(timeout * 2, retry_.max_timeout_cycles);
    if (retry_.attempt_deadline_cycles != 0 &&
        spent >= retry_.attempt_deadline_cycles) {
      // Hard deadline: the op has stalled the guest long enough. Give up
      // now rather than burn the remaining attempt budget.
      ++stats_->giveups;
      OBS_INSTANT("link", "giveup", "seq", request.seq, "deadline", spent);
      return util::Error{"transport: deadline after " +
                         std::to_string(attempt + 1) + " attempts (" +
                         std::to_string(spent) + " cycles)"};
    }
  }
  ++stats_->giveups;
  OBS_INSTANT("link", "giveup", "seq", request.seq);
  return util::Error{"transport: no reply after " +
                     std::to_string(retry_.max_attempts) + " attempts"};
}

std::unique_ptr<net::Transport> MakeTransport(net::FrameHandler handler,
                                              net::Channel& channel,
                                              const net::FaultConfig& fault,
                                              std::function<void()> crash) {
  if (fault.enabled()) {
    auto transport = std::make_unique<net::FaultyTransport>(
        channel, std::move(handler), fault);
    if (fault.crash_enabled() && crash) {
      transport->set_crash_handler(std::move(crash));
    }
    return transport;
  }
  return std::make_unique<net::LoopbackTransport>(channel, std::move(handler));
}

}  // namespace sc::softcache
