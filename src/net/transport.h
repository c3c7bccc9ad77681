// Pluggable datagram transport between cache controller and memory
// controller.
//
// The Channel remains the pure cost model; a Transport adds *delivery
// semantics* on top of it. LoopbackTransport preserves the historical
// behavior — every frame arrives intact, immediately, exactly once, so it is
// a function call with cycle accounting and reproduces the reliable-link
// numbers bit for bit. FaultyTransport injects deterministic, seeded faults
// (drop, single-bit corruption, duplication, extra delay) on the serialized
// frames in both directions, which turns the protocol's checksum/seq fields
// from decoration into load-bearing code. Receivers see raw datagram
// semantics: a frame may arrive zero, one or two times, possibly corrupted,
// possibly stale; recovering is the reliability layer's job
// (softcache::ReliableLink — timeout, bounded retransmission, exponential
// backoff, strict seq matching).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/fault_schedule.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace sc::net {

// Serialized request frame in, serialized reply frame out — the server's
// Handle() entry point, kept opaque so transports never parse frames.
using FrameHandler =
    std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>;

// Fault-injection knobs. All probabilities are per frame copy and per
// direction; the stream is fully determined by `seed`, so any run with an
// equal config replays bit-identically.
struct FaultConfig {
  uint64_t seed = 1;
  double drop = 0.0;       // P(frame lost in flight)
  double corrupt = 0.0;    // P(one random bit flipped)
  double duplicate = 0.0;  // P(frame delivered twice)
  double delay = 0.0;      // P(reply delivery delayed by delay_cycles)
  uint64_t delay_cycles = 5'000;

  // Crash schedules: each knob makes the server "process" die (its crash
  // handler fires — for the MC that is Restart()) as a request arrives; the
  // triggering request is lost with it, so the client sees a timeout and
  // retransmits into the restarted server. `crash` is a per-arrival
  // probability; `crash_after_requests` crashes once on the Nth arrival;
  // `crash_period` crashes on every Nth arrival; `crash_at_cycle` crashes
  // once at the first arrival at/after guest cycle C (needs a cycle source,
  // wired by MultiClientSystem). All compose; seeded, so schedules replay
  // bit-identically.
  double crash = 0.0;
  uint64_t crash_after_requests = 0;
  uint64_t crash_period = 0;
  uint64_t crash_at_cycle = 0;

  bool crash_enabled() const {
    return crash > 0 || crash_after_requests > 0 || crash_period > 0 ||
           crash_at_cycle > 0;
  }
  bool enabled() const {
    return drop > 0 || corrupt > 0 || duplicate > 0 || delay > 0 ||
           crash_enabled();
  }
};

struct TransportStats {
  uint64_t frames_sent = 0;       // client->server submissions
  uint64_t frames_delivered = 0;  // frames handed to the client by Recv
  uint64_t frames_dropped = 0;    // lost copies, both directions
  uint64_t frames_corrupted = 0;  // bit-flipped copies, both directions
  uint64_t frames_duplicated = 0; // duplicated copies, both directions
  uint64_t frames_delayed = 0;    // delayed reply deliveries
  uint64_t server_crashes = 0;    // crash-schedule firings (server restarts)
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Transmits one serialized request frame toward the server. Returns the
  // client-visible cycle cost of the transmission. Whether (and how many
  // times, and how intact) the frame reaches the server is up to the
  // implementation.
  virtual uint64_t Send(const std::vector<uint8_t>& frame) = 0;

  // Delivers the next frame addressed to the client, if one is pending.
  // Returns false when nothing is in flight — with these synchronous
  // transports that means nothing will ever arrive for the outstanding
  // request, i.e. the caller's timeout fires. On success `cycles` holds the
  // client-visible delivery cost.
  virtual bool Recv(std::vector<uint8_t>* frame, uint64_t* cycles) = 0;

  virtual const TransportStats& stats() const = 0;

  // Optional guest-cycle source for cycle-triggered crash schedules; a
  // transport without crash support ignores it.
  virtual void set_cycle_source(const uint64_t*) {}
};

// The reliable link: zero-copy, in-order, exactly-once. Charges the channel
// in the same order as the historical direct-call path (request bytes at
// Send, reply bytes at Recv), so cost accounting is unchanged.
class LoopbackTransport : public Transport {
 public:
  LoopbackTransport(Channel& channel, FrameHandler handler)
      : channel_(channel), handler_(std::move(handler)) {}

  uint64_t Send(const std::vector<uint8_t>& frame) override {
    ++stats_.frames_sent;
    OBS_INSTANT("net", "tx", "bytes", static_cast<uint64_t>(frame.size()));
    const uint64_t cycles = channel_.SendToServer(frame.size());
    inbox_.push_back(handler_(frame));
    return cycles;
  }

  bool Recv(std::vector<uint8_t>* frame, uint64_t* cycles) override {
    if (inbox_.empty()) return false;
    *frame = std::move(inbox_.front());
    inbox_.pop_front();
    *cycles = channel_.SendToClient(frame->size());
    ++stats_.frames_delivered;
    OBS_INSTANT("net", "rx", "bytes", static_cast<uint64_t>(frame->size()));
    return true;
  }

  const TransportStats& stats() const override { return stats_; }

 private:
  Channel& channel_;
  FrameHandler handler_;
  std::deque<std::vector<uint8_t>> inbox_;
  TransportStats stats_;
};

// The unreliable link. Fault order per copy: drop, then corrupt, then (for
// replies) delay. Duplication forks an independent copy that rolls its own
// faults, so a duplicated frame can arrive once intact and once corrupted.
// Wire bytes are accounted on the channel for every transmitted copy,
// including copies that are later lost — retransmissions are real traffic,
// which is exactly what the bench_net loss sweep measures.
class FaultyTransport : public Transport {
 public:
  FaultyTransport(Channel& channel, FrameHandler handler,
                  const FaultConfig& config);

  uint64_t Send(const std::vector<uint8_t>& frame) override;
  bool Recv(std::vector<uint8_t>* frame, uint64_t* cycles) override;
  const TransportStats& stats() const override { return stats_; }
  void set_cycle_source(const uint64_t* cycles) override {
    cycle_source_ = cycles;
  }

  // Invoked when a crash schedule fires; the server owner wires this to
  // MemoryController::Restart(). The request that triggered the crash is
  // dropped (the server was down when it arrived).
  void set_crash_handler(std::function<void()> handler) {
    crash_handler_ = std::move(handler);
  }

 private:
  struct Inbound {
    std::vector<uint8_t> frame;
    uint64_t cycles = 0;
  };

  bool Roll(double probability);
  void FlipRandomBit(std::vector<uint8_t>* frame);
  // Evaluates the crash schedules for one request arrival (delegates to the
  // shared net::FaultSchedule evaluator; draw order is unchanged).
  bool ShouldCrash();
  // One request copy crossing the client->server leg.
  void DeliverToServer(const std::vector<uint8_t>& frame);
  // One reply (possibly duplicated) crossing the server->client leg.
  void DeliverToClient(const std::vector<uint8_t>& frame);

  Channel& channel_;
  FrameHandler handler_;
  FaultConfig config_;
  util::Rng rng_;
  std::deque<Inbound> inbox_;
  TransportStats stats_;
  std::function<void()> crash_handler_;
  const uint64_t* cycle_source_ = nullptr;
  // Crash-schedule evaluator state (knobs copied from config_ at
  // construction; `arrived` doubles as the historical requests_arrived_).
  FaultSchedule crash_schedule_;
};

}  // namespace sc::net
