// A frame switch fanning N client transports into one server endpoint.
//
// Each client transport is built over one *port* of the switch: the port's
// FrameHandler forwards the frame to the server handler tagged with the
// port number, and the server (softcache::MemoryController::HandlePort)
// cross-checks the client id embedded in the frame's type word — byte 5 of
// the wire frame, see softcache/protocol.h — against the arrival port, so a
// frame spoofing another client's id is rejected at the demux boundary and
// can never touch that client's session state.
//
// The switch models the shared broadcast medium between the clients and the
// server: it carries no queueing or cost model of its own (per-port cost and
// fault injection live in the per-client Channel/Transport pair built on top
// of each port), but every reply crossing it is visible to an optional
// reply observer — the hook the content-addressed shared-reply path uses to
// let every attached client snoop every body-bearing reply.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "util/check.h"

namespace sc::net {

// The server side of a switch: handles one frame arriving on `port`.
using PortFrameHandler = std::function<std::vector<uint8_t>(
    uint32_t port, const std::vector<uint8_t>& frame)>;

// Observes every (port, request, reply) pair crossing the switch, after the
// server handler produced the reply and before the reply is returned to the
// arrival port — i.e. the instant the reply hits the broadcast medium.
using ReplyObserver = std::function<void(
    uint32_t port, const std::vector<uint8_t>& request,
    const std::vector<uint8_t>& reply)>;

class Switch {
 public:
  // Frames are routed by a 12-bit id, so a switch has at most this many
  // ports (mirrors softcache::kMaxClients without depending on it).
  static constexpr uint32_t kMaxPorts = 4096;

  explicit Switch(PortFrameHandler server) : server_(std::move(server)) {
    SC_CHECK(server_ != nullptr);
  }

  // Non-movable: Port() closures capture `this`, so the switch must stay at
  // one address for as long as any handler it issued is alive.
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  ~Switch() { alive_ = false; }

  // A FrameHandler bound to `port`: every frame sent through it reaches the
  // server tagged with that port number.
  //
  // Lifetime contract: the returned closure references this switch and must
  // not outlive it. Invoking a handler after the switch is destroyed is
  // checked (not UB-silent) in debug builds via the liveness flag below —
  // transports built over a port must be torn down before the switch.
  FrameHandler Port(uint32_t port) {
    SC_CHECK_LT(port, kMaxPorts);
    return [this, port](const std::vector<uint8_t>& frame) {
      SC_CHECK(alive_) << "switch port handler outlived its switch";
      {
        // Port handlers fire on their client's host thread; the counter is
        // shared across ports, so bump it under the counter lock. (The
        // server handler needs no lock here — it provides its own
        // serialization, e.g. the McServerLoop.)
        std::lock_guard<std::mutex> lock(count_mu_);
        ++frames_switched_;
      }
      std::vector<uint8_t> reply = server_(port, frame);
      if (reply_observer_) reply_observer_(port, frame, reply);
      return reply;
    };
  }

  // Installs the broadcast-medium observer (nullptr to clear). Fires on the
  // thread that carried the frame; a multi-threaded caller provides its own
  // synchronization inside the observer.
  void set_reply_observer(ReplyObserver observer) {
    reply_observer_ = std::move(observer);
  }

  uint64_t frames_switched() const {
    std::lock_guard<std::mutex> lock(count_mu_);
    return frames_switched_;
  }
  // Raw pointer for MetricsRegistry: snapshots are taken after the fleet has
  // quiesced (threads joined), so the unlocked read is ordered by the join.
  const uint64_t* frames_switched_counter() const { return &frames_switched_; }

 private:
  PortFrameHandler server_;
  ReplyObserver reply_observer_;
  mutable std::mutex count_mu_;
  uint64_t frames_switched_ = 0;
  bool alive_ = true;
};

}  // namespace sc::net
