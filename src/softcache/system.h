// The full client/server stack. MultiClientSystem wires N client Machines,
// Channels and CacheControllers to ONE MemoryController through a net::Switch
// and the McServerLoop; SoftCacheSystem, the top-level API most examples and
// benchmarks use, is its one-client case. The pieces remain individually
// constructible for finer-grained experiments.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "image/image.h"
#include "net/channel.h"
#include "net/switch.h"
#include "obs/metrics.h"
#include "obs/trace_mux.h"
#include "softcache/cc.h"
#include "softcache/config.h"
#include "softcache/mc.h"
#include "softcache/server_loop.h"
#include "vm/machine.h"

namespace sc::softcache {

struct MultiClientConfig {
  // Number of clients (each gets its own Machine/Channel/CC and the MC
  // session whose id equals its index). Bounded by the 12-bit wire id.
  uint32_t clients = 1;
  // The per-client configuration template, applied verbatim to every
  // client except client_id (each client gets its index) and a null
  // transport_factory (each client gets a transport over its own switch
  // port; a non-null factory's frames bypass the switch and loop).
  SoftCacheConfig base;
  // Optional per-client fault schedules: client i uses client_faults[i]
  // when present, base.fault otherwise. Lets each client carry its own
  // seeded loss/crash schedule (crashes restart only that client's
  // session).
  std::vector<net::FaultConfig> client_faults;
  // Scheduler quantum, in guest instructions per scheduling step (>= 1).
  // With base.integrity enabled, clients step by the integrity quantum
  // instead, so the tick stream does not depend on this value.
  uint64_t quantum_instructions = 1024;
  // Server-core tuning: memo shards, memo bound, published-digest window.
  McServerConfig server;
  // Host threads running client VMs (see MultiClientSystem); 0 and 1 both
  // mean the calling thread alone, whose schedule is deterministic: traces,
  // metrics and wire traffic reproduce bit-identically. More threads run
  // clients concurrently; guest results stay solo-identical, but the
  // host-side interleaving (cross-client cycle comparisons, lane order)
  // varies from run to run.
  uint32_t host_threads = 0;
};

// CLI-level validation of a --clients value: [1, kMaxClients], returning an
// error string instead of crashing (the MultiClientSystem constructor treats
// violations as programmer error and SC_CHECKs).
inline bool ValidateClientCount(int64_t clients, std::string* error) {
  if (clients < 1) {
    *error = "clients must be >= 1";
    return false;
  }
  if (clients > static_cast<int64_t>(kMaxClients)) {
    *error = "clients must be <= " + std::to_string(kMaxClients) +
             " (12-bit wire id space)";
    return false;
  }
  return true;
}

// CLI-level validation of a --shards value: [1, kMaxClients], with the same
// error-string contract as ValidateClientCount. NO silent clamping: a zero
// or oversized shard count is a clean error the CLI turns into exit 2.
inline bool ValidateShardCount(int64_t shards, std::string* error) {
  if (shards < 1) {
    *error = "shards must be >= 1 (the server core needs at least one slice)";
    return false;
  }
  if (shards > static_cast<int64_t>(kMaxClients)) {
    *error = "shards must be <= " + std::to_string(kMaxClients);
    return false;
  }
  return true;
}

// N independent guest machines sharing ONE MemoryController through a
// net::Switch, on clamp(host_threads, 1, N) host threads: a free thread
// takes the waiting client whose clock is furthest behind (ties break to the
// lowest index), steps it for one quantum, ticks its integrity, and puts it
// back unless it is done. On one thread this is a deterministic guest-time
// round-robin; more threads run each client to the end of its budget in one
// step unless inspection or integrity needs quantum boundaries. Because
// every client owns disjoint server-side session state
// and its own channel/transport, each client's guest execution is
// bit-identical to its solo run at any thread count — the sharing shows up
// only in server-side work (memoized translations).
class MultiClientSystem {
 public:
  // The image must outlive the system.
  MultiClientSystem(const image::Image& image, const MultiClientConfig& config);

  void SetInput(size_t client, std::vector<uint8_t> input) {
    clients_[client].machine->SetInput(std::move(input));
  }
  void SetInput(size_t client, const std::string& input) {
    SetInput(client, std::vector<uint8_t>(input.begin(), input.end()));
  }

  // Runs every client to halt/fault or until it has retired
  // `max_instructions_each` in total; a later call resumes the rest.
  // Returns one result per client.
  std::vector<vm::RunResult> RunAll(uint64_t max_instructions_each = UINT64_MAX);

  // End-of-run barrier: per-client Session::Synchronize for every client
  // running under a crash schedule. Returns false if any client failed.
  bool SyncSessions();

  size_t clients() const { return clients_.size(); }
  vm::Machine& machine(size_t client) { return *clients_[client].machine; }
  const vm::Machine& machine(size_t client) const {
    return *clients_[client].machine;
  }
  CacheController& cc(size_t client) { return *clients_[client].cc; }
  const CacheController& cc(size_t client) const {
    return *clients_[client].cc;
  }
  net::Channel& channel(size_t client) { return *clients_[client].channel; }
  MemoryController& mc() { return *mc_; }
  const MemoryController& mc() const { return *mc_; }
  net::Switch& net_switch() { return switch_; }
  McServerLoop& server_loop() { return loop_; }
  std::string OutputString(size_t client) const {
    return clients_[client].machine->OutputString();
  }

  // Per-client metrics under "c<i>." prefixes (c0.cc.evictions,
  // c1.net.channel.bytes_to_server, c0.vm.instructions, ...) plus the
  // shared server under "mc." (aggregates, memo stats, per-session s<id>.*
  // counters and heat tables) and the switch frame counter.
  void RegisterMetrics(obs::MetricsRegistry* registry) const;
  // One client's block of RegisterMetrics: its cc.*, net.link.*,
  // net.channel.*, vm.* and vm.sb.* names, each under `prefix`.
  void RegisterClientMetrics(obs::MetricsRegistry* registry, size_t client,
                             const std::string& prefix) const;

  // --- Fleet observability wiring ---

  // Splits instrumentation into per-agent trace lanes inside `mux`: one
  // lane per client VM (process "client <i>", pid i+1, clocked by that
  // machine's guest cycle counter) plus one server lane per memo shard
  // (pid 0 tid 1+s, on a manual clock advanced to each ticket's guest-cycle
  // enqueue stamp) carrying that shard's loop.ticket spans and everything
  // the MC records while servicing them, whoever services the lane.
  // The scheduler installs a client's lane into the thread-local tracer slot
  // around each of its steps and integrity ticks, on whichever thread
  // claimed it, and every server dispatch installs its shard's lane, so
  // each lane has one writer at a time under any host_threads. Call once,
  // before RunAll; `mux` must outlive this system. Enabling the lanes (and
  // exporting the merged trace) is the caller's job via the mux.
  void AttachTraceMux(obs::TraceMux* mux);

  // Periodic live inspection: `hook` runs every time the fleet-min guest
  // cycle count (min over unfinished clients) crosses a multiple of
  // `every_cycles`, at one fleet-wide safepoint: the scheduler stops new
  // claims and waits until no client is running (on one thread, that is
  // the gap between two steps), so the hook may freely read any client or
  // server state. Its argument is the quiescent fleet-min. Pass 0 to
  // disable.
  using InspectionHook = std::function<void(uint64_t fleet_min_cycles)>;
  void set_inspection_hook(uint64_t every_cycles, InspectionHook hook) {
    inspect_every_ = every_cycles;
    inspection_hook_ = std::move(hook);
  }

  // Runs after a crash-schedule restart of `client_id`'s session, while the
  // server core is still exclusively held (other clients keep running, so
  // only server-side state may be read: a server-only inspection scope).
  using RecoveryHook = std::function<void(uint32_t client_id)>;
  void set_recovery_hook(RecoveryHook hook) {
    recovery_hook_ = std::move(hook);
  }

 private:
  struct Client {
    std::unique_ptr<vm::Machine> machine;
    std::unique_ptr<net::Channel> channel;
    std::unique_ptr<CacheController> cc;
    bool attached = false;
    bool done = false;  // finished for the current RunAll
    vm::RunResult result;
  };

  // One scheduling step of at most `quantum` instructions, capped at the
  // budget. Returns true once the client is done for this RunAll.
  static bool Step(Client& client, uint64_t quantum,
                   uint64_t max_instructions_each);
  // The RunAll scheduler: the laggard heap served by
  // clamp(config.host_threads, 1, clients) threads.
  void Schedule(uint64_t max_instructions_each);
  // Broadcast-medium snoop: parses one reply frame and feeds every client's
  // content store (shared_reply mode only).
  void SnoopReply(const std::vector<uint8_t>& reply_bytes);
  // The loop's handler: runs the frame through the MC and, with a mux
  // attached, records its loop.ticket span and miss-flow step in the trace
  // lane of the shard the loop queued it on.
  std::vector<uint8_t> ServeTicket(const McServerLoop::TicketInfo& ticket,
                                   const std::vector<uint8_t>& frame);
  MultiClientConfig config_;
  uint64_t step_quantum_;  // instructions per scheduling step
  std::unique_ptr<MemoryController> mc_;
  McServerLoop loop_;
  net::Switch switch_;
  std::vector<Client> clients_;

  // Observability (all null/zero unless AttachTraceMux / the hook setters
  // ran): non-owning lane pointers into the attached mux.
  std::vector<obs::Tracer*> client_lanes_;
  std::vector<obs::Tracer*> shard_lanes_;
  uint64_t inspect_every_ = 0;
  uint64_t next_inspect_at_ = 0;
  InspectionHook inspection_hook_;
  RecoveryHook recovery_hook_;
};

// The single-device case: a one-client MultiClientSystem. Every accessor
// forwards to client 0 (client id 0, whatever config.client_id says).
class SoftCacheSystem {
 public:
  // The image must outlive the system. `server_config` tunes the server core
  // (memo shards/bound, and the server-side memo fault stream).
  SoftCacheSystem(const image::Image& image, const SoftCacheConfig& config = {},
                  const McServerConfig& server_config = {});

  // Provides the program's input stream (SYS_READ / SYS_GETCHAR).
  void SetInput(std::vector<uint8_t> input) {
    fleet_.SetInput(0, std::move(input));
  }
  void SetInput(const std::string& input) { fleet_.SetInput(0, input); }

  // Runs until halt/fault or until `max_instructions` more instructions
  // have retired; with integrity off this is one Machine::Run call.
  vm::RunResult Run(uint64_t max_instructions = UINT64_MAX);

  vm::Machine& machine() { return fleet_.machine(0); }
  CacheController& cc() { return fleet_.cc(0); }
  MemoryController& mc() { return fleet_.mc(); }
  net::Channel& channel() { return fleet_.channel(0); }
  const SoftCacheStats& stats() const { return fleet_.cc(0).stats(); }
  std::string OutputString() const { return fleet_.OutputString(0); }
  // The underlying fleet of one (Inspector, inspection hooks).
  MultiClientSystem& fleet() { return fleet_; }

  // Software miss rate as the paper defines it for Figure 7: basic blocks
  // translated divided by instructions executed.
  double MissRate() const;

  // Binds every counter/histogram/timeline/series/table the stack keeps
  // into `registry` under dotted names ("cc.evictions", "net.link.retries",
  // ...): the client's without a prefix, the server's under "mc.". Views
  // only: the registry must not outlive this system.
  void RegisterMetrics(obs::MetricsRegistry* registry) const;

 private:
  MultiClientSystem fleet_;
};

// Runs `image` natively (no software cache) with the given input; the
// baseline every benchmark normalizes against.
vm::RunResult RunNative(const image::Image& image, const std::string& input,
                        std::string* output = nullptr,
                        uint64_t max_instructions = UINT64_MAX);

}  // namespace sc::softcache
