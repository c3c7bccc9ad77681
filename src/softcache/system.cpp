#include "softcache/system.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/trace.h"
#include "softcache/reliable.h"
#include "util/check.h"

namespace sc::softcache {

namespace {

// McServerConfig::shards as the MemoryController will actually clamp it.
uint32_t ServerShards(const McServerConfig& config) {
  return config.shards == 0 ? 1 : config.shards;
}

// Applies the SOFTCACHE_WORKERS environment override (used by the CI
// parallel-server job to re-run the whole suite under a worker pool) when
// the caller left workers at the default. Unlike the CLI path — which
// rejects workers > shards outright — the blanket override clamps to the
// shard count, since it applies to fixtures of every shape.
MultiClientConfig WithEffectiveWorkers(MultiClientConfig config) {
  if (config.server.workers == 0 && config.clients > 1) {
    if (const char* env = std::getenv("SOFTCACHE_WORKERS");
        env != nullptr && *env != '\0') {
      const unsigned long parsed = std::strtoul(env, nullptr, 10);
      config.server.workers = static_cast<uint32_t>(
          std::min<unsigned long>(parsed, ServerShards(config.server)));
    }
  }
  return config;
}

// With integrity on, every scheduler steps a client by the integrity
// quantum (0 meaning 1024), so its tick stream is a pure function of its
// own instruction count.
uint64_t StepQuantum(const MultiClientConfig& config) {
  const IntegrityConfig& integrity = config.base.integrity;
  if (!integrity.enabled) return config.quantum_instructions;
  return integrity.quantum_instructions == 0 ? 1024
                                             : integrity.quantum_instructions;
}

}  // namespace

// An unbounded quantum: with integrity off, one step is the whole run.
SoftCacheSystem::SoftCacheSystem(const image::Image& image,
                                 const SoftCacheConfig& config,
                                 const McServerConfig& server_config)
    : fleet_(image, {.clients = 1,
                     .base = config,
                     .quantum_instructions = UINT64_MAX,
                     .server = server_config}) {}

vm::RunResult SoftCacheSystem::Run(uint64_t max_instructions) {
  // RunAll's budget is a lifetime total; Run's counts from here.
  const uint64_t executed = fleet_.machine(0).instructions();
  const uint64_t total = max_instructions > UINT64_MAX - executed
                             ? UINT64_MAX
                             : executed + max_instructions;
  return fleet_.RunAll(total)[0];
}

void SoftCacheSystem::RegisterMetrics(obs::MetricsRegistry* registry) const {
  fleet_.RegisterClientMetrics(registry, 0, "");
  fleet_.mc().RegisterMetrics(registry, "mc.");
}

double SoftCacheSystem::MissRate() const {
  const uint64_t instrs = fleet_.machine(0).instructions();
  if (instrs == 0) return 0.0;
  return static_cast<double>(stats().blocks_translated) /
         static_cast<double>(instrs);
}

MultiClientSystem::MultiClientSystem(const image::Image& image,
                                     const MultiClientConfig& config)
    : config_(WithEffectiveWorkers(config)),
      step_quantum_(StepQuantum(config_)),
      // Every frame is routed through the event loop, which queues it on
      // its memo shard's lane; ServeTicket services it there.
      loop_([this](const McServerLoop::TicketInfo& ticket,
                   const std::vector<uint8_t>& frame) {
              return ServeTicket(ticket, frame);
            },
            // Route EVERY frame by its addr word's shard (short or non-chunk
            // frames peek addr 0 -> the first slice): translations for
            // different slices queue and run independently, and frames
            // touching the same slice serialize in arrival order.
            [this](uint32_t /*port*/, const std::vector<uint8_t>& frame) {
              return mc_->server().ShardFor(PeekFrameAddr(frame));
            },
            McServerLoopConfig{/*lanes=*/ServerShards(config_.server),
                               /*workers=*/config_.server.workers,
                               /*max_queue=*/config_.server.max_queue}),
      switch_([this](uint32_t port, const std::vector<uint8_t>& frame) {
        return loop_.Submit(port, frame);
      }) {
  SC_CHECK_GE(config.clients, 1u) << "MultiClientSystem needs a client";
  SC_CHECK_LE(config.clients, kMaxClients) << "exceeds 12-bit wire id space";
  SC_CHECK_GE(config.quantum_instructions, 1u)
      << "a zero scheduler quantum never makes progress";
  SC_CHECK_LE(config_.server.workers, ServerShards(config_.server))
      << "workers must be <= shards";
  obs::EnsureEchoTracerForLogging();
  mc_ = std::make_unique<MemoryController>(
      image, config.base.style, config.base.max_block_instrs,
      config.base.max_trace_blocks, config.server);
  clients_.reserve(config.clients);
  for (uint32_t i = 0; i < config.clients; ++i) {
    Client client;
    client.machine = std::make_unique<vm::Machine>();
    client.machine->LoadImage(image);
    client.channel = std::make_unique<net::Channel>(config.base.channel);

    SoftCacheConfig cfg = config.base;
    cfg.client_id = i;
    if (i < config.client_faults.size()) cfg.fault = config.client_faults[i];
    const net::FaultConfig fault = cfg.fault;
    // Each client talks through its own switch port; a crash on that port
    // restarts only this client's server-side session, never its neighbors'.
    // The restart itself fires on the client's host thread (inside its
    // transport's Send), so it is serialized against frame handling through
    // the loop's exclusive section. A caller-supplied factory is kept.
    if (!cfg.transport_factory) {
      cfg.transport_factory = [this, i, fault](MemoryController&,
                                               net::Channel& channel) {
        return MakeTransport(switch_.Port(i), channel, fault, [this, i] {
          loop_.RunExclusive([this, i] {
            mc_->RestartSession(i);
            // Server-only inspection scope: the core is exclusively held but
            // the other clients keep running on their own threads.
            if (recovery_hook_) recovery_hook_(i);
          });
        });
      };
    }
    client.cc = std::make_unique<CacheController>(*client.machine, *mc_,
                                                  *client.channel, cfg);
    if (fault.crash_at_cycle != 0) {
      client.cc->transport().set_cycle_source(
          client.machine->cycles_counter());
    }
    // Pre-create the session so per-session metrics exist before traffic.
    mc_->session(i);
    clients_.push_back(std::move(client));
  }
  if (config.base.shared_reply) {
    // Broadcast medium: every reply the server transmits is snooped into
    // every attached client's content store (including the requester's own).
    switch_.set_reply_observer([this](uint32_t /*port*/,
                                      const std::vector<uint8_t>& /*request*/,
                                      const std::vector<uint8_t>& reply) {
      SnoopReply(reply);
    });
  }
  if (obs::Tracer* t = obs::tracer()) {
    if (t->enabled()) t->SetClockSource(clients_[0].machine->cycles_counter());
  }
}

void MultiClientSystem::AttachTraceMux(obs::TraceMux* mux) {
  SC_CHECK(shard_lanes_.empty()) << "AttachTraceMux called twice";
  // Server lanes: one per memo shard, threads of Perfetto process 0. They
  // run on manual clocks advanced to each ticket's guest-cycle enqueue
  // stamp. Shard lane s is written only while loop lane s is being
  // serviced — by one thread at a time, but not always the same one (any
  // submitter may pump it) — so they opt out of the single-thread assert.
  const uint32_t shards = mc_->server().shards();
  shard_lanes_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    obs::Tracer* lane =
        mux->AddLane("server", "shard " + std::to_string(s), 0, 1 + s);
    lane->set_thread_affine(false);
    shard_lanes_.push_back(lane);
  }
  // Client lanes: one Perfetto process per VM, clocked by that machine's
  // guest cycle counter so span timestamps read in guest time no matter
  // which host thread runs the client.
  client_lanes_.reserve(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    obs::Tracer* lane = mux->AddLane("client " + std::to_string(i), "vm",
                                     static_cast<uint64_t>(i) + 1, 0);
    lane->SetClockSource(clients_[i].machine->cycles_counter());
    client_lanes_.push_back(lane);
  }
}

std::vector<uint8_t> MultiClientSystem::ServeTicket(
    const McServerLoop::TicketInfo& ticket,
    const std::vector<uint8_t>& frame) {
  if (shard_lanes_.empty()) return mc_->HandlePort(ticket.port, frame);
  // Install the shard's lane for the whole handler, so server spans never
  // land in the submitting client's lane.
  obs::Tracer* lane = shard_lanes_[ticket.lane];
  obs::TracerScope scope(lane);
  if (!lane->recording()) return mc_->HandlePort(ticket.port, frame);
  // Raise the lane's manual clock to the ticket's enqueue stamp so the span
  // sorts causally after the client events that produced the frame.
  lane->AdvanceClockFloor(ticket.enqueue_ts);
  lane->Begin("loop", "ticket", "port", ticket.port);
  // A traced miss (nonzero rid nibble) gets its causal arrow routed through
  // this ticket slice.
  if (const uint32_t rid = PeekFrameRid(frame); rid != 0) {
    lane->FlowStep("flow", "miss", FlowId(PeekFrameClientId(frame), rid));
  }
  std::vector<uint8_t> reply = mc_->HandlePort(ticket.port, frame);
  lane->End("loop", "ticket");
  return reply;
}

void MultiClientSystem::SnoopReply(const std::vector<uint8_t>& reply_bytes) {
  // Parse and digest ONCE per broadcast frame, then hand every client's
  // store a shared reference to the same body buffer — a 256-client fleet
  // pays one allocation and one digest per body crossing the medium.
  auto reply = Reply::Parse(reply_bytes);
  if (!reply.ok()) return;  // errors/acks are not snoopable bodies
  const auto snoop_all = [this](uint32_t addr, uint32_t aux, uint32_t extra,
                                const uint8_t* words, uint32_t nbytes) {
    auto body = std::make_shared<const std::vector<uint8_t>>(words,
                                                             words + nbytes);
    const uint64_t digest = ChunkDigest(addr, aux, extra, words, nbytes);
    for (Client& client : clients_) {
      if (ChunkContentStore* store = client.cc->content_store()) {
        store->Snoop(digest, addr, aux, extra, body,
                     client.cc->shared_stats());
      }
    }
  };
  if (reply->type == MsgType::kChunkReply) {
    if (reply->payload.size() % 4 != 0) return;
    snoop_all(reply->addr, reply->aux, reply->extra, reply->payload.data(),
              static_cast<uint32_t>(reply->payload.size()));
    return;
  }
  if (reply->type == MsgType::kChunkBatchReply) {
    auto views = ParseBatchPayload(reply->payload, reply->aux);
    if (!views.ok()) return;
    for (const BatchChunkView& view : *views) {
      snoop_all(view.addr, view.aux, view.extra, view.words, view.nwords * 4);
    }
  }
}

std::vector<vm::RunResult> MultiClientSystem::RunAll(
    uint64_t max_instructions_each) {
  for (size_t i = 0; i < clients_.size(); ++i) {
    Client& client = clients_[i];
    // Clients an earlier call stopped on its budget resume here.
    client.done = client.result.reason == vm::StopReason::kHalted ||
                  client.result.reason == vm::StopReason::kFault;
    if (client.attached) continue;
    // Attach under the client's own lane: the first translate/install
    // events belong to that client's timeline, not the caller's.
    obs::TracerScope scope(i < client_lanes_.size() ? client_lanes_[i]
                                                    : obs::tracer());
    client.cc->Attach();
    client.attached = true;
  }
  if (config_.host_threads > 1 && clients_.size() > 1) {
    RunAllThreaded(max_instructions_each);
  } else {
    RunAllRoundRobin(max_instructions_each);
  }
  std::vector<vm::RunResult> results;
  results.reserve(clients_.size());
  for (Client& client : clients_) results.push_back(client.result);
  return results;
}

bool MultiClientSystem::Step(Client& client, uint64_t quantum,
                             uint64_t max_instructions_each) {
  const uint64_t executed = client.machine->instructions();
  const uint64_t budget =
      max_instructions_each > executed ? max_instructions_each - executed : 0;
  client.result = client.machine->Run(std::min(quantum, budget));
  return client.result.reason != vm::StopReason::kInstrLimit ||
         client.machine->instructions() >= max_instructions_each;
}

void MultiClientSystem::RunAllRoundRobin(uint64_t max_instructions_each) {
  // Deterministic round-robin on guest time: always step the laggard (the
  // live machine with the smallest cycle count; ties break to the lowest
  // index). Clients share no guest-visible state, so any interleaving gives
  // each one a solo-identical execution — this rule just makes the schedule
  // (and hence traces/metrics) reproducible.
  for (;;) {
    size_t next = clients_.size();
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i].done) continue;
      if (next == clients_.size() ||
          clients_[i].machine->cycles() < clients_[next].machine->cycles()) {
        next = i;
      }
    }
    if (next == clients_.size()) return;
    Client& client = clients_[next];
    {
      obs::TracerScope scope(next < client_lanes_.size() ? client_lanes_[next]
                                                         : obs::tracer());
      client.done = Step(client, step_quantum_, max_instructions_each);
    }
    if (!client.done && client.cc->integrity_enabled()) {
      // One tick between integrity quanta. A client scrub pass also scrubs
      // the server memo (deterministic here; the threaded scheduler leans
      // on verify-on-hit instead).
      if (client.cc->IntegrityTick()) mc_->server().ScrubMemo();
    }
    if (inspect_every_ != 0 && inspection_hook_) MaybeInspectRoundRobin();
  }
}

void MultiClientSystem::MaybeInspectRoundRobin() {
  uint64_t fleet_min = UINT64_MAX;
  for (const Client& client : clients_) {
    if (client.done) continue;
    fleet_min = std::min(fleet_min, client.machine->cycles());
  }
  if (fleet_min == UINT64_MAX) return;  // every client finished
  if (next_inspect_at_ == 0) next_inspect_at_ = inspect_every_;
  if (fleet_min < next_inspect_at_) return;
  inspection_hook_(fleet_min);
  // One snapshot per crossing, then re-arm above the observed minimum (a
  // long quantum can step the fleet past several multiples at once).
  next_inspect_at_ = (fleet_min / inspect_every_ + 1) * inspect_every_;
}

void MultiClientSystem::RunAllThreaded(uint64_t max_instructions_each) {
  // Host-thread parallelism trades the deterministic interleaving for
  // concurrent per-client progress: each worker claims the next unfinished
  // client and runs its VM to completion; the event loop serializes server
  // work per memo shard, and the snoop fan-out synchronizes per store.
  // Guest-visible results (output/exit/instructions) remain solo-identical —
  // clients share no guest state and the fallback path absorbs any snoop
  // races. Tracing rides per-client lanes: each worker installs the claimed
  // client's lane into its own thread-local slot while running it, so no
  // lane ring is ever written from two threads at once (the handoff from
  // the attaching main thread is re-armed with RebindThread).
  std::atomic<size_t> next_client{0};

  // Periodic-inspection safepoint (armed only when a hook is set): workers
  // run their client in scheduler quanta and park at quantum boundaries
  // while one worker snapshots. Parking never happens inside a server
  // dispatch, so every in-flight ticket drains before the fleet quiesces,
  // and the mutex hands the inspector a happens-before edge over all
  // client state it reads.
  const bool inspect = inspect_every_ != 0 && inspection_hook_ != nullptr;
  // Integrity also forces quantum slicing (the tick cadence), but needs no
  // safepoint: each tick touches only the ticking client's own state plus
  // the internally locked content store. The server memo is not scrubbed
  // under threads — its verify-on-hit path alone guarantees clean replies.
  const bool integrity = config_.base.integrity.enabled;
  // Unsliced, one step runs a client to the end of its budget.
  const uint64_t quantum = inspect || integrity ? step_quantum_ : UINT64_MAX;
  std::mutex safepoint_mu;
  std::condition_variable safepoint_cv;
  bool inspecting = false;
  size_t parked = 0;
  size_t active_workers = 0;
  uint64_t next_at = next_inspect_at_ != 0 ? next_inspect_at_ : inspect_every_;
  std::vector<uint8_t> finished(clients_.size());
  std::vector<uint64_t> published(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    finished[i] = clients_[i].done;
    published[i] = clients_[i].machine->cycles();
  }

  // Fleet-min guest cycles over unfinished clients (pending clients count
  // at their attach-time clock); UINT64_MAX once everyone finished.
  const auto fleet_min = [&] {
    uint64_t min_cycles = UINT64_MAX;
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (finished[i]) continue;
      min_cycles = std::min(min_cycles, published[i]);
    }
    return min_cycles;
  };

  // Quantum-boundary check, entered lock-free of the loop: park while
  // another worker inspects; become the inspector once the fleet minimum
  // crosses the threshold, waiting for every other active worker to park.
  const auto safepoint = [&] {
    std::unique_lock<std::mutex> lock(safepoint_mu);
    for (;;) {
      if (inspecting) {
        ++parked;
        safepoint_cv.notify_all();
        safepoint_cv.wait(lock, [&] { return !inspecting; });
        --parked;
        continue;  // the threshold may already be crossed again
      }
      const uint64_t min_cycles = fleet_min();
      if (min_cycles == UINT64_MAX || min_cycles < next_at) return;
      inspecting = true;
      safepoint_cv.wait(lock, [&] { return parked == active_workers - 1; });
      inspection_hook_(min_cycles);
      next_at = (min_cycles / inspect_every_ + 1) * inspect_every_;
      inspecting = false;
      safepoint_cv.notify_all();
    }
  };

  const auto worker = [&] {
    if (inspect) {
      std::lock_guard<std::mutex> lock(safepoint_mu);
      ++active_workers;
    }
    for (;;) {
      const size_t i = next_client.fetch_add(1);
      if (i >= clients_.size()) break;
      Client& client = clients_[i];
      if (client.done) continue;
      obs::Tracer* lane = i < client_lanes_.size() ? client_lanes_[i] : nullptr;
      if (lane != nullptr) lane->RebindThread();
      obs::TracerScope scope(lane != nullptr ? lane : obs::tracer());
      for (;;) {
        client.done = Step(client, quantum, max_instructions_each);
        if (inspect) {
          std::lock_guard<std::mutex> lock(safepoint_mu);
          published[i] = client.machine->cycles();
          finished[i] = client.done;
        }
        if (client.done) break;
        if (integrity) client.cc->IntegrityTick();
        if (inspect) safepoint();
      }
    }
    if (inspect) {
      // Exiting shrinks the quorum the inspector waits for.
      std::lock_guard<std::mutex> lock(safepoint_mu);
      --active_workers;
      safepoint_cv.notify_all();
    }
  };
  const size_t nthreads =
      std::min<size_t>(config_.host_threads, clients_.size());
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (size_t t = 0; t < nthreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  next_inspect_at_ = next_at;
}

bool MultiClientSystem::SyncSessions() {
  bool ok = true;
  for (size_t i = 0; i < clients_.size(); ++i) {
    net::FaultConfig fault = config_.base.fault;
    if (i < config_.client_faults.size()) fault = config_.client_faults[i];
    if (!fault.crash_enabled()) continue;
    if (!clients_[i].cc->SyncSession()) ok = false;
  }
  return ok;
}

void MultiClientSystem::RegisterMetrics(obs::MetricsRegistry* registry) const {
  for (size_t i = 0; i < clients_.size(); ++i) {
    // Appended piecewise: GCC 12 -O3 reports a false -Werror=restrict on
    // the inlined `"c" + std::to_string(i) + "."` temporaries.
    std::string prefix = "c";
    prefix += std::to_string(i);
    prefix += '.';
    RegisterClientMetrics(registry, i, prefix);
  }
  mc_->RegisterMetrics(registry, "mc.");
  loop_.RegisterMetrics(registry, "mc.loop.");
  registry->RegisterCounter("net.switch.frames",
                            switch_.frames_switched_counter());
}

void MultiClientSystem::RegisterClientMetrics(obs::MetricsRegistry* registry,
                                              size_t client,
                                              const std::string& prefix) const {
  const Client& c = clients_[client];
  c.cc->RegisterMetrics(registry, prefix);
  c.channel->stats().RegisterMetrics(registry, prefix + "net.channel.");
  registry->RegisterCounter(prefix + "vm.instructions",
                            c.machine->instructions_counter());
  registry->RegisterCounter(prefix + "vm.cycles", c.machine->cycles_counter());
  // Threaded-engine counters (all zero under the interpreter).
  const vm::SbStats& sb = c.machine->sb_stats();
  registry->RegisterCounter(prefix + "vm.sb.fills", &sb.fills);
  registry->RegisterCounter(prefix + "vm.sb.fill_ops", &sb.fill_ops);
  registry->RegisterCounter(prefix + "vm.sb.chains", &sb.chains);
  registry->RegisterCounter(prefix + "vm.sb.invalidations", &sb.invalidations);
  registry->RegisterCounter(prefix + "vm.sb.flushes", &sb.flushes);
}

vm::RunResult RunNative(const image::Image& image, const std::string& input,
                        std::string* output, uint64_t max_instructions) {
  vm::Machine machine;
  machine.LoadImage(image);
  machine.SetInput(std::vector<uint8_t>(input.begin(), input.end()));
  const vm::RunResult result = machine.Run(max_instructions);
  if (output != nullptr) *output = machine.OutputString();
  return result;
}

}  // namespace sc::softcache
