#include "softcache/system.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "softcache/reliable.h"
#include "util/check.h"

namespace sc::softcache {

namespace {

// With integrity on, the scheduler steps a client by the integrity quantum
// (0 meaning 1024), so its tick stream is a pure function of its own
// instruction count.
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
    : config_(config),
      step_quantum_(StepQuantum(config_)),
      mc_(std::make_unique<MemoryController>(
          image, config.base.style, config.base.max_block_instrs,
          config.base.max_trace_blocks, config.server)),
      // Every frame is routed through the event loop to its memo shard's
      // lane; ServeTicket serves it there, on the sending thread.
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
            McServerLoopConfig{/*lanes=*/mc_->server().shards(),
                               /*max_queue=*/config.server.max_queue}),
      switch_([this](uint32_t port, const std::vector<uint8_t>& frame) {
        return loop_.Submit(port, frame);
      }) {
  SC_CHECK_GE(config.clients, 1u) << "MultiClientSystem needs a client";
  SC_CHECK_LE(config.clients, kMaxClients) << "exceeds 12-bit wire id space";
  SC_CHECK_GE(config.quantum_instructions, 1u)
      << "a zero scheduler quantum never makes progress";
  SC_CHECK_EQ(config.server.workers, 0u)
      << "McServerConfig::workers is retired: client threads serve the lanes";
  obs::EnsureEchoTracerForLogging();
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
  // stamp. Shard lane s is written only while loop lane s is claimed — by
  // one thread at a time, but not always the same one (each submitter
  // serves its own frame) — so they opt out of the single-thread assert.
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

void MultiClientSystem::ScrubServerMemo(uint64_t cycles) {
  if (shard_lanes_.empty()) return mc_->server().ScrubMemo();
  // Shard lane s has one writer at a time, whoever services loop lane s
  // (one loop lane per shard). Holding that loop lane makes the scrub that
  // writer, without parking the other lanes or counting a section.
  mc_->server().ScrubMemo(
      [this, cycles](uint32_t s, const std::function<void()>& scrub) {
        loop_.RunOnLane(s, [&] {
          obs::Tracer* lane = shard_lanes_[s];
          obs::TracerScope scope(lane);
          lane->AdvanceClockFloor(cycles);
          scrub();
        });
      });
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
  auto reply = ReplyView::Parse(reply_bytes);
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
    if (reply->payload_size % 4 != 0) return;
    snoop_all(reply->addr, reply->aux, reply->extra, reply->payload,
              reply->payload_size);
    return;
  }
  if (reply->type == MsgType::kChunkBatchReply) {
    auto views =
        ParseBatchPayload(reply->payload, reply->payload_size, reply->aux);
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
  Schedule(max_instructions_each);
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
  client.result =
      client.machine->Run(std::min(quantum - executed % quantum, budget));
  return client.result.reason != vm::StopReason::kInstrLimit ||
         client.machine->instructions() >= max_instructions_each;
}

void MultiClientSystem::Schedule(uint64_t max_instructions_each) {
  // The laggard heap: every waiting client, keyed by (guest cycles, index).
  // A waiting client's clock cannot move, so its key stays exact.
  using Entry = std::pair<uint64_t, size_t>;
  const auto later = std::greater<Entry>();
  std::vector<Entry> heap;
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i].done) heap.emplace_back(clients_[i].machine->cycles(), i);
  }
  std::make_heap(heap.begin(), heap.end(), later);

  const size_t nthreads =
      std::clamp<size_t>(config_.host_threads, 1, clients_.size());
  const bool inspect = inspect_every_ != 0 && inspection_hook_ != nullptr;
  const bool integrity = config_.base.integrity.enabled;
  const uint64_t quantum =
      nthreads == 1 || inspect || integrity ? step_quantum_ : UINT64_MAX;
  if (inspect && next_inspect_at_ == 0) next_inspect_at_ = inspect_every_;

  // One mutex guards the heap, the claims and the safepoint flag. A
  // thread's claim is its client's cycle count when claimed (a lower bound
  // on that client's clock), UINT64_MAX while the thread holds no client.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint64_t> claimed_at(nthreads, UINT64_MAX);
  size_t running = 0;
  bool inspecting = false;
  const auto fleet_min = [&] {
    uint64_t min_cycles = heap.empty() ? UINT64_MAX : heap.front().first;
    for (const uint64_t c : claimed_at) min_cycles = std::min(min_cycles, c);
    return min_cycles;
  };

  // The inspection safepoint, entered under the lock by a thread holding no
  // client. Steps never stop inside a server dispatch, so once no client
  // runs every in-flight frame has drained, and the mutex gives the hook a
  // happens-before edge over all client state it reads.
  const auto safepoint = [&](std::unique_lock<std::mutex>& lock) {
    if (inspecting) return;
    const uint64_t crossed = fleet_min();
    if (crossed == UINT64_MAX || crossed < next_inspect_at_) return;
    inspecting = true;
    cv.wait(lock, [&] { return running == 0; });
    if (const uint64_t min_cycles = fleet_min(); min_cycles != UINT64_MAX) {
      inspection_hook_(min_cycles);
      // One snapshot per crossing, then re-arm above the observed minimum
      // (a long quantum can step the fleet past several multiples at once).
      next_inspect_at_ = (min_cycles / inspect_every_ + 1) * inspect_every_;
    }
    inspecting = false;
    cv.notify_all();
  };

  const auto worker = [&](size_t thread) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] {
        return (!inspecting && !heap.empty()) || (heap.empty() && running == 0);
      });
      if (heap.empty()) return;
      std::pop_heap(heap.begin(), heap.end(), later);
      const size_t i = heap.back().second;
      claimed_at[thread] = heap.back().first;
      heap.pop_back();
      ++running;
      lock.unlock();

      Client& client = clients_[i];
      bool scrubbed = false;
      {
        // A client may move between threads from one quantum to the next;
        // its lane moves with it.
        obs::Tracer* lane =
            i < client_lanes_.size() ? client_lanes_[i] : nullptr;
        if (lane != nullptr) lane->RebindThread();
        obs::TracerScope scope(lane != nullptr ? lane : obs::tracer());
        const uint64_t before = client.machine->instructions();
        client.done = Step(client, quantum, max_instructions_each);
        // One tick at each integrity quantum boundary the step reached,
        // traced in the client's lane, whether or not the budget also ends
        // there. A step that ran nothing (a zero or spent budget) reached
        // none: its boundary, if any, already ticked.
        const uint64_t after = client.machine->instructions();
        scrubbed = integrity &&
                   client.result.reason == vm::StopReason::kInstrLimit &&
                   after > before && after % quantum == 0 &&
                   client.cc->IntegrityTick();
      }
      // A client scrub pass also scrubs the server memo, each shard under
      // its own lock; its events go to the shard lanes, not the client's.
      if (scrubbed) ScrubServerMemo(client.machine->cycles());
      const uint64_t cycles = client.machine->cycles();

      lock.lock();
      claimed_at[thread] = UINT64_MAX;
      --running;
      if (!client.done) {
        heap.emplace_back(cycles, i);
        std::push_heap(heap.begin(), heap.end(), later);
      }
      cv.notify_all();
      if (inspect) safepoint(lock);
    }
  };
  // The calling thread is thread 0, so a one-thread run starts no thread.
  std::vector<std::thread> threads;
  threads.reserve(nthreads - 1);
  for (size_t t = 1; t < nthreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : threads) t.join();
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
  registry->RegisterCounter(prefix + "vm.sb.retargets", &sb.retargets);
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
