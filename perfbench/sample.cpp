// perfbench_sample: one sample of one benchmark workload, in a process of its
// own so that the process's rusage (peak RSS, page faults, CPU time) belongs
// to exactly one sample. run.py spawns it once per sample and aggregates.
//
//   perfbench_sample --workload=NAME --seed=N --mode=native|plain|traced
//                    [--smoke]
//
//   native  Runs every client's program and input on the reference
//           interpreter without the software cache: the oracle the other
//           modes are checked against. Nothing is timed.
//   plain   The end-to-end sample. The only timers are spans around the
//           calls into each layer (compile, input, construct, enable, run,
//           export, destroy).
//   traced  Additionally wraps the seams the stack exposes -- a forwarding
//           vm::TrapHandler in front of the cache controller and a
//           transport over a timed MemoryController::Handle -- to split a
//           solo run's host time by layer. Nothing inside the program is
//           changed, so guest results must equal the plain sample's.
//
// Prints one JSON object on stdout. Host times are in seconds.
#include <malloc.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "image/image.h"
#include "net/channel.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace_mux.h"
#include "softcache/config.h"
#include "softcache/mc.h"
#include "softcache/system.h"
#include "util/log.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

using namespace sc;

namespace {

// The benchmark's workloads. Every knob that is not listed here is pinned in
// PinnedClientConfig / PinnedServerConfig / PinnedFleetConfig below.
struct Workload {
  const char* name;
  const char* program;  // workloads:: registry name
  int scale;            // workloads::MakeInput scale
  uint32_t clients;     // 1 = SoftCacheSystem, >1 = MultiClientSystem
  uint32_t tcache_bytes;
  bool observe;  // every trace lane on, metrics registered, both exported
  // --smoke: a tiny version with the same layer split.
  int smoke_scale;
  uint32_t smoke_clients;
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"solo_hot", "sha256", 16, 1, 64 * 1024, false, 1, 1},
    {"solo_thrash", "adpcm_enc", 1, 1, 1024, false, 1, 1},
    {"fleet_64", "adpcm_enc", 1, 64, 16 * 1024, false, 1, 4},
    {"fleet_traced", "adpcm_enc", 4, 16, 16 * 1024, true, 1, 2},
};

constexpr uint32_t kShards = 4;
constexpr uint64_t kQuantum = 1024;

const Workload* FindBenchWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Every field spelled out, so that a change of a default in src/ cannot
// silently change what a workload measures.
softcache::SoftCacheConfig PinnedClientConfig(const Workload& w) {
  softcache::SoftCacheConfig c;
  c.style = softcache::Style::kSparc;
  c.evict = softcache::EvictPolicy::kFifoRing;
  c.tcache_bytes = w.tcache_bytes;
  c.max_block_instrs = 64;
  c.max_trace_blocks = 1;
  c.forward_cell_bytes = 8 * 1024;
  c.prefetch = softcache::PrefetchConfig{
      .policy = softcache::PrefetchPolicy::kOff,
      .depth = 2,
      .max_chunks = 8,
      .byte_budget = 4096,
      .staging_bytes = 16 * 1024};
  c.client_id = 0;
  c.shared_reply = w.clients > 1;
  c.shared_store_bytes = 256 * 1024;
  c.integrity = softcache::IntegrityConfig{
      .enabled = false,
      .memfault = softcache::MemFaultConfig{},
      .quantum_instructions = kQuantum,
      .scrub_every = 8,
      .max_heal_attempts = 64,
      .poison_after = 4};
  c.cost = softcache::CostModel{.miss_trap_cycles = 30,
                                .install_cycles_per_word = 2,
                                .patch_cycles = 12,
                                .hash_lookup_cycles = 14,
                                .stack_walk_frame_cycles = 8,
                                .mc_service_cycles = 100};
  c.channel = net::ChannelConfig{.clock_hz = 200'000'000,
                                 .bits_per_second = 10'000'000,
                                 .latency_cycles = 2'000};
  c.fault = net::FaultConfig{};  // reliable loopback link, no crashes
  c.retry = softcache::RetryConfig{.timeout_cycles = 100'000,
                                   .max_timeout_cycles = 1'600'000,
                                   .max_attempts = 32,
                                   .max_recovery_attempts = 8,
                                   .attempt_deadline_cycles = 0,
                                   .backoff_jitter = 0.0,
                                   .jitter_seed = 1};
  c.transport_factory = nullptr;
  c.restrict_exec = true;
  return c;
}

softcache::McServerConfig PinnedServerConfig(uint32_t shards) {
  softcache::McServerConfig s;
  s.shards = shards;
  s.memo_capacity = 4096;
  s.published_capacity = 8192;
  s.memfault = softcache::MemFaultConfig{};
  s.max_queue = 0;
  s.workers = 0;
  return s;
}

softcache::MultiClientConfig PinnedFleetConfig(const Workload& w,
                                               uint32_t clients) {
  softcache::MultiClientConfig f;
  f.clients = clients;
  f.base = PinnedClientConfig(w);
  f.client_faults.clear();
  f.quantum_instructions = kQuantum;
  f.server = PinnedServerConfig(kShards);
  // Round-robin: the only scheduler under which guest cycles and wire bytes
  // of a fleet repeat exactly.
  f.host_threads = 0;
  return f;
}

void PinMachine(vm::Machine& m, vm::Engine engine) {
  m.set_engine(engine);
  m.set_cost_model(vm::CostModel{.alu = 1,
                                 .mul = 3,
                                 .div = 12,
                                 .load = 1,
                                 .store = 1,
                                 .branch = 1,
                                 .jump = 1,
                                 .syscall = 5});
}

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t Nanos(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// Resident set size of this process now, in bytes.
double ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// Latency samples in log-linear buckets: exact below 128 ns, then 64
// buckets per power of two (under 1.6% error). Percentiles are taken by
// run.py after pooling the buckets of every sample of a run.
class Latencies {
 public:
  void Add(uint64_t ns) {
    total_ns_ += ns;
    const uint32_t b = Bucket(ns);
    if (b >= buckets_.size()) buckets_.resize(b + 1);
    ++buckets_[b];
  }
  uint64_t total_ns() const { return total_ns_; }

  // [[midpoint_ns, count], ...] in ascending order.
  std::string ToJson() const {
    std::string out = "[";
    for (uint32_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b] == 0) continue;
      if (out.size() > 1) out += ",";
      out += "[" + std::to_string(Midpoint(b)) + "," +
             std::to_string(buckets_[b]) + "]";
    }
    return out + "]";
  }

 private:
  static constexpr uint32_t kSubBits = 6;
  static constexpr uint64_t kExact = 2ull << kSubBits;  // 128

  static uint32_t Bucket(uint64_t ns) {
    if (ns < kExact) return static_cast<uint32_t>(ns);
    const uint32_t shift =
        static_cast<uint32_t>(std::bit_width(ns)) - kSubBits - 1;
    return (shift + 1) * (1u << kSubBits) +
           static_cast<uint32_t>((ns >> shift) - (1ull << kSubBits));
  }
  // Bucket widths above kExact are even, so the midpoint is whole.
  static uint64_t Midpoint(uint32_t bucket) {
    if (bucket < kExact) return bucket;
    const uint32_t shift = bucket / (1u << kSubBits) - 1;
    const uint64_t lo = ((bucket % (1u << kSubBits)) + (1ull << kSubBits))
                        << shift;
    return lo + (1ull << shift) / 2;
  }

  uint64_t total_ns_ = 0;
  std::vector<uint64_t> buckets_;  // indexed by Bucket(ns)
};

// Host time of one solo run at the seams, filled by the wrappers below.
struct SoloProbe {
  Latencies trap;            // inside the cache controller's trap entries
  Latencies handle;          // inside MemoryController::Handle
  uint64_t transport_ns = 0;  // inside Transport::Send + Recv (incl. Handle)
};

// Sits between the VM and the cache controller; times every trap.
class TimedTrapHandler : public vm::TrapHandler {
 public:
  TimedTrapHandler(vm::TrapHandler& inner, SoloProbe& probe)
      : inner_(inner), probe_(probe) {}
  // The Machine holds this object's address while it is installed.
  TimedTrapHandler(const TimedTrapHandler&) = delete;
  TimedTrapHandler& operator=(const TimedTrapHandler&) = delete;

  uint32_t OnTcMiss(vm::Machine& m, uint32_t stub_index) override {
    const auto t0 = Clock::now();
    const uint32_t pc = inner_.OnTcMiss(m, stub_index);
    probe_.trap.Add(Nanos(t0, Clock::now()));
    return pc;
  }
  uint32_t OnTcJalr(vm::Machine& m, const isa::Instr& instr,
                    uint32_t pc) override {
    const auto t0 = Clock::now();
    const uint32_t next = inner_.OnTcJalr(m, instr, pc);
    probe_.trap.Add(Nanos(t0, Clock::now()));
    return next;
  }
  uint32_t OnIcacheInvalidate(vm::Machine& m, uint32_t addr, uint32_t len,
                              uint32_t pc) override {
    const auto t0 = Clock::now();
    const uint32_t next = inner_.OnIcacheInvalidate(m, addr, len, pc);
    probe_.trap.Add(Nanos(t0, Clock::now()));
    return next;
  }

 private:
  vm::TrapHandler& inner_;
  SoloProbe& probe_;
};

// The loopback link the cache controller builds by default, over a timed
// MemoryController::Handle, with Send and Recv timed as well.
class TimedTransport : public net::Transport {
 public:
  TimedTransport(softcache::MemoryController& mc, net::Channel& channel,
                 SoloProbe& probe)
      : inner_(channel,
               [&mc, &probe](const std::vector<uint8_t>& frame) {
                 const auto t0 = Clock::now();
                 std::vector<uint8_t> reply = mc.Handle(frame);
                 probe.handle.Add(Nanos(t0, Clock::now()));
                 return reply;
               }),
        probe_(probe) {}

  uint64_t Send(const std::vector<uint8_t>& frame) override {
    const auto t0 = Clock::now();
    const uint64_t cycles = inner_.Send(frame);
    probe_.transport_ns += Nanos(t0, Clock::now());
    return cycles;
  }
  bool Recv(std::vector<uint8_t>* frame, uint64_t* cycles) override {
    const auto t0 = Clock::now();
    const bool got = inner_.Recv(frame, cycles);
    probe_.transport_ns += Nanos(t0, Clock::now());
    return got;
  }
  const net::TransportStats& stats() const override { return inner_.stats(); }

 private:
  net::LoopbackTransport inner_;
  SoloProbe& probe_;
};

// Discards what is written and counts it: exports are timed without disk.
class CountingBuf : public std::streambuf {
 public:
  uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<uint64_t>(n);
    return n;
  }

 private:
  uint64_t bytes_ = 0;
};

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

struct ClientResult {
  int32_t exit_code = 0;
  bool halted = false;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t wire_bytes = 0;
  uint64_t output_digest = 0;
};

ClientResult Collect(const vm::RunResult& r, const vm::Machine& m,
                     uint64_t wire_bytes) {
  return ClientResult{.exit_code = r.exit_code,
                      .halted = r.reason == vm::StopReason::kHalted,
                      .instructions = m.instructions(),
                      .cycles = m.cycles(),
                      .wire_bytes = wire_bytes,
                      .output_digest = Fnv1a(m.output())};
}

// One sample's measurements, printed as flat JSON.
class Report {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void Add(const std::string& key, double value) { values_[key] += value; }
  void SetRaw(const std::string& key, std::string json) {
    raw_[key] = std::move(json);
  }

  void Print(const std::vector<ClientResult>& clients) const {
    std::string out = "{\"clients\": [";
    for (size_t i = 0; i < clients.size(); ++i) {
      const ClientResult& c = clients[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"exit\": %d, \"halted\": %s, \"instructions\": %llu, "
                    "\"cycles\": %llu, \"wire_bytes\": %llu, "
                    "\"output\": \"%016llx\"}",
                    i == 0 ? "" : ", ", c.exit_code,
                    c.halted ? "true" : "false",
                    static_cast<unsigned long long>(c.instructions),
                    static_cast<unsigned long long>(c.cycles),
                    static_cast<unsigned long long>(c.wire_bytes),
                    static_cast<unsigned long long>(c.output_digest));
      out += buf;
    }
    out += "]";
    for (const auto& [key, value] : values_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out += ", \"" + key + "\": " + buf;
    }
    for (const auto& [key, json] : raw_) out += ", \"" + key + "\": " + json;
    std::printf("%s}\n", out.c_str());
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> raw_;
};

std::vector<std::vector<uint8_t>> MakeInputs(const Workload& w, int scale,
                                             uint32_t clients, uint64_t seed) {
  std::vector<std::vector<uint8_t>> inputs;
  for (uint32_t i = 0; i < clients; ++i) {
    inputs.push_back(workloads::MakeInput(w.program, scale, seed + i));
  }
  return inputs;
}

std::vector<ClientResult> RunNative(const image::Image& image,
                                    const std::vector<std::vector<uint8_t>>& inputs) {
  std::vector<ClientResult> results;
  for (const auto& input : inputs) {
    vm::Machine m;
    PinMachine(m, vm::Engine::kInterp);
    m.LoadImage(image);
    m.SetInput(input);
    const vm::RunResult r = m.Run();
    results.push_back(Collect(r, m, 0));
  }
  return results;
}

void ReportCacheStats(const softcache::SoftCacheStats& s, Report& report) {
  report.Add("cc.traps", static_cast<double>(s.tcmiss_traps + s.hash_lookups));
  report.Add("cc.blocks_translated", static_cast<double>(s.blocks_translated));
  report.Add("cc.evictions", static_cast<double>(s.evictions));
  report.Add("cc.frames_walked", static_cast<double>(s.stack_walk_frames));
}

void ReportServerStats(const softcache::MemoryController& mc, Report& report) {
  const softcache::McServer& server = mc.server();
  const softcache::McServerStats& s = server.stats();
  report.Set("mc.frames", static_cast<double>(s.requests_served));
  report.Set("mc.translates", static_cast<double>(s.translates));
  report.Set("mc.memo_hits", static_cast<double>(s.translate_memo_hits));
  report.Set("mc.digest_replies", static_cast<double>(s.digest_replies));
  uint64_t service_samples = 0;
  for (uint32_t shard = 0; shard < server.shards(); ++shard) {
    service_samples += server.shard_service_ns(shard).total();
  }
  report.Set("mc.shard_service_samples", static_cast<double>(service_samples));
}

void ReportMachine(const vm::Machine& m, Report& report) {
  report.Add("vm.sb_fills", static_cast<double>(m.sb_stats().fills));
  report.Add("vm.sb_invalidations",
             static_cast<double>(m.sb_stats().invalidations));
}

std::vector<ClientResult> RunSolo(const Workload& w, const image::Image& image,
                                  const std::vector<uint8_t>& input,
                                  bool traced, Report& report) {
  SoloProbe probe;
  softcache::SoftCacheConfig config = PinnedClientConfig(w);
  if (traced) {
    config.transport_factory = [&probe](softcache::MemoryController& mc,
                                        net::Channel& channel) {
      return std::make_unique<TimedTransport>(mc, channel, probe);
    };
  }
  const double rss0 = ResidentBytes();
  const auto t0 = Clock::now();
  auto system = std::make_unique<softcache::SoftCacheSystem>(
      image, config, PinnedServerConfig(1));
  PinMachine(system->machine(), vm::Engine::kThreaded);
  system->SetInput(input);
  const auto t1 = Clock::now();
  report.Set("softcache.construct_s", Seconds(t0, t1));
  report.Set("construct_rss_bytes", ResidentBytes() - rss0);

  vm::RunResult result;
  const auto t2 = Clock::now();
  if (traced) {
    // Run(0) attaches the cache controller (resolving the entry point) and
    // executes nothing; the timed handler goes in front of it afterwards.
    system->Run(0);
    const auto t_attached = Clock::now();
    probe.trap.Add(Nanos(t2, t_attached));
    TimedTrapHandler handler(system->cc(), probe);
    system->machine().set_trap_handler(&handler);
    result = system->Run();
    system->machine().set_trap_handler(&system->cc());
  } else {
    result = system->Run();
  }
  const auto t3 = Clock::now();
  report.Set("run_s", Seconds(t2, t3));

  std::vector<ClientResult> clients = {Collect(
      result, system->machine(), system->channel().stats().total_bytes())};
  ReportCacheStats(system->stats(), report);
  ReportServerStats(system->mc(), report);
  ReportMachine(system->machine(), report);
  if (traced) {
    report.Set("cc.trap_s", static_cast<double>(probe.trap.total_ns()) * 1e-9);
    report.Set("mc.handle_s",
               static_cast<double>(probe.handle.total_ns()) * 1e-9);
    report.Set("transport_s", static_cast<double>(probe.transport_ns) * 1e-9);
    report.SetRaw("trap_ns", probe.trap.ToJson());
    report.SetRaw("handle_ns", probe.handle.ToJson());
  }

  const auto t4 = Clock::now();
  system.reset();
  report.Set("softcache.destroy_s", Seconds(t4, Clock::now()));
  return clients;
}

std::vector<ClientResult> RunFleet(const Workload& w, const image::Image& image,
                                   const std::vector<std::vector<uint8_t>>& inputs,
                                   Report& report) {
  const uint32_t clients = static_cast<uint32_t>(inputs.size());
  const double rss0 = ResidentBytes();
  const auto t0 = Clock::now();
  auto fleet = std::make_unique<softcache::MultiClientSystem>(
      image, PinnedFleetConfig(w, clients));
  for (uint32_t i = 0; i < clients; ++i) {
    PinMachine(fleet->machine(i), vm::Engine::kThreaded);
    fleet->SetInput(i, inputs[i]);
  }
  const auto t1 = Clock::now();
  report.Set("softcache.construct_s", Seconds(t0, t1));
  report.Set("construct_rss_bytes", ResidentBytes() - rss0);

  std::unique_ptr<obs::TraceMux> mux;
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (w.observe) {
    const double rss1 = ResidentBytes();
    const auto e0 = Clock::now();
    mux = std::make_unique<obs::TraceMux>();
    fleet->AttachTraceMux(mux.get());
    mux->EnableAll();
    registry = std::make_unique<obs::MetricsRegistry>();
    fleet->RegisterMetrics(registry.get());
    mux->RegisterMetrics(registry.get());
    report.Set("obs.enable_s", Seconds(e0, Clock::now()));
    report.Set("obs.ring_bytes", ResidentBytes() - rss1);
  }

  const auto t2 = Clock::now();
  const std::vector<vm::RunResult> results = fleet->RunAll();
  const bool synced = fleet->SyncSessions();
  report.Set("run_s", Seconds(t2, Clock::now()));

  if (w.observe) {
    CountingBuf trace_buf;
    std::ostream trace_out(&trace_buf);
    const auto x0 = Clock::now();
    mux->ExportChromeJson(trace_out);
    const auto x1 = Clock::now();
    const std::string metrics_json = registry->ToJson();
    const auto x2 = Clock::now();
    report.Set("obs.trace_export_s", Seconds(x0, x1));
    report.Set("obs.trace_bytes", static_cast<double>(trace_buf.bytes()));
    report.Set("obs.metrics_export_s", Seconds(x1, x2));
    report.Set("obs.metrics_bytes", static_cast<double>(metrics_json.size()));
    report.Set("obs.dropped_events", static_cast<double>(mux->TotalDropped()));
  }

  std::vector<ClientResult> out;
  for (uint32_t i = 0; i < clients; ++i) {
    out.push_back(Collect(results[i], fleet->machine(i),
                          fleet->channel(i).stats().total_bytes()));
    if (!synced) out.back().halted = false;
    ReportCacheStats(fleet->cc(i).stats(), report);
    ReportMachine(fleet->machine(i), report);
  }
  ReportServerStats(fleet->mc(), report);
  const softcache::McServerLoopStats& loop = fleet->server_loop().stats();
  report.Set("server_loop.requests_enqueued",
             static_cast<double>(loop.requests_enqueued));
  report.Set("server_loop.batches_drained",
             static_cast<double>(loop.batches_drained));
  report.Set("server_loop.max_queue_depth",
             static_cast<double>(loop.max_queue_depth));
  report.Set("server_loop.queue_wait_samples",
             static_cast<double>(fleet->server_loop().queue_wait_ns().total()));
  report.Set("net.switch_frames",
             static_cast<double>(fleet->net_switch().frames_switched()));

  // The registry and the mux hold views into the fleet: drop them with it.
  const auto t4 = Clock::now();
  registry.reset();
  fleet.reset();
  mux.reset();
  report.Set("softcache.destroy_s", Seconds(t4, Clock::now()));
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_sample --workload=NAME --seed=N "
               "--mode=native|plain|traced [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Environment knobs the library reads would change what a workload
  // measures (engine, server workers, echo logging); run.py clears them too.
  unsetenv("SOFTCACHE_ENGINE");
  unsetenv("SOFTCACHE_WORKERS");
  util::SetLogLevel(util::LogLevel::kOff);
  // glibc returns the top of the heap to the kernel whenever enough of it
  // is free, and faults it back in on the next growth. How often that
  // happens depends on the exact allocation sequence, so with the default
  // policy solo_thrash's minor faults swing by a third from one input seed
  // to the next. A fixed threshold far above any workload's heap makes
  // page faults count memory touched, not trim cycles.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  std::string workload_name;
  std::string mode;
  std::string seed_arg;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      workload_name = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed_arg = arg.substr(7);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindBenchWorkload(workload_name);
  char* seed_end = nullptr;
  const uint64_t seed = std::strtoull(seed_arg.c_str(), &seed_end, 10);
  if (w == nullptr || seed_arg.empty() || *seed_end != '\0' ||
      (mode != "native" && mode != "plain" && mode != "traced")) {
    return Usage();
  }
  const int scale = smoke ? w->smoke_scale : w->scale;
  const uint32_t clients = smoke ? w->smoke_clients : w->clients;

  Report report;
  const auto t0 = Clock::now();
  const image::Image image =
      workloads::CompileWorkload(*workloads::FindWorkload(w->program));
  const auto t1 = Clock::now();
  const std::vector<std::vector<uint8_t>> inputs =
      MakeInputs(*w, scale, clients, seed);
  const auto t2 = Clock::now();
  report.Set("minicc.compile_s", Seconds(t0, t1));
  report.Set("workloads.input_s", Seconds(t1, t2));

  if (mode == "native") {
    report.Print(RunNative(image, inputs));
    return 0;
  }
  const std::vector<ClientResult> results =
      clients == 1 ? RunSolo(*w, image, inputs[0], mode == "traced", report)
                   : RunFleet(*w, image, inputs, report);
  report.Set("wall_s", Seconds(t0, Clock::now()));
  report.Print(results);
  return 0;
}
