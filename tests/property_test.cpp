// The configuration-space oracle. The software cache must be invisible to
// the program it runs: rewriting, eviction, prefetch, the MC/CC split,
// fleets, faults, crashes and observability may change time and nothing
// else. Each seed draws a program (a ProgramGen program or a bundled
// workload at scale 1) and a full configuration vector: every
// SoftCacheConfig, McServerConfig and MultiClientConfig knob a run can
// vary, each client's engine, budget slices, observability and, for solo
// runs, a D-cache. It runs the configuration and checks four relations:
//
//   R1  each client's output and exit code equal the native interpreter's;
//   R2  each client's instructions, cycles, integrity ticks and wire bytes
//       equal those of its solo run: the client alone (its own fault
//       schedule, the default scheduler quantum) on the interpreter, on one
//       host thread, unobserved and unsliced. Its instructions also equal
//       that run's without link faults or crashes, which change time only.
//       Shared replies couple a fleet's clients (digest hits follow what
//       the others fetched first), so a shared-reply fleet compares only
//       instructions with the client alone, and is timed against the same
//       fleet run the same way, unless it runs on several threads or in
//       slices. Where cycles differ, a memory-fault flip keyed on guest
//       cycles may land elsewhere, so there nothing is compared;
//   R3  on one host thread, observability on leaves every metric that is
//       not a host-time (_ns) key equal, on the same engine;
//   R4  CheckInvariants holds after every slice, a sliced client stops
//       exactly at its budget, SyncSessions succeeds, the server loop
//       admitted every frame the switch routed, and a client without a
//       crash schedule keeps epoch 0.
//
// Instructions are compared with softcache runs, not with native: a cached
// run retires the CC's trap and patch work as guest instructions. A
// failing case is shrunk (each field reset to its default while the case
// still fails, then the generated program cut to the fewest functions) and
// printed with its seed, its knobs in the form Parse reads and an srun
// line. SOFTCACHE_TEST_SEEDS=N runs N seeds per parameter (default 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "dcache/dcache.h"
#include "minicc/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_mux.h"
#include "softcache/inspector.h"
#include "softcache/system.h"
#include "tests/program_gen.h"
#include "tests/testing.h"
#include "util/rng.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using softcache::EvictPolicy;
using softcache::PrefetchPolicy;
using softcache::Style;

// ---------------------------------------------------------------------------
// The case: a program plus a configuration vector
// ---------------------------------------------------------------------------

// Which part of the space a tier-1 parameter samples.
enum class Family : uint8_t {
  kAny,            // the whole vector
  kComputedJumps,  // SPARC-only generated programs (jump tables, pointers)
  kDcache,         // solo runs with a D-cache
  kDcacheTight,    // solo runs with a small D-cache and a tcache <= 4 KB
};

// kMixed: odd clients threaded. kGlobal: one process tracer, solo only.
enum class Engines : uint8_t { kInterp, kThreaded, kMixed };
enum class Tracing : uint8_t { kOff, kLanes, kGlobal };
// kPerClientSeed: client i runs base.fault with seed + i (as srun does);
// kOddClients: the same, but even clients run fault-free.
enum class ClientFaults : uint8_t { kPerClientSeed, kOddClients };

struct Case {
  uint64_t seed = 0;
  Family family = Family::kAny;
  // The program: a bundled workload at scale 1, or
  // ProgramGen(program_seed, functions).Generate(!sparc_only).
  std::string workload;
  uint64_t program_seed = 0;
  bool sparc_only = false;
  int functions = 0;  // 0: the generator's own count
  // The configuration; fleet.base is every client's SoftCacheConfig.
  softcache::MultiClientConfig fleet;
  ClientFaults client_faults = ClientFaults::kPerClientSeed;
  Engines engines = Engines::kInterp;
  uint64_t slice = 0;  // RunAll budget step; 0 = one unsliced RunAll
  Tracing tracing = Tracing::kOff;
  uint64_t inspect_every = 0;  // guest cycles between inspection safepoints
  bool dcache = false;
  dcache::DCacheConfig dcache_config;
};

const Case& Defaults() {
  static const Case kDefaults;
  return kDefaults;
}

// One knob of a Case: its default is whatever a default Case holds, so the
// table never restates a library default. Enums show as their numbers.
struct Field {
  std::string name;
  std::function<bool(const Case&)> is_default;
  std::function<void(Case&)> reset;
  std::function<std::string(const Case&)> show;
  std::function<void(Case&, const std::string&)> set;  // show's inverse
};

template <typename T>
std::string Show(const T& value) {
  std::ostringstream out;
  if constexpr (std::is_enum_v<T>) {
    out << static_cast<int>(value);
  } else {
    out << value;
  }
  return out.str();
}

template <typename T>
void Read(const std::string& text, T& value) {
  std::istringstream in(text);
  if constexpr (std::is_enum_v<T>) {
    int number = 0;
    in >> number;
    value = static_cast<T>(number);
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = text;
  } else {
    in >> value;
  }
  SC_CHECK(!in.fail()) << "unreadable value " << text;
}

template <typename Get>
Field Knob(std::string name, Get get) {
  return Field{std::move(name),
               [get](const Case& c) { return get(c) == get(Defaults()); },
               [get](Case& c) { get(c) = get(Defaults()); },
               [get](const Case& c) { return Show(get(c)); },
               [get](Case& c, const std::string& text) { Read(text, get(c)); }};
}

#define SC_KNOB(name, member) \
  Knob(name, [](auto& c) -> auto& { return c.member; })

// The program's knobs. The shrinker cuts `functions` on its own and never
// redraws the program, so these are not configuration fields.
const std::vector<Field>& ProgramFields() {
  static const std::vector<Field> kFields = {
      SC_KNOB("program_seed", program_seed),
      SC_KNOB("functions", functions),
  };
  return kFields;
}

// The configuration vector: every field the shrinker may reset.
const std::vector<Field>& Fields() {
  static const std::vector<Field> kFields = {
      SC_KNOB("workload", workload),
      SC_KNOB("sparc_only", sparc_only),
      SC_KNOB("style", fleet.base.style),
      SC_KNOB("tcache_bytes", fleet.base.tcache_bytes),
      SC_KNOB("evict", fleet.base.evict),
      SC_KNOB("max_block_instrs", fleet.base.max_block_instrs),
      SC_KNOB("max_trace_blocks", fleet.base.max_trace_blocks),
      SC_KNOB("forward_cell_bytes", fleet.base.forward_cell_bytes),
      SC_KNOB("prefetch.policy", fleet.base.prefetch.policy),
      SC_KNOB("prefetch.depth", fleet.base.prefetch.depth),
      SC_KNOB("prefetch.max_chunks", fleet.base.prefetch.max_chunks),
      SC_KNOB("prefetch.byte_budget", fleet.base.prefetch.byte_budget),
      SC_KNOB("prefetch.staging_bytes", fleet.base.prefetch.staging_bytes),
      SC_KNOB("shared_reply", fleet.base.shared_reply),
      SC_KNOB("shared_store_bytes", fleet.base.shared_store_bytes),
      SC_KNOB("integrity.enabled", fleet.base.integrity.enabled),
      SC_KNOB("integrity.memfault.seed", fleet.base.integrity.memfault.seed),
      SC_KNOB("integrity.memfault.rate", fleet.base.integrity.memfault.rate),
      SC_KNOB("integrity.memfault.after", fleet.base.integrity.memfault.after),
      SC_KNOB("integrity.memfault.period",
              fleet.base.integrity.memfault.period),
      SC_KNOB("integrity.memfault.at_cycle",
              fleet.base.integrity.memfault.at_cycle),
      SC_KNOB("integrity.quantum", fleet.base.integrity.quantum_instructions),
      SC_KNOB("integrity.scrub_every", fleet.base.integrity.scrub_every),
      SC_KNOB("integrity.max_heal_attempts",
              fleet.base.integrity.max_heal_attempts),
      SC_KNOB("integrity.poison_after", fleet.base.integrity.poison_after),
      SC_KNOB("fault.seed", fleet.base.fault.seed),
      SC_KNOB("fault.drop", fleet.base.fault.drop),
      SC_KNOB("fault.corrupt", fleet.base.fault.corrupt),
      SC_KNOB("fault.duplicate", fleet.base.fault.duplicate),
      SC_KNOB("fault.crash", fleet.base.fault.crash),
      SC_KNOB("fault.crash_after", fleet.base.fault.crash_after_requests),
      SC_KNOB("fault.crash_period", fleet.base.fault.crash_period),
      SC_KNOB("fault.crash_at_cycle", fleet.base.fault.crash_at_cycle),
      SC_KNOB("retry.timeout_cycles", fleet.base.retry.timeout_cycles),
      SC_KNOB("retry.backoff_jitter", fleet.base.retry.backoff_jitter),
      SC_KNOB("server.shards", fleet.server.shards),
      SC_KNOB("server.memo_capacity", fleet.server.memo_capacity),
      SC_KNOB("server.published_capacity", fleet.server.published_capacity),
      SC_KNOB("server.memfault.seed", fleet.server.memfault.seed),
      SC_KNOB("server.memfault.rate", fleet.server.memfault.rate),
      SC_KNOB("server.max_queue", fleet.server.max_queue),
      SC_KNOB("clients", fleet.clients),
      SC_KNOB("quantum", fleet.quantum_instructions),
      SC_KNOB("host_threads", fleet.host_threads),
      SC_KNOB("client_faults", client_faults),
      SC_KNOB("engines", engines),
      SC_KNOB("slice", slice),
      SC_KNOB("tracing", tracing),
      SC_KNOB("inspect_every", inspect_every),
      SC_KNOB("dcache", dcache),
      SC_KNOB("dcache.blocks", dcache_config.dcache_blocks),
      SC_KNOB("dcache.block_bytes", dcache_config.block_bytes),
      SC_KNOB("dcache.scache_bytes", dcache_config.scache_bytes),
      SC_KNOB("dcache.prediction", dcache_config.prediction),
      SC_KNOB("dcache.write_through", dcache_config.write_through),
  };
  return kFields;
}

#undef SC_KNOB

// The case as `name=value` pairs, one per non-default knob: the form a
// failure prints and Parse reads back.
std::string Spec(const Case& c) {
  std::string spec;
  for (const auto* fields : {&ProgramFields(), &Fields()}) {
    for (const Field& field : *fields) {
      if (field.is_default(c)) continue;
      spec += (spec.empty() ? "" : " ") + field.name + "=" + field.show(c);
    }
  }
  return spec;
}

Case Parse(const std::string& spec) {
  Case c;
  std::istringstream in(spec);
  for (std::string item; in >> item;) {
    const size_t eq = item.find('=');
    bool known = false;
    for (const auto* fields : {&ProgramFields(), &Fields()}) {
      for (const Field& field : *fields) {
        if (field.name != item.substr(0, eq)) continue;
        field.set(c, item.substr(eq + 1));
        known = true;
      }
    }
    SC_CHECK(known) << "unknown field " << item;
  }
  return c;
}

// The small bundled workloads; the large ones run in workloads_test.
constexpr const char* kWorkloads[] = {"dijkstra", "hextobdd", "adpcm_enc",
                                      "adpcm_dec", "compress95"};

// Sets `field` to one of `values`, or to a value in [lo, hi].
template <typename T>
void Pick(util::Rng& rng, T& field,
          std::initializer_list<std::type_identity_t<T>> values) {
  field = values.begin()[rng.Below(values.size())];
}
template <typename T>
void Pick(util::Rng& rng, T& field, int64_t lo, int64_t hi) {
  field = static_cast<T>(rng.Range(lo, hi));
}

Case Draw(uint64_t seed, Family family) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(family));
  const auto chance = [&rng](uint64_t num, uint64_t den) {
    return rng.Chance(num, den);
  };
  const bool tight = family == Family::kDcacheTight;
  Case c;
  c.seed = seed;
  c.family = family;
  c.dcache = family == Family::kDcache || tight ||
             (family == Family::kAny && chance(1, 6));

  // Workloads behind a tight D-cache trap on nearly every access, which
  // costs tier-1 seconds per case; the D-cache families draw programs.
  bool arm_ok = true;
  if (family == Family::kAny && chance(1, 4)) {
    c.workload = kWorkloads[rng.Below(std::size(kWorkloads))];
    arm_ok = workloads::FindWorkload(c.workload)->arm_safe;
  } else {
    Pick(rng, c.program_seed, 0, 999'999);
    c.sparc_only = family == Family::kComputedJumps || chance(1, 3);
    arm_ok = !c.sparc_only;
  }

  softcache::SoftCacheConfig& b = c.fleet.base;
  if (arm_ok && chance(1, 3)) b.style = Style::kArm;
  const bool arm = b.style == Style::kArm;
  if (tight && arm) {
    b.tcache_bytes = 4096;
  } else if (tight) {
    Pick(rng, b.tcache_bytes, {1024, 2048, 4096});
  } else if (chance(3, 4)) {
    if (arm) {
      Pick(rng, b.tcache_bytes, {4096, 8192, 16384, 32768});
    } else {
      Pick(rng, b.tcache_bytes, {1024, 2048, 4096, 8192, 16384, 65536});
    }
  }
  if (chance(1, 3)) b.evict = EvictPolicy::kFlushAll;
  if (chance(1, 4)) Pick(rng, b.max_block_instrs, {4, 8, 16, 32});
  if (!arm && chance(1, 3)) Pick(rng, b.max_trace_blocks, 2, 6);
  if (chance(1, 4)) Pick(rng, b.forward_cell_bytes, {4096, 16384});

  if (chance(1, 3)) {
    b.prefetch.policy = PrefetchPolicy::kNextN;
    if (chance(1, 2)) Pick(rng, b.prefetch.depth, 1, 6);
    if (chance(1, 2)) Pick(rng, b.prefetch.max_chunks, 1, 16);
    if (chance(1, 2)) Pick(rng, b.prefetch.byte_budget, {256, 1024, 8192});
    if (chance(1, 2)) Pick(rng, b.prefetch.staging_bytes, {96, 1024, 4096});
  }
  if (chance(1, 3)) {
    b.shared_reply = true;
    if (chance(1, 2)) Pick(rng, b.shared_store_bytes, {4096, 65536});
  }

  if (chance(1, 3)) {
    softcache::IntegrityConfig& in = b.integrity;
    in.enabled = true;
    if (chance(2, 3)) {
      Pick(rng, in.memfault.seed, 2, 1000);
      Pick(rng, in.memfault.rate, {0.01, 0.05, 0.2});
    }
    if (chance(1, 3)) Pick(rng, in.memfault.after, 1, 50);
    if (chance(1, 3)) Pick(rng, in.memfault.period, 5, 40);
    if (chance(1, 3)) Pick(rng, in.memfault.at_cycle, 10'000, 500'000);
    if (chance(1, 2)) Pick(rng, in.quantum_instructions, {0, 256, 4096});
    if (chance(1, 2)) Pick(rng, in.scrub_every, {0, 1, 2, 4, 16});
    // A storm can outlast the default heal budget, which fails the run
    // on purpose (a degradation, not a divergence).
    if (in.memfault.enabled() || chance(1, 2)) {
      Pick(rng, in.max_heal_attempts, {0, 1'000'000});
    }
    if (chance(1, 2)) Pick(rng, in.poison_after, {0, 1, 2});
  }

  net::FaultConfig& f = b.fault;
  if (chance(1, 3)) {
    Pick(rng, f.seed, 2, 10'000);
    if (chance(2, 3)) Pick(rng, f.drop, {0.02, 0.1, 0.2});
    if (chance(1, 2)) Pick(rng, f.corrupt, {0.02, 0.1});
    if (chance(1, 2)) Pick(rng, f.duplicate, {0.02, 0.1});
  }
  if (chance(1, 3)) {
    if (f.seed == 1) Pick(rng, f.seed, 2, 10'000);
    // A D-cache journal replay needs room between crashes for a flush
    // interval of writes and their retransmissions over a lossy link, and
    // a random crash rate can keep firing inside one until the session
    // gives up on purpose (a degradation, not a divergence).
    if (chance(1, 2)) {
      if (c.dcache) {
        Pick(rng, f.crash_period, {96, 192});
      } else {
        Pick(rng, f.crash_period, {8, 16, 64});
      }
    }
    if (!c.dcache && chance(1, 2)) Pick(rng, f.crash, {0.01, 0.03});
    if (chance(1, 3)) Pick(rng, f.crash_after_requests, 1, 100);
    if (chance(1, 3)) Pick(rng, f.crash_at_cycle, 10'000, 1'000'000);
  }
  if (chance(1, 4)) {
    Pick(rng, b.retry.timeout_cycles, {10'000, 400'000});
    if (chance(1, 2)) Pick(rng, b.retry.backoff_jitter, {0.25, 0.5});
  }

  softcache::McServerConfig& server = c.fleet.server;
  if (chance(1, 3)) {
    Pick(rng, server.shards, 2, 4);
    if (chance(1, 2)) Pick(rng, server.memo_capacity, {16, 256});
    if (chance(1, 2)) Pick(rng, server.published_capacity, {8, 64});
    if (chance(1, 2)) {
      Pick(rng, server.memfault.seed, 2, 1000);
      Pick(rng, server.memfault.rate, {0.02, 0.1});
    }
    if (chance(1, 2)) Pick(rng, server.max_queue, {1, 4});
  }

  if (!c.dcache && chance(1, 2)) {
    Pick(rng, c.fleet.clients, 2, 8);
    if (chance(1, 2)) Pick(rng, c.fleet.host_threads, 2, 4);
    if (chance(1, 3)) {
      Pick(rng, c.fleet.quantum_instructions, {64, 1000, 16384, UINT64_MAX});
    }
    if (chance(1, 3)) c.client_faults = ClientFaults::kOddClients;
  }
  const bool fleet = c.fleet.clients > 1;
  c.engines = static_cast<Engines>(rng.Below(fleet ? 3 : 2));
  if (chance(1, 3)) Pick(rng, c.slice, {777, 5000, 100'000});
  if (chance(1, 3)) {
    c.tracing = !fleet && chance(1, 2) ? Tracing::kGlobal : Tracing::kLanes;
  }
  if (chance(1, 3)) Pick(rng, c.inspect_every, {100'000, 1'000'000});

  if (c.dcache) {
    dcache::DCacheConfig& d = c.dcache_config;
    Pick(rng, d.dcache_blocks, 4, tight ? 16 : 64);
    d.block_bytes = 1u << rng.Range(3, 6);
    d.scache_bytes = 1u << rng.Range(9, tight ? 10 : 13);
    d.prediction = static_cast<dcache::Prediction>(rng.Below(4));
    d.write_through = chance(1, 4);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Running a case
// ---------------------------------------------------------------------------

constexpr uint64_t kMaxInstructions = 4'000'000'000ull;
constexpr size_t kTraceRing = 1 << 12;  // small: wrapping must not matter

struct Program {
  image::Image image;
  std::vector<uint8_t> input;
  std::string source;  // generated programs only
  int functions = 0;   // generated programs only: the count Generate used
};

Program Compile(const Case& c) {
  Program p;
  if (!c.workload.empty()) {
    p.image = workloads::CompileWorkload(*workloads::FindWorkload(c.workload));
    p.input = workloads::MakeInput(c.workload, 1);
    return p;
  }
  ProgramGen gen(c.program_seed, c.functions);
  p.source = gen.Generate(/*arm_safe=*/!c.sparc_only);
  p.functions = gen.functions();
  auto img = minicc::CompileMiniC(p.source, "gen.mc");
  SC_CHECK(img.ok()) << img.error().ToString() << "\n" << p.source;
  p.image = std::move(*img);
  return p;
}

// Client i's link fault and crash schedule.
net::FaultConfig ClientFault(const Case& c, uint32_t i) {
  net::FaultConfig fault = c.fleet.base.fault;
  if (c.fleet.clients <= 1) return fault;
  if (c.client_faults == ClientFaults::kOddClients && i % 2 == 0) return {};
  fault.seed += i;
  return fault;
}

softcache::MultiClientConfig FleetConfig(const Case& c) {
  softcache::MultiClientConfig config = c.fleet;
  for (uint32_t i = 0; config.clients > 1 && i < config.clients; ++i) {
    config.client_faults.push_back(ClientFault(c, i));
  }
  return config;
}

bool Observed(const Case& c) {
  return c.tracing != Tracing::kOff || c.inspect_every != 0;
}

Case Unobserved(Case c) {
  c.tracing = Tracing::kOff;
  c.inspect_every = 0;
  return c;
}

// The same case on the interpreter, on one host thread, unobserved and
// unsliced.
Case AsReference(Case c) {
  c = Unobserved(std::move(c));
  c.engines = Engines::kInterp;
  c.fleet.host_threads = 0;
  c.slice = 0;
  return c;
}

// Client i alone, with its own fault schedule and the default scheduler
// quantum, run as the reference runs. A schedule that injects nothing is
// the default one, whatever its seed.
Case Solo(const Case& c, uint32_t i) {
  Case solo = AsReference(c);
  solo.fleet.base.fault = ClientFault(c, i);
  if (!solo.fleet.base.fault.enabled()) solo.fleet.base.fault = {};
  solo.fleet.clients = Defaults().fleet.clients;
  solo.fleet.quantum_instructions = Defaults().fleet.quantum_instructions;
  solo.client_faults = Defaults().client_faults;
  return solo;
}

// The solo run without link faults or crashes.
Case FaultFree(const Case& c) {
  Case clean = Solo(c, 0);
  clean.fleet.base.fault = {};
  return clean;
}

using Counters = std::map<std::string, uint64_t>;

struct Outcome {
  std::vector<vm::RunResult> results;
  std::vector<std::string> outputs;
  std::vector<uint64_t> wire_bytes;
  std::vector<uint64_t> ticks;  // integrity ticks
  obs::MetricsRegistry::Snapshot metrics;
  Counters counters;
  std::vector<std::string> violations;  // R4
};

Outcome Execute(const Program& p, const Case& c) {
  const softcache::MultiClientConfig config = FleetConfig(c);
  obs::Tracer global;
  if (c.tracing == Tracing::kGlobal) global.Enable(kTraceRing);
  obs::TracerScope scope(c.tracing == Tracing::kGlobal ? &global
                                                        : obs::tracer());
  softcache::MultiClientSystem fleet(p.image, config);
  const size_t n = fleet.clients();
  for (size_t i = 0; i < n; ++i) {
    const bool threaded = c.engines == Engines::kThreaded ||
                          (c.engines == Engines::kMixed && i % 2 == 1);
    fleet.machine(i).set_engine(threaded ? vm::Engine::kThreaded
                                         : vm::Engine::kInterp);
    fleet.SetInput(i, p.input);
  }
  obs::TraceMux mux;
  if (c.tracing == Tracing::kLanes) {
    fleet.AttachTraceMux(&mux);
    mux.EnableAll(kTraceRing);
  }
  softcache::Inspector inspector(&fleet);
  uint64_t inspections = 0;
  if (c.inspect_every != 0) {
    fleet.set_inspection_hook(c.inspect_every, [&](uint64_t) {
      std::ostringstream snapshot;
      inspector.WriteJson(snapshot, "periodic");
      ++inspections;
    });
  }
  obs::MetricsRegistry registry;
  fleet.RegisterMetrics(&registry);
  std::unique_ptr<dcache::DataCache> data;
  if (c.dcache) {
    dcache::DCacheConfig dconfig = c.dcache_config;
    dconfig.local_base = fleet.cc(0).local_limit();
    dconfig.fault = config.base.fault;  // the I-cache's crash schedule
    data = std::make_unique<dcache::DataCache>(fleet.machine(0), fleet.mc(),
                                               fleet.channel(0), dconfig);
    if (dconfig.fault.crash_at_cycle != 0) {
      data->transport().set_cycle_source(fleet.machine(0).cycles_counter());
    }
    data->Attach();
  }

  Outcome run;
  const auto note = [&run](const std::string& what) {
    run.violations.push_back("R4: " + what);
  };
  // A sliced run starts with the zero-budget call that only attaches: a
  // step that runs nothing must not move the run.
  if (c.slice != 0) fleet.RunAll(0);
  for (uint64_t budget = c.slice == 0 ? kMaxInstructions : c.slice;;
       budget = std::min(budget + c.slice, kMaxInstructions)) {
    run.results = fleet.RunAll(budget);
    bool resumable = false;
    for (size_t i = 0; i < n; ++i) {
      const vm::RunResult& r = run.results[i];
      if (r.reason != vm::StopReason::kFault) fleet.cc(i).CheckInvariants();
      if (r.reason != vm::StopReason::kInstrLimit) continue;
      resumable = true;
      if (r.instructions != budget) {
        note("client " + std::to_string(i) + " stopped at " +
             std::to_string(r.instructions) + " of a " +
             std::to_string(budget) + " budget");
      }
    }
    if (!resumable || budget == kMaxInstructions) break;
  }
  if (data != nullptr) {
    data->FlushAll();
    if (data->failed()) note("the D-cache session failed");
  }
  if (!fleet.SyncSessions()) note("SyncSessions failed");
  const uint64_t enqueued = fleet.server_loop().stats().requests_enqueued;
  const uint64_t switched = fleet.net_switch().frames_switched();
  if (enqueued != switched) {
    note("the loop admitted " + std::to_string(enqueued) + " of " +
         std::to_string(switched) + " switched frames");
  }

  Counters& k = run.counters;
  for (size_t i = 0; i < n; ++i) {
    const net::FaultConfig& fault = config.client_faults.empty()
                                        ? config.base.fault
                                        : config.client_faults[i];
    const uint32_t epoch =
        fleet.mc().session(static_cast<uint32_t>(i)).epoch();
    if (!fault.crash_enabled() && epoch != 0) {
      note("client " + std::to_string(i) +
           " has no crash schedule but epoch " + std::to_string(epoch));
    }
    run.outputs.push_back(fleet.OutputString(i));
    run.wire_bytes.push_back(fleet.channel(i).stats().total_bytes());
    const softcache::SoftCacheStats& s = fleet.cc(i).stats();
    run.ticks.push_back(s.integrity.ticks);
    k["evictions"] += s.evictions + s.flushes;
    k["retargets"] += fleet.machine(i).sb_stats().retargets;
    k["sb_drops"] += s.integrity.sb_drops;
    k["heals"] += s.integrity.heals;
    k["recoveries"] += s.session.recoveries;
    k["retries"] += s.net.retries;
    k["digest_hits"] += s.shared.digest_hits;
    k["prefetch_hits"] += s.prefetch.hits;
    k["staging_evictions"] += s.prefetch.evictions;
  }
  const softcache::McServerStats& server = fleet.mc().server().stats();
  k["memo_scrubs"] = server.memo_scrubs;
  k["restarts"] = server.restarts;
  k["threaded_fleets"] = n > 1 && config.host_threads > 1;
  k["inspections"] = inspections;
  k["trace_events"] = global.recorded_events();
  for (const obs::TraceMux::Lane& lane : mux.lanes()) {
    k["trace_events"] += lane.tracer.recorded_events();
  }
  run.metrics = registry.TakeSnapshot();
  return run;
}

// ---------------------------------------------------------------------------
// The relations
// ---------------------------------------------------------------------------

struct Verdict {
  std::vector<std::string> violations;
  Counters counters;  // the subject run's
};

template <typename Map>
void DiffMetrics(const Map& a, const Map& b, std::vector<std::string>* out) {
  std::set<std::string> keys;
  for (const auto& [key, value] : a) keys.insert(key);
  for (const auto& [key, value] : b) keys.insert(key);
  for (const std::string& key : keys) {
    if (key.find("_ns") != std::string::npos) continue;
    const auto x = a.find(key);
    const auto y = b.find(key);
    if (x == a.end() || y == b.end() || !(x->second == y->second)) {
      std::ostringstream line;
      line << "R3: metric " << key << " is "
           << (x == a.end() ? std::string("absent") : Show(x->second))
           << " observed, "
           << (y == b.end() ? std::string("absent") : Show(y->second))
           << " unobserved";
      out->push_back(line.str());
    }
  }
}

std::string Reproduction(const Case& c);

// Holds the case being judged; a SC_CHECK inside the system aborts the
// process before any shrinking, so the SIGABRT handler prints it instead.
std::string& AbortNote() {
  static std::string note;
  return note;
}

void PrintAbortNote(int) {
  const std::string& note = AbortNote();
  (void)!write(STDERR_FILENO, note.data(), note.size());
}

Verdict Judge(const Case& c) {
  [[maybe_unused]] static const auto previous =
      std::signal(SIGABRT, PrintAbortNote);
  AbortNote() = "\naborted while judging\n" + Reproduction(c);
  const Program p = Compile(c);
  vm::Machine native;
  native.set_engine(vm::Engine::kInterp);
  native.LoadImage(p.image);
  native.SetInput(p.input);
  const vm::RunResult native_result = native.Run(kMaxInstructions);
  SC_CHECK(native_result.reason == vm::StopReason::kHalted)
      << "the program fails natively: " << native_result.fault_message;
  const std::string native_output = native.OutputString();

  // Each distinct run once: the derived cases often coincide.
  std::map<std::string, Outcome> runs;
  const auto run = [&](const Case& k) -> const Outcome& {
    auto it = runs.find(Spec(k));
    if (it == runs.end()) it = runs.emplace(Spec(k), Execute(p, k)).first;
    return it->second;
  };
  const Outcome& subject = run(c);
  Verdict verdict{{}, subject.counters};
  std::vector<std::string>& v = verdict.violations;
  const auto client = [](size_t i) { return " client " + std::to_string(i); };
  for (size_t i = 0; i < subject.results.size(); ++i) {
    const vm::RunResult& r = subject.results[i];
    if (r.reason != vm::StopReason::kHalted) {
      v.push_back("R1:" + client(i) + " did not halt: " + r.fault_message);
    } else if (r.exit_code != native_result.exit_code) {
      v.push_back("R1:" + client(i) + " exit " + std::to_string(r.exit_code) +
                  ", native " + std::to_string(native_result.exit_code));
    }
    if (subject.outputs[i] != native_output) {
      v.push_back("R1:" + client(i) + " output differs from native");
    }
  }

  // R2: client i against client j of `other`. Instructions always, unless
  // a memory-fault flip keyed on guest cycles may land elsewhere because
  // the cycles differ; cycles, ticks and wire bytes when `timed`.
  const bool cycle_keyed_flips = c.fleet.base.integrity.enabled &&
                                 c.fleet.base.integrity.memfault.at_cycle != 0;
  const auto compare = [&](const char* against, const Outcome& other,
                           size_t i, size_t j, bool timed) {
    const auto differ = [&](const char* what, uint64_t a, uint64_t b) {
      if (a == b) return;
      v.push_back("R2:" + client(i) + " " + what + " " + std::to_string(a) +
                  ", " + against + " " + std::to_string(b));
    };
    if (!timed && cycle_keyed_flips) return;
    const vm::RunResult& s = subject.results[i];
    const vm::RunResult& r = other.results[j];
    differ("instructions", s.instructions, r.instructions);
    if (!timed) return;
    differ("cycles", s.cycles, r.cycles);
    differ("integrity ticks", subject.ticks[i], other.ticks[j]);
    differ("wire bytes", subject.wire_bytes[i], other.wire_bytes[j]);
  };
  // Shared replies couple the clients: digest hits follow what the others
  // fetched first. So a shared-reply fleet is timed against its reference
  // when it runs in the same order, and compares only instructions with a
  // client alone. Any other client is timed against its solo run.
  const bool shared = c.fleet.base.shared_reply && c.fleet.clients > 1;
  const bool reordered = c.fleet.host_threads > 1 || c.slice != 0;
  const Outcome& fault_free = run(FaultFree(c));
  for (size_t i = 0; i < subject.results.size(); ++i) {
    if (shared) compare("reference", run(AsReference(c)), i, i, !reordered);
    compare("solo", run(Solo(c, static_cast<uint32_t>(i))), i, 0, !shared);
    compare("fault-free", fault_free, i, 0, false);
  }

  if (Observed(c) && c.fleet.host_threads <= 1) {
    const Outcome& unobserved = run(Unobserved(c));
    DiffMetrics(subject.metrics.counters, unobserved.metrics.counters, &v);
    DiffMetrics(subject.metrics.gauges, unobserved.metrics.gauges, &v);
  }
  for (const auto& [spec, outcome] : runs) {
    v.insert(v.end(), outcome.violations.begin(), outcome.violations.end());
  }
  AbortNote().clear();
  return verdict;
}

// ---------------------------------------------------------------------------
// Shrinking and reproduction
// ---------------------------------------------------------------------------

std::vector<std::string> NonDefaultFields(const Case& c) {
  std::vector<std::string> names;
  for (const Field& field : Fields()) {
    if (!field.is_default(c)) names.push_back(field.name);
  }
  return names;
}

// Resets one field at a time to its default while the case still fails,
// then cuts a generated program to the fewest functions that still fail.
Case Shrink(Case c, const std::function<bool(const Case&)>& fails) {
  for (const Field& field : Fields()) {
    if (field.is_default(c)) continue;
    Case trial = c;
    field.reset(trial);
    if (fails(trial)) c = std::move(trial);
  }
  if (c.workload.empty()) {
    const int drawn = Compile(c).functions;
    for (int functions = 1; functions < drawn; ++functions) {
      Case trial = c;
      trial.functions = functions;
      if (fails(trial)) {
        c = std::move(trial);
        break;
      }
    }
  }
  return c;
}

// The srun command for the fields that have flags (the rest are listed).
std::string SrunLine(const Case& c) {
  const softcache::SoftCacheConfig& b = c.fleet.base;
  const softcache::MemFaultConfig& mf = b.integrity.memfault;
  const net::FaultConfig& f = b.fault;
  std::ostringstream s;
  s << "srun " << (c.workload.empty() ? "gen.mc" : "--workload=" + c.workload)
    << " --softcache --tcache=" << b.tcache_bytes;  // srun's default differs
  if (b.style == Style::kArm) s << " --style=arm";
  if (b.max_trace_blocks != 1) s << " --trace-blocks=" << b.max_trace_blocks;
  if (b.evict == EvictPolicy::kFlushAll) s << " --evict=flush";
  if (b.prefetch.policy == PrefetchPolicy::kNextN) s << " --prefetch=nextn";
  if (b.integrity.enabled && mf.enabled()) {
    s << " --memfaults=seed=" << mf.seed << ",rate=" << mf.rate
      << ",after=" << mf.after << ",period=" << mf.period
      << ",at-cycle=" << mf.at_cycle;
  }
  if (b.integrity.enabled) s << " --scrub-every=" << b.integrity.scrub_every;
  if (f.seed != 1) s << " --fault-seed=" << f.seed;
  if (f.crash != 0) s << " --crash-rate=" << f.crash;
  if (f.crash_after_requests != 0) {
    s << " --crash-after=" << f.crash_after_requests;
  }
  if (f.crash_period != 0) s << " --crash-period=" << f.crash_period;
  if (f.crash_at_cycle != 0) s << " --crash-at-cycle=" << f.crash_at_cycle;
  if (c.fleet.clients > 1) s << " --clients=" << c.fleet.clients;
  if (b.shared_reply && c.fleet.clients > 1) s << " --shared-reply";
  if (c.fleet.server.shards != 1) s << " --shards=" << c.fleet.server.shards;
  if (c.fleet.host_threads > 1) s << " --threads=" << c.fleet.host_threads;
  if (c.engines != Engines::kMixed) {
    s << " --engine="
      << (c.engines == Engines::kThreaded ? "threaded" : "interp");
  }
  if (c.tracing != Tracing::kOff) s << " --trace=trace.json";
  if (c.inspect_every != 0) s << " --inspect-every=" << c.inspect_every;
  if (Observed(c)) s << " --metrics=metrics.json";
  if (c.dcache) s << " --dcache";
  return s.str();
}

std::string Reproduction(const Case& c) {
  static const char* const kFamilies[] = {"any", "computed-jumps", "dcache",
                                          "dcache-tight"};
  std::ostringstream out;
  out << "oracle case: family " << kFamilies[static_cast<int>(c.family)]
      << ", seed " << c.seed << "\n  Parse(\"" << Spec(c) << "\")\n  "
      << SrunLine(c) << "\n";
  return out.str();
}

// Judges `c`; on a violation, shrinks it and fails with the violations and
// the minimal case's reproduction. Returns the subject run's counters.
Counters ExpectInvisible(const Case& c) {
  Verdict verdict = Judge(c);
  if (verdict.violations.empty()) return verdict.counters;
  const Case small =
      Shrink(c, [](const Case& t) { return !Judge(t).violations.empty(); });
  std::ostringstream report;
  for (const std::string& line : verdict.violations) report << line << "\n";
  report << "shrunk to:\n" << Reproduction(small);
  for (const std::string& line : Judge(small).violations) {
    report << "  " << line << "\n";
  }
  if (small.workload.empty()) report << "gen.mc:\n" << Compile(small).source;
  ADD_FAILURE() << report.str();
  return verdict.counters;
}

// ---------------------------------------------------------------------------
// The tier-1 seed set: four families x 20 parameters x SOFTCACHE_TEST_SEEDS
// ---------------------------------------------------------------------------

constexpr int kParams = 20;

class RandomProgramTest : public ::testing::TestWithParam<int> {
 protected:
  // This parameter's seeds: GetParam(), then every kParams-th after it.
  void JudgeSeeds(Family family) {
    for (int i = 0; i < testing::TestSeeds() && !HasFailure(); ++i) {
      ExpectInvisible(Draw(static_cast<uint64_t>(GetParam() + i * kParams),
                           family));
    }
  }
};

TEST_P(RandomProgramTest, SoftCacheMatchesNativeEverywhere) {
  JudgeSeeds(Family::kAny);
}

TEST_P(RandomProgramTest, ComputedJumpProgramsMatchUnderSparc) {
  JudgeSeeds(Family::kComputedJumps);
}

TEST_P(RandomProgramTest, DcacheMatchesNative) {
  JudgeSeeds(Family::kDcache);
}

TEST_P(RandomProgramTest, CombinedIcacheAndDcacheMatchesNative) {
  JudgeSeeds(Family::kDcacheTight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(1, 21));

// Over the tier-1 seeds (one per parameter), every field is non-default in
// at least three draws and every mechanism the relations are meant to
// cover actually ran at least once.
TEST(OracleLedger, TierOneSeedsCoverTheSpace) {
  // Cheapest family first: the counter loop below stops at the first
  // prefix of runs that moved everything.
  std::vector<Case> cases;
  for (Family family : {Family::kComputedJumps, Family::kAny, Family::kDcache,
                        Family::kDcacheTight}) {
    for (int param = 1; param <= kParams; ++param) {
      cases.push_back(Draw(static_cast<uint64_t>(param), family));
    }
  }
  for (const Field& field : Fields()) {
    const auto draws = std::count_if(cases.begin(), cases.end(),
                                     [&](const Case& c) {
                                       return !field.is_default(c);
                                     });
    EXPECT_GE(draws, 3) << field.name;
  }
  static const char* const kMoved[] = {
      "evictions",   "retargets",     "sb_drops",          "heals",
      "memo_scrubs", "restarts",      "recoveries",        "retries",
      "digest_hits", "prefetch_hits", "staging_evictions", "threaded_fleets",
      "inspections", "trace_events"};
  Counters moved;
  const auto all_moved = [&] {
    return std::all_of(std::begin(kMoved), std::end(kMoved),
                       [&](const char* name) { return moved[name] > 0; });
  };
  for (const Case& c : cases) {
    if (all_moved()) break;
    for (const auto& [name, value] : Execute(Compile(c), c).counters) {
      moved[name] += value;
    }
  }
  for (const char* name : kMoved) EXPECT_GT(moved[name], 0u) << name;

  // Configurations that deleted pinned cases ran by name: the threaded
  // engine under eviction churn, and on compress95.
  const auto threaded = [](const Case& c) {
    return c.engines != Engines::kInterp;
  };
  EXPECT_TRUE(std::any_of(cases.begin(), cases.end(), [&](const Case& c) {
    return threaded(c) && c.fleet.base.tcache_bytes <= 2048;
  })) << "threaded, tcache <= 2 KB";
  EXPECT_TRUE(std::any_of(cases.begin(), cases.end(), [&](const Case& c) {
    return threaded(c) && c.workload == "compress95";
  })) << "threaded compress95";
}

// The shrinker against a synthetic failure: "fails iff two or more shards
// serve a prefetching client" must shrink to exactly those two fields.
TEST(OracleShrinker, LeavesExactlyTheFailingFields) {
  const auto fails = [](const Case& c) {
    return c.fleet.server.shards >= 2 &&
           c.fleet.base.prefetch.policy == PrefetchPolicy::kNextN;
  };
  Case c;
  for (uint64_t seed = 1; seed <= kParams; ++seed) {
    const Case draw = Draw(seed, Family::kAny);
    if (NonDefaultFields(draw).size() > NonDefaultFields(c).size()) c = draw;
  }
  c.fleet.server.shards = 2;
  c.fleet.base.prefetch.policy = PrefetchPolicy::kNextN;
  ASSERT_GT(NonDefaultFields(c).size(), 12u);
  const Case small = Shrink(c, fails);
  EXPECT_EQ(NonDefaultFields(small),
            (std::vector<std::string>{"prefetch.policy", "server.shards"}));
  EXPECT_EQ(small.functions, 1);
  const std::string line = SrunLine(small);
  EXPECT_NE(line.find(" --shards=2"), std::string::npos) << line;
  EXPECT_NE(line.find(" --prefetch=nextn"), std::string::npos) << line;
  EXPECT_EQ(Spec(Parse(Spec(c))), Spec(c));  // a printed case replays
  const std::string repro = Reproduction(small);
  EXPECT_NE(repro.find("seed " + std::to_string(c.seed)), std::string::npos)
      << repro;
  EXPECT_NE(repro.find(line), std::string::npos) << repro;
}

// ---------------------------------------------------------------------------
// Pinned cases, in the form a failure prints: points the tier-1 draws do
// not reach, the oracle's regression cases, and the configurations of the
// hand-written identity tests the oracle replaced, under those tests'
// names. A name whose configuration the tier-1 draws cover goes, with the
// OracleLedger check that shows it. Enums are numbers: engines 1
// threaded, 2 mixed; style 1 arm; prefetch.policy 1 next-N; tracing 1
// lanes, 2 one solo tracer.
// ---------------------------------------------------------------------------

Counters ExpectPinned(const std::string& spec) {
  return ExpectInvisible(Parse(spec));
}

// The threaded engine on the workloads tier-1 draws never run threaded
// (gzip, cjpeg and sha256 are never drawn), under both styles; compress95
// is drawn threaded (OracleLedger checks it) and is not pinned here.
TEST(EngineDifferential, WorkloadsSoftcacheSparc) {
  for (std::string workload :
       {"adpcm_enc", "gzip", "cjpeg", "hextobdd", "sha256"}) {
    ExpectPinned("engines=1 tcache_bytes=16384 workload=" + workload);
  }
}

TEST(EngineDifferential, WorkloadsSoftcacheArm) {
  for (std::string workload : {"sha256", "gzip"}) {
    ExpectPinned("engines=1 style=1 tcache_bytes=32768 workload=" + workload);
  }
}

TEST(EngineDifferential, RecoveryCrashSchedule) {
  ExpectPinned(
      "engines=1 tcache_bytes=4096 workload=dijkstra fault.seed=7 "
      "fault.crash_period=5");
}

TEST(EngineDifferential, MultiClientThreaded) {
  ExpectPinned("engines=1 tcache_bytes=8192 workload=dijkstra clients=4");
}

class EngineRandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomProgramTest, NativeAndSoftcacheBitIdentical) {
  ExpectPinned("engines=1 tcache_bytes=2048 sparc_only=1 program_seed=" +
               std::to_string(GetParam() ^ 0xe7617e));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomProgramTest,
                         ::testing::Range(1, 11));

// An unbounded memory-fault storm over generated program `seed`.
std::string Storm(int seed, const std::string& rate) {
  const std::string s = std::to_string(seed);
  return "engines=1 tcache_bytes=6144 integrity.enabled=1 "
         "integrity.scrub_every=4 integrity.max_heal_attempts=0 program_seed=" +
         s + " integrity.memfault.seed=" + s +
         " integrity.memfault.rate=" + rate;
}

TEST(Integrity, StormBitIdenticalAcrossEngines) {
  ExpectPinned(Storm(13, "0.25") + " quantum=4096");
}

TEST(Integrity, StormIdenticalAcrossEnginesAndSchedulers) {
  ExpectPinned(Storm(23, "0.2") +
               " engines=2 clients=4 host_threads=3 server.memfault.seed=29 "
               "server.memfault.rate=0.05");
}

// Found by the oracle: a budget slice that ended inside an integrity
// quantum shifted every later tick, so a sliced run scrubbed (and under a
// storm, flipped) at other instructions than an unsliced one.
TEST(Integrity, SlicedRunTicksLikeUnsliced) {
  ExpectPinned("tcache_bytes=24576 integrity.enabled=1 slice=777 "
               "program_seed=29884");
}

// A step that runs nothing (RunAll(0), which only attaches, or a spent
// budget) sits on a quantum boundary without reaching it: it must not
// tick again.
TEST(Integrity, ZeroBudgetStepDoesNotTick) {
  ExpectPinned(Storm(13, "0.25") + " slice=5000");
}

// Found by the oracle: a storm flip quarantined the block the return
// register pointed into while a callee's prologue had saved ra but not yet
// moved fp. The stack walk fixed ra, not the saved copy, and the epilogue
// returned into the freed block (an SC_CHECK abort on a dead miss stub).
TEST(Integrity, QuarantineFixesThePrologueSavedReturn) {
  ExpectPinned(
      "tcache_bytes=1024 workload=hextobdd integrity.enabled=1 "
      "integrity.scrub_every=4 integrity.memfault.seed=540 "
      "integrity.memfault.rate=0.05 integrity.memfault.after=10");
}

class CrashRecoveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashRecoveryWorkload, BitIdenticalUnderPeriodicCrashes) {
  const Counters k = ExpectPinned(
      "tcache_bytes=16384 fault.seed=7 fault.crash_period=16 workload=" +
      GetParam());
  EXPECT_LE(k.at("recoveries"), k.at("restarts"));
}

TEST_P(CrashRecoveryWorkload, BitIdenticalUnderSeededRandomCrashes) {
  ExpectPinned("tcache_bytes=16384 fault.seed=7 fault.crash=0.03 workload=" +
               GetParam());
}

INSTANTIATE_TEST_SUITE_P(Workloads, CrashRecoveryWorkload,
                         ::testing::Values("adpcm_enc", "compress95",
                                           "hextobdd", "sha256"),
                         [](const auto& p) { return p.param; });

TEST(CrashRecoveryPrefetch, BatchedRepliesSurviveCrashes) {
  ExpectPinned(
      "tcache_bytes=16384 workload=hextobdd prefetch.policy=1 fault.seed=7 "
      "fault.crash_period=16");
}

TEST(CrashRecoveryDcache, CombinedIcacheDcacheCrashesStayIdentical) {
  ExpectPinned(
      "tcache_bytes=16384 workload=adpcm_enc fault.seed=7 "
      "fault.crash_period=64 dcache=1");
}

TEST(SharedReplyFleet, HostThreadedRunStaysSoloIdentical) {
  ExpectPinned(
      "tcache_bytes=8192 workload=dijkstra shared_reply=1 clients=4 "
      "host_threads=4");
}

TEST(FleetObservability, FullObservabilityDoesNotPerturbEitherEngine) {
  for (std::string engines : {"0", "1"}) {
    for (std::string threads : {"0", "4"}) {
      ExpectPinned(
          "tcache_bytes=8192 program_seed=3 clients=4 tracing=1 "
          "inspect_every=100000 engines=" +
          engines + " host_threads=" + threads);
    }
  }
}

TEST(Observability, TracingDoesNotPerturbTheRun) {
  ExpectPinned(
      "tcache_bytes=2048 workload=dijkstra style=1 prefetch.policy=1 "
      "tracing=2");
}

class RunAllResume : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RunAllResume, SlicedRunAllEqualsOneRunAll) {
  ExpectPinned("tcache_bytes=4096 workload=adpcm_enc clients=2 slice=1000 "
               "host_threads=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Schedulers, RunAllResume, ::testing::Values(0u, 2u),
                         [](const auto& param_info) {
                           return "host_threads_" +
                                  std::to_string(param_info.param);
                         });

const std::string kPrefetching =
    "tcache_bytes=24576 program_seed=11 prefetch.policy=1";

TEST(PrefetchEquivalence, SparcNextN) { ExpectPinned(kPrefetching); }

TEST(PrefetchEquivalence, ArmProcedureChunks) {
  ExpectPinned(kPrefetching + " style=1");
}

TEST(PrefetchFaulty, BatchedRepliesSurviveDropCorruptDuplicate) {
  ExpectPinned(kPrefetching +
               " fault.seed=42 fault.drop=0.2 fault.corrupt=0.15 "
               "fault.duplicate=0.15");
}

TEST(PrefetchStaging, TinyBufferEvictsAndStaysCorrect) {
  ExpectPinned(kPrefetching + " prefetch.staging_bytes=96");
}

TEST(PrefetchStaging, EvictionPressureUnderSmallTcache) {
  ExpectPinned(kPrefetching + " tcache_bytes=1024");
}

}  // namespace
}  // namespace sc
