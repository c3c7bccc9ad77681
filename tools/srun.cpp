// srun — run a program natively or under the software cache.
//
//   srun program.img                         run directly ("ideal")
//   srun program.mc                          .mc sources compile on the fly
//   srun p.img --softcache --tcache=8192     run under the software I-cache
//   srun p.img --softcache --style=arm       procedure-chunk prototype
//   srun p.img --softcache --dcache          attach the software D-cache
//   srun p.img --input=file --stats --profile
//   srun --workload=dijkstra --softcache
//        --trace=out.json --metrics=m.json   built-in workload, observed
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "dcache/dcache.h"
#include "image/image.h"
#include "minicc/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_mux.h"
#include "profile/profiler.h"
#include "softcache/inspector.h"
#include "softcache/system.h"
#include "tools/tool_util.h"
#include "util/stats.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

using namespace sc;

namespace {

void PrintSoftCacheStats(softcache::SoftCacheSystem& system,
                         const vm::RunResult& result) {
  const auto& stats = system.stats();
  const auto& net = system.channel().stats();
  std::fprintf(stderr, "--- softcache stats ---\n");
  std::fprintf(stderr, "instructions:       %llu\n",
               (unsigned long long)result.instructions);
  std::fprintf(stderr, "cycles:             %llu\n",
               (unsigned long long)result.cycles);
  std::fprintf(stderr, "blocks translated:  %llu\n",
               (unsigned long long)stats.blocks_translated);
  std::fprintf(stderr, "patch-only misses:  %llu\n",
               (unsigned long long)stats.patch_only_misses);
  std::fprintf(stderr, "hash lookups:       %llu (%llu translated)\n",
               (unsigned long long)stats.hash_lookups,
               (unsigned long long)stats.hash_lookup_misses);
  std::fprintf(stderr, "evictions/flushes:  %llu / %llu\n",
               (unsigned long long)stats.evictions,
               (unsigned long long)stats.flushes);
  std::fprintf(stderr, "ra fixups:          %llu (%llu frames walked)\n",
               (unsigned long long)stats.return_addr_fixups,
               (unsigned long long)stats.stack_walk_frames);
  std::fprintf(stderr, "miss cycles:        %llu (%.2f%% of run)\n",
               (unsigned long long)stats.miss_cycles,
               100.0 * (double)stats.miss_cycles / (double)result.cycles);
  std::fprintf(stderr, "tcache peak:        %s\n",
               util::HumanBytes(stats.tcache_bytes_used_peak).c_str());
  std::fprintf(stderr, "network:            %llu msgs, %s\n",
               (unsigned long long)net.total_messages(),
               util::HumanBytes(net.total_bytes()).c_str());
  const auto& integrity = stats.integrity;
  if (integrity.ticks != 0) {
    std::fprintf(stderr,
                 "integrity:          %llu ticks, %llu flips, %llu detected, "
                 "%llu heals, %llu scrubs (%llu words)\n",
                 (unsigned long long)integrity.ticks,
                 (unsigned long long)integrity.flips_injected,
                 (unsigned long long)integrity.corruptions_detected,
                 (unsigned long long)integrity.heals,
                 (unsigned long long)integrity.scrubs,
                 (unsigned long long)integrity.scrubbed_words);
  }
}

// Parses a --memfaults spec: comma-separated knob=value pairs out of
// {rate, period, after, at-cycle, seed}, e.g.
// --memfaults=rate=0.001,seed=7. Returns false with `error` set on any
// unknown knob or malformed value.
bool ParseMemFaults(const std::string& spec, softcache::MemFaultConfig* out,
                    std::string* error) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string pair = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      *error = "expected knob=value, got '" + pair + "'";
      return false;
    }
    const std::string knob = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    char* end = nullptr;
    if (knob == "rate") {
      out->rate = std::strtod(value.c_str(), &end);
    } else if (knob == "period") {
      out->period = std::strtoull(value.c_str(), &end, 10);
    } else if (knob == "after") {
      out->after = std::strtoull(value.c_str(), &end, 10);
    } else if (knob == "at-cycle") {
      out->at_cycle = std::strtoull(value.c_str(), &end, 10);
    } else if (knob == "seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else {
      *error = "unknown knob '" + knob + "'";
      return false;
    }
    if (end == value.c_str() || *end != '\0') {
      *error = "malformed value '" + value + "' for " + knob;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  const std::string unknown = args.FirstUnknown(
      {"softcache", "style", "tcache", "trace-blocks", "evict", "dcache",
       "input", "stats", "profile", "max-instr", "dump-tcache", "help",
       "workload", "scale", "prefetch", "trace", "metrics", "crash-period",
       "crash-after", "crash-rate", "crash-at-cycle", "fault-seed", "clients",
       "verify", "shared-reply", "shards", "threads", "engine",
       "inspect", "inspect-every", "memfaults", "scrub-every"});
  const bool use_workload = args.Has("workload");
  const size_t want_positional = use_workload ? 0 : 1;
  if (!unknown.empty() || args.Has("help") ||
      args.positional().size() != want_positional) {
    if (!unknown.empty()) std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    std::fprintf(stderr,
                 "usage: srun <program.img|program.mc> [--input=FILE]\n"
                 "            [--softcache] [--style=sparc|arm] [--tcache=N]\n"
                 "            [--trace-blocks=N] [--evict=fifo|flush] [--dcache]\n"
                 "            [--stats] [--profile] [--max-instr=N]\n"
                 "            [--engine=interp|threaded]  VM execution engine\n"
                 "                 (default: SOFTCACHE_ENGINE env or interp)\n"
                 "       srun --workload=NAME [--scale=N] (instead of a program)\n"
                 "observability (softcache runs):\n"
                 "            [--prefetch=off|nextn]\n"
                 "            [--trace=FILE]    Chrome trace-event JSON (fleet\n"
                 "                              runs merge per-agent lanes)\n"
                 "            [--metrics=FILE]  metrics registry JSON\n"
                 "            [--inspect=FILE]  cache-state snapshot on exit\n"
                 "                              (sctop renders it)\n"
                 "            [--inspect-every=N]  also snapshot every N guest\n"
                 "                              cycles to FILE.<seq>\n"
                 "memory-fault injection (softcache runs; self-healing cache):\n"
                 "            [--memfaults=rate=R,period=N,after=N,\n"
                 "                         at-cycle=C,seed=S]\n"
                 "                 seeded bit flips into cached state (tcache,\n"
                 "                 staged chunks, content store, superblocks,\n"
                 "                 server memo); enables integrity checking\n"
                 "            [--scrub-every=N]    background integrity scrub\n"
                 "                 every N integrity ticks (also enables\n"
                 "                 integrity checking; default 8)\n"
                 "crash injection (softcache runs; server restarts + recovery):\n"
                 "            [--crash-period=N]   MC crashes every Nth request\n"
                 "            [--crash-after=N]    MC crashes once on request N\n"
                 "            [--crash-rate=P]     per-request crash probability\n"
                 "            [--crash-at-cycle=C] MC crashes once at cycle C\n"
                 "            [--fault-seed=S]     crash schedule RNG seed\n"
                 "multi-client (softcache runs; one MC, N cache controllers):\n"
                 "            [--clients=N]        N guests share one MC (1..%u)\n"
                 "            [--shared-reply]     content-addressed coalesced\n"
                 "                                 replies (broadcast snooping)\n"
                 "            [--shards=N]         server memo/translate shards\n"
                 "                                 (each frame's client thread\n"
                 "                                 services its shard's lane)\n"
                 "            [--threads=N]        host threads for client VMs\n"
                 "                                 (1, the default, steps them\n"
                 "                                 in deterministic guest-time\n"
                 "                                 order)\n"
                 "            [--verify]           re-run each client solo and\n"
                 "                                 check bit-identical behavior\n",
                 static_cast<unsigned>(softcache::kMaxClients));
    return 2;
  }

  // Load or compile the program.
  image::Image img;
  std::vector<uint8_t> input;
  if (use_workload) {
    const auto* spec = workloads::FindWorkload(args.Get("workload"));
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", args.Get("workload").c_str());
      return 1;
    }
    img = workloads::CompileWorkload(*spec);
    input = workloads::MakeInput(spec->name,
                                 static_cast<int>(args.GetInt("scale", 1)));
  } else {
    const std::string path = args.positional()[0];
    if (path.size() > 3 && path.substr(path.size() - 3) == ".mc") {
      const auto source = tools::ReadFile(path);
      if (!source) return 1;
      auto compiled = minicc::CompileMiniC(*source, path);
      if (!compiled.ok()) {
        std::fprintf(stderr, "%s\n", compiled.error().ToString().c_str());
        return 1;
      }
      img = std::move(*compiled);
    } else {
      const auto bytes = tools::ReadFileBytes(path);
      if (!bytes) return 1;
      auto parsed = image::Image::Deserialize(*bytes);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.error().ToString().c_str());
        return 1;
      }
      img = std::move(*parsed);
    }
  }

  if (args.Has("input")) {
    auto bytes = tools::ReadFileBytes(args.Get("input"));
    if (!bytes) return 1;
    input = std::move(*bytes);
  }
  const uint64_t max_instr = args.GetInt("max-instr", UINT64_MAX);

  const std::string engine_name = args.Get("engine", "");
  vm::Engine engine = vm::DefaultEngine();
  if (engine_name == "interp") {
    engine = vm::Engine::kInterp;
  } else if (engine_name == "threaded") {
    engine = vm::Engine::kThreaded;
  } else if (!engine_name.empty()) {
    std::fprintf(stderr, "unknown engine %s (interp|threaded)\n",
                 engine_name.c_str());
    return 2;
  }

  if (!args.Has("softcache")) {
    // Direct ("ideal") execution, optionally profiled.
    vm::Machine machine;
    machine.set_engine(engine);
    machine.LoadImage(img);
    machine.SetInput(std::move(input));
    profile::Profiler profiler(img);
    if (args.Has("profile")) machine.set_fetch_observer(&profiler);
    const vm::RunResult result = machine.Run(max_instr);
    std::fwrite(machine.output().data(), 1, machine.output().size(), stdout);
    if (result.reason == vm::StopReason::kFault) {
      std::fprintf(stderr, "fault: %s\n", result.fault_message.c_str());
      return 1;
    }
    if (args.Has("stats")) {
      std::fprintf(stderr, "--- run stats ---\ninstructions: %llu\ncycles: %llu\n",
                   (unsigned long long)result.instructions,
                   (unsigned long long)result.cycles);
    }
    if (args.Has("profile")) {
      std::fprintf(stderr, "--- profile (top 10) ---\n");
      int shown = 0;
      for (const auto& fn : profiler.Report()) {
        if (fn.samples == 0 || shown++ >= 10) break;
        std::fprintf(stderr, "%6.2f%% %8llu  %s\n",
                     100.0 * (double)fn.samples / (double)profiler.total_samples(),
                     (unsigned long long)fn.samples, fn.name.c_str());
      }
      std::fprintf(stderr, "dynamic text: %s of %s\n",
                   util::HumanBytes(profiler.DynamicTextBytes()).c_str(),
                   util::HumanBytes(profiler.StaticTextBytes()).c_str());
    }
    return result.exit_code & 0xff;
  }

  // Software-cached execution.
  softcache::SoftCacheConfig config;
  config.style = args.Get("style", "sparc") == "arm" ? softcache::Style::kArm
                                                     : softcache::Style::kSparc;
  config.tcache_bytes = static_cast<uint32_t>(args.GetInt("tcache", 16 * 1024));
  config.max_trace_blocks = static_cast<uint32_t>(args.GetInt("trace-blocks", 1));
  config.evict = args.Get("evict", "fifo") == "flush"
                     ? softcache::EvictPolicy::kFlushAll
                     : softcache::EvictPolicy::kFifoRing;
  const std::string prefetch = args.Get("prefetch", "off");
  if (prefetch == "nextn") {
    config.prefetch.policy = softcache::PrefetchPolicy::kNextN;
  } else if (prefetch != "off") {
    std::fprintf(stderr, "unknown prefetch policy %s\n", prefetch.c_str());
    return 2;
  }
  config.fault.seed = args.GetInt("fault-seed", 1);
  config.fault.crash_period = args.GetInt("crash-period", 0);
  config.fault.crash_after_requests = args.GetInt("crash-after", 0);
  config.fault.crash_at_cycle = args.GetInt("crash-at-cycle", 0);
  config.fault.crash = std::strtod(args.Get("crash-rate", "0").c_str(), nullptr);

  // Integrity fault domain: either flag turns on digest stamping,
  // verify-on-use and the background scrub; --memfaults adds the storm.
  if (args.Has("memfaults")) {
    std::string error;
    if (!ParseMemFaults(args.Get("memfaults"), &config.integrity.memfault,
                        &error)) {
      std::fprintf(stderr, "--memfaults: %s\n", error.c_str());
      return 2;
    }
    config.integrity.enabled = true;
  }
  if (args.Has("scrub-every")) {
    config.integrity.scrub_every =
        static_cast<uint32_t>(args.GetInt("scrub-every", 8));
    config.integrity.enabled = true;
  }

  // Validate the fleet size up front: an out-of-range --clients is a usage
  // error reported on stderr, never an assert deep inside the system.
  const int64_t clients_arg = static_cast<int64_t>(args.GetInt("clients", 1));
  std::string clients_error;
  if (!softcache::ValidateClientCount(clients_arg, &clients_error)) {
    std::fprintf(stderr, "--clients=%lld: %s\n",
                 static_cast<long long>(clients_arg), clients_error.c_str());
    return 2;
  }
  const uint32_t n_clients = static_cast<uint32_t>(clients_arg);

  // Same pattern for --shards: a usage error (exit 2), never a silent clamp.
  const int64_t shards_arg = static_cast<int64_t>(args.GetInt("shards", 1));
  std::string shards_error;
  if (!softcache::ValidateShardCount(shards_arg, &shards_error)) {
    std::fprintf(stderr, "--shards=%lld: %s\n",
                 static_cast<long long>(shards_arg), shards_error.c_str());
    return 2;
  }

  // Install the single-system tracer before the system exists so
  // construction-time events are captured and the system can bind its cycle
  // clock. Fleet runs use per-agent lanes (TraceMux) instead.
  obs::Tracer tracer;
  if (args.Has("trace") && n_clients == 1) {
    tracer.Enable();
    obs::SetTracer(&tracer);
  }

  // Live inspection: --inspect names the final snapshot file; a nonzero
  // --inspect-every additionally snapshots the running fleet every N guest
  // cycles into FILE.<seq> (defaulting FILE when only the period is given).
  const uint64_t inspect_every =
      static_cast<uint64_t>(args.GetInt("inspect-every", 0));
  std::string inspect_path = args.Get("inspect", "");
  if (inspect_path.empty() && inspect_every != 0) inspect_path = "inspect.json";

  if (n_clients > 1) {
    if (args.Has("dcache") || args.Has("profile") || args.Has("dump-tcache")) {
      std::fprintf(stderr,
                   "--dcache/--profile/--dump-tcache are single-client only\n");
      return 2;
    }
    softcache::MultiClientConfig mcfg;
    mcfg.clients = n_clients;
    mcfg.base = config;
    mcfg.base.shared_reply = args.Has("shared-reply");
    mcfg.server.shards = static_cast<uint32_t>(shards_arg);
    // The server memo rides the same fault schedule (its own salted RNG
    // stream), so --memfaults storms every layer of the stack at once.
    mcfg.server.memfault = config.integrity.memfault;
    mcfg.host_threads = static_cast<uint32_t>(args.GetInt("threads", 1));
    for (uint32_t i = 0; i < n_clients; ++i) {
      net::FaultConfig fault = config.fault;
      fault.seed = config.fault.seed + i;  // distinct schedule per client
      mcfg.client_faults.push_back(fault);
    }
    softcache::MultiClientSystem fleet(img, mcfg);
    for (uint32_t i = 0; i < n_clients; ++i) {
      fleet.machine(i).set_engine(engine);
      fleet.SetInput(i, input);
    }
    obs::TraceMux mux;
    if (args.Has("trace")) {
      fleet.AttachTraceMux(&mux);
      mux.EnableAll();
    }
    softcache::Inspector inspector(&fleet);
    uint32_t quarantine_snaps = 0;
    if (!inspect_path.empty() && config.integrity.enabled &&
        mcfg.host_threads <= 1) {
      // Freeze the post-quarantine cache state next to the regular
      // snapshots (sctop diffs them against the final/healed snapshot).
      // Capped so a corruption storm cannot flood the directory; skipped
      // under --threads, where a worker thread cannot quiesce the fleet.
      for (uint32_t i = 0; i < n_clients; ++i) {
        fleet.cc(i).set_quarantine_hook([&](uint32_t) {
          if (quarantine_snaps >= 8) return;
          inspector.WriteFile(
              inspect_path + ".q" + std::to_string(quarantine_snaps++),
              "quarantine");
        });
      }
    }
    if (!inspect_path.empty()) {
      if (inspect_every != 0) {
        fleet.set_inspection_hook(inspect_every, [&](uint64_t) {
          inspector.WriteFile(
              inspect_path + "." + std::to_string(inspector.snapshots_taken()),
              "periodic");
        });
      }
      // Crash recoveries snapshot server-side state from the exclusive
      // section (the rest of the fleet keeps running).
      fleet.set_recovery_hook([&](uint32_t) {
        inspector.WriteFile(
            inspect_path + "." + std::to_string(inspector.snapshots_taken()),
            "recovery", softcache::Inspector::Scope::kServerOnly);
      });
    }
    obs::MetricsRegistry registry;
    if (args.Has("metrics")) {
      fleet.RegisterMetrics(&registry);
      // Lane truncation shows up in the metrics JSON, not just on stderr.
      if (args.Has("trace")) mux.RegisterMetrics(&registry);
    }
    const std::vector<vm::RunResult> results = fleet.RunAll(max_instr);
    if (args.Has("trace")) {
      std::ofstream out_file(args.Get("trace"));
      if (!out_file) {
        std::fprintf(stderr, "cannot write %s\n", args.Get("trace").c_str());
        return 1;
      }
      mux.ExportChromeJson(out_file);
    }
    if (args.Has("metrics")) {
      std::ofstream out_file(args.Get("metrics"));
      if (!out_file) {
        std::fprintf(stderr, "cannot write %s\n", args.Get("metrics").c_str());
        return 1;
      }
      out_file << registry.ToJson() << "\n";
    }
    bool ok = true;
    for (uint32_t i = 0; i < n_clients; ++i) {
      if (results[i].reason == vm::StopReason::kFault) {
        std::fprintf(stderr, "fault (client %u): %s\n", i,
                     results[i].fault_message.c_str());
        ok = false;
      }
    }
    if (config.fault.crash_enabled() && !fleet.SyncSessions()) {
      std::fprintf(stderr, "fault: a client session failed to synchronize\n");
      ok = false;
    }
    if (!inspect_path.empty()) {
      // The final snapshot always lands at the named path; a faulted run
      // additionally freezes the at-fault state next to it.
      if (!ok) inspector.WriteFile(inspect_path + ".fault", "fault");
      inspector.WriteFile(inspect_path, "final");
    }
    if (ok && args.Has("verify")) {
      // Re-run every client alone against its own private MC with the same
      // fault schedule; sharing must not change guest-visible behavior.
      for (uint32_t i = 0; i < n_clients; ++i) {
        softcache::SoftCacheConfig solo = config;
        solo.fault = mcfg.client_faults[i];
        softcache::SoftCacheSystem ref(img, solo);
        ref.SetInput(input);
        const vm::RunResult r = ref.Run(max_instr);
        if (solo.fault.crash_enabled() && !ref.cc().SyncSession()) {
          std::fprintf(stderr, "verify: solo run %u failed to synchronize\n", i);
          ok = false;
          continue;
        }
        if (r.exit_code != results[i].exit_code ||
            r.instructions != results[i].instructions ||
            ref.OutputString() != fleet.OutputString(i)) {
          std::fprintf(stderr,
                       "verify: client %u diverged from its solo run "
                       "(exit %d vs %d, %llu vs %llu instrs)\n",
                       i, results[i].exit_code, r.exit_code,
                       (unsigned long long)results[i].instructions,
                       (unsigned long long)r.instructions);
          ok = false;
        }
      }
      if (ok) {
        std::fprintf(stderr, "verify: %u clients bit-identical to solo runs\n",
                     n_clients);
      }
    }
    if (args.Has("stats")) {
      const auto& server = fleet.mc().server().stats();
      std::fprintf(stderr, "--- multi-client stats ---\n");
      for (uint32_t i = 0; i < n_clients; ++i) {
        std::fprintf(stderr,
                     "client %u: exit=%d instrs=%llu cycles=%llu "
                     "translated=%llu\n",
                     i, results[i].exit_code,
                     (unsigned long long)results[i].instructions,
                     (unsigned long long)results[i].cycles,
                     (unsigned long long)fleet.cc(i).stats().blocks_translated);
      }
      std::fprintf(stderr,
                   "server: sessions=%llu translates=%llu memo_hits=%llu "
                   "(%.1f%% hit rate) requests=%llu\n",
                   (unsigned long long)fleet.mc().sessions_active(),
                   (unsigned long long)server.translates,
                   (unsigned long long)server.translate_memo_hits,
                   server.translates + server.translate_memo_hits == 0
                       ? 0.0
                       : 100.0 * (double)server.translate_memo_hits /
                             (double)(server.translates +
                                      server.translate_memo_hits),
                   (unsigned long long)server.requests_served);
      std::fprintf(stderr,
                   "server: shards=%u memo_entries=%llu memo_evictions=%llu\n",
                   fleet.mc().server().shards(),
                   (unsigned long long)fleet.mc().server().memo_entries(),
                   (unsigned long long)server.memo_evictions);
      if (mcfg.base.shared_reply) {
        uint64_t wire_bytes = 0;
        for (uint32_t i = 0; i < n_clients; ++i) {
          wire_bytes += fleet.channel(i).stats().total_bytes();
        }
        std::fprintf(
            stderr,
            "shared-reply: requests=%llu digest_replies=%llu "
            "bytes_saved=%llu wire_bytes=%llu (%.1f per client)\n",
            (unsigned long long)server.shared_requests,
            (unsigned long long)server.digest_replies,
            (unsigned long long)server.digest_bytes_saved,
            (unsigned long long)wire_bytes,
            (double)wire_bytes / (double)n_clients);
      }
    }
    const auto& out0 = fleet.machine(0).output();
    std::fwrite(out0.data(), 1, out0.size(), stdout);
    return ok ? (results[0].exit_code & 0xff) : 1;
  }

  softcache::McServerConfig server_config;
  server_config.memfault = config.integrity.memfault;
  softcache::SoftCacheSystem system(img, config, server_config);
  system.machine().set_engine(engine);
  system.SetInput(std::move(input));
  obs::MetricsRegistry registry;
  if (args.Has("metrics")) system.RegisterMetrics(&registry);

  std::unique_ptr<dcache::DataCache> data_cache;
  if (args.Has("dcache")) {
    dcache::DCacheConfig dconfig;
    dconfig.local_base = system.cc().local_limit();
    dconfig.fault = config.fault;  // share the crash schedule (own RNG stream)
    data_cache = std::make_unique<dcache::DataCache>(
        system.machine(), system.mc(), system.channel(), dconfig);
    if (config.fault.crash_at_cycle != 0) {
      data_cache->transport().set_cycle_source(system.machine().cycles_counter());
    }
    data_cache->Attach();
  }

  softcache::Inspector inspector(&system.fleet());
  uint32_t quarantine_snaps = 0;
  if (!inspect_path.empty() && config.integrity.enabled) {
    system.cc().set_quarantine_hook([&](uint32_t) {
      if (quarantine_snaps >= 8) return;
      inspector.WriteFile(
          inspect_path + ".q" + std::to_string(quarantine_snaps++),
          "quarantine");
    });
  }
  vm::RunResult result;
  if (inspect_every == 0) {
    result = system.Run(max_instr);
  } else {
    // Periodic inspection slices the run so snapshots land at quiescent
    // points (no trap in flight) every time the clock crosses a threshold.
    uint64_t next_at = inspect_every;
    const uint64_t slice =
        std::max<uint64_t>(std::min<uint64_t>(inspect_every / 2, 65536), 1024);
    for (;;) {
      const uint64_t executed = system.machine().instructions();
      const uint64_t budget = max_instr > executed ? max_instr - executed : 0;
      result = system.Run(std::min(slice, budget));
      if (result.reason != vm::StopReason::kInstrLimit ||
          system.machine().instructions() >= max_instr) {
        break;
      }
      if (system.machine().cycles() >= next_at) {
        inspector.WriteFile(
            inspect_path + "." + std::to_string(inspector.snapshots_taken()),
            "periodic");
        next_at = (system.machine().cycles() / inspect_every + 1) *
                  inspect_every;
      }
    }
  }
  if (args.Has("trace")) {
    obs::SetTracer(nullptr);
    std::ofstream out_file(args.Get("trace"));
    if (!out_file) {
      std::fprintf(stderr, "cannot write %s\n", args.Get("trace").c_str());
      return 1;
    }
    tracer.ExportChromeJson(out_file);
  }
  if (args.Has("metrics")) {
    std::ofstream out_file(args.Get("metrics"));
    if (!out_file) {
      std::fprintf(stderr, "cannot write %s\n", args.Get("metrics").c_str());
      return 1;
    }
    out_file << registry.ToJson() << "\n";
  }
  const auto& out = system.machine().output();
  std::fwrite(out.data(), 1, out.size(), stdout);
  if (result.reason == vm::StopReason::kFault) {
    std::fprintf(stderr, "fault: %s\n", result.fault_message.c_str());
    if (!inspect_path.empty()) {
      inspector.WriteFile(inspect_path + ".fault", "fault");
      inspector.WriteFile(inspect_path, "final");
    }
    return 1;
  }
  if (!inspect_path.empty()) inspector.WriteFile(inspect_path, "final");
  if (data_cache != nullptr) {
    data_cache->FlushAll();
    if (data_cache->failed()) {
      std::fprintf(stderr, "fault: dcache session failed during flush\n");
      return 1;
    }
  }
  if (config.fault.crash_enabled() && !system.cc().SyncSession()) {
    std::fprintf(stderr, "fault: cc session failed to synchronize\n");
    return 1;
  }
  if (args.Has("dump-tcache")) {
    std::fprintf(stderr, "%s", system.cc().DumpState().c_str());
  }
  if (args.Has("stats")) {
    PrintSoftCacheStats(system, result);
    if (data_cache != nullptr) {
      const auto& ds = data_cache->stats();
      std::fprintf(stderr, "--- dcache stats ---\n");
      std::fprintf(stderr,
                   "fast/slow/miss:     %llu / %llu / %llu\n"
                   "scache spills:      %llu\n",
                   (unsigned long long)ds.fast_hits, (unsigned long long)ds.slow_hits,
                   (unsigned long long)ds.misses,
                   (unsigned long long)ds.scache_spills);
    }
  }
  return result.exit_code & 0xff;
}
