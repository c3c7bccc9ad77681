// Full-adversity chaos soak: seeded bit-flip storms in every cached-state
// domain (tcache / staged prefetch / content store / superblocks / server
// memo), stacked on top of the existing adversities — packet drop/corrupt/
// duplicate, seeded server-crash schedules, multi-client fleets on both
// schedulers, eviction churn from a small tcache, and module-style
// self-modifying-code churn.
//
// The proof obligation is the self-healing contract: every scenario must
// COMPLETE with the guest's story (output bytes + exit code) identical to
// its fault-free reference, with heals > 0 wherever faults were injected —
// corruption is allowed to cost cycles, never correctness. The one
// measured regression is the integrity tax itself: with scrubbing on at
// the default interval and zero faults, cycle overhead must stay <= 10%.
// Emits BENCH_chaos.json.
//
// Flags:
//   --smoke      one workload, small fleet (CI soak; run over several seeds)
//   --seed=N     storm seed (default 7); CI sweeps 5 seeds
//   --out=PATH   JSON output path (default BENCH_chaos.json)
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "minicc/compiler.h"
#include "softcache/integrity.h"
#include "softcache/mc.h"

using namespace sc;

namespace {

// The engine-test SMC contract, sized to also churn a small tcache: the
// guest patches its own code through SYS_ICACHE_INVAL while storms corrupt
// the rewritten copies of that very code.
constexpr const char* kSmcChurnProgram = R"(
  int answer() { return 1011; }
  int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = (s * 31 + i) % 65521; }
    return s;
  }
  int main() {
    int before = answer();
    int *code = (int*)answer;
    int patched = 0;
    for (int i = 0; i < 32; i = i + 1) {
      if ((code[i] & 0xffff) == 1011) {
        code[i] = (int)((uint)code[i] & 0xffff0000) | 2022;
        patched = 1;
        break;
      }
    }
    if (!patched) return 1;
    int h = 0;
    for (int round = 0; round < 24; round = round + 1) {
      h = (h + work(400)) % 65521;
      __icache_inval((int)code, 128);
      h = (h + answer()) % 65521;
    }
    int after = answer();
    if (before != 1011) return 2;
    if (after != 2022) return 3;
    putchar(65 + h % 26);
    print_str(" smc ok\n");
    return 0;
  }
)";

struct Row {
  std::string workload;
  std::string scenario;
  uint64_t seed = 0;
  uint64_t flips = 0;       // bits injected (client domains + server memo)
  uint64_t detected = 0;    // digest mismatches caught before use
  uint64_t heals = 0;       // quarantined chunks reinstalled clean
  uint64_t quarantines = 0;
  uint64_t scrubs = 0;
  uint64_t cycles = 0;
  double overhead = 0.0;    // vs the scenario's fault-free reference
  bool completed = false;
  bool identical = false;   // output + exit identical to the reference
};

void PrintRow(const Row& row) {
  std::printf("%-10s %-18s %4llu %6llu %6llu %6llu %6llu %12llu %8.2f%% %5s\n",
              row.workload.c_str(), row.scenario.c_str(),
              static_cast<unsigned long long>(row.seed),
              static_cast<unsigned long long>(row.flips),
              static_cast<unsigned long long>(row.detected),
              static_cast<unsigned long long>(row.heals),
              static_cast<unsigned long long>(row.scrubs),
              static_cast<unsigned long long>(row.cycles),
              100.0 * row.overhead, row.identical ? "yes" : "NO");
}

softcache::SoftCacheConfig BaseConfig() {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 16 * 1024;  // small tcache: evictions force refetches
  return config;
}

softcache::MemFaultConfig Storm(uint64_t seed, double rate) {
  softcache::MemFaultConfig mf;
  mf.seed = seed;
  mf.rate = rate;
  return mf;
}

// Storm scenarios measure sustained healing, so the rung-2 heal budget is
// lifted (long workloads legitimately heal hundreds of times); the budget's
// clean-Fail ladder is proven in integrity_test instead.
void EnableStorm(softcache::IntegrityConfig* integrity, uint64_t seed,
                 double rate) {
  integrity->enabled = true;
  integrity->memfault = Storm(seed, rate);
  integrity->max_heal_attempts = 0;
}

struct ChaosRun {
  vm::RunResult result;
  std::string output;
  softcache::IntegrityStats integrity;
  softcache::McServerStats server;
};

ChaosRun RunSolo(const image::Image& img, const std::vector<uint8_t>& input,
                 const softcache::SoftCacheConfig& config, vm::Engine engine,
                 const softcache::McServerConfig& server = {}) {
  softcache::SoftCacheSystem system(img, config, server);
  system.machine().set_engine(engine);
  system.SetInput(input);
  ChaosRun run;
  run.result = system.Run(16'000'000'000ull);
  SC_CHECK(run.result.reason == vm::StopReason::kHalted)
      << "chaos run failed: " << run.result.fault_message;
  run.output = system.OutputString();
  run.integrity = system.stats().integrity;
  run.server = system.mc().server().stats();
  return run;
}

Row MakeRow(const std::string& workload, const std::string& scenario,
            uint64_t seed, const ChaosRun& run, const ChaosRun& base) {
  Row row;
  row.workload = workload;
  row.scenario = scenario;
  row.seed = seed;
  row.flips = run.integrity.flips_injected + run.server.memo_flips_injected;
  row.detected =
      run.integrity.corruptions_detected + run.server.memo_corruptions_detected;
  row.heals = run.integrity.heals + run.server.memo_heals;
  row.quarantines = run.integrity.quarantines;
  row.scrubs = run.integrity.scrubs;
  row.cycles = run.result.cycles;
  row.overhead = base.result.cycles == 0
                     ? 0.0
                     : static_cast<double>(run.result.cycles) /
                               static_cast<double>(base.result.cycles) -
                           1.0;
  row.completed = run.result.reason == vm::StopReason::kHalted;
  row.identical = run.output == base.output &&
                  run.result.exit_code == base.result.exit_code;
  return row;
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  SC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"chaos\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"scenario\": \"%s\", "
                 "\"seed\": %llu, \"flips\": %llu, \"detected\": %llu, "
                 "\"heals\": %llu, \"quarantines\": %llu, \"scrubs\": %llu, "
                 "\"cycles\": %llu, \"overhead\": %.4f, "
                 "\"completed\": %s, \"identical\": %s}%s\n",
                 r.workload.c_str(), r.scenario.c_str(),
                 static_cast<unsigned long long>(r.seed),
                 static_cast<unsigned long long>(r.flips),
                 static_cast<unsigned long long>(r.detected),
                 static_cast<unsigned long long>(r.heals),
                 static_cast<unsigned long long>(r.quarantines),
                 static_cast<unsigned long long>(r.scrubs),
                 static_cast<unsigned long long>(r.cycles), r.overhead,
                 r.completed ? "true" : "false",
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  uint64_t seed = 7;
  std::string out_path = "BENCH_chaos.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::PrintHeader(
      "Self-healing cache under full adversity: bit flips x packet faults x "
      "crashes x fleets x SMC churn",
      "robustness extension: software caching on soft-error-prone SRAM");

  std::vector<std::string> names = {"adpcm_enc", "sha256"};
  if (smoke) names.resize(1);
  const uint32_t fleet_clients = smoke ? 8 : 64;

  std::printf("%-10s %-18s %4s %6s %6s %6s %6s %12s %9s %5s\n", "workload",
              "scenario", "seed", "flips", "detect", "heals", "scrubs",
              "cycles", "overhead", "same");
  bench::PrintRule();

  std::vector<Row> rows;
  for (const std::string& name : names) {
    const auto* spec = workloads::FindWorkload(name);
    SC_CHECK(spec != nullptr) << "unknown workload " << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);

    // Fault-free reference (integrity machinery off entirely).
    const ChaosRun base =
        RunSolo(img, input, BaseConfig(), vm::Engine::kInterp);

    // The integrity tax: digests + verify-on-use + scrub at the default
    // interval, zero faults. The acceptance bound: <= 10% cycle overhead.
    {
      softcache::SoftCacheConfig config = BaseConfig();
      config.integrity.enabled = true;
      const ChaosRun run = RunSolo(img, input, config, vm::Engine::kInterp);
      const Row row = MakeRow(name, "scrub-tax", seed, run, base);
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(row.identical) << name << ": scrubbing changed the run";
      SC_CHECK(row.overhead <= 0.10)
          << name << ": scrub overhead " << row.overhead << " exceeds 10%";
    }

    // Solo corruption storms, both engines. The threaded engine adds the
    // decoded-superblock fault domain on top of the tcache's.
    for (const auto& [engine, label] :
         {std::pair{vm::Engine::kInterp, "storm/interp"},
          std::pair{vm::Engine::kThreaded, "storm/threaded"}}) {
      softcache::SoftCacheConfig config = BaseConfig();
      EnableStorm(&config.integrity, seed, 0.05);
      softcache::McServerConfig server;
      server.memfault = Storm(seed + 1, 0.02);
      const ChaosRun run = RunSolo(img, input, config, engine, server);
      const Row row = MakeRow(name, label, seed, run, base);
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(row.identical) << name << "/" << label << " diverged";
      SC_CHECK(row.heals > 0) << name << "/" << label << ": no heals";
    }

    // The full-adversity fleet on the deterministic round-robin scheduler:
    // bit flips in every domain + lossy links + seeded server crashes +
    // shared-reply snooping (content-store domain) + eviction churn.
    {
      softcache::MultiClientConfig config;
      config.clients = fleet_clients;
      config.base = BaseConfig();
      config.base.tcache_bytes = 8 * 1024;
      config.base.shared_reply = true;
      EnableStorm(&config.base.integrity, seed, 0.05);
      config.base.fault.seed = seed;
      config.base.fault.drop = 0.02;
      config.base.fault.corrupt = 0.02;
      config.base.fault.duplicate = 0.02;
      config.base.fault.crash_period = 4000;
      config.server.memfault = Storm(seed + 1, 0.02);
      config.server.max_queue = 16;

      struct FleetOut {
        ChaosRun agg;
        bool all_ok = true;
        std::vector<uint64_t> cycles;  // per-client, for bit-identity checks
      };
      auto run_fleet = [&](const softcache::MultiClientConfig& cfg) {
        softcache::MultiClientSystem fleet(img, cfg);
        for (uint32_t i = 0; i < cfg.clients; ++i) fleet.SetInput(i, input);
        const auto results = fleet.RunAll();
        FleetOut out;
        for (uint32_t i = 0; i < cfg.clients; ++i) {
          out.all_ok = out.all_ok &&
                       results[i].reason == vm::StopReason::kHalted &&
                       fleet.OutputString(i) == base.output &&
                       results[i].exit_code == base.result.exit_code;
          out.cycles.push_back(results[i].cycles);
          const auto& integrity = fleet.cc(i).stats().integrity;
          out.agg.integrity.flips_injected += integrity.flips_injected;
          out.agg.integrity.corruptions_detected +=
              integrity.corruptions_detected;
          out.agg.integrity.heals += integrity.heals;
          out.agg.integrity.quarantines += integrity.quarantines;
          out.agg.integrity.scrubs += integrity.scrubs;
        }
        out.agg.result = results[0];
        out.agg.output = fleet.OutputString(0);
        out.agg.server = fleet.mc().server().stats();
        return out;
      };

      const FleetOut r0 = run_fleet(config);
      Row row = MakeRow(name, "fleet/adversity", seed, r0.agg, base);
      row.identical = r0.all_ok;
      row.completed = r0.all_ok;
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(r0.all_ok) << name << ": a fleet client diverged under chaos";
      SC_CHECK(row.heals > 0) << name << "/fleet: no heals";

      // The workers dimension: the identical storm with the memo sharded 4
      // ways, once pumped by the submitting client thread and once by 4
      // dedicated workers. The round-robin scheduler keeps one frame in
      // flight fleet-wide, so the pool may not change ANYTHING the guest
      // can see — per-client cycle counts and the fleet's injected-flip /
      // heal totals must match the workers=0 run bit for bit.
      softcache::MultiClientConfig sharded = config;
      sharded.server.shards = 4;
      const FleetOut w0 = run_fleet(sharded);
      sharded.server.workers = 4;
      const FleetOut w4 = run_fleet(sharded);
      Row wrow = MakeRow(name, "fleet/workers", seed, w4.agg, base);
      wrow.identical = w4.all_ok && w4.cycles == w0.cycles &&
                       w4.agg.output == w0.agg.output;
      wrow.completed = w4.all_ok;
      rows.push_back(wrow);
      PrintRow(wrow);
      SC_CHECK(w4.all_ok) << name << ": worker-pool fleet diverged under chaos";
      SC_CHECK(w4.cycles == w0.cycles)
          << name << ": the worker pool changed per-client cycle counts";
      SC_CHECK(w4.agg.integrity.flips_injected ==
               w0.agg.integrity.flips_injected)
          << name << ": storm streams diverged across worker counts";
      SC_CHECK(w4.agg.integrity.heals == w0.agg.integrity.heals &&
               w4.agg.server.memo_heals == w0.agg.server.memo_heals)
          << name << ": heal counts diverged across worker counts";
      SC_CHECK(wrow.heals > 0) << name << "/fleet-workers: no heals";
    }

    // The same storm on the host-thread-pool scheduler (threaded engine):
    // guest results must stay solo-identical despite nondeterministic
    // host-side interleaving at the server.
    {
      softcache::MultiClientConfig config;
      config.clients = smoke ? 4 : 8;
      config.base = BaseConfig();
      EnableStorm(&config.base.integrity, seed, 0.05);
      config.server.max_queue = 16;
      config.host_threads = 4;
      softcache::MultiClientSystem fleet(img, config);
      for (uint32_t i = 0; i < config.clients; ++i) {
        fleet.SetInput(i, input);
        fleet.machine(i).set_engine(vm::Engine::kThreaded);
      }
      const auto results = fleet.RunAll();
      ChaosRun agg;
      bool all_ok = true;
      for (uint32_t i = 0; i < config.clients; ++i) {
        all_ok = all_ok && results[i].reason == vm::StopReason::kHalted &&
                 fleet.OutputString(i) == base.output &&
                 results[i].exit_code == base.result.exit_code;
        const auto& integrity = fleet.cc(i).stats().integrity;
        agg.integrity.flips_injected += integrity.flips_injected;
        agg.integrity.corruptions_detected += integrity.corruptions_detected;
        agg.integrity.heals += integrity.heals;
        agg.integrity.quarantines += integrity.quarantines;
        agg.integrity.scrubs += integrity.scrubs;
      }
      agg.result = results[0];
      agg.server = fleet.mc().server().stats();
      Row row = MakeRow(name, "fleet/threads", seed, agg, base);
      row.identical = all_ok;
      row.completed = all_ok;
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(all_ok) << name << ": a threaded-fleet client diverged";
      SC_CHECK(row.heals > 0) << name << "/threads: no heals";
    }
  }

  // Module-style SMC churn under the storm: the guest keeps re-patching its
  // own code (repeated icache invalidations, re-translations) while flips
  // land in the freshly rewritten copies.
  {
    auto img = minicc::CompileMiniC(kSmcChurnProgram, "smc_churn.mc");
    SC_CHECK(img.ok()) << img.error().ToString();
    softcache::SoftCacheConfig clean_config = BaseConfig();
    clean_config.tcache_bytes = 2 * 1024;
    const ChaosRun smc_base =
        RunSolo(*img, {}, clean_config, vm::Engine::kInterp);
    SC_CHECK(smc_base.result.exit_code == 0)
        << "smc reference failed: exit " << smc_base.result.exit_code;
    for (const auto& [engine, label] :
         {std::pair{vm::Engine::kInterp, "smc/interp"},
          std::pair{vm::Engine::kThreaded, "smc/threaded"}}) {
      softcache::SoftCacheConfig config = clean_config;
      EnableStorm(&config.integrity, seed, 0.3);
      config.integrity.scrub_every = 2;
      const ChaosRun run = RunSolo(*img, {}, config, engine);
      const Row row = MakeRow("smc_churn", label, seed, run, smc_base);
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(row.identical) << "smc_churn/" << label << " diverged";
      SC_CHECK(row.heals > 0) << "smc_churn/" << label << ": no heals";
    }
  }

  WriteJson(out_path, rows);
  std::printf("\nwrote %s (%zu rows; every row completed with its "
              "reference's output)\n",
              out_path.c_str(), rows.size());
  return 0;
}
