// Crash-recovery sweep: the MC "dies" on seeded schedules mid-run, restarts
// with only its stable (flushed) state, and the CC/dcache sessions must
// re-handshake and replay their upstream journals until the run completes.
//
// The proof obligation is bit-identity: under every crash schedule the guest
// output, exit code and retired instruction count must equal the crash-free
// run's exactly — recovery is allowed to cost cycles, never correctness.
// Emits BENCH_recovery.json.
//
// Flags:
//   --smoke       one workload only (CI crash check)
//   --out=PATH    JSON output path (default BENCH_recovery.json)
//   --trace=PATH  merged Chrome trace of a 4-client fleet under the period-64
//                 crash schedule: each client lane shows its re-handshake and
//                 journal replay against the shared server lanes
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dcache/dcache.h"
#include "obs/trace_mux.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"

using namespace sc;

namespace {

struct Row {
  std::string workload;
  std::string schedule;
  uint64_t crashes = 0;        // MC restarts survived
  uint64_t recoveries = 0;     // successful session recoveries (CC + dcache)
  uint64_t replays = 0;        // journal entries replayed
  uint64_t recovery_cycles = 0;
  uint64_t cycles = 0;
  double overhead = 0.0;       // cycle overhead vs the crash-free run
  bool identical = false;      // output + exit + instructions bit-identical
};

struct Schedule {
  const char* label;
  uint64_t period;        // crash every Nth request (0 = off)
  uint64_t after;         // crash once on the Nth request (0 = off)
  double rate;            // per-request crash probability
  uint64_t seed;
};

softcache::SoftCacheConfig BaseConfig() {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 16 * 1024;  // small tcache: evictions force refetches
  return config;
}

void ApplySchedule(softcache::SoftCacheConfig* config, const Schedule& s) {
  config->fault.seed = s.seed;
  config->fault.crash_period = s.period;
  config->fault.crash_after_requests = s.after;
  config->fault.crash = s.rate;
}

Row MakeRow(const std::string& workload, const char* label,
            const bench::CachedRun& run, const bench::CachedRun& base) {
  Row row;
  row.workload = workload;
  row.schedule = label;
  row.crashes = run.mc_restarts;
  row.recoveries = run.stats.session.recoveries;
  row.replays = run.stats.session.journal_replays;
  row.recovery_cycles = run.stats.session.recovery_cycles;
  row.cycles = run.result.cycles;
  row.overhead = base.result.cycles == 0
                     ? 0.0
                     : static_cast<double>(run.result.cycles) /
                               static_cast<double>(base.result.cycles) -
                           1.0;
  row.identical = run.output == base.output &&
                  run.result.exit_code == base.result.exit_code &&
                  run.result.instructions == base.result.instructions;
  return row;
}

void PrintRow(const Row& row) {
  std::printf("%-10s %-15s %7llu %7llu %7llu %12llu %8.2f%% %5s\n",
              row.workload.c_str(), row.schedule.c_str(),
              static_cast<unsigned long long>(row.crashes),
              static_cast<unsigned long long>(row.recoveries),
              static_cast<unsigned long long>(row.replays),
              static_cast<unsigned long long>(row.cycles),
              100.0 * row.overhead, row.identical ? "yes" : "NO");
}

// A run with the software D-cache attached: both the CC and the dcache hold
// sessions to the same MC, and each must recover independently when it dies.
bench::CachedRun RunWithDcache(const image::Image& img,
                               const std::vector<uint8_t>& input,
                               const softcache::SoftCacheConfig& config) {
  softcache::SoftCacheSystem system(img, config);
  system.SetInput(input);
  dcache::DCacheConfig dconfig;
  dconfig.local_base = system.cc().local_limit();
  dconfig.fault = config.fault;
  dcache::DataCache dc(system.machine(), system.mc(), system.channel(),
                       dconfig);
  dc.Attach();
  bench::CachedRun run;
  run.result = system.Run(16'000'000'000ull);
  SC_CHECK(run.result.reason == vm::StopReason::kHalted)
      << "dcache run failed: " << run.result.fault_message;
  dc.FlushAll();
  SC_CHECK(!dc.failed()) << "dcache session failed";
  if (config.fault.crash_enabled()) {
    SC_CHECK(system.cc().SyncSession()) << "cc session failed to synchronize";
  }
  run.stats = system.stats();
  run.stats.session.recoveries += dc.stats().session.recoveries;
  run.stats.session.journal_replays += dc.stats().session.journal_replays;
  run.stats.session.recovery_cycles += dc.stats().session.recovery_cycles;
  run.net = system.channel().stats();
  run.mc_restarts = system.mc().server().stats().restarts;
  run.output = system.machine().OutputString();
  return run;
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  SC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"recovery\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"schedule\": \"%s\", "
                 "\"crashes\": %llu, \"recoveries\": %llu, "
                 "\"replays\": %llu, \"recovery_cycles\": %llu, "
                 "\"cycles\": %llu, \"overhead\": %.4f, "
                 "\"identical\": %s}%s\n",
                 r.workload.c_str(), r.schedule.c_str(),
                 static_cast<unsigned long long>(r.crashes),
                 static_cast<unsigned long long>(r.recoveries),
                 static_cast<unsigned long long>(r.replays),
                 static_cast<unsigned long long>(r.recovery_cycles),
                 static_cast<unsigned long long>(r.cycles), r.overhead,
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_recovery.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }

  bench::PrintHeader(
      "Epoch-fenced session recovery under seeded MC crash schedules",
      "robustness extension: software caching over an unreliable server");

  std::vector<std::string> names = {"adpcm_enc", "compress95", "sha256",
                                    "hextobdd"};
  if (smoke) names.resize(1);

  const Schedule kSchedules[] = {
      {"after-100", 0, 100, 0.0, 7},
      {"period-64", 64, 0, 0.0, 7},
      {"period-16", 16, 0, 0.0, 7},
      {"rate-0.02", 0, 0, 0.02, 7},
      {"rate-0.02/s11", 0, 0, 0.02, 11},
  };

  std::printf("%-10s %-15s %7s %7s %7s %12s %9s %5s\n", "workload", "schedule",
              "crashes", "recover", "replays", "cycles", "overhead", "same");
  bench::PrintRule();

  std::vector<Row> rows;
  for (const std::string& name : names) {
    const auto* spec = workloads::FindWorkload(name);
    SC_CHECK(spec != nullptr) << "unknown workload " << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);

    // The crash-free run is the golden reference for bit-identity.
    softcache::SoftCacheConfig base_config = BaseConfig();
    const bench::CachedRun base =
        bench::RunCachedWorkload(img, input, base_config);
    Row base_row = MakeRow(name, "crash-free", base, base);
    rows.push_back(base_row);
    PrintRow(base_row);

    for (const Schedule& s : kSchedules) {
      softcache::SoftCacheConfig config = BaseConfig();
      ApplySchedule(&config, s);
      const bench::CachedRun run = bench::RunCachedWorkload(img, input, config);
      const Row row = MakeRow(name, s.label, run, base);
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(row.identical)
          << name << "/" << s.label << " diverged from the crash-free run";
    }

    // Crashes landing inside batched prefetch replies: staged chunks from the
    // dead epoch must be dropped, then refetched on demand.
    {
      softcache::SoftCacheConfig config = BaseConfig();
      config.prefetch.policy = softcache::PrefetchPolicy::kNextN;
      const bench::CachedRun pf_base =
          bench::RunCachedWorkload(img, input, config);
      ApplySchedule(&config, kSchedules[2]);  // period-16
      const bench::CachedRun run = bench::RunCachedWorkload(img, input, config);
      const Row row = MakeRow(name, "nextn+period-16", run, pf_base);
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(row.identical)
          << name << "/nextn+period-16 diverged from the crash-free run";
    }

    // With the D-cache attached, dirty data writebacks ride the journal too.
    {
      softcache::SoftCacheConfig config = BaseConfig();
      const bench::CachedRun dc_base = RunWithDcache(img, input, config);
      ApplySchedule(&config, kSchedules[1]);  // period-64
      const bench::CachedRun run = RunWithDcache(img, input, config);
      const Row row = MakeRow(name, "dcache+per-64", run, dc_base);
      rows.push_back(row);
      PrintRow(row);
      SC_CHECK(row.identical)
          << name << "/dcache+per-64 diverged from the crash-free run";
    }
  }

  // Merged-trace view of recovery: a small fleet where every client carries
  // the period-64 crash schedule, exported through the fleet trace mux so
  // each client lane shows its re-handshake and journal replay while the
  // server shard lanes show the restarts they recover from.
  if (!trace_path.empty()) {
    const std::string& name = names.front();
    const auto* spec = workloads::FindWorkload(name);
    SC_CHECK(spec != nullptr) << "unknown workload " << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    softcache::SoftCacheConfig solo_config = BaseConfig();
    const bench::CachedRun solo =
        bench::RunCachedWorkload(img, input, solo_config);

    softcache::MultiClientConfig config;
    config.clients = 4;
    config.base = BaseConfig();
    ApplySchedule(&config.base, kSchedules[1]);  // period-64
    softcache::MultiClientSystem fleet(img, config);
    for (uint32_t i = 0; i < config.clients; ++i) fleet.SetInput(i, input);
    obs::TraceMux mux;
    fleet.AttachTraceMux(&mux);
    mux.EnableAll();
    const std::vector<vm::RunResult> results =
        fleet.RunAll(16'000'000'000ull);
    SC_CHECK(fleet.SyncSessions()) << "traced fleet failed to synchronize";
    for (uint32_t i = 0; i < config.clients; ++i) {
      SC_CHECK(results[i].reason == vm::StopReason::kHalted)
          << "traced fleet client " << i << ": " << results[i].fault_message;
      SC_CHECK(fleet.OutputString(i) == solo.output)
          << "traced fleet client " << i << " output diverged";
      SC_CHECK(results[i].instructions == solo.result.instructions)
          << "traced fleet client " << i << " instructions diverged";
    }
    std::ofstream trace_out(trace_path);
    SC_CHECK(trace_out.good()) << "cannot open " << trace_path;
    mux.ExportChromeJson(trace_out);
    std::printf("\nwrote merged recovery trace %s (%zu lanes, %llu MC "
                "restarts survived)\n",
                trace_path.c_str(), mux.lane_count(),
                static_cast<unsigned long long>(
                    fleet.mc().server().stats().restarts));
  }

  WriteJson(out_path, rows);
  std::printf(
      "\nevery schedule produced guest output, exit code and instruction\n"
      "counts bit-identical to the crash-free run; recovery cost only\n"
      "cycles (handshake + journal replay + refetch of volatile state).\n");
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
