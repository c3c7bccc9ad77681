// Sensor fleet: many embedded clients served by ONE memory controller —
// the paper's Figure 1 ("distributed sensors ... continuously connected to
// more powerful servers"). Each client is a full Machine + CacheController
// with its own channel and its own server session; the server side is a
// single shared MemoryController whose request counter shows the aggregate
// load. A MultiClientSystem interleaves the clients on guest time.
//
//   $ ./sensor_fleet [num_clients]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "softcache/system.h"
#include "util/stats.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

using namespace sc;

int main(int argc, char** argv) {
  const int num_clients = argc > 1 ? std::atoi(argv[1]) : 4;
  if (num_clients < 1 || num_clients > 64) {
    std::fprintf(stderr, "usage: sensor_fleet [1..64 clients]\n");
    return 2;
  }

  // Every sensor runs the same firmware image (adpcm encoding its samples)
  // but on different input data — the fleet scenario exactly.
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  const image::Image img = workloads::CompileWorkload(*spec);

  // ONE server-side memory controller for the whole fleet, scheduled in
  // 50k-instruction slices until every client halts.
  softcache::MultiClientConfig config;
  config.clients = static_cast<uint32_t>(num_clients);
  config.base.style = softcache::Style::kSparc;
  config.base.tcache_bytes = 4 * 1024;
  config.quantum_instructions = 50'000;
  softcache::MultiClientSystem fleet(img, config);
  for (int i = 0; i < num_clients; ++i) {
    fleet.SetInput(static_cast<size_t>(i),
                   workloads::MakeInput("adpcm_enc", 1, /*seed=*/100 + i));
  }

  std::printf("fleet: %d clients, one MC serving image of %s\n", num_clients,
              util::HumanBytes(img.text.size()).c_str());
  const std::vector<vm::RunResult> results = fleet.RunAll();

  std::printf("\n%-8s %10s %12s %10s %12s %10s\n", "client", "exit", "instrs",
              "chunks", "net bytes", "evicts");
  uint64_t total_bytes = 0;
  int faults = 0;
  for (int i = 0; i < num_clients; ++i) {
    const size_t c = static_cast<size_t>(i);
    if (results[c].reason == vm::StopReason::kFault) {
      std::printf("sensor%-2d  FAULT: %s\n", i,
                  results[c].fault_message.c_str());
      ++faults;
      continue;
    }
    const auto& stats = fleet.cc(c).stats();
    const auto& net = fleet.channel(c).stats();
    total_bytes += net.total_bytes();
    std::printf("sensor%-2d %10d %12llu %10llu %12llu %10llu\n", i,
                results[c].exit_code,
                (unsigned long long)results[c].instructions,
                (unsigned long long)stats.blocks_translated,
                (unsigned long long)net.total_bytes(),
                (unsigned long long)stats.evictions);
  }
  const auto& server = fleet.mc().server().stats();
  std::printf("\nserver: %llu requests served across the fleet, %s moved\n",
              (unsigned long long)server.requests_served,
              util::HumanBytes(total_bytes).c_str());
  std::printf("server: %llu translations, %llu served from the shared memo\n",
              (unsigned long long)server.translates,
              (unsigned long long)server.translate_memo_hits);
  std::printf(
      "\nEach sensor paged in only its working set; the server held the one\n"
      "authoritative image — the paper's 'server maintains the lower levels\n"
      "of the memory hierarchy' deployment.\n");
  return faults == 0 ? 0 : 1;
}
