// Sensor fleet: many embedded clients served by ONE memory controller —
// the paper's Figure 1 ("distributed sensors ... continuously connected to
// more powerful servers"). Each client is a full Machine + CacheController
// with its own channel; the server side is a single shared MemoryController
// whose request counter shows the aggregate load. Clients run interleaved
// in round-robin time slices.
//
//   $ ./sensor_fleet [num_clients]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "softcache/cc.h"
#include "softcache/mc.h"
#include "util/stats.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

using namespace sc;

namespace {

struct Client {
  std::unique_ptr<vm::Machine> machine;
  std::unique_ptr<net::Channel> channel;
  std::unique_ptr<softcache::CacheController> cc;
  vm::RunResult last;
  bool done = false;
};

}  // namespace

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

  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 4 * 1024;

  // ONE server-side memory controller for the whole fleet.
  softcache::MemoryController mc(img, config.style, config.max_block_instrs,
                                 config.max_trace_blocks);

  std::vector<Client> clients(static_cast<size_t>(num_clients));
  for (int i = 0; i < num_clients; ++i) {
    Client& client = clients[static_cast<size_t>(i)];
    client.machine = std::make_unique<vm::Machine>();
    client.machine->LoadImage(img);
    client.machine->SetInput(
        workloads::MakeInput("adpcm_enc", 1, /*seed=*/100 + i));
    client.channel = std::make_unique<net::Channel>(config.channel);
    client.cc = std::make_unique<softcache::CacheController>(
        *client.machine, mc, *client.channel, config);
    client.cc->Attach();
  }

  std::printf("fleet: %d clients, one MC serving image of %s\n", num_clients,
              util::HumanBytes(img.text.size()).c_str());

  // Round-robin scheduling in 50k-instruction slices until all halt.
  int running = num_clients;
  uint64_t slices = 0;
  while (running > 0) {
    for (Client& client : clients) {
      if (client.done) continue;
      client.last = client.machine->Run(50'000);
      ++slices;
      if (client.last.reason != vm::StopReason::kInstrLimit) {
        client.done = true;
        --running;
      }
    }
  }

  std::printf("\n%-8s %10s %12s %10s %12s %10s\n", "client", "exit", "instrs",
              "chunks", "net bytes", "evicts");
  uint64_t total_bytes = 0;
  for (int i = 0; i < num_clients; ++i) {
    const Client& client = clients[static_cast<size_t>(i)];
    if (client.last.reason == vm::StopReason::kFault) {
      std::printf("sensor%-2d  FAULT: %s\n", i, client.last.fault_message.c_str());
      continue;
    }
    const auto& stats = client.cc->stats();
    const auto& net = client.channel->stats();
    total_bytes += net.total_bytes();
    std::printf("sensor%-2d %10d %12llu %10llu %12llu %10llu\n", i,
                client.last.exit_code,
                (unsigned long long)client.last.instructions,
                (unsigned long long)stats.blocks_translated,
                (unsigned long long)net.total_bytes(),
                (unsigned long long)stats.evictions);
  }
  std::printf("\nserver: %llu requests served across the fleet, %s moved\n",
              (unsigned long long)mc.server().stats().requests_served,
              util::HumanBytes(total_bytes).c_str());
  std::printf("scheduling: %llu time slices of 50k instructions\n",
              (unsigned long long)slices);
  std::printf(
      "\nEach sensor paged in only its working set; the server held the one\n"
      "authoritative image — the paper's 'server maintains the lower levels\n"
      "of the memory hierarchy' deployment.\n");
  return 0;
}
