// One memory controller serving N cache controllers: server-side economics.
//
// The paper's cost argument is that one powerful MC amortizes across many
// cheap embedded clients. This bench quantifies that: for client counts
// {1, 8, 64, 256} over three workloads it reports how much translation work
// and wire traffic the SERVER pays as the fleet grows. Two effects compose:
//
//   * the shared translation memo keeps the server's cut count FLAT (each
//     chunk translated once, ever) where a memo-less server would scale
//     linearly — the memo hit rate is exactly the fraction of fleet demand
//     served for free;
//   * content-addressed shared replies keep the server's WIRE cost per
//     client falling with fleet size: the first client to demand a hot chunk
//     pays the full body, every later client gets a 36-byte digest reply and
//     fills the chunk from its snooped content store. wire bytes / client
//     must therefore decrease monotonically as the fleet grows.
//
// Per-client guest behavior (output, exit code, instruction count, client
// translation count) is SC_CHECKed identical to the solo run at every fleet
// size. CYCLE counts are NOT compared: digest replies are smaller frames, so
// shared-reply mode legitimately changes miss-path timing — it may only
// change timing, never architectural state.
//
// A second table measures the SERVER-SCALE story: the same MC core fronted
// by the loop's per-shard lanes, fed by {256, 1024, 4096} logical clients x
// {0, 1, 2, 4, 8} worker rows (workers = 0: the driver threads pump their
// own lanes). Real VMs at 4096 clients are infeasible (each
// Machine carries the full guest address space), so the fleet is replayed
// synthetically: a solo run records the genuinely demanded chunk addresses,
// and each logical client re-demands that sequence as serialized
// kChunkRequest frames submitted through the loop from a fixed pool of
// driver threads (stop-and-wait per client, like the real transport). The
// sweep asserts that the reply byte stream and wire bytes/client are
// IDENTICAL across worker counts, pump included (who services a lane may
// only change timing), and
// on a many-core host that the worker pool actually scales service
// throughput. Results land in BENCH_server_scale.json.
//
// Flags:
//   --smoke       one workload, clients {1, 2}; scale sweep at 1024 clients
//                 x workers {0, 1, 4} only (CI crash + scaling check)
//   --out=PATH    JSON output path (default BENCH_multiclient.json)
//   --scale-out=PATH  scale-sweep JSON path (default BENCH_server_scale.json)
//   --trace=PATH  merged Chrome trace of the first workload's 8-client fleet
//                 run (2 clients under --smoke): one lane per client plus one
//                 lane per server shard, misses linked by flow arrows
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace_mux.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/server_loop.h"
#include "softcache/system.h"

using namespace sc;

namespace {

struct Row {
  std::string workload;
  uint32_t clients = 0;
  uint64_t server_translates = 0;   // chunk cuts actually performed
  uint64_t memo_hits = 0;           // fleet demand served from the memo
  double memo_hit_rate = 0.0;       // hits / (hits + translates)
  uint64_t server_wire_bytes = 0;   // summed over every client channel
  double wire_bytes_per_client = 0.0;
  uint64_t server_requests = 0;     // frames the MC handled
  uint64_t shared_requests = 0;     // coalescible demand fetches
  uint64_t digest_replies = 0;      // replies that skipped the body
  uint64_t digest_bytes_saved = 0;  // body bytes that never hit the wire
  uint64_t client_miss_cycles = 0;  // client 0's miss-path cycles
  uint64_t client_cycles = 0;       // client 0's guest cycles
};

softcache::SoftCacheConfig BaseConfig() {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 24 * 1024;
  return config;
}

Row RunFleet(const workloads::WorkloadSpec& spec, const image::Image& img,
             const std::vector<uint8_t>& input, const bench::NativeRun& native,
             const bench::CachedRun& solo, uint32_t clients,
             const std::string& trace_path) {
  softcache::MultiClientConfig config;
  config.clients = clients;
  config.base = BaseConfig();
  config.base.shared_reply = true;  // content-addressed coalescing on
  config.server.shards = 4;         // exercise the sharded memo/translate path
  softcache::MultiClientSystem fleet(img, config);
  for (uint32_t i = 0; i < clients; ++i) fleet.SetInput(i, input);
  // Merged-trace export rides the same run the table row comes from: the
  // solo-equivalence SC_CHECKs below double as proof that tracing did not
  // perturb guest execution.
  obs::TraceMux mux;
  if (!trace_path.empty()) {
    fleet.AttachTraceMux(&mux);
    mux.EnableAll();
  }
  const std::vector<vm::RunResult> results = fleet.RunAll(16'000'000'000ull);
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    SC_CHECK(trace_out.good()) << "cannot open " << trace_path;
    mux.ExportChromeJson(trace_out);
    std::printf("wrote merged fleet trace %s (%zu lanes)\n", trace_path.c_str(),
                mux.lane_count());
  }

  Row row;
  row.workload = spec.name;
  row.clients = clients;
  for (uint32_t i = 0; i < clients; ++i) {
    // Solo-equivalence: sharing the server must not change ANY client's
    // guest-visible execution or its client-side cache contents. Cycles are
    // deliberately not compared — digest replies shrink miss-path frames.
    SC_CHECK(results[i].reason == vm::StopReason::kHalted)
        << spec.name << " client " << i << ": " << results[i].fault_message;
    SC_CHECK(fleet.OutputString(i) == native.output)
        << spec.name << " client " << i << " output diverged from native";
    SC_CHECK(results[i].exit_code == solo.result.exit_code)
        << spec.name << " client " << i << " exit code diverged from solo";
    SC_CHECK(results[i].instructions == solo.result.instructions)
        << spec.name << " client " << i << " instructions diverged from solo";
    SC_CHECK(fleet.cc(i).stats().blocks_translated ==
             solo.stats.blocks_translated)
        << spec.name << " client " << i << " translation count diverged";
    row.server_wire_bytes += fleet.channel(i).stats().total_bytes();
  }
  row.wire_bytes_per_client =
      static_cast<double>(row.server_wire_bytes) / static_cast<double>(clients);
  const softcache::McServerStats& server = fleet.mc().server().stats();
  row.server_translates = server.translates;
  row.memo_hits = server.translate_memo_hits;
  const uint64_t cuts = server.translates + server.translate_memo_hits;
  row.memo_hit_rate =
      cuts == 0 ? 0.0
                : static_cast<double>(server.translate_memo_hits) /
                      static_cast<double>(cuts);
  row.server_requests = server.requests_served;
  row.shared_requests = server.shared_requests;
  row.digest_replies = server.digest_replies;
  row.digest_bytes_saved = server.digest_bytes_saved;
  row.client_miss_cycles = fleet.cc(0).stats().miss_cycles;
  row.client_cycles = results[0].cycles;
  return row;
}

void PrintRow(const Row& row) {
  std::printf("%-10s %7u %10llu %10llu %8.1f%% %12llu %10.0f %10llu\n",
              row.workload.c_str(), row.clients,
              static_cast<unsigned long long>(row.server_translates),
              static_cast<unsigned long long>(row.memo_hits),
              100.0 * row.memo_hit_rate,
              static_cast<unsigned long long>(row.server_wire_bytes),
              row.wire_bytes_per_client,
              static_cast<unsigned long long>(row.digest_replies));
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  SC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"multiclient\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"clients\": %u, "
                 "\"server_translates\": %llu, \"memo_hits\": %llu, "
                 "\"memo_hit_rate\": %.4f, \"server_wire_bytes\": %llu, "
                 "\"wire_bytes_per_client\": %.1f, "
                 "\"server_requests\": %llu, \"shared_requests\": %llu, "
                 "\"digest_replies\": %llu, \"digest_bytes_saved\": %llu, "
                 "\"client_miss_cycles\": %llu, \"client_cycles\": %llu}%s\n",
                 r.workload.c_str(), r.clients,
                 static_cast<unsigned long long>(r.server_translates),
                 static_cast<unsigned long long>(r.memo_hits),
                 r.memo_hit_rate,
                 static_cast<unsigned long long>(r.server_wire_bytes),
                 r.wire_bytes_per_client,
                 static_cast<unsigned long long>(r.server_requests),
                 static_cast<unsigned long long>(r.shared_requests),
                 static_cast<unsigned long long>(r.digest_replies),
                 static_cast<unsigned long long>(r.digest_bytes_saved),
                 static_cast<unsigned long long>(r.client_miss_cycles),
                 static_cast<unsigned long long>(r.client_cycles),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// ---- server-scale sweep (lane service under synthetic fleet load) ----

struct ScaleRow {
  uint32_t clients = 0;
  uint32_t workers = 0;
  uint64_t frames = 0;            // kChunkRequest frames serviced
  uint64_t server_translates = 0;
  uint64_t memo_hits = 0;
  uint64_t wall_ns = 0;           // host wall clock for the whole replay
  double frames_per_sec = 0.0;
  uint64_t wire_bytes = 0;        // request + reply bytes, all clients
  double wire_bytes_per_client = 0.0;
  uint64_t reply_hash = 0;        // fleet digest of every reply byte stream
};

uint64_t Fnv64(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The demand sequence a real client generates: every chunk address the solo
// run actually translated, read back out of the server's memo. Replaying
// these is real translation work — same chunker, same artifacts — without
// paying for a guest Machine per client.
std::vector<uint32_t> RecordDemandAddrs(const image::Image& img,
                                        const std::vector<uint8_t>& input) {
  softcache::SoftCacheSystem system(img, BaseConfig());
  system.SetInput(input);
  const vm::RunResult r = system.Run(16'000'000'000ull);
  SC_CHECK(r.reason == vm::StopReason::kHalted) << r.fault_message;
  std::vector<uint32_t> addrs;
  for (const auto& row : system.mc().server().SnapshotMemo()) {
    addrs.push_back(row.addr);
  }
  SC_CHECK(!addrs.empty()) << "solo run demanded no chunks";
  return addrs;
}

// Lanes/shards for the replay server: finer than the worker count so the
// modulo lane->worker ownership spreads clustered hot addresses (real text
// is front-loaded) across the pool.
constexpr uint32_t kScaleShards = 64;
// Driver threads submitting frames (each drives its clients stop-and-wait,
// so at most kScaleDrivers frames are in flight). Fixed across rows so only
// the worker count varies between measurements.
constexpr uint32_t kScaleDrivers = 8;

ScaleRow ReplayFleet(const image::Image& img,
                     const std::vector<uint32_t>& addrs, uint32_t clients,
                     uint32_t workers) {
  softcache::McServerConfig scfg;
  scfg.shards = kScaleShards;
  softcache::MemoryController mc(img, softcache::Style::kSparc, 64, 1, scfg);
  softcache::McServerLoop loop(
      [&mc](const softcache::McServerLoop::TicketInfo&,
            const std::vector<uint8_t>& frame) { return mc.Handle(frame); },
      [&mc](uint32_t, const std::vector<uint8_t>& frame) {
        return mc.server().ShardFor(softcache::PeekFrameAddr(frame));
      },
      softcache::McServerLoopConfig{kScaleShards, workers, 0});

  const uint32_t n = static_cast<uint32_t>(addrs.size());
  std::vector<uint64_t> client_bytes(clients, 0);
  std::vector<uint64_t> client_hash(clients, 14695981039346656037ull);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(kScaleDrivers);
  for (uint32_t d = 0; d < kScaleDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (uint32_t c = d; c < clients; c += kScaleDrivers) {
        // Rotate each client's demand order so concurrent clients hit
        // different shards at any instant (a fleet's miss streams are not
        // phase-locked); the rotation is a pure function of the client id,
        // so every run replays the identical per-client sequence.
        const uint32_t rot = (c * 17u) % n;
        for (uint32_t k = 0; k < n; ++k) {
          softcache::Request req;
          req.type = softcache::MsgType::kChunkRequest;
          req.seq = k + 1;
          req.addr = addrs[(rot + k) % n];
          req.client_id = c;
          const std::vector<uint8_t> frame = req.Serialize();
          const std::vector<uint8_t> reply = loop.Submit(c, frame);
          client_bytes[c] += frame.size() + reply.size();
          client_hash[c] = Fnv64(reply.data(), reply.size(), client_hash[c]);
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  ScaleRow row;
  row.clients = clients;
  row.workers = workers;
  row.frames = static_cast<uint64_t>(clients) * n;
  SC_CHECK(loop.stats().requests_enqueued == row.frames)
      << "loop lost frames: " << loop.stats().requests_enqueued;
  const softcache::McServerStats& server = mc.server().stats();
  SC_CHECK(server.requests_served == row.frames)
      << "server lost frames: " << server.requests_served;
  row.server_translates = server.translates;
  row.memo_hits = server.translate_memo_hits;
  // Translate-once economics must hold under the pool: every address cut
  // exactly once fleet-wide, everything else a memo hit.
  SC_CHECK(row.server_translates == n)
      << "expected " << n << " cuts, got " << row.server_translates;
  SC_CHECK(row.memo_hits == row.frames - n) << "memo hits diverged";
  row.wall_ns = wall_ns;
  row.frames_per_sec = wall_ns == 0 ? 0.0
                                    : static_cast<double>(row.frames) * 1e9 /
                                          static_cast<double>(wall_ns);
  // Wire cost must be identical for every client (same demand set, full
  // bodies), so per-client flatness is exact, not approximate.
  for (uint32_t c = 0; c < clients; ++c) {
    SC_CHECK(client_bytes[c] == client_bytes[0])
        << "client " << c << " wire bytes diverged under workers=" << workers;
    row.wire_bytes += client_bytes[c];
    row.reply_hash = Fnv64(reinterpret_cast<const uint8_t*>(&client_hash[c]),
                           sizeof(client_hash[c]), row.reply_hash);
  }
  row.wire_bytes_per_client =
      static_cast<double>(row.wire_bytes) / static_cast<double>(clients);
  return row;
}

void WriteScaleJson(const std::string& path, const std::string& workload,
                    size_t chunk_addrs, const std::vector<ScaleRow>& rows,
                    double speedup, bool speedup_asserted) {
  FILE* f = std::fopen(path.c_str(), "w");
  SC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n  \"bench\": \"server_scale\",\n  \"workload\": \"%s\",\n"
               "  \"chunk_addrs\": %zu,\n  \"shards\": %u,\n"
               "  \"drivers\": %u,\n  \"hardware_concurrency\": %u,\n"
               "  \"rows\": [\n",
               workload.c_str(), chunk_addrs, kScaleShards, kScaleDrivers,
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(f,
                 "    {\"clients\": %u, \"workers\": %u, \"frames\": %llu, "
                 "\"server_translates\": %llu, \"memo_hits\": %llu, "
                 "\"wall_ns\": %llu, \"frames_per_sec\": %.0f, "
                 "\"wire_bytes\": %llu, \"wire_bytes_per_client\": %.1f, "
                 "\"reply_hash\": \"0x%016llx\"}%s\n",
                 r.clients, r.workers,
                 static_cast<unsigned long long>(r.frames),
                 static_cast<unsigned long long>(r.server_translates),
                 static_cast<unsigned long long>(r.memo_hits),
                 static_cast<unsigned long long>(r.wall_ns), r.frames_per_sec,
                 static_cast<unsigned long long>(r.wire_bytes),
                 r.wire_bytes_per_client,
                 static_cast<unsigned long long>(r.reply_hash),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"speedup_w4_over_w1_at_1024\": %.3f,\n"
               "  \"speedup_asserted\": %s\n}\n",
               speedup, speedup_asserted ? "true" : "false");
  std::fclose(f);
}

// Real-VM cross-check riding the sweep: a small fleet run end-to-end with
// workers=0, 1 and 4 must produce byte-identical guest output (and
// identical instruction/translation counts) — who services a lane may only
// change which thread runs a frame, never what the frame returns.
void CheckRealFleetWorkerIdentity(const workloads::WorkloadSpec& spec,
                                  const image::Image& img,
                                  const std::vector<uint8_t>& input) {
  std::vector<std::string> outputs;
  std::vector<uint64_t> instructions;
  std::vector<uint64_t> translates;
  for (const uint32_t workers : {0u, 1u, 4u}) {
    softcache::MultiClientConfig config;
    config.clients = 4;
    config.base = BaseConfig();
    config.server.shards = 4;
    config.server.workers = workers;
    softcache::MultiClientSystem fleet(img, config);
    for (uint32_t i = 0; i < config.clients; ++i) fleet.SetInput(i, input);
    const std::vector<vm::RunResult> results =
        fleet.RunAll(16'000'000'000ull);
    std::string out;
    uint64_t instrs = 0;
    for (uint32_t i = 0; i < config.clients; ++i) {
      SC_CHECK(results[i].reason == vm::StopReason::kHalted)
          << spec.name << " workers=" << workers << " client " << i << ": "
          << results[i].fault_message;
      out += fleet.OutputString(i);
      instrs += results[i].instructions;
    }
    outputs.push_back(out);
    instructions.push_back(instrs);
    translates.push_back(fleet.mc().server().stats().translates);
  }
  for (size_t i = 1; i < outputs.size(); ++i) {
    SC_CHECK(outputs[i] == outputs[0])
        << spec.name << ": guest output diverged from the workers=0 run";
    SC_CHECK(instructions[i] == instructions[0])
        << spec.name << ": instruction counts diverged between worker counts";
    SC_CHECK(translates[i] == translates[0])
        << spec.name << ": server translation counts diverged";
  }
  std::printf("real 4-client fleet: workers=0, 1 and 4 guest output "
              "byte-identical (%llu instrs, %llu cuts)\n",
              static_cast<unsigned long long>(instructions[0]),
              static_cast<unsigned long long>(translates[0]));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_multiclient.json";
  std::string scale_out_path = "BENCH_server_scale.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--scale-out=", 12) == 0) {
      scale_out_path = argv[i] + 12;
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }

  bench::PrintHeader(
      "One memory controller serving N cache controllers",
      "Section 1 (one powerful MC amortized across many cheap clients)");

  std::vector<std::string> names = {"dijkstra", "sha256", "adpcm_enc"};
  std::vector<uint32_t> fleet_sizes = {1, 8, 64, 256};
  if (smoke) {
    names.resize(1);
    fleet_sizes = {1, 2};
  }

  std::printf("%-10s %7s %10s %10s %9s %12s %10s %10s\n", "workload",
              "clients", "translate", "memo hits", "hit rate", "server bytes",
              "bytes/cl", "digests");
  bench::PrintRule();

  std::vector<Row> rows;
  bool translations_flat = true;
  bool wire_decreasing = true;
  for (const std::string& name : names) {
    const auto* spec = workloads::FindWorkload(name);
    SC_CHECK(spec != nullptr) << "unknown workload " << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const bench::NativeRun native = bench::RunNativeWorkload(img, input);
    const bench::CachedRun solo =
        bench::RunCachedWorkload(img, input, BaseConfig());
    SC_CHECK(solo.output == native.output) << name << " solo output diverged";

    uint64_t baseline_translates = 0;
    double prev_wire_per_client = 0.0;
    // One traced configuration per invocation: the first workload at the
    // second fleet size (8 clients, 2 under --smoke) keeps the trace small
    // enough to load while still showing cross-client reply coalescing.
    const uint32_t traced_clients = fleet_sizes[1];
    for (uint32_t clients : fleet_sizes) {
      const bool traced = !trace_path.empty() && name == names.front() &&
                          clients == traced_clients;
      const Row row = RunFleet(*spec, img, input, native, solo, clients,
                               traced ? trace_path : std::string());
      rows.push_back(row);
      PrintRow(row);
      // The tentpole economics, part 1: server translation work must not
      // scale with the fleet — every distinct chunk is cut once regardless
      // of client count, so every fleet size matches the 1-client cut count.
      if (clients == fleet_sizes.front()) {
        baseline_translates = row.server_translates;
      } else if (row.server_translates != baseline_translates) {
        translations_flat = false;
      }
      SC_CHECK(row.server_translates == baseline_translates)
          << name << " x" << clients
          << ": server translations scaled with the fleet";
      // Part 2: with shared replies the amortized wire cost per client must
      // FALL as the fleet grows — hot bodies cross the medium once, later
      // demanders ride 36-byte digest frames.
      if (clients != fleet_sizes.front() &&
          row.wire_bytes_per_client >= prev_wire_per_client) {
        wire_decreasing = false;
        std::printf("!! %s x%u: wire bytes/client did not decrease\n",
                    name.c_str(), clients);
      }
      prev_wire_per_client = row.wire_bytes_per_client;
    }
    bench::PrintRule();
  }

  WriteJson(out_path, rows);
  std::printf("\nserver translations flat across fleet sizes: %s\n",
              translations_flat ? "yes" : "NO");
  std::printf("wire bytes per client monotonically decreasing: %s\n",
              wire_decreasing ? "yes" : "NO");
  std::printf("wrote %s\n", out_path.c_str());

  // ---- server-scale sweep: pump vs worker pool under synthetic load ----
  bench::PrintHeader(
      "Server lane service scaling, pump vs pool (synthetic frame replay)",
      "Section 1 (one powerful MC: service throughput under fleet load)");
  const std::string scale_name = names.front();
  const auto* scale_spec = workloads::FindWorkload(scale_name);
  const image::Image scale_img = workloads::CompileWorkload(*scale_spec);
  const auto scale_input = workloads::MakeInput(scale_name, 1);
  const std::vector<uint32_t> demand_addrs =
      RecordDemandAddrs(scale_img, scale_input);
  std::printf("demand sequence: %zu chunk addresses from a solo %s run\n",
              demand_addrs.size(), scale_name.c_str());

  std::vector<uint32_t> scale_clients = {256, 1024, 4096};
  // workers = 0 comes first: the driver threads pump their own lanes, and
  // that row's replies and wire bytes are the baseline every pool row must
  // match.
  std::vector<uint32_t> scale_workers = {0, 1, 2, 4, 8};
  if (smoke) {
    scale_clients = {1024};
    scale_workers = {0, 1, 4};
  }
  std::printf("%8s %8s %10s %10s %10s %12s %10s\n", "clients", "workers",
              "frames", "translate", "memo hits", "frames/sec", "bytes/cl");
  bench::PrintRule();
  std::vector<ScaleRow> scale_rows;
  bool replies_identical = true;
  bool wire_flat = true;
  double speedup_w4 = 0.0;
  for (const uint32_t clients : scale_clients) {
    ScaleRow baseline;  // this client count's workers=0 row, by value
    uint64_t w1_wall = 0;
    uint64_t w4_wall = 0;
    for (const uint32_t workers : scale_workers) {
      const ScaleRow row =
          ReplayFleet(scale_img, demand_addrs, clients, workers);
      scale_rows.push_back(row);
      std::printf("%8u %8u %10llu %10llu %10llu %12.0f %10.1f\n", row.clients,
                  row.workers, static_cast<unsigned long long>(row.frames),
                  static_cast<unsigned long long>(row.server_translates),
                  static_cast<unsigned long long>(row.memo_hits),
                  row.frames_per_sec, row.wire_bytes_per_client);
      if (workers == scale_workers.front()) {
        baseline = row;
      } else {
        // Who services the lanes may only change TIMING: the reply byte
        // streams and the wire cost per client must match the pump row.
        if (row.reply_hash != baseline.reply_hash) {
          replies_identical = false;
          std::printf("!! x%u workers=%u: reply stream diverged\n", clients,
                      workers);
        }
        if (row.wire_bytes != baseline.wire_bytes) {
          wire_flat = false;
          std::printf("!! x%u workers=%u: wire bytes moved with workers\n",
                      clients, workers);
        }
      }
      if (workers == 1) w1_wall = row.wall_ns;
      if (workers == 4) w4_wall = row.wall_ns;
    }
    if (clients == 1024 && w1_wall != 0 && w4_wall != 0) {
      speedup_w4 = static_cast<double>(w1_wall) / static_cast<double>(w4_wall);
    }
    bench::PrintRule();
  }

  // The throughput-scaling gate only fires on a host with enough cores for
  // the 4 workers plus the drivers to actually run concurrently; on small
  // hosts the sweep still proves determinism and reports the measurement.
  const bool many_core = std::thread::hardware_concurrency() >= 8;
  bool scaling_ok = true;
  if (speedup_w4 != 0.0) {
    std::printf("1024-client sweep: workers=4 speedup over workers=1 = %.2fx"
                " (%s)\n",
                speedup_w4,
                many_core ? "asserted >= 2x" : "informational, host is small");
    if (many_core && speedup_w4 < 2.0) {
      scaling_ok = false;
      std::printf("!! worker pool failed to scale on a many-core host\n");
    }
  }
  CheckRealFleetWorkerIdentity(*scale_spec, scale_img, scale_input);
  WriteScaleJson(scale_out_path, scale_name, demand_addrs.size(), scale_rows,
                 speedup_w4, many_core);
  std::printf("reply streams identical across worker counts: %s\n",
              replies_identical ? "yes" : "NO");
  std::printf("wire bytes/client flat across worker counts: %s\n",
              wire_flat ? "yes" : "NO");
  std::printf("wrote %s\n", scale_out_path.c_str());
  return (translations_flat && wire_decreasing && replies_identical &&
          wire_flat && scaling_ok)
             ? 0
             : 1;
}
