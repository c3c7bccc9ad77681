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
// by the loop's per-shard lanes, fed by {256, 1024, 4096} logical clients.
// Real VMs at 4096 clients are infeasible (each client would need its own
// Machine), so the fleet is replayed synthetically: a solo run records the
// genuinely demanded chunk addresses, and each logical client re-demands
// that sequence as serialized kChunkRequest frames submitted through the
// loop (stop-and-wait per client, like the real transport). Each client
// count runs twice: once from one driver thread (the sequential reference)
// and once from 8 driver threads that serve their lanes concurrently; each
// row is the median of 5 replays (one under --smoke without --check). The
// sweep asserts that the reply byte
// stream and wire bytes/client of the concurrent row are IDENTICAL to the
// reference (concurrent lane service may only change timing). Results land in
// BENCH_server_scale.json.
//
// Flags:
//   --smoke       one workload, clients {1, 2}; scale sweep at 1024 clients
//                 only (CI crash + determinism check)
//   --out=PATH    JSON output path (default BENCH_multiclient.json)
//   --scale-out=PATH  scale-sweep JSON path (default BENCH_server_scale.json)
//   --check=PATH  fail when a scale row's frames/sec falls below half of the
//                 same row in PATH (a committed BENCH_server_scale.json);
//                 armed only when this host's hardware_concurrency equals
//                 the file's, since throughput is host-specific. PATH is
//                 read before the sweep and must not be the --scale-out
//                 path; an unreadable PATH or that clash exits 2.
//   --trace=PATH  merged Chrome trace of the first workload's 8-client fleet
//                 run (2 clients under --smoke): one lane per client plus one
//                 lane per server shard, misses linked by flow arrows
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace_mux.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/server_loop.h"
#include "softcache/system.h"
#include "tools/json_min.h"

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
  uint32_t drivers = 0;           // threads submitting (and serving) frames
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

// Lanes/shards for the replay server: fine enough that concurrent drivers
// mostly claim different lanes despite clustered hot addresses (real text is
// front-loaded).
constexpr uint32_t kScaleShards = 64;
// Driver threads of the concurrent row (each drives its clients
// stop-and-wait, so at most kScaleDrivers frames are in flight).
constexpr uint32_t kScaleDrivers = 8;
// Replays per row when the row is a throughput figure (the committed file,
// or a --check run). The row is the median replay: the 8-driver rows swing
// by 2x between runs on a shared host, and a median baseline keeps --check
// from firing on a slow spell or being armed by a lucky one.
constexpr uint32_t kScaleReps = 5;

ScaleRow ReplayFleet(const image::Image& img,
                     const std::vector<uint32_t>& addrs, uint32_t clients,
                     uint32_t drivers) {
  softcache::McServerConfig scfg;
  scfg.shards = kScaleShards;
  softcache::MemoryController mc(img, softcache::Style::kSparc, 64, 1, scfg);
  softcache::McServerLoop loop(
      [&mc](const softcache::McServerLoop::TicketInfo&,
            const std::vector<uint8_t>& frame) { return mc.Handle(frame); },
      [&mc](uint32_t, const std::vector<uint8_t>& frame) {
        return mc.server().ShardFor(softcache::PeekFrameAddr(frame));
      },
      softcache::McServerLoopConfig{kScaleShards});

  const uint32_t n = static_cast<uint32_t>(addrs.size());
  std::vector<uint64_t> client_bytes(clients, 0);
  std::vector<uint64_t> client_hash(clients, 14695981039346656037ull);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (uint32_t d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      for (uint32_t c = d; c < clients; c += drivers) {
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
  for (std::thread& t : threads) t.join();
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  ScaleRow row;
  row.clients = clients;
  row.drivers = drivers;
  row.frames = static_cast<uint64_t>(clients) * n;
  SC_CHECK(loop.stats().requests_enqueued == row.frames)
      << "loop lost frames: " << loop.stats().requests_enqueued;
  const softcache::McServerStats& server = mc.server().stats();
  SC_CHECK(server.requests_served == row.frames)
      << "server lost frames: " << server.requests_served;
  row.server_translates = server.translates;
  row.memo_hits = server.translate_memo_hits;
  // Translate-once economics must hold under concurrent lane service: every
  // address cut exactly once fleet-wide, everything else a memo hit.
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
        << "client " << c << " wire bytes diverged under drivers=" << drivers;
    row.wire_bytes += client_bytes[c];
    row.reply_hash = Fnv64(reinterpret_cast<const uint8_t*>(&client_hash[c]),
                           sizeof(client_hash[c]), row.reply_hash);
  }
  row.wire_bytes_per_client =
      static_cast<double>(row.wire_bytes) / static_cast<double>(clients);
  return row;
}

// `replays` replays of one row. Every replay must return the identical
// reply stream and wire bytes; the median-wall replay is the row.
ScaleRow MedianReplay(const image::Image& img,
                      const std::vector<uint32_t>& addrs, uint32_t clients,
                      uint32_t drivers, uint32_t replays) {
  std::vector<ScaleRow> reps;
  for (uint32_t r = 0; r < replays; ++r) {
    reps.push_back(ReplayFleet(img, addrs, clients, drivers));
    SC_CHECK(reps.back().reply_hash == reps.front().reply_hash &&
             reps.back().wire_bytes == reps.front().wire_bytes)
        << "x" << clients << " drivers=" << drivers
        << ": replies diverged between identical replays";
  }
  std::sort(reps.begin(), reps.end(), [](const ScaleRow& a, const ScaleRow& b) {
    return a.wall_ns < b.wall_ns;
  });
  return reps[replays / 2];
}

void WriteScaleJson(const std::string& path, const std::string& workload,
                    size_t chunk_addrs, const std::vector<ScaleRow>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  SC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n  \"bench\": \"server_scale\",\n  \"workload\": \"%s\",\n"
               "  \"chunk_addrs\": %zu,\n  \"shards\": %u,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"rows\": [\n",
               workload.c_str(), chunk_addrs, kScaleShards,
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(f,
                 "    {\"clients\": %u, \"drivers\": %u, \"frames\": %llu, "
                 "\"server_translates\": %llu, \"memo_hits\": %llu, "
                 "\"wall_ns\": %llu, \"frames_per_sec\": %.0f, "
                 "\"wire_bytes\": %llu, \"wire_bytes_per_client\": %.1f, "
                 "\"reply_hash\": \"0x%016llx\"}%s\n",
                 r.clients, r.drivers,
                 static_cast<unsigned long long>(r.frames),
                 static_cast<unsigned long long>(r.server_translates),
                 static_cast<unsigned long long>(r.memo_hits),
                 static_cast<unsigned long long>(r.wall_ns), r.frames_per_sec,
                 static_cast<unsigned long long>(r.wire_bytes),
                 r.wire_bytes_per_client,
                 static_cast<unsigned long long>(r.reply_hash),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Real-VM cross-check riding the sweep: a 4-client fleet run end-to-end on
// one host thread and on 4 host threads (whose clients serve their
// shard lanes concurrently) must produce byte-identical guest output and
// identical instruction and translation counts — concurrent lane service may
// only change which thread runs a frame, never what the frame returns.
void CheckRealFleetSchedulerIdentity(const workloads::WorkloadSpec& spec,
                                     const image::Image& img,
                                     const std::vector<uint8_t>& input) {
  struct Outcome {
    std::string output;          // every client's output, concatenated
    uint64_t instructions = 0;   // summed over clients
    uint64_t client_blocks = 0;  // summed client-side translations
    uint64_t server_cuts = 0;    // server-side chunk translations
    bool operator==(const Outcome&) const = default;
  };
  std::vector<Outcome> outcomes;
  for (const uint32_t host_threads : {0u, 4u}) {
    softcache::MultiClientConfig config;
    config.clients = 4;
    config.base = BaseConfig();
    config.server.shards = 4;
    config.host_threads = host_threads;
    softcache::MultiClientSystem fleet(img, config);
    for (uint32_t i = 0; i < config.clients; ++i) fleet.SetInput(i, input);
    const std::vector<vm::RunResult> results =
        fleet.RunAll(16'000'000'000ull);
    Outcome o;
    for (uint32_t i = 0; i < config.clients; ++i) {
      SC_CHECK(results[i].reason == vm::StopReason::kHalted)
          << spec.name << " host_threads=" << host_threads << " client " << i
          << ": " << results[i].fault_message;
      o.output += fleet.OutputString(i);
      o.instructions += results[i].instructions;
      o.client_blocks += fleet.cc(i).stats().blocks_translated;
    }
    o.server_cuts = fleet.mc().server().stats().translates;
    outcomes.push_back(o);
  }
  SC_CHECK(outcomes[1] == outcomes[0])
      << spec.name << ": guest output, instruction or translation counts "
      << "diverged between one and 4 host threads";
  std::printf("real 4-client fleet: round-robin and 4 host threads "
              "byte-identical (%llu instrs, %llu cuts)\n",
              static_cast<unsigned long long>(outcomes[0].instructions),
              static_cast<unsigned long long>(outcomes[0].server_cuts));
}

// Reads the --check baseline. It is read before the sweep runs, and a path
// naming the sweep's own output is refused: the sweep would overwrite the
// baseline and then compare its rows with themselves.
bool ReadScaleBaseline(const std::string& path,
                       const std::string& scale_out_path,
                       tools::JsonValue* committed) {
  std::error_code check_ec, out_ec;
  const std::filesystem::path check_file =
      std::filesystem::weakly_canonical(path, check_ec);
  const std::filesystem::path out_file =
      std::filesystem::weakly_canonical(scale_out_path, out_ec);
  if (!check_ec && !out_ec && check_file == out_file) {
    std::printf("!! --check=%s is also the --scale-out path; pass "
                "--scale-out=OTHER so the sweep cannot overwrite its "
                "baseline\n",
                path.c_str());
    return false;
  }
  std::ifstream in(path);
  if (!in) {
    std::printf("!! --check: cannot read %s\n", path.c_str());
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string error;
  if (!tools::JsonParser::Parse(text, committed, &error)) {
    std::printf("!! --check: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  if (!(*committed)["rows"].is_array()) {
    std::printf("!! --check: %s has no rows array\n", path.c_str());
    return false;
  }
  return true;
}

// The opt-in throughput gate: every row must reach half the frames/sec of
// the same (clients, drivers) row of the `committed` file read from `path`.
// Returns false on a regression or no comparable row; a host whose
// hardware_concurrency differs from the file's only reports.
bool CheckScaleThroughput(const std::string& path,
                          const tools::JsonValue& committed,
                          const std::vector<ScaleRow>& rows) {
  const uint64_t host = std::thread::hardware_concurrency();
  const uint64_t file = committed["hardware_concurrency"].AsU64();
  const bool armed = host == file;
  bool ok = true;
  size_t compared = 0;
  for (const ScaleRow& row : rows) {
    for (const tools::JsonValue& c : committed["rows"].array) {
      if (c["clients"].AsU64() != row.clients ||
          c["drivers"].AsU64() != row.drivers) {
        continue;
      }
      ++compared;
      const double floor = 0.5 * c["frames_per_sec"].number;
      const bool pass = row.frames_per_sec >= floor;
      std::printf("--check x%u drivers=%u: %.0f frames/s vs floor %.0f%s\n",
                  row.clients, row.drivers, row.frames_per_sec, floor,
                  pass ? "" : (armed ? "  !! REGRESSED" : "  (below)"));
      ok = ok && (pass || !armed);
    }
  }
  if (!armed) {
    std::printf("--check disarmed: host has %llu hardware threads, %s was "
                "measured on %llu\n",
                static_cast<unsigned long long>(host), path.c_str(),
                static_cast<unsigned long long>(file));
  } else if (compared == 0) {
    std::printf("!! --check: %s has no row to compare against\n",
                path.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_multiclient.json";
  std::string scale_out_path = "BENCH_server_scale.json";
  std::string trace_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--scale-out=", 12) == 0) {
      scale_out_path = argv[i] + 12;
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
    if (std::strncmp(argv[i], "--check=", 8) == 0) check_path = argv[i] + 8;
  }
  tools::JsonValue committed_scale;
  if (!check_path.empty() &&
      !ReadScaleBaseline(check_path, scale_out_path, &committed_scale)) {
    return 2;
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

  // ---- server-scale sweep: lane service under synthetic fleet load ----
  bench::PrintHeader(
      "Server lane service under fleet load (synthetic frame replay)",
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
  if (smoke) scale_clients = {1024};
  std::printf("%8s %8s %10s %10s %10s %12s %10s\n", "clients", "drivers",
              "frames", "translate", "memo hits", "frames/sec", "bytes/cl");
  bench::PrintRule();
  // The smoke sweep only checks determinism, so one replay per row does;
  // throughput rows (the committed file, a --check run) take the median.
  const uint32_t replays = smoke && check_path.empty() ? 1 : kScaleReps;
  std::vector<ScaleRow> scale_rows;
  bool replies_identical = true;
  bool wire_flat = true;
  for (const uint32_t clients : scale_clients) {
    // The one-driver replay is the sequential reference; the concurrent
    // row's replies and wire bytes must match it exactly.
    for (const uint32_t drivers : {1u, kScaleDrivers}) {
      const ScaleRow row =
          MedianReplay(scale_img, demand_addrs, clients, drivers, replays);
      scale_rows.push_back(row);
      std::printf("%8u %8u %10llu %10llu %10llu %12.0f %10.1f\n", row.clients,
                  row.drivers, static_cast<unsigned long long>(row.frames),
                  static_cast<unsigned long long>(row.server_translates),
                  static_cast<unsigned long long>(row.memo_hits),
                  row.frames_per_sec, row.wire_bytes_per_client);
    }
    const ScaleRow& reference = scale_rows[scale_rows.size() - 2];
    const ScaleRow& concurrent = scale_rows.back();
    if (concurrent.reply_hash != reference.reply_hash) {
      replies_identical = false;
      std::printf("!! x%u: concurrent reply stream diverged\n", clients);
    }
    if (concurrent.wire_bytes != reference.wire_bytes) {
      wire_flat = false;
      std::printf("!! x%u: wire bytes moved with concurrent lane service\n",
                  clients);
    }
    bench::PrintRule();
  }

  CheckRealFleetSchedulerIdentity(*scale_spec, scale_img, scale_input);
  WriteScaleJson(scale_out_path, scale_name, demand_addrs.size(), scale_rows);
  std::printf("reply streams identical to the sequential replay: %s\n",
              replies_identical ? "yes" : "NO");
  std::printf("wire bytes identical to the sequential replay: %s\n",
              wire_flat ? "yes" : "NO");
  std::printf("wrote %s\n", scale_out_path.c_str());
  const bool throughput_ok =
      check_path.empty() ||
      CheckScaleThroughput(check_path, committed_scale, scale_rows);
  return (translations_flat && wire_decreasing && replies_identical &&
          wire_flat && throughput_ok)
             ? 0
             : 1;
}
