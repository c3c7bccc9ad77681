// Speculative prefetch + batched replies: round trips, wire bytes and
// prefetch quality per policy, per workload.
//
// The paper charges 60 application bytes of protocol framing per chunk
// (Section 2.4); batching N chunks into one kChunkBatchReply pays that
// framing once plus 16 bytes of sub-header per chunk, and a staged chunk
// that is later demanded saves a full round trip. This bench runs each
// bundled workload with prefetch off and with next-N batching and emits
// BENCH_prefetch.json.
//
// Flags:
//   --smoke       one workload only (CI crash check)
//   --out=PATH    JSON output path (default BENCH_prefetch.json)
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace sc;

namespace {

struct Row {
  std::string workload;
  std::string policy;
  uint64_t round_trips = 0;   // logical RPCs over the link
  uint64_t wire_bytes = 0;    // both directions, framing included
  uint64_t cycles = 0;
  uint64_t staged_hits = 0;
  double accuracy = 0.0;      // prefetched chunks later demanded
  double coverage = 0.0;      // demand fetches served from staging
};

softcache::SoftCacheConfig BaseConfig() {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 64 * 1024;
  return config;
}

// One cached run, checked against the native output.
Row RunWith(const std::string& workload, const image::Image& img,
            const std::vector<uint8_t>& input, const std::string& expected,
            const softcache::SoftCacheConfig& config, const char* label) {
  const bench::CachedRun run = bench::RunCachedWorkload(img, input, config);
  SC_CHECK(run.output == expected)
      << workload << "/" << label << " output diverged from native";
  Row row;
  row.workload = workload;
  row.policy = label;
  row.round_trips = run.stats.net.requests;
  row.wire_bytes = run.net.total_bytes();
  row.cycles = run.result.cycles;
  row.staged_hits = run.stats.prefetch.hits;
  row.accuracy = run.stats.prefetch.accuracy();
  row.coverage = run.stats.prefetch.coverage();
  return row;
}

void PrintRow(const Row& row, const Row& off) {
  const double trip_save =
      off.round_trips == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(row.round_trips) /
                               static_cast<double>(off.round_trips));
  std::printf("%-10s %-10s %8llu %7.1f%% %12llu %8llu %7.2f %7.2f\n",
              row.workload.c_str(), row.policy.c_str(),
              static_cast<unsigned long long>(row.round_trips), trip_save,
              static_cast<unsigned long long>(row.wire_bytes),
              static_cast<unsigned long long>(row.staged_hits), row.accuracy,
              row.coverage);
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  SC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"prefetch\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"policy\": \"%s\", "
                 "\"round_trips\": %llu, \"wire_bytes\": %llu, "
                 "\"cycles\": %llu, \"staged_hits\": %llu, "
                 "\"accuracy\": %.4f, \"coverage\": %.4f}%s\n",
                 r.workload.c_str(), r.policy.c_str(),
                 static_cast<unsigned long long>(r.round_trips),
                 static_cast<unsigned long long>(r.wire_bytes),
                 static_cast<unsigned long long>(r.cycles),
                 static_cast<unsigned long long>(r.staged_hits), r.accuracy,
                 r.coverage, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_prefetch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::PrintHeader(
      "Speculative chunk prefetch with batched multi-chunk replies",
      "Section 2.4 (60 B/chunk framing) + CFG-guided speculation");

  std::vector<std::string> names = {"adpcm_enc", "compress95", "gzip",
                                    "cjpeg",     "hextobdd",   "sha256"};
  if (smoke) names.resize(1);

  std::printf("%-10s %-10s %8s %8s %12s %8s %7s %7s\n", "workload", "policy",
              "rpcs", "saved", "wire bytes", "hits", "acc", "cov");
  bench::PrintRule();

  std::vector<Row> rows;
  uint64_t improved = 0;
  for (const std::string& name : names) {
    const auto* spec = workloads::FindWorkload(name);
    SC_CHECK(spec != nullptr) << "unknown workload " << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const bench::NativeRun native = bench::RunNativeWorkload(img, input);

    // kOff: one 60-byte-framed round trip per chunk, byte-identical to the
    // seed protocol (bench_net reproduces the accounting).
    softcache::SoftCacheConfig config = BaseConfig();
    const Row off = RunWith(name, img, input, native.output, config, "off");
    rows.push_back(off);
    PrintRow(off, off);

    // The speculative row walks deeper than the default and under a tight
    // byte budget, so admission is contended rather than taking the whole
    // candidate set.
    config.prefetch.depth = 4;
    config.prefetch.byte_budget = 1024;
    config.prefetch.policy = softcache::PrefetchPolicy::kNextN;
    const Row next = RunWith(name, img, input, native.output, config, "nextN");
    rows.push_back(next);
    PrintRow(next, off);

    if (next.round_trips * 10 <= off.round_trips * 7 &&
        next.wire_bytes < off.wire_bytes) {
      ++improved;
    }
  }

  WriteJson(out_path, rows);
  std::printf("\nworkloads with >=30%% fewer round trips AND fewer wire bytes"
              " (nextN vs off): %llu of %llu\n",
              static_cast<unsigned long long>(improved),
              static_cast<unsigned long long>(names.size()));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
