// Fleet-scale observability: the TraceMux lane model under real load.
//
// Covers the per-lane export contract (a wrapped lane's orphan E events are
// skipped against ITS OWN span stack, never a neighbor's), cross-lane flow
// events (s/t/f sharing an id, arrow head bound to the enclosing slice), the
// merged trace of a 64-client `host_threads` run under the threaded engine
// (every client lane present, every flow endpoint inside a real span, all
// JSON documents parseable), the fleet-wide inspection safepoint at one and
// four host threads, and server trace lanes following the memo shards, one
// per loop lane. That observability fully on — lanes, metrics, periodic
// inspection — changes nothing guest-visible at any thread count or engine
// is the configuration oracle's (property_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "minicc/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_mux.h"
#include "softcache/inspector.h"
#include "softcache/system.h"
#include "tools/json_min.h"
#include "vm/superblock.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using tools::JsonParser;
using tools::JsonValue;

image::Image LoopImage() {
  auto img = minicc::CompileMiniC(R"(
    int a[256];
    int main() {
      int sum = 0;
      for (int i = 0; i < 256; i = i + 1) { a[i] = i * 3; }
      for (int i = 0; i < 256; i = i + 1) { sum = sum + a[i]; }
      return sum % 251;
    }
  )");
  SC_CHECK(img.ok());
  return std::move(*img);
}

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  const bool ok = JsonParser::Parse(text, &value, &error);
  EXPECT_TRUE(ok) << error;
  return value;
}

// Walks every span event per (pid, tid) lane and checks B/E balance: depth
// never goes negative (no orphan E leaked into the export) and ends at zero
// (every B closed). Returns the number of lanes that carried spans.
size_t CheckPerLaneBalance(const JsonValue& trace) {
  std::map<std::pair<uint64_t, uint64_t>, int64_t> depth;
  for (const JsonValue& e : trace["traceEvents"].array) {
    const std::string& ph = e["ph"].AsString();
    if (ph != "B" && ph != "E") continue;
    const auto lane = std::make_pair(e["pid"].AsU64(), e["tid"].AsU64());
    depth[lane] += ph == "B" ? 1 : -1;
    EXPECT_GE(depth[lane], 0) << "orphan E in lane pid=" << lane.first
                              << " tid=" << lane.second;
  }
  for (const auto& [lane, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span in lane pid=" << lane.first
                    << " tid=" << lane.second;
  }
  return depth.size();
}

// --- Per-lane re-balancing ------------------------------------------------

TEST(TraceMux, WrappedLaneDoesNotUnbalanceNeighbors) {
  obs::TraceMux mux;
  obs::Tracer* wrapped = mux.AddLane("wrapped", "main", 1, 0);
  obs::Tracer* clean = mux.AddLane("clean", "main", 2, 0);
  wrapped->Enable(4);  // tiny ring: guaranteed to wrap below
  clean->Enable(64);

  // Sequential spans overflow the small ring so its surviving tail begins
  // with orphan E events; the clean lane holds one properly nested span.
  for (int i = 0; i < 8; ++i) {
    wrapped->Begin("t", "span");
    wrapped->End("t", "span");
  }
  EXPECT_GT(wrapped->dropped_events(), 0u);
  clean->Begin("t", "outer");
  clean->Instant("t", "tick");
  clean->End("t", "outer");

  std::ostringstream out;
  mux.ExportChromeJson(out);
  const JsonValue trace = MustParse(out.str());
  EXPECT_EQ(CheckPerLaneBalance(trace), 2u);

  // The clean lane came through untouched: exactly one B/E pair plus the
  // instant, none of them eaten by the wrapped neighbor's orphan handling.
  size_t clean_b = 0, clean_e = 0, clean_i = 0;
  for (const JsonValue& e : trace["traceEvents"].array) {
    if (e["pid"].AsU64() != 2) continue;
    const std::string& ph = e["ph"].AsString();
    if (ph == "B") ++clean_b;
    if (ph == "E") ++clean_e;
    if (ph == "i") ++clean_i;
  }
  EXPECT_EQ(clean_b, 1u);
  EXPECT_EQ(clean_e, 1u);
  EXPECT_EQ(clean_i, 1u);
  EXPECT_EQ(mux.TotalDropped(), wrapped->dropped_events());
}

TEST(TraceMux, FlowEventsCarryIdsAcrossLanes) {
  obs::TraceMux mux;
  obs::Tracer* client = mux.AddLane("client", "vm", 1, 0);
  obs::Tracer* server = mux.AddLane("server", "shard", 0, 1);
  mux.EnableAll(64);

  client->Begin("cc", "fetch");
  client->FlowStart("cc", "miss", 0x107);
  client->End("cc", "fetch");
  server->Begin("mc", "handle");
  server->FlowStep("mc", "miss", 0x107);
  server->End("mc", "handle");
  client->Begin("cc", "install");
  client->FlowEnd("cc", "miss", 0x107);
  client->End("cc", "install");

  std::ostringstream out;
  mux.ExportChromeJson(out);
  const std::string json = out.str();
  const JsonValue trace = MustParse(json);
  CheckPerLaneBalance(trace);

  size_t starts = 0, steps = 0, ends = 0;
  for (const JsonValue& e : trace["traceEvents"].array) {
    const std::string& ph = e["ph"].AsString();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    EXPECT_EQ(e["id"].AsU64(), 0x107u);
    if (ph == "s") ++starts;
    if (ph == "t") ++steps;
    if (ph == "f") ++ends;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(steps, 1u);
  EXPECT_EQ(ends, 1u);
  // The arrow head binds to its enclosing slice, not the following one.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(TraceMux, WrapUnderLoadKeepsEveryLaneBalanced) {
  // Regression for the per-lane orphan-E rule under real load: a whole
  // fleet traced into rings small enough that client lanes wrap mid-span.
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 8;
  config.base.tcache_bytes = 4 * 1024;  // small tcache: extra miss traffic
  softcache::MultiClientSystem fleet(img, config);
  obs::TraceMux mux;
  fleet.AttachTraceMux(&mux);
  mux.EnableAll(64);  // tiny rings: wrap is the point

  const auto results = fleet.RunAll();
  for (const auto& r : results) EXPECT_EQ(r.reason, vm::StopReason::kHalted);
  EXPECT_GT(mux.TotalDropped(), 0u);

  std::ostringstream out;
  mux.ExportChromeJson(out);
  const JsonValue trace = MustParse(out.str());
  EXPECT_GE(CheckPerLaneBalance(trace), 8u);
}

// --- The 64-client threaded merged trace ----------------------------------

TEST(FleetObservability, MergedTraceUnder64ThreadedClients) {
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 64;
  config.base.tcache_bytes = 8 * 1024;
  config.host_threads = 4;
  softcache::MultiClientSystem fleet(img, config);
  for (size_t i = 0; i < fleet.clients(); ++i) {
    fleet.machine(i).set_engine(vm::Engine::kThreaded);
  }

  obs::TraceMux mux;
  fleet.AttachTraceMux(&mux);
  mux.EnableAll();
  obs::MetricsRegistry registry;
  fleet.RegisterMetrics(&registry);
  mux.RegisterMetrics(&registry);

  // Periodic inspection exercises the safepoint under threads: no client
  // runs while the hook reads cross-client state, then everyone resumes.
  // The hook must see monotone fleet-min cycle counts.
  uint64_t inspections = 0;
  uint64_t last_floor = 0;
  softcache::Inspector inspector(&fleet);
  fleet.set_inspection_hook(1000, [&](uint64_t fleet_min) {
    ++inspections;
    EXPECT_GE(fleet_min, last_floor);
    last_floor = fleet_min;
    std::ostringstream snap;
    inspector.WriteJson(snap, "periodic");
    const JsonValue parsed = MustParse(snap.str());
    EXPECT_EQ(parsed["clients"].array.size(), 64u);
  });

  const auto results = fleet.RunAll();
  ASSERT_EQ(results.size(), 64u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].reason, vm::StopReason::kHalted) << "client " << i;
  }
  EXPECT_GT(inspections, 0u);
  EXPECT_EQ(mux.TotalDropped(), 0u);

  std::ostringstream out;
  mux.ExportChromeJson(out);
  const JsonValue trace = MustParse(out.str());

  // Every client lane (pids 1..64) plus the server shard lane carried
  // spans, and each lane's stream is balanced.
  EXPECT_GE(CheckPerLaneBalance(trace), 65u);
  std::set<uint64_t> span_pids;
  for (const JsonValue& e : trace["traceEvents"].array) {
    if (e["ph"].AsString() == "B") span_pids.insert(e["pid"].AsU64());
  }
  for (uint64_t pid = 0; pid <= 64; ++pid) {
    EXPECT_TRUE(span_pids.count(pid)) << "no spans in lane pid " << pid;
  }

  // Flow endpoints resolve: every flow id has a start and an end, and every
  // flow event sits inside a real span of its own lane.
  std::map<std::pair<uint64_t, uint64_t>,
           std::vector<std::pair<uint64_t, uint64_t>>>
      spans;  // lane -> [begin_ts, end_ts]
  {
    std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>> open;
    for (const JsonValue& e : trace["traceEvents"].array) {
      const std::string& ph = e["ph"].AsString();
      const auto lane = std::make_pair(e["pid"].AsU64(), e["tid"].AsU64());
      if (ph == "B") open[lane].push_back(e["ts"].AsU64());
      if (ph == "E") {
        ASSERT_FALSE(open[lane].empty());
        spans[lane].emplace_back(open[lane].back(), e["ts"].AsU64());
        open[lane].pop_back();
      }
    }
  }
  std::map<uint64_t, int> flow_starts, flow_ends;
  size_t flow_events = 0;
  for (const JsonValue& e : trace["traceEvents"].array) {
    const std::string& ph = e["ph"].AsString();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    ++flow_events;
    if (ph == "s") ++flow_starts[e["id"].AsU64()];
    if (ph == "f") ++flow_ends[e["id"].AsU64()];
    const auto lane = std::make_pair(e["pid"].AsU64(), e["tid"].AsU64());
    const uint64_t ts = e["ts"].AsU64();
    bool inside = false;
    for (const auto& [b, end] : spans[lane]) {
      if (ts >= b && ts <= end) {
        inside = true;
        break;
      }
    }
    EXPECT_TRUE(inside) << ph << " event at ts " << ts << " outside any span"
                        << " in lane pid=" << lane.first
                        << " tid=" << lane.second;
  }
  EXPECT_GT(flow_events, 0u);
  for (const auto& [id, n] : flow_starts) {
    EXPECT_EQ(flow_ends.count(id), 1u) << "flow id " << id << " never ended";
    EXPECT_EQ(flow_ends[id], n) << "flow id " << id << " start/end mismatch";
  }
  for (const auto& [id, n] : flow_ends) {
    EXPECT_EQ(flow_starts.count(id), 1u)
        << "flow id " << id << " ended without a start";
  }

  // The metrics document (with the per-lane dropped counters mixed in) and
  // a post-run inspector snapshot both parse.
  MustParse(registry.ToJson());
  std::ostringstream snap;
  inspector.WriteJson(snap, "final");
  const JsonValue parsed = MustParse(snap.str());
  EXPECT_EQ(parsed["clients"].array.size(), 64u);
  EXPECT_TRUE(parsed["server"].is_object());
}

// --- One inspection safepoint at every thread count -----------------------

class FleetSafepoint : public ::testing::TestWithParam<uint32_t> {};

// The hook runs with no client stepping: its argument is the minimum clock
// over unfinished clients, no clock moves while it runs, and successive
// arguments never go back.
TEST_P(FleetSafepoint, HookSeesQuiescentFleetMin) {
  const image::Image img = LoopImage();
  softcache::MultiClientConfig config;
  config.clients = 8;
  config.base.tcache_bytes = 8 * 1024;
  config.host_threads = GetParam();
  softcache::MultiClientSystem fleet(img, config);

  // Every client's clock at each hook call, checked against the final
  // clocks after the run: a client is unfinished at a hook iff its clock
  // there is below its final clock (every instruction costs cycles).
  std::vector<uint64_t> hook_args;
  std::vector<std::vector<uint64_t>> hook_clocks;
  fleet.set_inspection_hook(5000, [&](uint64_t fleet_min) {
    std::vector<uint64_t> before;
    for (size_t i = 0; i < fleet.clients(); ++i) {
      before.push_back(fleet.machine(i).cycles());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (size_t i = 0; i < fleet.clients(); ++i) {
      EXPECT_EQ(fleet.machine(i).cycles(), before[i])
          << "client " << i << " ran during the inspection hook";
    }
    hook_args.push_back(fleet_min);
    hook_clocks.push_back(std::move(before));
  });

  const auto results = fleet.RunAll();
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted) << "client " << i;
  }
  ASSERT_GT(hook_args.size(), 1u);
  for (size_t k = 0; k < hook_args.size(); ++k) {
    uint64_t min_unfinished = UINT64_MAX;
    for (size_t i = 0; i < results.size(); ++i) {
      if (hook_clocks[k][i] < results[i].cycles) {
        min_unfinished = std::min(min_unfinished, hook_clocks[k][i]);
      }
    }
    EXPECT_EQ(hook_args[k], min_unfinished) << "inspection " << k;
    if (k > 0) {
      EXPECT_GT(hook_args[k], hook_args[k - 1]) << "inspection " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HostThreads, FleetSafepoint, ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "host_threads_" +
                                  std::to_string(param_info.param);
                         });

// --- Server trace lanes follow the memo shards ---------------------------

TEST(ObsFleet, ServerTraceLanesFollowShards) {
  // The server's trace lanes are its memo shards, whoever pumps them: no
  // "loop" or "worker" lane exists, and every frame's server work lands in
  // the trace lane of the shard its address maps to. adpcm_enc's demand
  // reaches past the first quarter of its text, so the fleet's frames
  // spread over more than one shard lane.
  const image::Image img =
      workloads::CompileWorkload(*workloads::FindWorkload("adpcm_enc"));
  constexpr uint32_t kShards = 4;
  softcache::MultiClientConfig config;
  config.clients = 8;
  config.base.tcache_bytes = 4 * 1024;
  config.server.shards = kShards;
  softcache::MultiClientSystem fleet(img, config);
  for (uint32_t i = 0; i < config.clients; ++i) {
    fleet.SetInput(i, workloads::MakeInput("adpcm_enc", 1, 7 + i));
  }
  EXPECT_EQ(fleet.server_loop().lanes(), kShards);
  obs::TraceMux mux;
  fleet.AttachTraceMux(&mux);
  mux.EnableAll(1 << 16);
  for (const auto& r : fleet.RunAll()) {
    EXPECT_EQ(r.reason, vm::StopReason::kHalted);
  }
  ASSERT_EQ(mux.TotalDropped(), 0u);
  std::ostringstream out;
  mux.ExportChromeJson(out);

  const JsonValue trace = MustParse(out.str());
  std::map<uint64_t, uint64_t> tickets_per_tid;
  std::set<uint64_t> awaiting_handle;  // tids inside an unchecked ticket
  uint64_t checked = 0;
  for (const JsonValue& e : trace["traceEvents"].array) {
    const std::string& ph = e["ph"].AsString();
    if (ph == "M" && e["name"].AsString() == "thread_name") {
      const std::string& thread = e["args"]["name"].AsString();
      EXPECT_NE(thread, "loop");
      EXPECT_NE(thread.rfind("worker ", 0), 0u) << "lane " << thread;
    }
    if (ph != "B") continue;
    const std::string& name = e["name"].AsString();
    const uint64_t tid = e["tid"].AsU64();
    if (name == "ticket") {
      ASSERT_EQ(e["pid"].AsU64(), 0u);
      ASSERT_GE(tid, 1u);
      ASSERT_LE(tid, kShards);
      ++tickets_per_tid[tid];
      awaiting_handle.insert(tid);
    } else if (name == "handle" && awaiting_handle.erase(tid) != 0) {
      // The ticket's mc.handle span names the frame's address.
      const uint32_t addr = static_cast<uint32_t>(e["args"]["addr"].AsU64());
      EXPECT_EQ(1 + fleet.mc().server().ShardFor(addr), tid)
          << "ticket for addr " << addr << " in the wrong shard lane";
      ++checked;
    }
  }
  uint64_t tickets = 0;
  for (const auto& [tid, n] : tickets_per_tid) tickets += n;
  EXPECT_GT(tickets, 0u);
  EXPECT_EQ(checked, tickets);
  EXPECT_GE(tickets_per_tid.size(), 2u) << "demand never left one shard";
}

}  // namespace
}  // namespace sc
