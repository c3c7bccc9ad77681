// Observability subsystem: ring tracer + Chrome JSON export, metrics
// registry snapshot/delta, bounded Timeline/Series, and a system run's
// trace and metrics. The contract that observation never perturbs the
// simulation is the configuration oracle's (property_test).
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "softcache/system.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

// --- Minimal JSON checker -------------------------------------------------
// Validates syntax (objects, arrays, strings, numbers, literals). Returns
// true iff the whole string is one valid JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek('}')) { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek(']')) { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (!Peek('"')) return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool Peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// RAII: installs a tracer globally, removes it on scope exit so no test
// leaks tracing into another.
struct ScopedTracer {
  explicit ScopedTracer(obs::Tracer* t) { obs::SetTracer(t); }
  ~ScopedTracer() { obs::SetTracer(nullptr); }
};

// --- Tracer ---------------------------------------------------------------

TEST(Tracer, RecordsSpansAndInstants) {
  obs::Tracer tracer;
  tracer.Enable(64);
  ScopedTracer install(&tracer);
  {
    OBS_SPAN("test", "outer", "x", 1u);
    OBS_INSTANT("test", "tick", "v", 42u);
  }
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ph, obs::Phase::kBegin);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[1].ph, obs::Phase::kInstant);
  EXPECT_EQ(events[1].arg_val[0], 42u);
  EXPECT_EQ(events[2].ph, obs::Phase::kEnd);
}

TEST(Tracer, DisabledRecordsNothingAndAllocatesNothing) {
  obs::Tracer tracer;  // never enabled
  ScopedTracer install(&tracer);
  OBS_INSTANT("test", "tick");
  { OBS_SPAN("test", "span"); }
  EXPECT_EQ(tracer.recorded_events(), 0u);
  EXPECT_EQ(tracer.capacity(), 0u);  // ring never allocated
}

TEST(Tracer, RingWrapDropsOldestAndCounts) {
  obs::Tracer tracer;
  tracer.Enable(4);
  ScopedTracer install(&tracer);
  for (uint64_t i = 0; i < 10; ++i) OBS_INSTANT("test", "tick", "i", i);
  EXPECT_EQ(tracer.recorded_events(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().arg_val[0], 6u);  // oldest survivor
  EXPECT_EQ(events.back().arg_val[0], 9u);
}

TEST(Tracer, FillsToCapacityThenWrapsOnTheNextEvent) {
  obs::Tracer tracer;
  tracer.Enable(8);
  ScopedTracer install(&tracer);
  for (uint64_t i = 0; i < 8; ++i) OBS_INSTANT("test", "tick", "i", i);
  EXPECT_EQ(tracer.recorded_events(), 8u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].arg_val[0], i);

  OBS_INSTANT("test", "tick", "i", 8u);
  EXPECT_EQ(tracer.recorded_events(), 8u);
  EXPECT_EQ(tracer.dropped_events(), 1u);
  events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].arg_val[0], i + 1);
}

TEST(Tracer, CapacityIsTheConfiguredSizeBeforeAnyEvent) {
  obs::Tracer tracer;
  tracer.Enable(1000);
  EXPECT_EQ(tracer.capacity(), 1000u);
  EXPECT_EQ(tracer.recorded_events(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.Enable(0);
  EXPECT_EQ(tracer.capacity(), 1u);  // a ring holds at least one event
}

TEST(Tracer, ReEnableKeepsEventsUnlessTheCapacityChanges) {
  obs::Tracer tracer;
  tracer.Enable(2);
  {
    ScopedTracer install(&tracer);
    for (uint64_t i = 0; i < 3; ++i) OBS_INSTANT("test", "tick", "i", i);
  }
  tracer.Disable();
  tracer.Enable(2);
  EXPECT_EQ(tracer.recorded_events(), 2u);
  EXPECT_EQ(tracer.dropped_events(), 1u);
  {
    ScopedTracer install(&tracer);
    OBS_INSTANT("test", "tick", "i", 3u);  // still wraps where it left off
  }
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].arg_val[0], 2u);
  EXPECT_EQ(events[1].arg_val[0], 3u);

  tracer.Enable(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.recorded_events(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  {
    ScopedTracer install(&tracer);
    OBS_INSTANT("test", "tick", "i", 4u);
  }
  events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg_val[0], 4u);
}

TEST(Tracer, ClockSourceTimestamps) {
  obs::Tracer tracer;
  tracer.Enable(16);
  uint64_t clock = 100;
  tracer.SetClockSource(&clock);
  ScopedTracer install(&tracer);
  OBS_INSTANT("test", "a");
  clock = 250;
  OBS_INSTANT("test", "b");
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[1].ts, 250u);
}

TEST(Tracer, ExportIsValidJsonWithNestedPairs) {
  obs::Tracer tracer;
  tracer.Enable(64);
  ScopedTracer install(&tracer);
  {
    OBS_SPAN("test", "outer");
    {
      OBS_SPAN("test", "inner", "k", 7u);
      OBS_INSTANT("test", "tick");
    }
  }
  std::ostringstream out;
  tracer.ExportChromeJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // B/E pairs nest: walk the emitted phases in order.
  int depth = 0;
  int max_depth = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    const char ph = json[pos + 6];
    if (ph == 'B') {
      ++depth;
      max_depth = std::max(max_depth, depth);
    } else if (ph == 'E') {
      --depth;
      ASSERT_GE(depth, 0) << "E without matching B";
    }
    ++pos;
  }
  EXPECT_EQ(depth, 0) << "unclosed span in export";
  EXPECT_EQ(max_depth, 2);
}

TEST(Tracer, ExportRebalancesWrappedRing) {
  obs::Tracer tracer;
  tracer.Enable(4);
  ScopedTracer install(&tracer);
  // 8 sequential spans: the ring keeps only the tail, whose first events
  // include orphan E records.
  for (int i = 0; i < 8; ++i) { OBS_SPAN("test", "span"); }
  std::ostringstream out;
  tracer.ExportChromeJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  int depth = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    const char ph = json[pos + 6];
    if (ph == 'B') ++depth;
    if (ph == 'E') {
      --depth;
      ASSERT_GE(depth, 0);
    }
    ++pos;
  }
  EXPECT_EQ(depth, 0);
}

TEST(Tracer, ExportClosesOpenSpanAtLastTimestamp) {
  obs::Tracer tracer;
  tracer.Enable(16);
  uint64_t clock = 1;
  tracer.SetClockSource(&clock);
  tracer.Begin("test", "open");
  clock = 99;
  tracer.Instant("test", "late");
  std::ostringstream out;
  tracer.ExportChromeJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The synthesized E must carry the last timestamp (99).
  const size_t e_pos = json.find("\"ph\":\"E\"");
  ASSERT_NE(e_pos, std::string::npos);
  EXPECT_NE(json.find("\"ts\":99", e_pos), std::string::npos) << json;
}

// --- Timeline -------------------------------------------------------------

TEST(Timeline, ExactModeMatchesRawTimestamps) {
  obs::Timeline timeline(8, 4);
  for (uint64_t t : {10u, 20u, 30u, 40u}) timeline.Add(t);
  EXPECT_FALSE(timeline.collapsed());
  EXPECT_EQ(timeline.total(), 4u);
  EXPECT_EQ(timeline.CountInRange(15, 35), 2u);
  EXPECT_EQ(timeline.samples().size(), 4u);
}

TEST(Timeline, RemoveLastUndoesAdd) {
  obs::Timeline timeline(8, 4);
  timeline.Add(10);
  timeline.Add(20);
  timeline.RemoveLast(20);
  EXPECT_EQ(timeline.total(), 1u);
  EXPECT_EQ(timeline.CountInRange(0, 100), 1u);
}

TEST(Timeline, CollapsesPastCapacityAndStaysBounded) {
  obs::Timeline timeline(16, 8);
  for (uint64_t t = 0; t < 10'000; ++t) timeline.Add(t * 100);
  EXPECT_TRUE(timeline.collapsed());
  EXPECT_EQ(timeline.total(), 10'000u);
  EXPECT_LE(timeline.bin_counts().size(), 8u);
  // Range counts remain approximately right: the full range is exact.
  EXPECT_EQ(timeline.CountInRange(0, UINT64_MAX), 10'000u);
  // Half the range lands within a bin width of 5000.
  const uint64_t half = timeline.CountInRange(0, 500'000);
  EXPECT_NEAR(static_cast<double>(half), 5000.0,
              static_cast<double>(timeline.bin_width()) / 100.0);
}

// --- Series ---------------------------------------------------------------

TEST(Series, ThinsByStrideDoubling) {
  obs::Series series(8);
  for (uint64_t t = 0; t < 1000; ++t) series.Add(t, t * 2);
  EXPECT_LE(series.points().size(), 8u);
  EXPECT_EQ(series.total_observations(), 1000u);
  EXPECT_GT(series.stride(), 1u);
  // Points stay in time order.
  for (size_t i = 1; i < series.points().size(); ++i) {
    EXPECT_LT(series.points()[i - 1].t, series.points()[i].t);
  }
}

// --- Metrics registry -----------------------------------------------------

TEST(MetricsRegistry, SnapshotAndDeltaRoundTrip) {
  uint64_t a = 5;
  uint64_t b = 100;
  obs::MetricsRegistry registry;
  registry.RegisterCounter("x.a", &a);
  registry.RegisterCounter("x.b", &b);
  registry.RegisterGauge("x.ratio", [&] {
    return static_cast<double>(a) / static_cast<double>(b);
  });
  const auto before = registry.TakeSnapshot();
  a += 7;
  b += 1;
  const auto after = registry.TakeSnapshot();
  const auto delta = obs::MetricsRegistry::Snapshot::Delta(before, after);
  EXPECT_EQ(delta.counters.at("x.a"), 7u);
  EXPECT_EQ(delta.counters.at("x.b"), 1u);
  // Snapshot equality: a fresh snapshot of unchanged state compares equal.
  EXPECT_TRUE(after == registry.TakeSnapshot());
  EXPECT_FALSE(before == after);
  // Both snapshots and deltas export as valid JSON.
  EXPECT_TRUE(JsonChecker(before.ToJson()).Valid());
  EXPECT_TRUE(JsonChecker(delta.ToJson()).Valid());
}

TEST(MetricsRegistry, FullJsonExport) {
  uint64_t counter = 3;
  util::Histogram hist(0, 100, 10);
  hist.Add(10);
  hist.Add(90);
  obs::Timeline timeline(8, 4);
  timeline.Add(1);
  obs::Series series(8);
  series.Add(1, 10);
  obs::MetricsRegistry registry;
  registry.RegisterCounter("c", &counter);
  registry.RegisterGauge("g", [] { return 0.5; });
  registry.RegisterHistogram("h", &hist);
  registry.RegisterTimeline("t", &timeline);
  registry.RegisterSeries("s", &series);
  registry.RegisterTable("tab", [] {
    return std::vector<std::pair<uint64_t, uint64_t>>{{0x400, 7}, {0x500, 3}};
  });
  EXPECT_EQ(registry.metric_count(), 6u);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* needle :
       {"\"c\"", "\"g\"", "\"h\"", "\"t\"", "\"s\"", "\"tab\"", "p50", "p95",
        "p99"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

// --- End-to-end: the miss path in the trace and the metrics ---------------
// (That observation does not perturb the run is the configuration oracle's:
// property_test's R3.)

TEST(Observability, SystemTraceCoversMissPath) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  SC_CHECK(spec != nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kArm;
  config.tcache_bytes = 2048;
  config.prefetch.policy = softcache::PrefetchPolicy::kNextN;

  obs::Tracer tracer;
  tracer.Enable(1 << 16);
  obs::SetTracer(&tracer);
  softcache::SoftCacheSystem system(img, config);
  // decode_fill is an interpreter event (the threaded engine replaces the
  // decode cache with superblock fills), so this run pins the interpreter.
  system.machine().set_engine(vm::Engine::kInterp);
  system.SetInput(workloads::MakeInput("dijkstra", 1));
  const vm::RunResult result = system.Run();
  obs::SetTracer(nullptr);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);

  bool saw_tcmiss = false, saw_call = false, saw_tx = false, saw_rx = false,
       saw_handle = false, saw_translate = false, saw_install = false,
       saw_patch = false, saw_evict = false, saw_stage = false,
       saw_decode = false;
  for (const obs::TraceEvent& e : tracer.Snapshot()) {
    const std::string name = e.name;
    if (name == "tcmiss") saw_tcmiss = true;
    if (name == "call") saw_call = true;
    if (name == "tx") saw_tx = true;
    if (name == "rx") saw_rx = true;
    if (name == "handle") saw_handle = true;
    if (name == "translate") saw_translate = true;
    if (name == "install") saw_install = true;
    if (name == "patch") saw_patch = true;
    if (name == "evict") saw_evict = true;
    if (name == "stage") saw_stage = true;
    if (name == "decode_fill") saw_decode = true;
  }
  EXPECT_TRUE(saw_tcmiss);
  EXPECT_TRUE(saw_call);
  EXPECT_TRUE(saw_tx);
  EXPECT_TRUE(saw_rx);
  EXPECT_TRUE(saw_handle);
  EXPECT_TRUE(saw_translate);
  EXPECT_TRUE(saw_install);
  EXPECT_TRUE(saw_patch);
  EXPECT_TRUE(saw_evict);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_decode);
}

TEST(Observability, SystemMetricsMatchStatsStructs) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  SC_CHECK(spec != nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  softcache::SoftCacheConfig config;
  config.tcache_bytes = 4096;
  softcache::SoftCacheSystem system(img, config);
  system.SetInput(workloads::MakeInput("dijkstra", 1));
  obs::MetricsRegistry registry;
  system.RegisterMetrics(&registry);
  const vm::RunResult result = system.Run();
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  // The registry is a view: values are the stats structs' values, no copies.
  const auto snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("cc.blocks_translated"),
            system.stats().blocks_translated);
  EXPECT_EQ(snap.counters.at("cc.tcmiss_traps"), system.stats().tcmiss_traps);
  EXPECT_EQ(snap.counters.at("net.link.requests"), system.stats().net.requests);
  EXPECT_EQ(snap.counters.at("vm.cycles"), result.cycles);
  EXPECT_EQ(snap.counters.at("mc.requests_served"),
            system.mc().server().stats().requests_served);
  // Miss latency histogram is populated and percentiles are ordered.
  const util::Histogram& lat = system.cc().miss_latency();
  EXPECT_EQ(lat.total(), system.stats().tcmiss_traps);
  EXPECT_LE(lat.Percentile(50), lat.Percentile(95));
  EXPECT_LE(lat.Percentile(95), lat.Percentile(99));
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid());
}

}  // namespace
}  // namespace sc
