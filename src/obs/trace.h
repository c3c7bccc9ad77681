// Structured event tracing: a low-overhead, ring-buffered recorder for
// spans (B/E pairs), instant events and flow events, timestamped in guest
// cycles, with a Chrome trace-event JSON exporter (loadable in
// chrome://tracing and Perfetto).
//
// Design constraints, in priority order:
//   * Zero cost when off. Every instrumentation site compiles to one load
//     of the current tracer pointer and a branch; no allocation, no
//     formatting, no string copies happen unless a tracer is installed and
//     enabled. A test asserts that cycle counts and every stats counter are
//     bit-identical with tracing on and off (observation never charges
//     guest cycles).
//   * Bounded memory. Events land in a fixed-capacity ring buffer. Enable()
//     reserves the capacity but writes nothing, so the ring pays for pages
//     only as events arrive; once it is full it wraps, the oldest events are
//     overwritten and counted in dropped_events(). Event names/categories
//     must be string literals (the ring stores the pointers).
//   * Honest export. The exporter re-balances the span stream so the JSON
//     always contains properly nested B/E pairs: orphan E events from a
//     wrapped ring are skipped (per lane, never across lanes), spans still
//     open at export time are closed at the last recorded timestamp, and a
//     lane that dropped events says so — a warning goes to stderr at export
//     time and the count is exported in the JSON, never silently truncated.
//
// Thread-confinement contract (replacing the original single-threaded
// design): the installed tracer is a THREAD-LOCAL pointer, and each Tracer
// ring accepts writes from exactly one thread at a time. Fleet runs under
// `host_threads` give every client VM its own lane (a Tracer installed in
// that worker's thread-local slot while it runs the client) and the server
// loop its own lanes, written only under the loop's serialization mutex
// (those lanes opt out of the single-thread assert via
// set_thread_affine(false); their writes are ordered by the lock instead).
// Record() asserts the rule, so a lane leaking across threads fails fast
// instead of silently corrupting the ring. TraceMux (trace_mux.h) merges
// lanes into one Chrome trace with proper pid/tid rows.
//
// Timestamps come from an external clock pointer — normally vm::Machine's
// cycle counter — so a lane's timeline is its client's notion of time.
// Lanes without a clock source (the server lanes) run on a manual clock:
// AdvanceClockFloor() pushes the lane's clock forward to the guest-cycle
// timestamp the triggering request was enqueued at, so server spans sort
// causally after the client events that caused them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <thread>
#include <vector>

namespace sc::obs {

enum class Phase : uint8_t {
  kBegin,      // Chrome "B"
  kEnd,        // Chrome "E"
  kInstant,    // Chrome "i"
  kFlowStart,  // Chrome "s" — start of a cross-lane causal arrow
  kFlowStep,   // Chrome "t" — intermediate point of the arrow
  kFlowEnd,    // Chrome "f" — arrow head (binds to the enclosing slice)
};

// One recorded event. `name` and `cat` must point at string literals (or
// other storage outliving the tracer); up to two integer args ride along.
// Flow phases additionally carry the flow id linking the arrow's points.
struct TraceEvent {
  uint64_t ts = 0;  // guest cycles
  uint64_t flow_id = 0;
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg_name[2] = {nullptr, nullptr};
  uint64_t arg_val[2] = {0, 0};
  Phase ph = Phase::kInstant;
  uint8_t arg_count = 0;
};

class Tracer {
 public:
  // A tracer starts disabled and owns no ring memory.
  Tracer() = default;

  // Starts recording into a ring of `capacity` events (at least 1). The ring
  // reserves its capacity and pays for pages as events arrive. Re-enabling
  // with the same capacity keeps the recorded events; a different capacity
  // starts an empty ring.
  void Enable(size_t capacity = kDefaultCapacity);
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_ || echo_log_; }
  bool recording() const { return enabled_; }

  // Timestamp source (usually &machine.cycles()'s storage, via
  // vm::Machine::cycles_counter()). Null falls back to a manual clock: the
  // event sequence number, raised through AdvanceClockFloor().
  void SetClockSource(const uint64_t* cycles) { clock_ = cycles; }

  // Manual-clock lanes only (no clock source): raises the lane clock to at
  // least `t`. Server lanes call this with the triggering ticket's
  // guest-cycle enqueue timestamp so their spans sort after their cause.
  // Monotone: a lower `t` never moves the clock backwards.
  void AdvanceClockFloor(uint64_t t) {
    if (t > floor_) floor_ = t;
  }

  // The timestamp the next event would get; lets callers stamp cross-lane
  // metadata (e.g. a ticket's enqueue time) from this lane's clock.
  uint64_t CurrentTimestamp() const {
    if (clock_ != nullptr) return *clock_;
    return seq_ > floor_ ? seq_ : floor_;
  }

  // Thread confinement (see file comment). Default on: the first Record()
  // binds the ring to the calling thread and later writes from any other
  // thread are fatal. Lanes whose writes are serialized externally (the
  // server lanes, under the loop mutex) opt out.
  void set_thread_affine(bool affine) { thread_affine_ = affine; }
  bool thread_affine() const { return thread_affine_; }
  // Re-arms the confinement check when lane ownership legitimately moves to
  // a new thread: the threaded fleet scheduler attaches clients on the main
  // thread, then hands each client's lane to the worker that runs it. Call
  // only from the new owner, with the old owner provably done writing.
  void RebindThread() { owner_bound_ = false; }

  // Echo mode: every recorded event is additionally emitted as one
  // SOFTCACHE_LOG trace-level log line. This is the single source of
  // miss-path trace logging — instrumentation sites emit exactly once, so
  // enabling logs and tracing together never double-reports.
  void set_echo_log(bool echo) { echo_log_ = echo; }
  bool echo_log() const { return echo_log_; }

  void Begin(const char* cat, const char* name) { Record(Phase::kBegin, cat, name, 0, nullptr, 0, nullptr, 0); }
  void Begin(const char* cat, const char* name, const char* a0, uint64_t v0) {
    Record(Phase::kBegin, cat, name, 1, a0, v0, nullptr, 0);
  }
  void Begin(const char* cat, const char* name, const char* a0, uint64_t v0,
             const char* a1, uint64_t v1) {
    Record(Phase::kBegin, cat, name, 2, a0, v0, a1, v1);
  }
  void End(const char* cat, const char* name) { Record(Phase::kEnd, cat, name, 0, nullptr, 0, nullptr, 0); }
  void Instant(const char* cat, const char* name) { Record(Phase::kInstant, cat, name, 0, nullptr, 0, nullptr, 0); }
  void Instant(const char* cat, const char* name, const char* a0, uint64_t v0) {
    Record(Phase::kInstant, cat, name, 1, a0, v0, nullptr, 0);
  }
  void Instant(const char* cat, const char* name, const char* a0, uint64_t v0,
               const char* a1, uint64_t v1) {
    Record(Phase::kInstant, cat, name, 2, a0, v0, a1, v1);
  }

  // Flow events: one kFlowStart, any number of kFlowSteps (possibly in
  // other lanes) and one kFlowEnd sharing `flow_id` render as an arrow
  // connecting their enclosing slices across lanes.
  void FlowStart(const char* cat, const char* name, uint64_t flow_id) {
    RecordFlow(Phase::kFlowStart, cat, name, flow_id);
  }
  void FlowStep(const char* cat, const char* name, uint64_t flow_id) {
    RecordFlow(Phase::kFlowStep, cat, name, flow_id);
  }
  void FlowEnd(const char* cat, const char* name, uint64_t flow_id) {
    RecordFlow(Phase::kFlowEnd, cat, name, flow_id);
  }

  size_t recorded_events() const { return count_; }
  uint64_t dropped_events() const { return dropped_; }
  const uint64_t* dropped_events_counter() const { return &dropped_; }
  size_t capacity() const { return capacity_; }

  // Events in recording order (oldest first), after any ring wrap.
  std::vector<TraceEvent> Snapshot() const;

  // Writes the Chrome trace-event JSON object ({"traceEvents": [...]}).
  // Timestamps are exported as-is: 1 trace "microsecond" == 1 guest cycle.
  // The stream is always valid JSON with balanced, properly nested B/E
  // pairs (see class comment). Warns on stderr when events were dropped.
  void ExportChromeJson(std::ostream& out) const;

  // Emits this lane's re-balanced event stream as comma-separated Chrome
  // event objects stamped with `pid`/`tid` (no surrounding array). `*first`
  // suppresses the leading comma exactly once across lanes; TraceMux uses
  // this to splice lanes into one trace. Orphan E events are skipped using
  // THIS lane's open-span stack only — a wrapped lane never unbalances its
  // neighbors.
  void ExportEventsJson(std::ostream& out, uint64_t pid, uint64_t tid,
                        bool* first) const;

  static constexpr size_t kDefaultCapacity = 1u << 18;

 private:
  void Record(Phase ph, const char* cat, const char* name, uint8_t nargs,
              const char* a0, uint64_t v0, const char* a1, uint64_t v1);
  void RecordFlow(Phase ph, const char* cat, const char* name,
                  uint64_t flow_id);
  // Appends to the ring while it grows, then overwrites the oldest event.
  void Push(const TraceEvent& event);
  void CheckThread();
  uint64_t Now() const { return CurrentTimestamp(); }

  bool enabled_ = false;
  bool echo_log_ = false;
  bool thread_affine_ = true;
  bool owner_bound_ = false;
  std::thread::id owner_;
  const uint64_t* clock_ = nullptr;
  uint64_t floor_ = 0;  // manual-clock floor (AdvanceClockFloor)
  std::vector<TraceEvent> ring_;  // grows to capacity_, then wraps
  size_t capacity_ = 0;  // 0 until Enable()
  size_t head_ = 0;    // next write position
  size_t count_ = 0;   // live events in the ring (<= capacity_)
  uint64_t dropped_ = 0;
  uint64_t seq_ = 0;   // fallback clock + total event ordinal
};

// Current-thread tracer registration. Instrumentation sites call tracer()
// and no-op on nullptr; the owner (srun, a test, a bench, a fleet worker)
// installs a tracer for the duration of a run — or of one scheduling step,
// for per-client lanes — and removes it afterwards. The slot is
// thread-local: installing a lane on one thread never affects another.
void SetTracer(Tracer* tracer);
Tracer* tracer();

// Installs a process-lifetime echo-only tracer when SOFTCACHE_LOG is at
// trace level and no tracer is installed yet, so `SOFTCACHE_LOG=3` alone
// (no --trace file) still prints the miss-path event stream as log lines.
// Called from MultiClientSystem; harmless to call repeatedly.
void EnsureEchoTracerForLogging();

// RAII tracer swap: installs `lane` in this thread's slot for the scope.
// The server loop and the fleet schedulers use this to route each section
// of work into its lane.
class TracerScope {
 public:
  explicit TracerScope(Tracer* lane) : prev_(tracer()) { SetTracer(lane); }
  ~TracerScope() { SetTracer(prev_); }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* prev_;
};

// RAII span: records B at construction and E at destruction iff a tracer is
// installed and enabled at construction time.
class SpanGuard {
 public:
  SpanGuard(const char* cat, const char* name) {
    Tracer* t = obs::tracer();
    if (t != nullptr && t->enabled()) {
      t->Begin(cat, name);
      tracer_ = t;
      cat_ = cat;
      name_ = name;
    }
  }
  SpanGuard(const char* cat, const char* name, const char* a0, uint64_t v0) {
    Tracer* t = obs::tracer();
    if (t != nullptr && t->enabled()) {
      t->Begin(cat, name, a0, v0);
      tracer_ = t;
      cat_ = cat;
      name_ = name;
    }
  }
  SpanGuard(const char* cat, const char* name, const char* a0, uint64_t v0,
            const char* a1, uint64_t v1) {
    Tracer* t = obs::tracer();
    if (t != nullptr && t->enabled()) {
      t->Begin(cat, name, a0, v0, a1, v1);
      tracer_ = t;
      cat_ = cat;
      name_ = name;
    }
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->End(cat_, name_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
};

}  // namespace sc::obs

// Convenience macros. OBS_SPAN introduces a scope-long span; OBS_INSTANT
// records a point event. Both are a pointer load + branch when tracing is
// off.
#define OBS_CONCAT_INNER(a, b) a##b
#define OBS_CONCAT(a, b) OBS_CONCAT_INNER(a, b)
#define OBS_SPAN(...) \
  ::sc::obs::SpanGuard OBS_CONCAT(obs_span_, __LINE__)(__VA_ARGS__)
#define OBS_INSTANT(...)                                    \
  do {                                                      \
    ::sc::obs::Tracer* obs_t_ = ::sc::obs::tracer();        \
    if (obs_t_ != nullptr && obs_t_->enabled()) {           \
      obs_t_->Instant(__VA_ARGS__);                         \
    }                                                       \
  } while (0)
