#include "obs/trace.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "util/check.h"
#include "util/log.h"

namespace sc::obs {
namespace {

// Thread-local: each host thread has its own tracer slot, so per-client
// lanes installed by fleet workers never alias (see trace.h contract).
thread_local Tracer* g_tracer = nullptr;

const char* PhaseName(Phase ph) {
  switch (ph) {
    case Phase::kBegin: return "B";
    case Phase::kEnd: return "E";
    case Phase::kInstant: return "i";
    case Phase::kFlowStart: return "s";
    case Phase::kFlowStep: return "t";
    case Phase::kFlowEnd: return "f";
  }
  return "i";
}

// Event names and categories are string literals under our control, but
// escape anyway so the output is valid JSON no matter what.
void WriteJsonString(std::ostream& out, const char* s) {
  out << '"';
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void WriteEvent(std::ostream& out, const TraceEvent& event, Phase ph,
                uint64_t ts, uint64_t pid, uint64_t tid) {
  out << "{\"name\":";
  WriteJsonString(out, event.name);
  out << ",\"cat\":";
  WriteJsonString(out, event.cat);
  out << ",\"ph\":\"" << PhaseName(ph) << "\",\"pid\":" << pid
      << ",\"tid\":" << tid << ",\"ts\":" << ts;
  if (ph == Phase::kInstant) out << ",\"s\":\"t\"";
  if (ph == Phase::kFlowStart || ph == Phase::kFlowStep ||
      ph == Phase::kFlowEnd) {
    out << ",\"id\":" << event.flow_id;
    // Bind the arrow head to the enclosing slice rather than the next one.
    if (ph == Phase::kFlowEnd) out << ",\"bp\":\"e\"";
  }
  if (event.arg_count > 0 && ph != Phase::kEnd) {
    out << ",\"args\":{";
    for (uint8_t i = 0; i < event.arg_count; ++i) {
      if (i > 0) out << ',';
      WriteJsonString(out, event.arg_name[i]);
      out << ':' << event.arg_val[i];
    }
    out << '}';
  }
  out << '}';
}

}  // namespace

void SetTracer(Tracer* tracer) { g_tracer = tracer; }
Tracer* tracer() { return g_tracer; }

void EnsureEchoTracerForLogging() {
  if (g_tracer != nullptr) return;
  if (!util::LogEnabled(util::LogLevel::kTrace)) return;
  // Process-lifetime, echo-only (no ring): events become log lines and
  // nothing is buffered. Shared across threads (each thread's slot may
  // point here), so it must not assert single-thread writes; LogLine
  // serializes the actual output.
  static Tracer echo_tracer;
  echo_tracer.set_echo_log(true);
  echo_tracer.set_thread_affine(false);
  g_tracer = &echo_tracer;
}

void Tracer::Enable(size_t capacity) {
  if (capacity == 0) capacity = 1;
  if (capacity_ != capacity) {
    // Swap with a fresh vector: clear() would keep the old reservation.
    std::vector<TraceEvent>().swap(ring_);
    ring_.reserve(capacity);
    capacity_ = capacity;
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
  }
  owner_bound_ = false;
  enabled_ = true;
}

void Tracer::CheckThread() {
  if (!thread_affine_) return;
  if (!owner_bound_) {
    owner_ = std::this_thread::get_id();
    owner_bound_ = true;
    return;
  }
  SC_CHECK(owner_ == std::this_thread::get_id())
      << "trace lane written from two threads; lanes are thread-confined "
         "(see src/obs/trace.h) — give each thread its own lane or "
         "serialize writes and call set_thread_affine(false)";
}

void Tracer::Record(Phase ph, const char* cat, const char* name, uint8_t nargs,
                    const char* a0, uint64_t v0, const char* a1, uint64_t v1) {
  if (!enabled() ) return;
  ++seq_;
  TraceEvent event;
  event.ts = Now();
  event.name = name;
  event.cat = cat;
  event.ph = ph;
  event.arg_count = nargs;
  event.arg_name[0] = a0;
  event.arg_val[0] = v0;
  event.arg_name[1] = a1;
  event.arg_val[1] = v1;
  if (echo_log_ && util::LogEnabled(util::LogLevel::kTrace)) {
    std::ostringstream line;
    line << event.cat << '.' << event.name << ' ' << PhaseName(ph) << " ts="
         << event.ts;
    for (uint8_t i = 0; i < nargs; ++i) {
      line << ' ' << event.arg_name[i] << '=' << event.arg_val[i];
    }
    util::LogLine(util::LogLevel::kTrace, line.str());
  }
  if (!enabled_) return;  // echo-only tracer: no buffering
  CheckThread();
  Push(event);
}

void Tracer::Push(const TraceEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);  // within the reservation: never reallocates
  } else {
    ring_[head_] = event;
  }
  head_ = (head_ + 1) % capacity_;
  if (count_ < capacity_) {
    ++count_;
  } else {
    ++dropped_;  // overwrote the oldest event
  }
}

void Tracer::RecordFlow(Phase ph, const char* cat, const char* name,
                        uint64_t flow_id) {
  if (!enabled_) return;
  ++seq_;
  CheckThread();
  TraceEvent event;
  event.ts = Now();
  event.flow_id = flow_id;
  event.name = name;
  event.cat = cat;
  event.ph = ph;
  Push(event);
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> events;
  events.reserve(count_);
  if (count_ == 0) return events;
  const size_t start = (head_ + capacity_ - count_) % capacity_;
  for (size_t i = 0; i < count_; ++i) {
    events.push_back(ring_[(start + i) % capacity_]);
  }
  return events;
}

void Tracer::ExportEventsJson(std::ostream& out, uint64_t pid, uint64_t tid,
                              bool* first) const {
  if (dropped_ > 0) {
    std::fprintf(stderr,
                 "[obs] warning: trace lane pid=%llu tid=%llu dropped %llu "
                 "events (ring capacity %zu); raise the capacity or trace a "
                 "shorter window\n",
                 static_cast<unsigned long long>(pid),
                 static_cast<unsigned long long>(tid),
                 static_cast<unsigned long long>(dropped_), capacity_);
  }
  const std::vector<TraceEvent> events = Snapshot();
  const auto emit = [&out, first, pid, tid](const TraceEvent& event, Phase ph,
                                            uint64_t ts) {
    if (!*first) out << ",\n";
    *first = false;
    WriteEvent(out, event, ph, ts, pid, tid);
  };
  // Re-balance: a wrapped ring may start with E events whose B was
  // overwritten — skip those; spans still open at the end are closed at the
  // last timestamp so the stream always nests. The open-span stack is local
  // to this lane: one lane wrapping never eats another lane's E events.
  std::vector<const TraceEvent*> open;
  uint64_t last_ts = 0;
  for (const TraceEvent& event : events) {
    last_ts = event.ts;
    switch (event.ph) {
      case Phase::kBegin:
        open.push_back(&event);
        emit(event, Phase::kBegin, event.ts);
        break;
      case Phase::kEnd:
        if (open.empty()) continue;  // orphan from a wrapped ring
        open.pop_back();
        emit(event, Phase::kEnd, event.ts);
        break;
      case Phase::kInstant:
      case Phase::kFlowStart:
      case Phase::kFlowStep:
      case Phase::kFlowEnd:
        emit(event, event.ph, event.ts);
        break;
    }
  }
  for (size_t i = open.size(); i > 0; --i) {
    emit(*open[i - 1], Phase::kEnd, last_ts);
  }
}

void Tracer::ExportChromeJson(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  ExportEventsJson(out, /*pid=*/0, /*tid=*/0, &first);
  out << "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
      << "\"clock\":\"guest cycles (1 trace us = 1 cycle)\","
      << "\"dropped_events\":" << dropped_ << "}}";
}

}  // namespace sc::obs
