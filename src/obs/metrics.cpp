#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace sc::obs {
namespace {

void AppendJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
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

// JSON numbers: doubles print round-trippably; NaN/inf (never expected, but
// a gauge function could misbehave) degrade to 0 to keep the file valid.
void AppendJsonDouble(std::ostream& out, double v) {
  if (!(v == v) || v > 1e308 || v < -1e308) {
    out << 0;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

Timeline::Timeline(size_t max_samples, size_t bins)
    : max_samples_(max_samples == 0 ? 1 : max_samples),
      bins_(bins == 0 ? 1 : bins) {}

void Timeline::Add(uint64_t t) {
  ++total_;
  if (!collapsed_) {
    samples_.push_back(t);
    if (samples_.size() >= max_samples_) Collapse();
    return;
  }
  AddToBins(t);
}

void Timeline::RemoveLast(uint64_t t) {
  SC_CHECK_GT(total_, 0u);
  --total_;
  if (!collapsed_) {
    SC_CHECK(!samples_.empty());
    SC_CHECK_EQ(samples_.back(), t);
    samples_.pop_back();
    return;
  }
  const size_t bin = static_cast<size_t>(t / bin_width_);
  SC_CHECK_LT(bin, bin_counts_.size());
  SC_CHECK_GT(bin_counts_[bin], 0u);
  --bin_counts_[bin];
}

void Timeline::Collapse() {
  collapsed_ = true;
  bin_counts_.assign(bins_, 0);
  uint64_t max_t = 0;
  for (const uint64_t t : samples_) max_t = std::max(max_t, t);
  bin_width_ = 1;
  while (max_t / bin_width_ >= bins_) bin_width_ *= 2;
  for (const uint64_t t : samples_) {
    ++bin_counts_[static_cast<size_t>(t / bin_width_)];
  }
  samples_.clear();
  samples_.shrink_to_fit();
}

void Timeline::AddToBins(uint64_t t) {
  while (t / bin_width_ >= bins_) {
    // Double the bin width: merge adjacent bin pairs in place.
    for (size_t i = 0; i < bins_ / 2; ++i) {
      bin_counts_[i] = bin_counts_[2 * i] + bin_counts_[2 * i + 1];
    }
    std::fill(bin_counts_.begin() + static_cast<long>(bins_ / 2),
              bin_counts_.end(), 0);
    bin_width_ *= 2;
  }
  ++bin_counts_[static_cast<size_t>(t / bin_width_)];
}

uint64_t Timeline::CountInRange(uint64_t lo, uint64_t hi) const {
  if (hi <= lo) return 0;
  uint64_t count = 0;
  if (!collapsed_) {
    for (const uint64_t t : samples_) {
      if (t >= lo && t < hi) ++count;
    }
    return count;
  }
  for (size_t i = 0; i < bin_counts_.size(); ++i) {
    if (bin_counts_[i] == 0) continue;
    const uint64_t mid = static_cast<uint64_t>(i) * bin_width_ + bin_width_ / 2;
    if (mid >= lo && mid < hi) count += bin_counts_[i];
  }
  return count;
}

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

Series::Series(size_t max_points) : max_points_(max_points < 2 ? 2 : max_points) {}

void Series::Add(uint64_t t, uint64_t value) {
  ++observations_;
  if (tick_++ % stride_ != 0) return;  // thinned out at the current stride
  points_.push_back(Point{t, value});
  if (points_.size() >= max_points_) {
    // Thin uniformly: keep every other point, double the stride.
    std::vector<Point> kept;
    kept.reserve(points_.size() / 2 + 1);
    for (size_t i = 0; i < points_.size(); i += 2) kept.push_back(points_[i]);
    points_ = std::move(kept);
    stride_ *= 2;
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const uint64_t* source) {
  SC_CHECK(source != nullptr);
  RegisterCounter(name, [source] { return *source; });
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      std::function<uint64_t()> fn) {
  SC_CHECK(fn != nullptr);
  SC_CHECK(counters_.emplace(name, std::move(fn)).second)
      << "duplicate counter: " << name;
}

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    std::function<double()> fn) {
  SC_CHECK(fn != nullptr);
  SC_CHECK(gauges_.emplace(name, std::move(fn)).second)
      << "duplicate gauge: " << name;
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const util::Histogram* hist) {
  SC_CHECK(hist != nullptr);
  SC_CHECK(histograms_.emplace(name, hist).second)
      << "duplicate histogram: " << name;
}

void MetricsRegistry::RegisterTimeline(const std::string& name,
                                       const Timeline* timeline) {
  SC_CHECK(timeline != nullptr);
  SC_CHECK(timelines_.emplace(name, timeline).second)
      << "duplicate timeline: " << name;
}

void MetricsRegistry::RegisterSeries(const std::string& name,
                                     const Series* series) {
  SC_CHECK(series != nullptr);
  SC_CHECK(series_.emplace(name, series).second)
      << "duplicate series: " << name;
}

void MetricsRegistry::RegisterTable(
    const std::string& name,
    std::function<std::vector<std::pair<uint64_t, uint64_t>>()> fn,
    size_t max_rows) {
  SC_CHECK(fn != nullptr);
  SC_CHECK(tables_.emplace(name, Table{std::move(fn), max_rows}).second)
      << "duplicate table: " << name;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  for (const auto& [name, fn] : counters_) snap.counters[name] = fn();
  for (const auto& [name, fn] : gauges_) snap.gauges[name] = fn();
  return snap;
}

MetricsRegistry::Snapshot MetricsRegistry::Snapshot::Delta(
    const Snapshot& before, const Snapshot& after) {
  Snapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const uint64_t prev = it == before.counters.end() ? 0 : it->second;
    delta.counters[name] = value - prev;  // wraps negative deltas (resets)
  }
  for (const auto& [name, prev] : before.counters) {
    if (after.counters.count(name) == 0) delta.counters[name] = 0 - prev;
  }
  for (const auto& [name, value] : after.gauges) {
    const auto it = before.gauges.find(name);
    delta.gauges[name] = value - (it == before.gauges.end() ? 0.0 : it->second);
  }
  for (const auto& [name, prev] : before.gauges) {
    if (after.gauges.count(name) == 0) delta.gauges[name] = -prev;
  }
  return delta;
}

std::string MetricsRegistry::Snapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, name);
    out << ':' << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, name);
    out << ':';
    AppendJsonDouble(out, value);
  }
  out << "}}";
  return out.str();
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream out;
  out << "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, fn] : counters_) {
    if (!first) out << ',';
    first = false;
    out << "\n  ";
    AppendJsonString(out, name);
    out << ':' << fn();
  }
  out << "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, fn] : gauges_) {
    if (!first) out << ',';
    first = false;
    out << "\n  ";
    AppendJsonString(out, name);
    out << ':';
    AppendJsonDouble(out, fn());
  }
  out << "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out << ',';
    first = false;
    out << "\n  ";
    AppendJsonString(out, name);
    out << ":{\"total\":" << hist->total() << ",\"p50\":";
    AppendJsonDouble(out, hist->Percentile(50));
    out << ",\"p95\":";
    AppendJsonDouble(out, hist->Percentile(95));
    out << ",\"p99\":";
    AppendJsonDouble(out, hist->Percentile(99));
    out << ",\"buckets\":[";
    for (int i = 0; i < hist->buckets(); ++i) {
      if (i > 0) out << ',';
      out << "{\"lo\":";
      AppendJsonDouble(out, hist->bucket_low(i));
      out << ",\"count\":" << hist->bucket_count(i) << '}';
    }
    out << "]}";
  }
  out << "\n},\n\"timelines\":{";
  first = true;
  for (const auto& [name, timeline] : timelines_) {
    if (!first) out << ',';
    first = false;
    out << "\n  ";
    AppendJsonString(out, name);
    out << ":{\"total\":" << timeline->total()
        << ",\"collapsed\":" << (timeline->collapsed() ? "true" : "false");
    if (timeline->collapsed()) {
      out << ",\"bin_width\":" << timeline->bin_width() << ",\"bins\":[";
      const auto& bins = timeline->bin_counts();
      // Trailing zero bins carry no information; trim them.
      size_t last = bins.size();
      while (last > 0 && bins[last - 1] == 0) --last;
      for (size_t i = 0; i < last; ++i) {
        if (i > 0) out << ',';
        out << bins[i];
      }
      out << ']';
    } else {
      out << ",\"samples\":[";
      const auto& samples = timeline->samples();
      for (size_t i = 0; i < samples.size(); ++i) {
        if (i > 0) out << ',';
        out << samples[i];
      }
      out << ']';
    }
    out << '}';
  }
  out << "\n},\n\"series\":{";
  first = true;
  for (const auto& [name, series] : series_) {
    if (!first) out << ',';
    first = false;
    out << "\n  ";
    AppendJsonString(out, name);
    out << ":{\"stride\":" << series->stride() << ",\"points\":[";
    const auto& points = series->points();
    for (size_t i = 0; i < points.size(); ++i) {
      if (i > 0) out << ',';
      out << '[' << points[i].t << ',' << points[i].value << ']';
    }
    out << "]}";
  }
  out << "\n},\n\"tables\":{";
  first = true;
  for (const auto& [name, table] : tables_) {
    if (!first) out << ',';
    first = false;
    out << "\n  ";
    AppendJsonString(out, name);
    out << ":[";
    std::vector<std::pair<uint64_t, uint64_t>> rows = table.fn();
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (rows.size() > table.max_rows) rows.resize(table.max_rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out << ',';
      out << "{\"key\":" << rows[i].first << ",\"count\":" << rows[i].second
          << '}';
    }
    out << ']';
  }
  out << "\n}\n}";
  return out.str();
}

}  // namespace sc::obs
