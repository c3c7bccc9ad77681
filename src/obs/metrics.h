// Unified metrics registry: one named, typed view over every counter the
// system keeps, with snapshot/delta semantics and JSON export.
//
// The registry deliberately owns no storage for scalar metrics. The
// existing stats structs (softcache::SoftCacheStats, LinkStats,
// PrefetchStats, net::ChannelStats, ...) remain the single source of truth
// that the hot paths increment; the registry absorbs them by registering a
// *name -> pointer* binding per field, so there is exactly one counter per
// fact and zero double-counting (a total over several owners registers a
// function summing them at read time). Richer shapes — histograms, bounded
// timelines, value series, top-N tables — are registered the same way, as
// views over objects owned by the instrumented components.
//
// Exports:
//   * TakeSnapshot()      — scalar state (counters + gauges) at an instant.
//   * Snapshot::Delta     — per-key differences between two snapshots.
//   * ToJson()            — the full registry: scalars, histograms with
//                           p50/p95/p99, timelines, series, tables.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace sc::obs {

// Bounded timeline of event timestamps (e.g. "an eviction happened at cycle
// t"). Exact up to `max_samples` raw timestamps; past that it collapses
// into a fixed number of uniform time bins (doubling the bin width whenever
// the range outgrows them), so memory stays O(max_samples + bins) for the
// whole run while totals remain exact and range counts stay bin-accurate.
class Timeline {
 public:
  explicit Timeline(size_t max_samples = kDefaultMaxSamples,
                    size_t bins = kDefaultBins);

  void Add(uint64_t t);
  // Undoes the most recent Add(t) (rollback paths). `t` must be the value
  // passed to that Add.
  void RemoveLast(uint64_t t);

  uint64_t total() const { return total_; }
  // Events with timestamp in [lo, hi). Exact in sample mode; in collapsed
  // mode a bin counts toward the range iff its midpoint lies inside.
  uint64_t CountInRange(uint64_t lo, uint64_t hi) const;

  bool collapsed() const { return collapsed_; }
  // Raw timestamps, oldest first. Valid only before collapse.
  const std::vector<uint64_t>& samples() const { return samples_; }
  // Collapsed representation: bin `i` covers [i*bin_width, (i+1)*bin_width).
  uint64_t bin_width() const { return bin_width_; }
  const std::vector<uint64_t>& bin_counts() const { return bin_counts_; }

  static constexpr size_t kDefaultMaxSamples = 65536;
  static constexpr size_t kDefaultBins = 4096;

 private:
  void Collapse();
  void AddToBins(uint64_t t);

  size_t max_samples_;
  size_t bins_;
  uint64_t total_ = 0;
  bool collapsed_ = false;
  std::vector<uint64_t> samples_;
  std::vector<uint64_t> bin_counts_;
  uint64_t bin_width_ = 1;
};

// Bounded (time, value) series (e.g. tcache occupancy over the run). Keeps
// at most `max_points` points by doubling a sampling stride whenever the
// buffer fills: the series thins uniformly instead of truncating, so the
// whole run stays visible at decreasing resolution. The latest point is
// always retained exactly.
class Series {
 public:
  explicit Series(size_t max_points = 8192);

  void Add(uint64_t t, uint64_t value);

  struct Point {
    uint64_t t;
    uint64_t value;
  };
  const std::vector<Point>& points() const { return points_; }
  uint64_t stride() const { return stride_; }
  uint64_t total_observations() const { return observations_; }

 private:
  size_t max_points_;
  uint64_t stride_ = 1;
  uint64_t tick_ = 0;
  uint64_t observations_ = 0;
  std::vector<Point> points_;
};

class MetricsRegistry {
 public:
  // Scalar state at an instant; the unit of delta computation.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;

    // after - before, per key (keys present in either side appear; missing
    // values count as zero). Counter deltas are signed to stay honest about
    // resets.
    static Snapshot Delta(const Snapshot& before, const Snapshot& after);
    std::string ToJson() const;
    bool operator==(const Snapshot& other) const {
      return counters == other.counters && gauges == other.gauges;
    }
  };

  // All Register* calls bind a name to externally-owned storage; the source
  // must outlive the registry (or at least every export call).
  void RegisterCounter(const std::string& name, const uint64_t* source);
  // A counter computed on every snapshot/export, e.g. a sum over owners.
  void RegisterCounter(const std::string& name, std::function<uint64_t()> fn);
  void RegisterGauge(const std::string& name, std::function<double()> fn);
  void RegisterHistogram(const std::string& name, const util::Histogram* hist);
  void RegisterTimeline(const std::string& name, const Timeline* timeline);
  void RegisterSeries(const std::string& name, const Series* series);
  // A table of (key, count) rows, e.g. per-chunk fetch heat by address.
  // The function is evaluated at export time; rows are exported sorted by
  // descending count, capped at `max_rows`.
  void RegisterTable(const std::string& name,
                     std::function<std::vector<std::pair<uint64_t, uint64_t>>()> fn,
                     size_t max_rows = 32);

  Snapshot TakeSnapshot() const;
  // Full registry export (scalars + histograms with percentiles + timelines
  // + series + tables) as one JSON object.
  std::string ToJson() const;

  size_t metric_count() const {
    return counters_.size() + gauges_.size() + histograms_.size() +
           timelines_.size() + series_.size() + tables_.size();
  }

 private:
  struct Table {
    std::function<std::vector<std::pair<uint64_t, uint64_t>>()> fn;
    size_t max_rows;
  };
  // Ordered maps: exports are deterministically sorted by name.
  std::map<std::string, std::function<uint64_t()>> counters_;
  std::map<std::string, std::function<double()>> gauges_;
  std::map<std::string, const util::Histogram*> histograms_;
  std::map<std::string, const Timeline*> timelines_;
  std::map<std::string, const Series*> series_;
  std::map<std::string, Table> tables_;
};

}  // namespace sc::obs
