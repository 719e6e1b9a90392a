// Live metrics: named counters, gauges, and log-bucketed streaming
// histograms observable *while* a replay or server is running, plus a
// snapshotter that appends periodic JSONL rows to a file. The post-hoc
// stats (summary.h) buffer every sample and sort on demand — fine for
// figure generation after the run, useless for watching a million-QPS
// experiment between start and final report.
//
// Threading contract: recording on hot paths is one uncontended relaxed
// atomic op — no locks, no fences. Relaxed ordering suffices because the
// values are aggregates, read after the writers join or approximately for
// live monitoring; they never order other memory. Registration takes
// a mutex (cold path, once per shard/querier at startup), and a snapshot
// thread may read concurrently with writers: each cell is individually
// exact, the set is loosely consistent, which aggregation tolerates.
//
// Per-shard / per-querier pattern: every Add*() call creates a NEW metric
// instance registered under the given name; instances sharing a name are
// merged at snapshot time (counters and histogram buckets sum, gauges
// sum). Counter and Gauge cells are cache-line aligned, so writers never
// share a cache line across threads.
#ifndef LDPLAYER_STATS_METRICS_H
#define LDPLAYER_STATS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace ldp::stats {

// Monotonic event counter.
class alignas(64) Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A level that moves both ways: inflight depth, backlog length, occupancy.
class alignas(64) Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Point-in-time view of one LogHistogram (or a merge of several).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // dense, indexed like LogHistogram

  // Quantile over the bucketed distribution: the representative (midpoint)
  // value of the bucket holding rank q*count. Bucket width is <= 1/16 of
  // the value (exact below 32), so the answer is within one sub-bucket of
  // the true quantile — "within 2 log-buckets" by a wide margin.
  double Quantile(double q) const;

  HistogramSnapshot& Merge(const HistogramSnapshot& other);
};

// Log-bucketed streaming histogram over uint64 values (latencies in ns,
// batch sizes, queue depths). Fixed 1040-bucket layout: values below 32
// are exact; above, each power of two splits into 16 sub-buckets (6.25%
// relative width). Record is two relaxed adds plus a relaxed max — cheap
// enough for per-query hot paths; memory is ~8 KB per instance.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 4;                  // 16 per octave
  static constexpr uint64_t kSubBuckets = 1u << kSubBucketBits;
  // Values < 2*kSubBuckets map to themselves; octaves 5..63 add 16 each.
  static constexpr size_t kNumBuckets =
      2 * kSubBuckets + (63 - kSubBucketBits) * kSubBuckets;

  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  void Record(uint64_t value) {
    buckets_[IndexFor(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  // Loosely-consistent copy of the current state (safe during Record).
  HistogramSnapshot Snapshot() const;

  // Bucket index for a value; inverse helpers give the covered range.
  static size_t IndexFor(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);
  static double BucketMidpoint(size_t index);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// One merged view of every metric in a registry, names sorted.
struct MetricsSnapshot {
  NanoTime taken_at = 0;  // snapshotter clock at capture time
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  // 0 / nullptr when the name was never registered.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  const HistogramSnapshot* Histogram(const std::string& name) const;
};

// Sum of several registry snapshots, name-by-name: counters and gauges
// add, histograms merge bucket-wise. This is the cross-process
// aggregation the distributed controller applies to per-agent snapshots
// before writing one merged JSONL row.
MetricsSnapshot MergeSnapshots(std::span<const MetricsSnapshot> parts);

// One JSONL row's worth of rendered values. The snapshotter builds one
// from a live registry snapshot; the offline merge path
// (stats/snapshot_io.h, `ldp_trace_stats merge`) re-builds them from
// parsed rows. Keeping a single render struct means the file format has
// exactly one writer.
struct JsonlRow {
  int64_t ts_ms = 0;
  uint64_t seq = 0;
  struct CounterCell {
    uint64_t total = 0;
    uint64_t delta = 0;
  };
  struct HistogramCell {
    uint64_t count = 0;
    double p50 = 0, p95 = 0, p99 = 0;
    uint64_t max = 0;
    double mean = 0;
    // Sparse non-zero buckets (LogHistogram indices). Present only when
    // the writer opted into emit_buckets; enables exact offline merging.
    std::vector<std::pair<uint32_t, uint64_t>> buckets;
  };
  std::vector<std::pair<std::string, CounterCell>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramCell>> histograms;
};

// Renders the row (no trailing newline).
std::string FormatJsonlRow(const JsonlRow& row);

// Builds a row from a snapshot: counter deltas are against `prev` (zero
// when prev is null, and on regressions — polled counters can reset).
// With emit_buckets, each histogram cell carries its sparse buckets.
JsonlRow RowFromSnapshot(const MetricsSnapshot& snapshot,
                         const MetricsSnapshot* prev, uint64_t seq,
                         bool emit_buckets);

// Owns the metric instances; hands out stable pointers for hot-path
// recording. The registry must outlive every component holding one of its
// pointers (tools create it in main; benches per phase).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Each call creates a fresh instance under `name` (per-shard pattern —
  // see the file comment). Pointers stay valid for the registry lifetime.
  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  LogHistogram* AddHistogram(const std::string& name);

  // Polled metrics, for values the program does not count itself (a
  // library's allocation total, simulated CPU time). The function runs on
  // the snapshot thread, so it must only read data that is safe to read
  // from there (relaxed atomics, or single-threaded sim state snapshotted
  // in-thread).
  void AddCounterFn(const std::string& name, std::function<uint64_t()> fn);
  void AddGaugeFn(const std::string& name, std::function<int64_t()> fn);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;  // guards the containers, not the cells
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, LogHistogram>> histograms_;
  std::vector<std::pair<std::string, std::function<uint64_t()>>> counter_fns_;
  std::vector<std::pair<std::string, std::function<int64_t()>>> gauge_fns_;
};

// The registry a component counts into: `given` when the caller passed
// one, else a private registry created in `own`, which the component
// keeps for as long as it uses the registry's cells.
MetricsRegistry& RegistryOrOwn(MetricsRegistry* given,
                               std::unique_ptr<MetricsRegistry>& own);

// One row of a subsystem's ledger table: the metric name of a cell and
// the field of the subsystem's value struct (its view) that reads it.
// `level` rows are Gauges, which move both ways; the rest are Counters.
template <typename View>
struct LedgerRow {
  using ViewType = View;
  const char* name;
  uint64_t View::*field;
  bool level = false;
};

// One instance's cells (a shard, a distributor) for the rows of `kRows`,
// a constexpr array of LedgerRow. The table names every counter once:
// registration, the instance's view and the sum over instances all
// iterate it. Hot paths reach a cell by its view field, resolved to an
// index at compile time:
//
//   ledger.Add<&EngineStats::queries>();
template <const auto& kRows>
class Ledger {
 public:
  using View = typename std::remove_cvref_t<decltype(kRows)>::value_type::
      ViewType;

  explicit Ledger(MetricsRegistry& registry) {
    for (size_t i = 0; i < kSize; ++i) {
      if (kRows[i].level) {
        gauges_[i] = registry.AddGauge(kRows[i].name);
      } else {
        counters_[i] = registry.AddCounter(kRows[i].name);
      }
    }
  }

  template <uint64_t View::*kField>
  void Add(uint64_t n = 1) const {
    static_assert(!kRows[IndexOf(kField)].level, "a level row is a Gauge");
    counters_[IndexOf(kField)]->Add(n);
  }
  template <uint64_t View::*kField>
  Gauge& gauge() const {
    static_assert(kRows[IndexOf(kField)].level, "a count row is a Counter");
    return *gauges_[IndexOf(kField)];
  }

  // This instance's cells as a view.
  View Read() const {
    View view;
    AddTo(view);
    return view;
  }
  // Adds this instance's cells into `view`, field by field.
  void AddTo(View& view) const {
    for (size_t i = 0; i < kSize; ++i) {
      view.*kRows[i].field += kRows[i].level
                                  ? static_cast<uint64_t>(gauges_[i]->Get())
                                  : counters_[i]->Get();
    }
  }

 private:
  static constexpr size_t kSize = std::size(kRows);

  static consteval size_t IndexOf(uint64_t View::*field) {
    size_t i = 0;
    while (kRows[i].field != field) ++i;  // past the end: not a constant
    return i;
  }

  std::array<Counter*, kSize> counters_{};
  std::array<Gauge*, kSize> gauges_{};
};

// The view a snapshot holds for the rows of `kRows`: each field reads
// its row's merged cells, and a row the snapshot lacks reads 0. This is
// how counts cross a process boundary, as the snapshot they live in.
template <const auto& kRows>
typename Ledger<kRows>::View ReadLedger(const MetricsSnapshot& snapshot) {
  typename Ledger<kRows>::View view;
  for (const auto& row : kRows) {
    view.*row.field = row.level
                          ? static_cast<uint64_t>(snapshot.GaugeValue(row.name))
                          : snapshot.CounterValue(row.name);
  }
  return view;
}

// Appends one JSONL row per WriteNow() call:
//
//   {"ts_ms":..., "seq":N, "counters":{"name":{"total":T,"delta":D},...},
//    "gauges":{"name":V,...},
//    "histograms":{"name":{"count":C,"p50":...,"p95":...,"p99":...,
//                          "max":...,"mean":...},...}}
//
// Deltas are against the previous row, so `delta / (interval)` is a live
// rate. Histogram percentiles are cumulative over the run so the final row
// reconciles with the post-hoc report. The caller owns the cadence: arm a
// repeating timer on whatever event loop owns the snapshotter and call
// WriteNow() from that one thread (writers keep recording concurrently —
// that is the point).
class MetricsSnapshotter {
 public:
  struct Options {
    std::string path;                  // empty = history only, no file
    NanoDuration interval = Seconds(1);
    bool keep_history = false;         // retain every MetricsSnapshot
    // Include each histogram's sparse non-zero buckets in the row, so
    // offline tools (ldp_trace_stats merge) can combine per-agent files
    // exactly instead of approximating from pre-computed percentiles.
    bool emit_buckets = false;
    std::function<NanoTime()> clock;   // default WallNow (sim: Simulator::Now)
  };

  MetricsSnapshotter(const MetricsRegistry& registry, Options options);
  ~MetricsSnapshotter();
  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

  // Opens (truncates) the output file. No-op when path is empty.
  Status Open();

  // Takes one snapshot, appends the JSONL row, returns the snapshot.
  const MetricsSnapshot& WriteNow();

  NanoDuration interval() const { return options_.interval; }
  uint64_t rows_written() const { return seq_; }
  const std::vector<MetricsSnapshot>& history() const { return history_; }

 private:
  std::string FormatRow(const MetricsSnapshot& snapshot) const;

  const MetricsRegistry& registry_;
  Options options_;
  std::FILE* file_ = nullptr;
  uint64_t seq_ = 0;
  MetricsSnapshot last_;
  bool have_last_ = false;
  std::vector<MetricsSnapshot> history_;
};

}  // namespace ldp::stats

#endif  // LDPLAYER_STATS_METRICS_H
