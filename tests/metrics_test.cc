// Live-metrics layer: log-bucket math, registry merging, JSONL snapshot
// rows, and the lock-free contract (snapshot while writers record).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stats/metrics.h"
#include "stats/snapshot_io.h"
#include "stats/summary.h"

namespace ldp::stats {
namespace {

TEST(LogHistogram, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 2 * LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::IndexFor(v), v);
    EXPECT_EQ(LogHistogram::BucketLowerBound(v), v);
  }
}

TEST(LogHistogram, BucketMathRoundTrips) {
  std::vector<uint64_t> values = {0,    1,       31,      32,     33,
                                  47,   48,      63,      64,     100,
                                  1000, 4096,    65535,   1000000,
                                  (1ull << 40) + 12345,   UINT64_MAX};
  for (uint64_t v : values) {
    size_t index = LogHistogram::IndexFor(v);
    ASSERT_LT(index, LogHistogram::kNumBuckets) << "value " << v;
    EXPECT_LE(LogHistogram::BucketLowerBound(index), v) << "value " << v;
    if (index + 1 < LogHistogram::kNumBuckets) {
      EXPECT_GT(LogHistogram::BucketLowerBound(index + 1), v)
          << "value " << v;
    }
  }
  // Strictly increasing lower bounds: the buckets partition the range.
  uint64_t prev = LogHistogram::BucketLowerBound(0);
  for (size_t i = 1; i < LogHistogram::kNumBuckets; ++i) {
    uint64_t lower = LogHistogram::BucketLowerBound(i);
    EXPECT_GT(lower, prev) << "index " << i;
    prev = lower;
  }
}

TEST(LogHistogram, RecordTracksCountSumMax) {
  LogHistogram hist;
  hist.Record(10);
  hist.Record(100);
  hist.Record(1000);
  EXPECT_EQ(hist.count(), 3u);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 1110u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 10.0);  // exact below 32
  EXPECT_LE(snap.Quantile(1.0), 1000.0);       // clamped to observed max
}

TEST(LogHistogram, QuantilesTrackExactSummary) {
  // The acceptance budget: bucketed percentiles within two 6.25%-wide
  // log-buckets of the exact sorted quantiles (~13% relative).
  LogHistogram hist;
  Summary exact;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    auto v = static_cast<uint64_t>(std::exp(rng.NextDouble(4.0, 18.0)));
    hist.Record(v);
    exact.Add(static_cast<double>(v));
  }
  exact.Finalize();
  HistogramSnapshot snap = hist.Snapshot();
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    double approx = snap.Quantile(q);
    double truth = exact.Quantile(q);
    EXPECT_NEAR(approx, truth, truth * 0.14) << "q=" << q;
  }
}

TEST(HistogramSnapshot, MergeSumsAndKeepsMax) {
  LogHistogram a;
  LogHistogram b;
  a.Record(5);
  a.Record(7);
  b.Record(1000);
  HistogramSnapshot snap = a.Snapshot();
  snap.Merge(b.Snapshot());
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 1012u);
  EXPECT_EQ(snap.max, 1000u);
}

TEST(Registry, SameNameInstancesMergeAtSnapshot) {
  MetricsRegistry registry;
  Counter* c1 = registry.AddCounter("x.count");
  Counter* c2 = registry.AddCounter("x.count");
  Gauge* g1 = registry.AddGauge("x.depth");
  Gauge* g2 = registry.AddGauge("x.depth");
  LogHistogram* h1 = registry.AddHistogram("x.hist");
  LogHistogram* h2 = registry.AddHistogram("x.hist");
  // The per-shard pattern: distinct instances, merged under one name.
  EXPECT_NE(c1, c2);
  c1->Add(3);
  c2->Add(4);
  g1->Set(10);
  g2->Set(-4);
  h1->Record(8);
  h2->Record(16);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("x.count"), 7u);
  EXPECT_EQ(snap.GaugeValue("x.depth"), 6);
  const HistogramSnapshot* h = snap.Histogram("x.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(snap.CounterValue("absent"), 0u);
  EXPECT_EQ(snap.Histogram("absent"), nullptr);
}

struct PairView {
  uint64_t hits = 0;
  uint64_t depth = 0;
};
constexpr auto kPairLedger = std::to_array<LedgerRow<PairView>>({
    {"t.hits", &PairView::hits},
    {"t.depth", &PairView::depth, /*level=*/true},
});

TEST(Ledger, ReadLedgerReadsASnapshotAsTheCellsRead) {
  MetricsRegistry a;
  MetricsRegistry b;
  Ledger<kPairLedger> cells_a(a);
  Ledger<kPairLedger> cells_b(b);
  cells_a.Add<&PairView::hits>(3);
  cells_a.gauge<&PairView::depth>().Set(5);
  cells_b.Add<&PairView::hits>(4);
  cells_b.gauge<&PairView::depth>().Set(2);

  const PairView one = ReadLedger<kPairLedger>(a.Snapshot());
  EXPECT_EQ(one.hits, cells_a.Read().hits);
  EXPECT_EQ(one.depth, cells_a.Read().depth);
  const std::vector<MetricsSnapshot> parts = {a.Snapshot(), b.Snapshot()};
  const PairView both = ReadLedger<kPairLedger>(MergeSnapshots(parts));
  EXPECT_EQ(both.hits, 7u);
  EXPECT_EQ(both.depth, 7u);
  const PairView none = ReadLedger<kPairLedger>(MetricsSnapshot{});
  EXPECT_EQ(none.hits, 0u);
  EXPECT_EQ(none.depth, 0u);
}

TEST(Registry, PolledFunctionsReadAtSnapshotTime) {
  MetricsRegistry registry;
  uint64_t backing = 0;
  int64_t level = 0;
  registry.AddCounterFn("sub.events", [&backing] { return backing; });
  registry.AddGaugeFn("sub.level", [&level] { return level; });
  registry.AddCounter("sub.events")->Add(2);  // merges with the polled fn
  backing = 41;
  level = -5;
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("sub.events"), 43u);
  EXPECT_EQ(snap.GaugeValue("sub.level"), -5);
  backing = 100;
  EXPECT_EQ(registry.Snapshot().CounterValue("sub.events"), 102u);
}

TEST(Snapshotter, WritesJsonlRowsWithDeltas) {
  MetricsRegistry registry;
  Counter* sent = registry.AddCounter("replay.sent");
  Gauge* inflight = registry.AddGauge("replay.inflight");
  LogHistogram* latency = registry.AddHistogram("replay.latency_ns");
  std::string path = ::testing::TempDir() + "/ldp_metrics_rows.jsonl";
  MetricsSnapshotter::Options opts;
  opts.path = path;
  opts.keep_history = true;
  opts.clock = [] { return static_cast<NanoTime>(123 * kNanosPerMilli); };
  MetricsSnapshotter snapshotter(registry, opts);
  ASSERT_TRUE(snapshotter.Open().ok());

  sent->Add(5);
  inflight->Set(2);
  latency->Record(1000);
  snapshotter.WriteNow();
  sent->Add(3);
  snapshotter.WriteNow();

  EXPECT_EQ(snapshotter.rows_written(), 2u);
  ASSERT_EQ(snapshotter.history().size(), 2u);
  EXPECT_EQ(snapshotter.history().back().CounterValue("replay.sent"), 8u);

  std::ifstream in(path);
  std::string line1;
  std::string line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_NE(line1.find("\"ts_ms\":123"), std::string::npos) << line1;
  EXPECT_NE(line1.find("\"seq\":0"), std::string::npos) << line1;
  EXPECT_NE(line1.find("\"replay.sent\":{\"total\":5,\"delta\":5}"),
            std::string::npos)
      << line1;
  EXPECT_NE(line1.find("\"replay.inflight\":2"), std::string::npos) << line1;
  EXPECT_NE(line1.find("\"replay.latency_ns\":{\"count\":1"),
            std::string::npos)
      << line1;
  EXPECT_NE(line2.find("\"seq\":1"), std::string::npos) << line2;
  EXPECT_NE(line2.find("\"replay.sent\":{\"total\":8,\"delta\":3}"),
            std::string::npos)
      << line2;
}

TEST(Snapshotter, PolledRegressionReportsZeroDelta) {
  // A polled counter whose subsystem resets must not produce a wrapped
  // (huge) delta in the next row.
  MetricsRegistry registry;
  uint64_t backing = 10;
  registry.AddCounterFn("sub.polled", [&backing] { return backing; });
  std::string path = ::testing::TempDir() + "/ldp_metrics_regress.jsonl";
  MetricsSnapshotter::Options opts;
  opts.path = path;
  MetricsSnapshotter snapshotter(registry, opts);
  ASSERT_TRUE(snapshotter.Open().ok());
  snapshotter.WriteNow();
  backing = 4;
  snapshotter.WriteNow();
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"sub.polled\":{\"total\":4,\"delta\":0}"),
            std::string::npos)
      << line;
}

TEST(Snapshotter, EmptyPathKeepsHistoryOnly) {
  MetricsRegistry registry;
  registry.AddCounter("a")->Add(1);
  MetricsSnapshotter::Options opts;
  opts.keep_history = true;
  MetricsSnapshotter snapshotter(registry, opts);
  ASSERT_TRUE(snapshotter.Open().ok());
  const MetricsSnapshot& snap = snapshotter.WriteNow();
  EXPECT_EQ(snap.CounterValue("a"), 1u);
  EXPECT_EQ(snapshotter.history().size(), 1u);
}

TEST(Metrics, ConcurrentRecordWhileSnapshotting) {
  // The lock-free contract: writer threads record through their per-thread
  // instances while another thread snapshots the registry. Intermediate
  // merged counters must be monotone, and after the writers join the final
  // snapshot must be exact. Run under tsan to check the memory-order story.
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<Counter*> counters;
  std::vector<LogHistogram*> hists;
  std::vector<Gauge*> gauges;
  for (int i = 0; i < kThreads; ++i) {
    counters.push_back(registry.AddCounter("work.items"));
    hists.push_back(registry.AddHistogram("work.latency"));
    gauges.push_back(registry.AddGauge("work.inflight"));
  }
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (uint64_t n = 0; n < kPerThread; ++n) {
        gauges[i]->Add(1);
        counters[i]->Add(1);
        hists[i]->Record(n + 1);
        gauges[i]->Add(-1);
      }
      done.fetch_add(1);
    });
  }
  uint64_t prev = 0;
  while (done.load() < kThreads) {
    MetricsSnapshot snap = registry.Snapshot();
    uint64_t items = snap.CounterValue("work.items");
    EXPECT_GE(items, prev);
    prev = items;
  }
  for (auto& t : threads) t.join();
  MetricsSnapshot last = registry.Snapshot();
  EXPECT_EQ(last.CounterValue("work.items"), kThreads * kPerThread);
  const HistogramSnapshot* h = last.Histogram("work.latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kPerThread);
  EXPECT_EQ(h->max, kPerThread);
  EXPECT_EQ(last.GaugeValue("work.inflight"), 0);
}

// --- offline JSONL: parse and multi-stream merge (ldp_trace_stats merge,
// and the distributed controller's merged stream) ---

JsonlRow MakeRow(uint64_t seq, int64_t ts_ms, uint64_t sent_total,
                 uint64_t sent_delta,
                 std::vector<uint64_t> latencies = {}) {
  MetricsRegistry registry;
  auto* hist = registry.AddHistogram("replay.latency_ns");
  for (uint64_t v : latencies) hist->Record(v);
  MetricsSnapshot snapshot = registry.Snapshot();
  snapshot.taken_at = ts_ms * kNanosPerMilli;
  JsonlRow row = RowFromSnapshot(snapshot, nullptr, seq,
                                 /*emit_buckets=*/true);
  row.counters.emplace_back(
      "replay.sent", JsonlRow::CounterCell{sent_total, sent_delta});
  return row;
}

TEST(SnapshotIo, ParseRoundTripsFormattedRow) {
  MetricsRegistry registry;
  registry.AddCounter("replay.sent")->Add(7);
  registry.AddGauge("replay.inflight")->Set(-2);
  auto* hist = registry.AddHistogram("replay.latency_ns");
  for (uint64_t v : {90u, 1500u, 1u << 18}) hist->Record(v);
  MetricsSnapshot snapshot = registry.Snapshot();
  snapshot.taken_at = 4200 * kNanosPerMilli;

  JsonlRow row = RowFromSnapshot(snapshot, nullptr, 3, /*emit_buckets=*/true);
  auto parsed = ParseJsonlRow(FormatJsonlRow(row));
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  EXPECT_EQ(parsed->ts_ms, 4200);
  EXPECT_EQ(parsed->seq, 3u);
  ASSERT_EQ(parsed->counters.size(), 1u);
  EXPECT_EQ(parsed->counters[0].second.total, 7u);
  EXPECT_EQ(parsed->counters[0].second.delta, 7u);
  ASSERT_EQ(parsed->gauges.size(), 1u);
  EXPECT_EQ(parsed->gauges[0].second, -2);
  ASSERT_EQ(parsed->histograms.size(), 1u);
  const auto& cell = parsed->histograms[0].second;
  EXPECT_EQ(cell.count, 3u);
  EXPECT_EQ(cell.max, 1u << 18);
  EXPECT_EQ(cell.buckets, row.histograms[0].second.buckets);

  // And the re-rendered line is byte-identical: one writer, one format.
  EXPECT_EQ(FormatJsonlRow(*parsed), FormatJsonlRow(row));
}

TEST(SnapshotIo, ParseRejectsUnknownShapes) {
  EXPECT_FALSE(ParseJsonlRow("not json").ok());
  // One writer, one format: a field the writer never emits is a wrong
  // file, not an extension point.
  EXPECT_FALSE(ParseJsonlRow("{\"ts_ms\":1,\"bogus\":2}").ok());
}

TEST(SnapshotIo, MergeSumsRowByRowAndCarriesShortStreamsForward) {
  // Agent A writes 3 rows; agent B finishes early with 2. Rows are
  // cumulative, so B's last row must persist under A's tail.
  std::vector<std::vector<JsonlRow>> streams{
      {MakeRow(0, 100, 10, 10, {1000}),
       MakeRow(1, 200, 25, 15, {1000, 2000}),
       MakeRow(2, 300, 40, 15, {1000, 2000, 4000})},
      {MakeRow(0, 110, 5, 5), MakeRow(1, 210, 9, 4)},
  };
  auto merged = MergeJsonlStreams(streams);
  ASSERT_EQ(merged.size(), 3u);

  auto sent_total = [](const JsonlRow& row) -> uint64_t {
    for (const auto& [name, cell] : row.counters) {
      if (name == "replay.sent") return cell.total;
    }
    return 0;
  };
  EXPECT_EQ(sent_total(merged[0]), 15u);   // 10 + 5
  EXPECT_EQ(sent_total(merged[1]), 34u);   // 25 + 9
  EXPECT_EQ(sent_total(merged[2]), 49u);   // 40 + 9 (B carried forward)
  // Deltas recomputed from consecutive merged totals, not summed inputs.
  EXPECT_EQ(merged[1].counters[0].second.delta, 34u - 15u);
  EXPECT_EQ(merged[2].counters[0].second.delta, 49u - 34u);
  // Output is renumbered and timestamped at the latest contributor.
  EXPECT_EQ(merged[2].seq, 2u);
  EXPECT_EQ(merged[0].ts_ms, 110);
  EXPECT_EQ(merged[2].ts_ms, 300);
  // Histograms merged exactly through sparse buckets.
  ASSERT_EQ(merged[2].histograms.size(), 1u);
  EXPECT_EQ(merged[2].histograms[0].second.count, 3u);
  EXPECT_EQ(merged[2].histograms[0].second.max, 4000u);
}

}  // namespace
}  // namespace ldp::stats
