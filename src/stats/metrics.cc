#include "stats/metrics.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstring>
#include <map>
#include <tuple>

namespace ldp::stats {

size_t LogHistogram::IndexFor(uint64_t value) {
  if (value < 2 * kSubBuckets) return static_cast<size_t>(value);
  // msb >= 5 here. The top kSubBucketBits bits after the leading 1 select
  // the sub-bucket within the octave.
  int msb = std::bit_width(value) - 1;
  size_t octave = static_cast<size_t>(msb - kSubBucketBits);
  uint64_t sub = (value >> (msb - kSubBucketBits)) & (kSubBuckets - 1);
  return (octave + 1) * kSubBuckets + static_cast<size_t>(sub);
}

uint64_t LogHistogram::BucketLowerBound(size_t index) {
  if (index < 2 * kSubBuckets) return index;
  // Inverse of IndexFor: index = (msb - kSubBucketBits + 1) * 16 + sub for
  // values in [2^msb, 2^(msb+1)), so index/16 = msb - 3 and the bucket
  // floor is (16 + sub) * 2^(msb - 4).
  size_t octave = index / kSubBuckets;
  uint64_t sub = index & (kSubBuckets - 1);
  return (kSubBuckets + sub) << (octave - 1);
}

double LogHistogram::BucketMidpoint(size_t index) {
  uint64_t lower = BucketLowerBound(index);
  if (index < 2 * kSubBuckets) return static_cast<double>(lower);
  uint64_t next = index + 1 < kNumBuckets ? BucketLowerBound(index + 1)
                                          : lower + (lower >> kSubBucketBits);
  return (static_cast<double>(lower) + static_cast<double>(next)) / 2.0;
}

HistogramSnapshot LogHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.buckets.resize(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

HistogramSnapshot& HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  return *this;
}

double HistogramSnapshot::Quantile(double q) const {
  // Bucket totals may lag `count` slightly under concurrent recording;
  // rank against the buckets' own sum so we never run off the end.
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      double mid = LogHistogram::BucketMidpoint(i);
      // Never report beyond the observed max (the top bucket's midpoint
      // can overshoot it).
      return max > 0 ? std::min(mid, static_cast<double>(max)) : mid;
    }
  }
  return static_cast<double>(max);
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::Histogram(
    const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name), std::forward_as_tuple());
  return &counters_.back().second;
}

Gauge* MetricsRegistry::AddGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                       std::forward_as_tuple());
  return &gauges_.back().second;
}

LogHistogram* MetricsRegistry::AddHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  histograms_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple());
  return &histograms_.back().second;
}

void MetricsRegistry::AddCounterFn(const std::string& name,
                                   std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  counter_fns_.emplace_back(name, std::move(fn));
}

void MetricsRegistry::AddGaugeFn(const std::string& name,
                                 std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauge_fns_.emplace_back(name, std::move(fn));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  for (const auto& [name, counter] : counters_) {
    counters[name] += counter.Get();
  }
  for (const auto& [name, fn] : counter_fns_) {
    counters[name] += fn();
  }
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] += gauge.Get();
  }
  for (const auto& [name, fn] : gauge_fns_) {
    gauges[name] += fn();
  }
  for (const auto& [name, histogram] : histograms_) {
    auto [it, inserted] = histograms.try_emplace(name, histogram.Snapshot());
    if (!inserted) it->second.Merge(histogram.Snapshot());
  }
  MetricsSnapshot snap;
  snap.counters.assign(counters.begin(), counters.end());
  snap.gauges.assign(gauges.begin(), gauges.end());
  snap.histograms.reserve(histograms.size());
  for (auto& [name, h] : histograms) {
    snap.histograms.emplace_back(name, std::move(h));
  }
  return snap;
}

MetricsRegistry& RegistryOrOwn(MetricsRegistry* given,
                               std::unique_ptr<MetricsRegistry>& own) {
  if (given != nullptr) return *given;
  own = std::make_unique<MetricsRegistry>();
  return *own;
}

MetricsSnapshotter::MetricsSnapshotter(const MetricsRegistry& registry,
                                       Options options)
    : registry_(registry), options_(std::move(options)) {
  if (!options_.clock) options_.clock = [] { return WallNow(); };
}

MetricsSnapshotter::~MetricsSnapshotter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status MetricsSnapshotter::Open() {
  if (options_.path.empty()) return Status::Ok();
  file_ = std::fopen(options_.path.c_str(), "w");
  if (file_ == nullptr) {
    return Error(ErrorCode::kIoError, "open " + options_.path + ": " +
                                          std::strerror(errno));
  }
  return Status::Ok();
}

namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[128];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

}  // namespace

MetricsSnapshot MergeSnapshots(std::span<const MetricsSnapshot> parts) {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  MetricsSnapshot merged;
  for (const MetricsSnapshot& part : parts) {
    merged.taken_at = std::max(merged.taken_at, part.taken_at);
    for (const auto& [name, value] : part.counters) counters[name] += value;
    for (const auto& [name, value] : part.gauges) gauges[name] += value;
    for (const auto& [name, h] : part.histograms) {
      auto [it, inserted] = histograms.try_emplace(name, h);
      if (!inserted) it->second.Merge(h);
    }
  }
  merged.counters.assign(counters.begin(), counters.end());
  merged.gauges.assign(gauges.begin(), gauges.end());
  merged.histograms.reserve(histograms.size());
  for (auto& [name, h] : histograms) {
    merged.histograms.emplace_back(name, std::move(h));
  }
  return merged;
}

JsonlRow RowFromSnapshot(const MetricsSnapshot& snapshot,
                         const MetricsSnapshot* prev, uint64_t seq,
                         bool emit_buckets) {
  JsonlRow row;
  row.ts_ms = snapshot.taken_at / kNanosPerMilli;
  row.seq = seq;
  for (const auto& [name, total] : snapshot.counters) {
    uint64_t before = prev != nullptr ? prev->CounterValue(name) : 0;
    // Polled counters can regress if the underlying subsystem resets;
    // report a zero delta rather than a huge wrapped one.
    JsonlRow::CounterCell cell;
    cell.total = total;
    cell.delta = total >= before ? total - before : 0;
    row.counters.emplace_back(name, cell);
  }
  row.gauges = snapshot.gauges;
  for (const auto& [name, h] : snapshot.histograms) {
    JsonlRow::HistogramCell cell;
    cell.count = h.count;
    cell.p50 = h.Quantile(0.50);
    cell.p95 = h.Quantile(0.95);
    cell.p99 = h.Quantile(0.99);
    cell.max = h.max;
    cell.mean = h.count > 0 ? static_cast<double>(h.sum) /
                                  static_cast<double>(h.count)
                            : 0.0;
    if (emit_buckets) {
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] != 0) {
          cell.buckets.emplace_back(static_cast<uint32_t>(i), h.buckets[i]);
        }
      }
    }
    row.histograms.emplace_back(name, std::move(cell));
  }
  return row;
}

std::string FormatJsonlRow(const JsonlRow& row) {
  std::string out;
  out.reserve(512);
  AppendF(&out, "{\"ts_ms\":%" PRId64 ",\"seq\":%" PRIu64, row.ts_ms,
          row.seq);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, cell] : row.counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    AppendF(&out, "\":{\"total\":%" PRIu64 ",\"delta\":%" PRIu64 "}",
            cell.total, cell.delta);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : row.gauges) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    AppendF(&out, "\":%" PRId64, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : row.histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    AppendF(&out,
            "\":{\"count\":%" PRIu64
            ",\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f,\"max\":%" PRIu64
            ",\"mean\":%.1f",
            h.count, h.p50, h.p95, h.p99, h.max, h.mean);
    if (!h.buckets.empty()) {
      out += ",\"buckets\":[";
      bool first_bucket = true;
      for (const auto& [index, count] : h.buckets) {
        if (!first_bucket) out.push_back(',');
        first_bucket = false;
        AppendF(&out, "[%u,%" PRIu64 "]", index, count);
      }
      out.push_back(']');
    }
    out.push_back('}');
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshotter::FormatRow(
    const MetricsSnapshot& snapshot) const {
  return FormatJsonlRow(RowFromSnapshot(snapshot,
                                        have_last_ ? &last_ : nullptr, seq_,
                                        options_.emit_buckets));
}

const MetricsSnapshot& MetricsSnapshotter::WriteNow() {
  MetricsSnapshot snap = registry_.Snapshot();
  snap.taken_at = options_.clock();
  if (file_ != nullptr) {
    std::string row = FormatRow(snap);
    std::fwrite(row.data(), 1, row.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
  }
  ++seq_;
  last_ = std::move(snap);
  have_last_ = true;
  if (options_.keep_history) history_.push_back(last_);
  return last_;
}

}  // namespace ldp::stats
