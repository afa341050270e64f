#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.hpp"

namespace deepcat::obs {

namespace detail {

std::size_t stripe_index() noexcept {
  // Hash of the thread id, cached per thread. Distinct threads usually
  // land on distinct stripes; collisions only cost contention, never
  // correctness.
  thread_local const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kStripes;
  return idx;
}

}  // namespace detail

std::int64_t to_fixed_point(double v) noexcept {
  if (!std::isfinite(v)) return 0;
  const double scaled = v * kFixedPointScale;
  // Saturate rather than overflow into UB on absurd magnitudes.
  constexpr double kLimit = 9.2e18;
  if (scaled >= kLimit) return std::numeric_limits<std::int64_t>::max();
  if (scaled <= -kLimit) return std::numeric_limits<std::int64_t>::min();
  return std::llround(scaled);
}

double from_fixed_point(std::int64_t units) noexcept {
  return static_cast<double>(units) / kFixedPointScale;
}

namespace {

std::uint64_t sum_stripes(
    const std::array<detail::StripeU64, detail::kStripes>& stripes) noexcept {
  std::uint64_t total = 0;
  for (const auto& s : stripes) total += s.v.load(std::memory_order_relaxed);
  return total;
}

std::int64_t sum_stripes(
    const std::array<detail::StripeI64, detail::kStripes>& stripes) noexcept {
  std::int64_t total = 0;
  for (const auto& s : stripes) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint64_t Counter::value() const noexcept { return sum_stripes(stripes_); }

Gauge::Gauge() noexcept
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Gauge::set(double v) noexcept {
  const std::size_t idx = detail::stripe_index();
  count_[idx].v.fetch_add(1, std::memory_order_relaxed);
  sum_units_[idx].v.fetch_add(to_fixed_point(v), std::memory_order_relaxed);
  if (std::isfinite(v)) {
    atomic_min(min_, v);
    atomic_max(max_, v);
  }
}

std::uint64_t Gauge::count() const noexcept { return sum_stripes(count_); }

double Gauge::sum() const noexcept {
  return from_fixed_point(sum_stripes(sum_units_));
}

double Gauge::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Gauge::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Gauge::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)) {
  if (edges_.empty()) {
    throw std::invalid_argument("Histogram: needs at least one upper edge");
  }
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::invalid_argument(
        "Histogram: upper edges must be strictly ascending");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(edges_.size() + 1);
  for (std::size_t i = 0; i <= edges_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  const auto bucket =
      static_cast<std::size_t>(std::distance(edges_.begin(), it));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_units_[detail::stripe_index()].v.fetch_add(to_fixed_point(v),
                                                 std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const noexcept {
  std::vector<std::uint64_t> counts(edges_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= edges_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const noexcept {
  return from_fixed_point(sum_stripes(sum_units_));
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const noexcept {
  return histogram_quantile(edges_, bucket_counts(), q);
}

double histogram_quantile(const std::vector<double>& edges,
                          const std::vector<std::uint64_t>& counts,
                          double q) noexcept {
  if (edges.empty() || counts.size() != edges.size() + 1) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(std::isfinite(q) ? q : 0.0, 0.0, 1.0);
  // Continuous target rank in [0, total]; rank r is covered by the bucket
  // whose cumulative count first reaches it.
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const double reached = static_cast<double>(cumulative + in_bucket);
    if (reached >= target) {
      const double lo = i == 0 ? std::min(0.0, edges[0]) : edges[i - 1];
      const double hi = edges[i];
      const double into =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + std::clamp(into, 0.0, 1.0) * (hi - lo);
    }
    cumulative += in_bucket;
  }
  // Rank lands in the overflow bucket, which has no upper edge; the last
  // finite edge is the tightest bound the histogram can state.
  return edges.back();
}

namespace {

const char* kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  bool deterministic) {
  std::lock_guard lock(mutex_);
  auto& entry = entries_[name];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr) {
    entry.kind = MetricKind::kCounter;
    entry.deterministic = deterministic;
    entry.counter = std::make_unique<Counter>();
  } else if (entry.kind != MetricKind::kCounter) {
    throw std::invalid_argument("metric '" + name +
                                "' already registered with a different kind");
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, bool deterministic) {
  std::lock_guard lock(mutex_);
  auto& entry = entries_[name];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr) {
    entry.kind = MetricKind::kGauge;
    entry.deterministic = deterministic;
    entry.gauge = std::make_unique<Gauge>();
  } else if (entry.kind != MetricKind::kGauge) {
    throw std::invalid_argument("metric '" + name +
                                "' already registered with a different kind");
  }
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_edges,
                                      bool deterministic) {
  std::lock_guard lock(mutex_);
  auto& entry = entries_[name];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr) {
    entry.kind = MetricKind::kHistogram;
    entry.deterministic = deterministic;
    entry.histogram = std::make_unique<Histogram>(std::move(upper_edges));
  } else if (entry.kind != MetricKind::kHistogram) {
    throw std::invalid_argument("metric '" + name +
                                "' already registered with a different kind");
  } else if (entry.histogram->upper_edges() != upper_edges) {
    throw std::invalid_argument("metric '" + name +
                                "' already registered with different edges");
  }
  return *entry.histogram;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot(
    bool include_nondeterministic) const {
  std::lock_guard lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    if (!entry.deterministic && !include_nondeterministic) continue;
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = entry.kind;
    snap.deterministic = entry.deterministic;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.counter_value = entry.counter->value();
        break;
      case MetricKind::kGauge:
        snap.count = entry.gauge->count();
        snap.sum = entry.gauge->sum();
        snap.mean = entry.gauge->mean();
        snap.min = entry.gauge->min();
        snap.max = entry.gauge->max();
        break;
      case MetricKind::kHistogram:
        snap.edges = entry.histogram->upper_edges();
        snap.bucket_counts = entry.histogram->bucket_counts();
        snap.count = entry.histogram->count();
        snap.sum = entry.histogram->sum();
        snap.mean = entry.histogram->mean();
        snap.p50 = histogram_quantile(snap.edges, snap.bucket_counts, 0.50);
        snap.p95 = histogram_quantile(snap.edges, snap.bucket_counts, 0.95);
        snap.p99 = histogram_quantile(snap.edges, snap.bucket_counts, 0.99);
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void write_metric_json(std::ostream& os, const MetricSnapshot& snap) {
  const auto previous = os.precision(17);
  os << "{\"name\":\"" << common::json_escape(snap.name) << '"';
  os << ",\"kind\":\"" << kind_name(snap.kind) << "\",\"deterministic\":"
     << (snap.deterministic ? "true" : "false");
  switch (snap.kind) {
    case MetricKind::kCounter:
      os << ",\"value\":" << snap.counter_value;
      break;
    case MetricKind::kGauge:
      os << ",\"count\":" << snap.count << ",\"mean\":" << snap.mean
         << ",\"min\":" << snap.min << ",\"max\":" << snap.max;
      break;
    case MetricKind::kHistogram: {
      os << ",\"count\":" << snap.count << ",\"mean\":" << snap.mean
         << ",\"edges\":[";
      for (std::size_t i = 0; i < snap.edges.size(); ++i) {
        if (i != 0) os << ',';
        os << snap.edges[i];
      }
      os << "],\"counts\":[";
      for (std::size_t i = 0; i < snap.bucket_counts.size(); ++i) {
        if (i != 0) os << ',';
        os << snap.bucket_counts[i];
      }
      os << "],\"p50\":" << snap.p50 << ",\"p95\":" << snap.p95
         << ",\"p99\":" << snap.p99;
      break;
    }
  }
  os << '}';
  os.precision(previous);
}

void MetricsRegistry::write_jsonl(std::ostream& os,
                                  bool include_nondeterministic) const {
  for (const auto& snap : snapshot(include_nondeterministic)) {
    write_metric_json(os, snap);
    os << '\n';
  }
}

}  // namespace deepcat::obs
