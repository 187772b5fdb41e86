#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mmtag::obs {

std::size_t Counter::shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

bool Histogram::record(double value) noexcept {
  if constexpr (!kObsEnabled) {
    (void)value;
    return true;
  }
  if (std::isnan(value) || value < 0.0) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // 2^64 rounds to 1.8446744073709552e19 exactly; >= catches +inf too.
  if (value >= 18446744073709551616.0) {
    buckets_[kOverflowBucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  record(static_cast<std::uint64_t>(value));
  return true;
}

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kLinearBuckets) return static_cast<std::size_t>(value);
  const int msb = std::bit_width(value) - 1;  // >= 4 here.
  const std::size_t sub =
      static_cast<std::size_t>(value >> (msb - 3)) & (kSubBuckets - 1);
  return kLinearBuckets +
         static_cast<std::size_t>(msb - 4) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_lower_bound(std::size_t bucket) noexcept {
  if (bucket < kLinearBuckets) return bucket;
  if (bucket >= kBuckets) return std::numeric_limits<std::uint64_t>::max();
  const std::size_t octave = 4 + (bucket - kLinearBuckets) / kSubBuckets;
  const std::size_t sub = (bucket - kLinearBuckets) % kSubBuckets;
  return (std::uint64_t{kSubBuckets} + sub) << (octave - 3);
}

std::uint64_t Histogram::quantile(double pct) const noexcept {
  const Snapshot snap = snapshot();
  if (snap.count == 0) return 0;
  const double clamped = std::clamp(pct, 0.0, 100.0);
  // Rank of the selected value, 1-based, matching "pct of the mass lies at
  // or below this bucket".
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(snap.count)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    cumulative += snap.buckets[b];
    if (cumulative >= target) return bucket_lower_bound(b);
  }
  return bucket_lower_bound(kOverflowBucket);
}

std::uint64_t Histogram::Snapshot::fingerprint() const noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ull;
    }
  };
  for (const std::uint64_t b : buckets) mix(b);
  mix(count);
  mix(sum);
  mix(rejected);
  return hash;
}

void Histogram::add(const Snapshot& snap) noexcept {
  if constexpr (!kObsEnabled) {
    (void)snap;
    return;
  }
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    if (snap.buckets[b] != 0) {
      buckets_[b].fetch_add(snap.buckets[b], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(snap.count, std::memory_order_relaxed);
  sum_.fetch_add(snap.sum, std::memory_order_relaxed);
  rejected_.fetch_add(snap.rejected, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  return snap;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, metric] : counters_) {
    if (existing == name) return *metric;
  }
  counters_.emplace_back(std::string(name), std::make_unique<Counter>());
  return *counters_.back().second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, metric] : histograms_) {
    if (existing == name) return *metric;
  }
  histograms_.emplace_back(std::string(name),
                           std::make_unique<Histogram>());
  return *histograms_.back().second;
}

std::vector<Registry::CounterView> Registry::counters() const {
  std::vector<CounterView> views;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    views.reserve(counters_.size());
    for (const auto& [name, metric] : counters_) {
      views.push_back(CounterView{name, metric->value()});
    }
  }
  std::sort(views.begin(), views.end(),
            [](const CounterView& a, const CounterView& b) {
              return a.name < b.name;
            });
  return views;
}

std::vector<Registry::HistogramView> Registry::histograms() const {
  std::vector<HistogramView> views;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    views.reserve(histograms_.size());
    for (const auto& [name, metric] : histograms_) {
      HistogramView view;
      view.name = name;
      view.count = metric->count();
      view.sum = metric->sum();
      view.rejected = metric->rejected();
      view.overflow = metric->overflow();
      view.mean = metric->mean();
      view.p50 = metric->quantile(50.0);
      view.p90 = metric->quantile(90.0);
      view.p99 = metric->quantile(99.0);
      views.push_back(std::move(view));
    }
  }
  std::sort(views.begin(), views.end(),
            [](const HistogramView& a, const HistogramView& b) {
              return a.name < b.name;
            });
  return views;
}

}  // namespace mmtag::obs
