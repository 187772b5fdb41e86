// Lock-free process metrics: counters, log-bucketed histograms, registry.
//
// The rules that make these safe to put on hot paths:
//
//   * Recording is wait-free. A Counter spreads adds over cache-line-padded
//     shards indexed by a per-thread round-robin slot; a Histogram does one
//     relaxed fetch_add on the value's bucket. No locks, no allocation.
//     A loop that records many values can fill a plain Histogram::Snapshot
//     instead and publish it with one add() per bucket it touched.
//   * Aggregation is deterministic. Reads (value(), snapshot()) walk the
//     shards/buckets in fixed index order, and every accumulated quantity
//     is an unsigned integer, so the total is bit-identical no matter how
//     many threads produced it or how their adds interleaved — the same
//     discipline as the sweep engine's fixed merge order (DESIGN.md
//     Sec. 7/9). Nothing here ever sums doubles across threads.
//   * Everything is gated. With MMTAG_OBS=0 the record methods are
//     if-constexpr'd to no-ops and instrumented code compiles to exactly
//     the uninstrumented binary.
//
// The Registry hands out named metrics with stable addresses; callers
// cache the reference in a function-local static so steady-state cost is
// one indirect load per record.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/gate.hpp"

namespace mmtag::obs {

/// Monotonic event counter, sharded to keep concurrent writers off each
/// other's cache lines.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if constexpr (kObsEnabled) {
      shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }

  /// Sum of all shards, read in fixed shard order.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  /// Per-thread shard slot, assigned round-robin on first use.
  [[nodiscard]] static std::size_t shard_index() noexcept;

  std::array<Shard, kShards> shards_{};
};

/// Log-bucketed histogram over non-negative integer magnitudes (latency in
/// ns, bytes, ray counts, queue depths).
///
/// Bucket layout: values below 16 get exact unit buckets; above, each
/// power-of-two octave splits into 8 sub-buckets, for <= 12.5% relative
/// quantization error across the full uint64 range. One extra bucket
/// catches overflow (+inf or >= 2^64 when recording doubles). Counts are
/// relaxed atomics — integer adds commute, so totals are bit-identical for
/// any thread count — and snapshot() reads them in fixed bucket order.
class Histogram {
 public:
  static constexpr std::size_t kLinearBuckets = 16;
  static constexpr std::size_t kSubBuckets = 8;
  /// Octaves 4..63 each contribute kSubBuckets buckets.
  static constexpr std::size_t kBuckets =
      kLinearBuckets + (64 - 4) * kSubBuckets;
  static constexpr std::size_t kOverflowBucket = kBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) noexcept {
    if constexpr (kObsEnabled) {
      buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(value, std::memory_order_relaxed);
    } else {
      (void)value;
    }
  }

  /// Floating-point entry point with explicit edge-case policy:
  /// NaN and negative values are rejected (counted separately, returns
  /// false); +inf and values >= 2^64 land in the overflow bucket; zero
  /// lands in the exact zero bucket. Finite in-range values truncate to
  /// integer magnitude.
  bool record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of recorded integer magnitudes (overflow records excluded).
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow() const noexcept {
    return buckets_[kOverflowBucket].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  /// Quantile estimate (pct in [0, 100]): lower bound of the bucket holding
  /// the rank'th recorded value. Deterministic given the recorded multiset.
  /// Empty histogram returns 0.
  [[nodiscard]] std::uint64_t quantile(double pct) const noexcept;

  /// Plain copy of the bucket state for merging and fingerprinting; also
  /// a thread-local builder that add() publishes in one shot.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets + 1> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t rejected = 0;

    /// Non-atomic twin of Histogram::record(std::uint64_t).
    void record(std::uint64_t value) noexcept {
      ++buckets[bucket_index(value)];
      ++count;
      sum += value;
    }

    /// FNV-1a over the bucket array in index order — the bit-identity
    /// check used by the determinism tests.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept;

  /// Publish a locally built snapshot: one relaxed add per non-empty
  /// bucket plus the totals. Leaves the same state as calling record()
  /// once per value the snapshot holds.
  void add(const Snapshot& snap) noexcept;

  /// Bucket index for a value (kOverflowBucket never returned here: all
  /// uint64 values map into the finite layout).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Smallest value mapping to `bucket` (overflow bucket returns
  /// uint64 max).
  [[nodiscard]] static std::uint64_t bucket_lower_bound(
      std::size_t bucket) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// Process-wide named metric directory. Lookup takes a mutex (cache the
/// returned reference); returned references stay valid for the process
/// lifetime. Names are free-form dotted paths ("sim.pool.tasks").
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct CounterView {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramView {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t rejected = 0;
    std::uint64_t overflow = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
  };

  /// Stable export order: sorted by name (registration order can vary
  /// across thread schedules; the export must not).
  [[nodiscard]] std::vector<CounterView> counters() const;
  [[nodiscard]] std::vector<HistogramView> histograms() const;

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>>
      histograms_;
};

}  // namespace mmtag::obs
