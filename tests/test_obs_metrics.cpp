// Observability metrics (src/obs/metrics): lock-free counters, log-bucketed
// histograms, the process-wide registry — and above all the determinism
// contract: aggregates are unsigned-integer sums merged in a fixed order,
// so any thread count produces bit-identical totals and fingerprints.
#include "src/obs/metrics.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/parallel.hpp"

namespace mmtag::obs {
namespace {

// Recording is compiled out under MMTAG_OBS=0; tests that depend on it
// skip rather than fail in a gated build.
#define MMTAG_SKIP_IF_OBS_DISABLED()                            \
  if constexpr (!kObsEnabled) {                                 \
    GTEST_SKIP() << "MMTAG_OBS=0: recording compiled to no-op"; \
  }

TEST(Counter, StartsAtZeroAndAccumulates) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add(3);
  counter.add(4);
  EXPECT_EQ(counter.value(), 7u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

void hammer_counter(Counter& counter, int threads, std::uint64_t per_thread) {
  sim::ThreadPool pool(threads);
  pool.parallel_for(static_cast<std::size_t>(threads), [&](std::size_t) {
    for (std::uint64_t i = 0; i < per_thread; ++i) counter.add(1);
  });
}

TEST(Counter, ExactUnderContentionAtEveryThreadCount) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  // The tentpole guarantee: identical totals at 1, 4, and hardware
  // threads. Unsigned adds commute, so sharding can't lose or reorder
  // anything visible.
  constexpr std::uint64_t kPerThread = 20'000;
  for (const int threads : {1, 4, sim::default_thread_count()}) {
    Counter counter;
    hammer_counter(counter, threads, kPerThread);
    EXPECT_EQ(counter.value(),
              kPerThread * static_cast<std::uint64_t>(threads))
        << "threads=" << threads;
  }
}

TEST(Histogram, BucketIndexIsMonotonicAndExactForSmallValues) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::bucket_lower_bound(Histogram::bucket_index(v)), v);
  }
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (1ull << 40); v = v * 3 + 1) {
    const std::size_t index = Histogram::bucket_index(v);
    EXPECT_GE(index, prev);
    EXPECT_LE(Histogram::bucket_lower_bound(index), v);
    prev = index;
  }
}

TEST(Histogram, QuantizationErrorBounded) {
  // Sub-bucketed octaves: the bucket lower bound is never more than 12.5%
  // below the recorded value.
  for (std::uint64_t v = 16; v < (1ull << 50); v = v * 7 + 13) {
    const double lower = static_cast<double>(
        Histogram::bucket_lower_bound(Histogram::bucket_index(v)));
    EXPECT_LE(lower, static_cast<double>(v));
    EXPECT_GT(lower, static_cast<double>(v) / 1.125 - 1.0) << "v=" << v;
  }
}

TEST(Histogram, EdgeCaseZero) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Histogram h;
  EXPECT_TRUE(h.record(0.0));
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.buckets[0], 1u);  // Exact zero bucket.
}

TEST(Histogram, EdgeCaseMinPositive) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Histogram h;
  EXPECT_TRUE(h.record(std::numeric_limits<double>::denorm_min()));
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  // Rounds to the smallest integer bucket, not rejected, not overflow.
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, EdgeCaseInfinityGoesToOverflow) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Histogram h;
  EXPECT_TRUE(h.record(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(Histogram, EdgeCaseNaNAndNegativeAreRejected) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Histogram h;
  EXPECT_FALSE(h.record(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(h.record(-1.0));
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.rejected, 2u);
}

TEST(Histogram, QuantileReturnsBucketLowerBound) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(static_cast<std::uint64_t>(7));
  EXPECT_EQ(h.quantile(50.0), 7u);
  EXPECT_EQ(h.quantile(99.0), 7u);
}

Histogram::Snapshot record_sharded(int threads) {
  // Deterministic workload: every thread records a disjoint slice of the
  // same global value sequence; the merged snapshot must not depend on
  // the slicing.
  Histogram h;
  sim::ThreadPool pool(threads);
  constexpr std::uint64_t kTotal = 50'000;
  pool.parallel_for(static_cast<std::size_t>(threads), [&](std::size_t t) {
    for (std::uint64_t i = t; i < kTotal;
         i += static_cast<std::uint64_t>(threads)) {
      h.record(i * i % 100'000);
    }
  });
  return h.snapshot();
}

TEST(Histogram, MergeBitIdenticalAcrossThreadCounts) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  const Histogram::Snapshot one = record_sharded(1);
  const Histogram::Snapshot four = record_sharded(4);
  const Histogram::Snapshot hw = record_sharded(sim::default_thread_count());

  EXPECT_EQ(one.fingerprint(), four.fingerprint());
  EXPECT_EQ(one.fingerprint(), hw.fingerprint());
  EXPECT_EQ(one.count, four.count);
  EXPECT_EQ(one.sum, four.sum);
  for (std::size_t b = 0; b < one.buckets.size(); ++b) {
    ASSERT_EQ(one.buckets[b], four.buckets[b]) << "bucket " << b;
  }
}

TEST(HistogramSnapshot, MergeAddsCountsAndChangesFingerprint) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Histogram a;
  Histogram b;
  a.record(static_cast<std::uint64_t>(5));
  b.record(static_cast<std::uint64_t>(500));
  Histogram::Snapshot merged = a.snapshot();
  const std::uint64_t before = merged.fingerprint();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.sum, 505u);
  EXPECT_NE(merged.fingerprint(), before);
}

TEST(Histogram, AddingALocalSnapshotEqualsRecordingEachValue) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  std::vector<std::uint64_t> values = {
      0, 1, 15, 16, 17, 1000, 1000, 123'456'789,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t i = 0; i < 5000; ++i) values.push_back(i * i % 70'001);

  Histogram per_value;
  Histogram batched;
  // Both start from the same non-empty state: add() accumulates.
  per_value.record(static_cast<std::uint64_t>(42));
  batched.record(static_cast<std::uint64_t>(42));
  Histogram::Snapshot local;
  for (const std::uint64_t v : values) {
    per_value.record(v);
    local.record(v);
  }
  batched.add(local);

  const Histogram::Snapshot want = per_value.snapshot();
  const Histogram::Snapshot got = batched.snapshot();
  EXPECT_EQ(got.fingerprint(), want.fingerprint());
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  // An empty snapshot publishes nothing.
  batched.add(Histogram::Snapshot{});
  EXPECT_EQ(batched.snapshot().fingerprint(), want.fingerprint());
}

TEST(Registry, ReturnsStableReferencesByName) {
  Registry& registry = Registry::instance();
  Counter& a = registry.counter("test.registry.counter");
  Counter& b = registry.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  Histogram& ha = registry.histogram("test.registry.histogram");
  Histogram& hb = registry.histogram("test.registry.histogram");
  EXPECT_EQ(&ha, &hb);
}

TEST(Registry, ExportIsSortedByName) {
  Registry& registry = Registry::instance();
  registry.counter("test.zz.last").add(1);
  registry.counter("test.aa.first").add(1);
  const std::vector<Registry::CounterView> counters = registry.counters();
  ASSERT_GE(counters.size(), 2u);
  for (std::size_t i = 1; i < counters.size(); ++i) {
    EXPECT_LT(counters[i - 1].name, counters[i].name);
  }
}

TEST(Registry, HistogramViewReportsDistribution) {
  MMTAG_SKIP_IF_OBS_DISABLED();
  Registry& registry = Registry::instance();
  Histogram& h = registry.histogram("test.registry.view");
  h.reset();
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  bool found = false;
  for (const Registry::HistogramView& view : registry.histograms()) {
    if (view.name != "test.registry.view") continue;
    found = true;
    EXPECT_EQ(view.count, 10u);
    EXPECT_EQ(view.sum, 55u);
    EXPECT_DOUBLE_EQ(view.mean, 5.5);
    EXPECT_EQ(view.p50, 5u);  // Exact buckets below 16.
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mmtag::obs
