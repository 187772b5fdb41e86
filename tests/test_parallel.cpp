// Parallel sweep engine tests (src/sim/parallel, src/sim/link_sim sweeps).
//
// The contract under test: sharding a sweep across any number of threads
// never changes a single bit of the result, because every grid point owns
// an RNG stream derived from (base_seed, point index) — never a shared
// engine.
#include "src/sim/parallel.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/link_sim.hpp"
#include "src/sim/sweep.hpp"

namespace mmtag::sim {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeAndReuse) {
  ThreadPool pool(3);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body on empty range"; });
  // The same pool must be reusable across many dispatches (generation
  // bookkeeping must not wedge).
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(7, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50 * 7);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(DefaultThreadCount, IsPositive) {
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ParallelSweep, PreservesIndexOrderAndFillsStats) {
  ThreadPool pool(4);
  SweepStats stats;
  const auto results = parallel_sweep(
      pool, 100, [](std::size_t i) { return 3 * i; }, &stats);
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 3 * i);
  }
  EXPECT_EQ(stats.points, 100u);
  EXPECT_EQ(stats.threads, 4);
  EXPECT_GE(stats.wall_s, 0.0);
}

TEST(ParallelMonteCarlo, StreamsMatchDeriveSeedContract) {
  // Whatever thread runs a task, its stream must be exactly
  // make_rng(derive_seed(base, index)).
  ThreadPool pool(4);
  const std::uint64_t base = 7777;
  const auto draws = parallel_monte_carlo(
      pool, 64, base,
      [](sim::Rng& rng, std::size_t) { return rng(); });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    sim::Rng expected = make_rng(derive_seed(base, i));
    EXPECT_EQ(draws[i], expected());
  }
}

TEST(ParallelMonteCarlo, DistinctIndicesGetDistinctStreams) {
  ThreadPool pool(2);
  const auto draws = parallel_monte_carlo(
      pool, 32, 5, [](sim::Rng& rng, std::size_t) { return rng(); });
  for (std::size_t a = 0; a < draws.size(); ++a) {
    for (std::size_t b = a + 1; b < draws.size(); ++b) {
      EXPECT_NE(draws[a], draws[b]);
    }
  }
}

TEST(SweepStatsTable, ReportsThroughput) {
  SweepStats stats;
  stats.points = 10;
  stats.threads = 2;
  stats.wall_s = 0.5;
  stats.units = 1'000'000;
  EXPECT_DOUBLE_EQ(stats.points_per_s(), 20.0);
  EXPECT_DOUBLE_EQ(stats.units_per_s(), 2e6);
  const Table table = sweep_stats_table(stats, "bits");
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_EQ(table.columns(), 6u);
  EXPECT_NE(table.to_csv().find("2.00M"), std::string::npos);
}

// --- The acceptance-criterion test: a >=20-point BER sweep must be
// bit-identical across thread counts {1, 4, hardware_concurrency}.

MonteCarloLink quick_link() {
  MonteCarloLink::Params params;
  params.min_bits = 2'000;
  params.block_bits = 500;
  params.target_bit_errors = 50;
  params.max_bits = 4'000;
  return MonteCarloLink{params};
}

TEST(BerSweep, BitIdenticalAcrossThreadCounts) {
  const MonteCarloLink link = quick_link();
  const std::vector<double> snrs = linspace(-2.0, 14.0, 21);
  constexpr std::uint64_t kSeed = 42;

  ThreadPool serial(1);
  ThreadPool four(4);
  ThreadPool hardware(default_thread_count());
  const BerSweepResult a = link.measure_ber_sweep(snrs, kSeed, serial);
  const BerSweepResult b = link.measure_ber_sweep(snrs, kSeed, four);
  const BerSweepResult c = link.measure_ber_sweep(snrs, kSeed, hardware);

  ASSERT_EQ(a.points.size(), snrs.size());
  ASSERT_EQ(b.points.size(), snrs.size());
  ASSERT_EQ(c.points.size(), snrs.size());
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    EXPECT_EQ(a.points[i].bits_sent, b.points[i].bits_sent) << "point " << i;
    EXPECT_EQ(a.points[i].bit_errors, b.points[i].bit_errors)
        << "point " << i;
    EXPECT_EQ(a.points[i].bits_sent, c.points[i].bits_sent) << "point " << i;
    EXPECT_EQ(a.points[i].bit_errors, c.points[i].bit_errors)
        << "point " << i;
  }
  EXPECT_EQ(a.stats.units, b.stats.units);
  EXPECT_EQ(a.stats.units, c.stats.units);
  EXPECT_GT(a.stats.units, 0u);
}

TEST(BerSweep, MatchesSelfSeededPoints) {
  // The sweep is nothing more than measure_ber_point at derived seeds.
  const MonteCarloLink link = quick_link();
  const std::vector<double> snrs = linspace(0.0, 12.0, 5);
  ThreadPool pool(2);
  const BerSweepResult sweep = link.measure_ber_sweep(snrs, 9, pool);
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    const BerMeasurement point =
        link.measure_ber_point(snrs[i], derive_seed(9, i));
    EXPECT_EQ(sweep.points[i].bits_sent, point.bits_sent);
    EXPECT_EQ(sweep.points[i].bit_errors, point.bit_errors);
  }
}

TEST(FerSweep, BitIdenticalAcrossThreadCounts) {
  const MonteCarloLink link = quick_link();
  const std::vector<double> snrs = linspace(2.0, 10.0, 5);
  ThreadPool serial(1);
  ThreadPool four(4);
  const FerSweepResult a = link.measure_fer_sweep(snrs, 10, 64, 7, serial);
  const FerSweepResult b = link.measure_fer_sweep(snrs, 10, 64, 7, four);
  ASSERT_EQ(a.points.size(), snrs.size());
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    EXPECT_EQ(a.points[i].frames, 10);
    EXPECT_EQ(a.points[i].failures, b.points[i].failures) << "point " << i;
  }
  EXPECT_EQ(a.stats.units, 10u * snrs.size());
}

// --- Exception propagation from pooled tasks ---------------------------
// Regression: task exceptions used to terminate the process (thrown on a
// worker thread with nothing to catch them). The contract now is that
// parallel_for rethrows the failure on the calling thread, prefers the
// lowest-indexed failure when several tasks throw, and leaves the pool
// reusable.

TEST(ThreadPoolExceptions, TaskExceptionReachesCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("task 37");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolExceptions, InlinePathAlsoPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 3) throw std::logic_error("inline");
                        }),
      std::logic_error);
}

TEST(ThreadPoolExceptions, LowestIndexedFailureWins) {
  // Deterministic selection when several tasks throw: the reported error
  // is the lowest-indexed one, independent of scheduling.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i % 2 == 1) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "index 1");
    }
  }
}

TEST(ThreadPoolExceptions, PoolIsReusableAfterFailure) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> total{0};
  pool.parallel_for(20, [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 20);
}

TEST(ThreadPoolExceptions, ParallelSweepPropagates) {
  // The public sweep API inherits the contract: a throwing point body
  // must surface to the sweep caller, not kill the process.
  ThreadPool pool(2);
  EXPECT_THROW(parallel_sweep(pool, 16,
                              [](std::size_t i) -> int {
                                if (i == 5) {
                                  throw std::runtime_error("point 5");
                                }
                                return static_cast<int>(i);
                              }),
               std::runtime_error);
}

// --- Adaptive early termination.

TEST(AdaptiveTermination, NoisyPointStopsAtMinBits) {
  // At -10 dB the BER is ~0.4: target_bit_errors is met within the first
  // block, so min_bits is the later (binding) condition.
  const MonteCarloLink link = quick_link();
  const BerMeasurement m = link.measure_ber_point(-10.0, 1);
  EXPECT_EQ(m.bits_sent, link.params().min_bits);
  EXPECT_GE(m.bit_errors, link.params().target_bit_errors);
}

TEST(AdaptiveTermination, CleanPointRunsToMaxBitsCap) {
  // At 30 dB there are no errors: the error target is unreachable and the
  // hard cap must stop the point.
  const MonteCarloLink link = quick_link();
  const BerMeasurement m = link.measure_ber_point(30.0, 2);
  EXPECT_EQ(m.bits_sent, link.params().max_bits);
  EXPECT_EQ(m.bit_errors, 0u);
}

TEST(AdaptiveTermination, MarginalPointRunsPastMinBitsUntilErrorTarget) {
  // Pick an SNR where errors exist but are too rare to hit the target by
  // min_bits; the measurement must keep going (whole blocks) until the
  // error target or the cap.
  MonteCarloLink::Params params;
  params.min_bits = 1'000;
  params.block_bits = 500;
  params.target_bit_errors = 100;
  params.max_bits = 50'000;
  const MonteCarloLink link{params};
  const BerMeasurement m = link.measure_ber_point(8.0, 3);  // BER ~ 6e-3.
  EXPECT_GT(m.bits_sent, params.min_bits);
  EXPECT_LT(m.bits_sent, params.max_bits);
  EXPECT_GE(m.bit_errors, params.target_bit_errors);
  EXPECT_EQ(m.bits_sent % params.block_bits, 0u);
}

TEST(AdaptiveTermination, MaxBitsZeroDefaultsToTenTimesMinBits) {
  MonteCarloLink::Params params;
  params.min_bits = 1'000;
  params.block_bits = 500;
  const MonteCarloLink link{params};
  EXPECT_EQ(link.effective_max_bits(), 10'000u);
}

}  // namespace
}  // namespace mmtag::sim
