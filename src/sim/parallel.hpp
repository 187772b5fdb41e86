// Parallel Monte-Carlo sweep engine.
//
// Every evaluation in this library — BER/FER curves, Fig. 6/7 sweeps, the
// bench grids — is an embarrassingly parallel map over a grid of points
// (SNR, distance, angle, rate). This module provides the one thread pool
// they all share and two idioms on top of it:
//
//   parallel_sweep(pool, n, fn)            — fn(i) -> Result, any grid
//   parallel_monte_carlo(pool, n, seed, fn) — fn(rng, i) -> Result, where
//       each task gets its OWN sim::Rng seeded with derive_seed(seed, i)
//
// The RNG discipline is the load-bearing part: a task never touches a
// shared sim::Rng&. Seeding each point from (base_seed, index)
// makes every sweep bit-identical regardless of thread count or scheduling
// order, so "run it on more cores" can never change a result (see
// DESIGN.md Sec. 7).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/rng.hpp"
#include "src/sim/table.hpp"

namespace mmtag::sim {

/// Worker count used when a pool is built with `threads <= 0`: the
/// MMTAG_THREADS environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] int default_thread_count();

/// A fixed-size pool of std::thread workers executing index ranges.
///
/// There is deliberately no work stealing and no futures: sweep items are
/// claimed one index at a time from an atomic cursor, which balances load
/// across points of unequal cost (low-SNR points terminate early, clean
/// points run to max_bits) without any ordering dependence. The calling
/// thread participates, so ThreadPool(1) runs the body inline with zero
/// synchronisation overhead.
class ThreadPool {
 public:
  /// `threads <= 0` selects default_thread_count().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads applied to each parallel_for (workers + caller).
  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Run `body(i)` for every i in [0, count), blocking until all complete.
  /// `body` may only touch per-index state (each index is claimed by
  /// exactly one thread). Not reentrant.
  ///
  /// Exceptions thrown by `body` propagate: the first failure abandons the
  /// remaining unclaimed indices, every worker quiesces, and the exception
  /// is rethrown on the calling thread (when several claimed indices throw
  /// concurrently, the lowest-indexed failure wins). The pool remains
  /// usable afterwards; results for indices that never ran are whatever
  /// the caller preallocated.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Claim indices from the shared cursor until the range is exhausted.
  /// Never lets an exception escape (failures are parked in error_).
  void drain_items();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::uint64_t generation_ = 0;
  int running_workers_ = 0;
  bool stop_ = false;
  /// First task failure of the current parallel_for (by index).
  std::exception_ptr error_;
  std::size_t error_index_ = std::numeric_limits<std::size_t>::max();
  /// Batch sequence number; batch wall-time is sampled 1-in-8 on it so
  /// the clock reads stay off the empty-batch dispatch floor.
  std::uint64_t obs_batch_tick_ = 0;
};

/// Timing/throughput counters for one sweep, printed by the benches so
/// parallel speedups stay observable.
struct SweepStats {
  std::size_t points = 0;
  int threads = 1;
  double wall_s = 0.0;
  /// Optional work units behind the sweep (bits simulated, frames, ...).
  std::uint64_t units = 0;

  [[nodiscard]] double points_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(points) / wall_s : 0.0;
  }
  [[nodiscard]] double units_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(units) / wall_s : 0.0;
  }
};

/// One-row table of a sweep's counters (threads, points, wall time,
/// points/s, and units/s when `unit_name` is non-empty).
[[nodiscard]] Table sweep_stats_table(const SweepStats& stats,
                                      const std::string& unit_name = "");

/// Map `fn(index) -> Result` over [0, count) on the pool. Results land in
/// index order; Result must be default-constructible and movable. When
/// `stats` is non-null its points/threads/wall_s fields are filled (units
/// is left to the caller — only it knows the work behind a point).
template <typename Fn>
auto parallel_sweep(ThreadPool& pool, std::size_t count, Fn&& fn,
                    SweepStats* stats = nullptr)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  std::vector<Result> results(count);
  const auto start = std::chrono::steady_clock::now();
  pool.parallel_for(count,
                    [&](std::size_t i) { results[i] = fn(i); });
  if (stats != nullptr) {
    stats->points = count;
    stats->threads = pool.size();
    stats->wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  return results;
}

/// Monte-Carlo variant: `fn(rng, index) -> Result` where `rng` is a fresh
/// Rng seeded with derive_seed(base_seed, index). Results are
/// bit-identical for any thread count.
template <typename Fn>
auto parallel_monte_carlo(ThreadPool& pool, std::size_t count,
                          std::uint64_t base_seed, Fn&& fn,
                          SweepStats* stats = nullptr)
    -> std::vector<decltype(fn(std::declval<Rng&>(), std::size_t{}))> {
  return parallel_sweep(
      pool, count,
      [&](std::size_t i) {
        Rng rng = make_rng(derive_seed(base_seed, i));
        return fn(rng, i);
      },
      stats);
}

}  // namespace mmtag::sim
