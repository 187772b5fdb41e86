#include "src/sim/parallel.hpp"

#include <cassert>
#include <cstdlib>

#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace mmtag::sim {

namespace {

// Pool metrics (obs registry). Function-local statics keep steady-state
// cost to one indirect load; every call site is if-constexpr gated so
// MMTAG_OBS=0 builds carry no trace of them.
obs::Counter& pool_tasks_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("sim.pool.tasks");
  return counter;
}
obs::Histogram& pool_queue_depth_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("sim.pool.queue_depth");
  return hist;
}
obs::Histogram& pool_batch_ns_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("sim.pool.batch_ns");
  return hist;
}

}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("MMTAG_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_thread_count();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::drain_items() {
  std::uint64_t executed = 0;
  while (true) {
    // Relaxed suffices: the handshake under mutex_ orders the batch's
    // setup before any claim, and the cursor only has to hand each index
    // to one thread.
    const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count_) break;
    try {
      (*body_)(index);
    } catch (...) {
      // Park the failure and abandon the remaining unclaimed indices so
      // the batch quiesces quickly. When multiple claimed tasks throw
      // concurrently, the lowest index wins — a fixed rule so the caller
      // sees a reproducible exception for deterministic workloads.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_ || index < error_index_) {
        error_ = std::current_exception();
        error_index_ = index;
      }
      next_.store(count_, std::memory_order_relaxed);
    }
    ++executed;
  }
  if constexpr (obs::kObsEnabled) {
    if (executed > 0) pool_tasks_metric().add(executed);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    drain_items();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--running_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  body_ = &body;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  error_ = nullptr;
  error_index_ = std::numeric_limits<std::size_t>::max();
  std::uint64_t batch_start_ns = 0;
  bool timed_batch = false;
  if constexpr (obs::kObsEnabled) {
    pool_queue_depth_metric().record(static_cast<std::uint64_t>(count));
    // Batch granularity, sampled 1-in-8: per-item (or even per-batch)
    // clock reads would distort sub-microsecond dispatch far beyond the
    // < 2% instrumentation budget (DESIGN.md Sec. 9). Per-task latency
    // is batch_ns over queue_depth.
    timed_batch = (obs_batch_tick_++ & 7) == 0;
    if (timed_batch) batch_start_ns = obs::TraceSink::instance().now_ns();
  }
  const auto finish = [&] {
    body_ = nullptr;
    if constexpr (obs::kObsEnabled) {
      if (timed_batch) {
        pool_batch_ns_metric().record(obs::TraceSink::instance().now_ns() -
                                      batch_start_ns);
      }
    }
    if (error_) {
      const std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  };
  if (workers_.empty()) {
    // Single-threaded pool: run inline, no synchronisation.
    drain_items();
    finish();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    running_workers_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  drain_items();
  {
    // parallel_for does not return until every worker has both observed
    // this generation and finished draining, so generations can never be
    // skipped and the job state can be reused safely.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return running_workers_ == 0; });
  }
  finish();
}

Table sweep_stats_table(const SweepStats& stats,
                        const std::string& unit_name) {
  std::vector<std::string> headers = {"threads", "points", "wall_ms",
                                      "points_per_s"};
  std::vector<std::string> row = {
      std::to_string(stats.threads), std::to_string(stats.points),
      Table::fmt(stats.wall_s * 1e3, 1), Table::fmt_si(stats.points_per_s())};
  if (!unit_name.empty()) {
    headers.push_back(unit_name);
    headers.push_back(unit_name + "_per_s");
    row.push_back(Table::fmt_si(static_cast<double>(stats.units)));
    row.push_back(Table::fmt_si(stats.units_per_s()));
  }
  Table table(std::move(headers));
  table.add_row(std::move(row));
  return table;
}

}  // namespace mmtag::sim
