// Shared machinery of the repository benchmark: options, metric values,
// correctness-check bookkeeping, in-memory spans, sample statistics and the
// host record.
//
// Every workload reports into one Report. The driver prints only the
// metrics a workload sets, as bare values; BENCHMARK.json is the one list
// of names and units, and perfbench/run.py attaches the units, fills the
// per-layer names a workload does not set with 0, and rejects any name the
// list does not hold.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/parallel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The sim::ThreadPool size every workload runs at.
inline constexpr int kThreads = 4;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Process CPU time (all threads) [s].
[[nodiscard]] double process_cpu_s();
/// Peak resident set of the process so far [MiB].
[[nodiscard]] double peak_rss_mib();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event file for --trace 1.
};

// --- Sample statistics ----------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated percentile `pct` in [0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double pct);
[[nodiscard]] double sum(const std::vector<double>& values);

// --- Spans ----------------------------------------------------------------

/// Spans kept in memory on the coordinating thread and written out when
/// the run ends. A span is recorded around a call into a layer's public
/// function; spans opened inside another span name it as their parent.
class Tracer {
 public:
  struct Span {
    std::string_view name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t op = 0;  ///< Closed-loop operation the span belongs to.
    bool program_reported = false;  ///< Duration measured by the program.
  };

  /// RAII span; a no-op when constructed with a null tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Tag the spans that follow with closed-loop operation `op`.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Record a duration the program itself measured (not a span timed
  /// here); it is written out with a "program_reported" marker.
  void add_reported(std::string_view name, double seconds);

  /// Sum of all durations recorded under `name` [s].
  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  const std::string& host_json) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string_view, double> totals_;
  int open_ = -1;
  std::uint64_t op_ = 0;
};

// --- Report ---------------------------------------------------------------

class Report {
 public:
  /// Set a metric; a value that is not finite fails a check instead.
  void set(const std::string& name, double value);

  /// Count one correctness check; a failure is printed to stderr.
  bool check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double fail_ratio() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}, with
  /// each metric as a bare number.
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Host -----------------------------------------------------------------

/// CPU model, nproc, compiler and flags, build type, kern backend, obs
/// gate and pool size, as one JSON object.
[[nodiscard]] std::string host_record_json();

/// STREAM triad a[i] = b[i] + s * c[i] on `pool`, arrays together at
/// least 4x the last-level cache. Best of several passes [GB/s], counting
/// 24 bytes per element. Returns 0 when the result does not verify.
[[nodiscard]] double stream_triad_gbps(mmtag::sim::ThreadPool& pool);

/// Run the STREAM probe, report it as host.stream_gbps and return it.
double measure_stream(mmtag::sim::ThreadPool& pool, Report& report);

/// printf-style line to stdout (the human-readable part of a report).
void say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "0x%016llx".
[[nodiscard]] std::string hex64(std::uint64_t value);

// --- Workloads --------------------------------------------------------------

void run_metro(const Options& options, mmtag::sim::ThreadPool& pool,
               Report& report, Tracer* tracer);
void run_link(const Options& options, mmtag::sim::ThreadPool& pool,
              Report& report, Tracer* tracer);
void run_fleet(const Options& options, mmtag::sim::ThreadPool& pool,
               Report& report, Tracer* tracer);

/// Rows every traced run reports: span coverage, tracing overhead and
/// pool efficiency.
struct TraceSummary {
  double parent_s = 0.0;        ///< Traced end-to-end span, per operation.
  double covered_s = 0.0;       ///< Measured layer spans, per operation.
  double ops = 1.0;             ///< Closed-loop operations traced.
  double traced_op_s = 0.0;     ///< End-to-end time per op, traced.
  double untraced_op_s = 0.0;   ///< End-to-end time per op, untraced.
  double pool_efficiency = 0.0; ///< CPU / (wall * threads), untraced.
};
void report_trace_summary(const TraceSummary& summary, Report& report);

}  // namespace perfbench
