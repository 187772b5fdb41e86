// Unified benchmark harness: registration, warmup, timed repetitions,
// robust summaries, machine-readable JSON, and regression comparison.
//
// Every bench_* executable in this repo is built on this harness (via
// bench/bench_main.hpp), which gives all of them one CLI contract:
//
//   --threads N     worker threads for pool-based cases (0 = default)
//   --seed S        base RNG seed for deterministic workloads
//   --warmup W      untimed repetitions per case before measurement
//   --repeat R      timed repetitions per case (median/p90 over these)
//   --json PATH     write a schema-versioned BENCH report (mmtag.bench.v1)
//   --compare PATH  diff this run against a baseline report; exit 1 when
//                   any case's median wall time regressed by more than
//   --threshold F   (relative, default 0.25 = 25%)
//   --csv           machine-readable tables instead of human output
//
// Unknown flags are hard errors — a typo must not silently run the
// default configuration and masquerade as a measurement.
//
// Timing uses the steady clock for wall time and the process CPU clock
// for cpu time; summaries (median/p90/min/max, plus the mean) come from
// obs::percentiles so the bench layer and the fleet layer agree on what a
// percentile is. Case bodies report their work through
// CaseContext::set_units, which turns medians into throughput.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/json.hpp"

namespace mmtag::bench {

/// Schema identifier stamped into every report; bump when the layout
/// changes incompatibly.
inline constexpr const char* kSchemaVersion = "mmtag.bench.v1";

/// Parsed CLI state shared by every bench executable.
struct Options {
  std::string bench_name;
  int threads = 0;  ///< 0 selects sim::default_thread_count() downstream.
  std::uint64_t seed = 1;
  int warmup = 1;
  int repeat = 3;
  std::string json_path;
  std::string compare_path;
  double threshold = 0.25;
  bool csv = false;
};

/// One option parser for all benches: the standard flags above plus any
/// bench-specific extras registered before parse(). Unknown flags and
/// malformed values print usage to stderr and fail with exit code 2;
/// --help prints usage and exits 0.
class Parser {
 public:
  explicit Parser(std::string bench_name, std::string description = "");

  /// Register bench-specific options. `name` must include the leading
  /// "--"; `target` holds the default and receives the parsed value, and
  /// must outlive parse().
  void add_flag(const char* name, bool* target, const char* help);
  void add_int(const char* name, int* target, const char* help);
  void add_uint64(const char* name, std::uint64_t* target, const char* help);
  void add_double(const char* name, double* target, const char* help);
  void add_string(const char* name, std::string* target, const char* help);

  /// Returns true when the program should proceed; false for --help or
  /// errors (check exit_code()).
  [[nodiscard]] bool parse(int argc, char** argv);
  [[nodiscard]] int exit_code() const { return exit_code_; }

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] bool csv() const { return options_.csv; }

 private:
  enum class Kind { kFlag, kInt, kUint64, kDouble, kString };
  struct Spec {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
  };

  void print_usage() const;
  [[nodiscard]] bool apply(const Spec& spec, const char* value);

  Options options_;
  std::string description_;
  std::vector<Spec> specs_;
  int exit_code_ = 0;
};

/// Handed to each case body; carries run configuration in and work
/// accounting out.
class CaseContext {
 public:
  CaseContext(const Options& options, bool warmup)
      : options_(options), warmup_(warmup) {}

  [[nodiscard]] std::uint64_t seed() const { return options_.seed; }
  /// True during untimed warmup repetitions (bodies may skip expensive
  /// result archiving there).
  [[nodiscard]] bool warmup() const { return warmup_; }

  /// Declare the work one repetition performed; the report divides it by
  /// the median wall time for throughput. Last call wins.
  void set_units(double units, std::string unit_name) {
    units_ = units;
    unit_name_ = std::move(unit_name);
  }

  [[nodiscard]] double units() const { return units_; }
  [[nodiscard]] const std::string& unit_name() const { return unit_name_; }

 private:
  const Options& options_;
  bool warmup_ = false;
  double units_ = 0.0;
  std::string unit_name_;
};

/// Timing summary of one case over the timed repetitions.
struct CaseReport {
  std::string name;
  int repeat = 0;
  double wall_min_ns = 0.0;
  double wall_median_ns = 0.0;
  double wall_p90_ns = 0.0;
  double wall_max_ns = 0.0;
  double wall_mean_ns = 0.0;
  double cpu_median_ns = 0.0;
  double cpu_p90_ns = 0.0;
  double units = 0.0;
  std::string unit_name;

  [[nodiscard]] double units_per_s() const {
    return wall_median_ns > 0.0 && units > 0.0
               ? units / (wall_median_ns * 1e-9)
               : 0.0;
  }
};

class Harness {
 public:
  explicit Harness(Options options);

  /// Register a case. Bodies run warmup + repeat times in registration
  /// order; each repetition must redo the full work (assign results into
  /// captured locals rather than appending).
  void add(std::string name, std::function<void(CaseContext&)> body);

  /// Execute all cases, print the timing summary (suppressed under --csv,
  /// which prints a CSV timing table instead), write --json, apply
  /// --compare. Returns the process exit code: 0 success, 1 comparison
  /// regression, 2 I/O, parse, or schema errors.
  [[nodiscard]] int run();

  [[nodiscard]] const Options& options() const { return options_; }
  /// The report of the last run() as a JSON document.
  [[nodiscard]] const obs::JsonValue& report() const { return report_; }
  [[nodiscard]] const std::vector<CaseReport>& case_reports() const {
    return case_reports_;
  }

 private:
  struct Case {
    std::string name;
    std::function<void(CaseContext&)> body;
  };

  Options options_;
  std::vector<Case> cases_;
  std::vector<CaseReport> case_reports_;
  obs::JsonValue report_;
};

/// Schema check for a bench report document. Returns true when `doc`
/// carries the expected schema tag, a bench name, config, and
/// well-formed cases; otherwise false with a reason in `error`.
[[nodiscard]] bool validate_report(const obs::JsonValue& doc,
                                   std::string* error);

/// Compare `current` against `baseline`: every baseline case must exist in
/// current, and its median wall time must not exceed baseline's by more
/// than `threshold` (relative). Appends one human-readable line per case
/// to `log` when non-null. Returns the number of regressions.
[[nodiscard]] int compare_reports(const obs::JsonValue& current,
                                  const obs::JsonValue& baseline,
                                  double threshold, std::string* log);

/// Format nanoseconds with an adaptive unit (ns/us/ms/s).
[[nodiscard]] std::string format_ns(double ns);
/// Format a rate with an SI suffix ("4.07 M").
[[nodiscard]] std::string format_si(double value);

/// Optimizer barrier for microbenchmark kernels (the classic escape/
/// clobber idiom): forces `value` to exist without emitting any code.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace mmtag::bench
