// Shared entry-point kit for every bench_* executable.
//
// Each bench does:
//
//   mmtag::bench::Parser parser("e4_ber", "what this bench shows");
//   parser.add_int("--points", &points, "SNR grid size");   // extras
//   if (!parser.parse(argc, argv)) return parser.exit_code();
//   mmtag::bench::Harness harness(parser.options());
//   harness.add("ber_sweep", [&](mmtag::bench::CaseContext& ctx) {
//     result = compute();            // assign, don't append: the body
//     ctx.set_units(bits, "bits");   // runs warmup+repeat times
//   });
//   if (const int rc = harness.run(); rc != 0) return rc;
//   ...print the human tables from the last repetition's results...
//
// That buys every bench the standard CLI (--threads --seed --warmup
// --repeat --json --compare --threshold --csv, unknown flags are errors),
// median/p90 wall+cpu timing, BENCH_<name>.json reports, and baseline
// comparison — see src/obs/bench.hpp for the harness itself.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/kern/kern.hpp"
#include "src/obs/bench.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/parallel.hpp"

namespace mmtag::bench {

/// Thread pool honouring the standard --threads flag (0 = default count).
[[nodiscard]] inline sim::ThreadPool make_pool(const Options& options) {
  return sim::ThreadPool(options.threads);
}

/// A fingerprint as the 16 lowercase hex digits every bench prints.
[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return std::string(buf);
}

/// Thread counts for a determinism gate: `counts` sorted and
/// deduplicated. With `clip`, counts above sim::default_thread_count()
/// are dropped; otherwise a small machine runs them oversubscribed.
[[nodiscard]] inline std::vector<int> thread_grid(
    std::initializer_list<int> counts, bool clip) {
  const int hw = sim::default_thread_count();
  std::vector<int> grid;
  for (const int t : counts) {
    if (!clip || t <= hw) grid.push_back(t);
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

/// Determinism gate: calls `run(threads)` for every count in `grid`, in
/// order; each call returns that run's fingerprints. Returns false, after
/// a FAIL line on stderr naming `what`, when any run's fingerprints differ
/// from the first run's.
template <typename Run>
[[nodiscard]] bool check_thread_invariance(const char* what,
                                           const std::vector<int>& grid,
                                           Run&& run) {
  bool same = true;
  std::vector<std::uint64_t> reference;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::vector<std::uint64_t> prints = run(grid[i]);
    if (i == 0) {
      reference = prints;
      continue;
    }
    if (prints == reference) continue;
    std::string detail;
    for (std::size_t k = 0; k < prints.size() && k < reference.size(); ++k) {
      if (k > 0) detail += ", ";
      detail += hex64(prints[k]) + " vs " + hex64(reference[k]);
    }
    std::fprintf(stderr, "FAIL: %s diverged at threads=%d (%s)\n", what,
                 grid[i], detail.c_str());
    same = false;
  }
  return same;
}

/// Register the shared --kern flag. `value` holds the parsed backend name
/// and must outlive parse(); pass it to apply_kern_flag afterwards.
inline void add_kern_flag(Parser& parser, std::string* value) {
  parser.add_string("--kern", value,
                    "force SIMD backend: scalar|avx2|auto "
                    "(default: auto / $MMTAG_KERN)");
}

/// Apply a parsed --kern value to the process-wide dispatch table.
/// Empty string means "leave the default resolution alone". Returns
/// false (with a message on stderr) for unknown or unavailable backends
/// so benches can exit 2 like any other malformed flag.
[[nodiscard]] inline bool apply_kern_flag(const std::string& value) {
  if (value.empty()) return true;
  const auto backend = kern::parse_backend(value);
  if (!backend.has_value()) {
    std::fprintf(stderr, "error: unknown --kern backend '%s'\n",
                 value.c_str());
    return false;
  }
  if (!kern::set_backend(*backend)) {
    std::fprintf(stderr, "error: --kern backend '%s' not available on this "
                         "host\n",
                 value.c_str());
    return false;
  }
  return true;
}

}  // namespace mmtag::bench
