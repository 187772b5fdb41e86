// Shared exact statistics helpers: percentiles, fairness, fingerprints.
//
// These used to live as private copies inside deploy::fleet_stats; they
// are the process-wide canonical versions now so every layer (fleet
// aggregates, bench harness timing summaries, obs histograms' exact
// counterparts) computes distributional numbers with the same algorithm
// and the same bit patterns. deploy::fleet_stats delegates here — its
// outputs are pinned bit-identical by regression test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace mmtag::obs {

/// Runs `body(i)` once for every i in [0, count) and returns when all have
/// finished, on any threads and in any order: the shape of
/// sim::ThreadPool::parallel_for, so obs needs no link to sim.
using ParallelFor = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& body)>;

/// Exact linear-interpolation percentiles (each pct in [0, 100], clamped)
/// of the union of `parts`, one result per entry of `pcts`, in order.
/// Bit-identical to concatenating the parts, sorting, and calling
/// percentile_sorted once per pct — without the concatenated copy or the
/// sort: one pass counts every value by the top bits of an
/// order-preserving key (up to 16, fewer for small samples), a second
/// gathers only the buckets that hold a needed rank, and nth_element
/// selects inside those. Parts may be empty and in any order. The input
/// must be NaN-free (NaN has no rank). An empty union returns NaN for
/// every pct.
///
/// The concatenated sample splits into contiguous groups of about equal
/// value count, a number fixed by the sample size alone. Each group finds
/// its key range, counts into counters for that range only, and later
/// gathers its own values into the shared buckets at offsets the group
/// order fixes; `parallel_for` runs the groups (empty: inline, in order).
/// The gathered buckets hold their values in concatenation order however
/// the groups ran, so neither the executor nor the thread count behind it
/// changes any result.
[[nodiscard]] std::vector<double> percentiles(
    const std::vector<std::span<const double>>& parts,
    const std::vector<double>& pcts, const ParallelFor& parallel_for = {});

/// Percentile over an already-sorted sample (no copy, no sort).
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double pct);

/// Jain fairness index (sum x)^2 / (n * sum x^2) in (0, 1]; 1 means all
/// shares equal. Empty or all-zero input returns 0.
[[nodiscard]] double jain_fairness(const std::vector<double>& values);

/// Incremental FNV-1a 64-bit hasher with a canonical-NaN rule for doubles,
/// so two runs that agree on every observable (including "no data" NaNs)
/// produce the same digest.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001B3ull;

  void mix_bytes(const void* data, std::size_t bytes) noexcept;
  /// NaNs hash via the canonical quiet-NaN bit pattern; every other value
  /// hashes its exact representation.
  void mix_double(double value) noexcept;
  void mix_u64(std::uint64_t value) noexcept {
    mix_bytes(&value, sizeof(value));
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace mmtag::obs
