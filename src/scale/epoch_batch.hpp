// Batched per-beam link evaluation over SoA slabs.
//
// The deploy path evaluates links one tag at a time: received_power_dbm
// (a log10 per call), then a rate-table walk. At metro scale the epoch
// batcher replaces that with three SIMD passes over contiguous slabs:
//
//   1. gather: copy the candidate slots' x/y columns into a slab,
//   2. kern.squared_distance: d² from the reader for the whole slab,
//   3. kern.threshold_below against precomputed *squared-range*
//      thresholds.
//
// The trick making pass 3 exact (not an approximation) is that the
// monostatic backscatter budget is strictly decreasing in distance
// (40 dB/decade), so "P_rx(d) >= P_required(tier)" is equivalent to
// "d² < r_tier²" with r_tier = BackscatterLinkBudget::max_range_m(
// required_power_dbm(tier)). The dB comparison is hoisted into a handful
// of per-tier range solves done once at setup; the per-tag work is pure
// compare — bit-identical across kern backends by construction and
// bit-identical to the scalar rate-table answer by monotonicity.
#pragma once

#include <cstdint>
#include <vector>

#include "src/phy/rate_table.hpp"
#include "src/phys/link_budget.hpp"
#include "src/scale/tag_store.hpp"

namespace mmtag::scale {

/// The link budget + rate table compiled into squared-range thresholds.
struct BatchLinkModel {
  /// Detection limit (slowest tier's range), squared [m²]. A tag with
  /// d² < detect_r2_m2 is discoverable at some rate.
  double detect_r2_m2 = 0.0;
  /// Per-tier squared max range [m²], aligned with `tier_rate_bps`,
  /// sorted by descending bit rate (so ascending range).
  std::vector<double> tier_r2_m2;
  std::vector<double> tier_rate_bps;

  /// Solve every tier of `rates` against `budget` in closed form.
  [[nodiscard]] static BatchLinkModel from_budget(
      const phys::BackscatterLinkBudget& budget, const phy::RateTable& rates);

  /// Scalar reference: fastest tier rate achievable at squared distance
  /// `d2` [bit/s], 0 when undetectable. The batched path must agree with
  /// this bit-for-bit.
  [[nodiscard]] double rate_for_d2(double d2) const;
};

/// Result view of one batch evaluation; spans are valid until the next
/// evaluate() on the same batcher.
struct BatchResult {
  std::size_t count = 0;           ///< Slab length (candidates evaluated).
  const double* x = nullptr;       ///< Gathered positions, in `slots` order.
  const double* y = nullptr;
  const double* d2 = nullptr;      ///< Squared distance to the reader.
  const double* rate_bps = nullptr;///< Achievable rate (0 = undetected).
  const std::uint8_t* detected = nullptr;  ///< 1 where d² < detect range².
  std::uint64_t detected_count = 0;
};

/// Reusable slab evaluator. One instance per shard/worker — the internal
/// slabs are scratch, so instances must not be shared across threads.
class EpochBatcher {
 public:
  /// Evaluate `slots` (candidate tags) against a reader at (rx, ry).
  /// Gathers positions from `store`, then runs the squared-distance /
  /// threshold kernels through kern::dispatch(). Order of results matches
  /// the order of `slots`.
  const BatchResult& evaluate(const TagStore& store,
                              const std::vector<TagSlot>& slots, double rx,
                              double ry, const BatchLinkModel& model);

 private:
  std::vector<double> sx_, sy_, d2_, rate_;
  std::vector<std::uint8_t> det_, tier_hit_;
  BatchResult result_;
};

}  // namespace mmtag::scale
