// The metro link model in the squared-distance domain, and a per-beam
// evaluator of it over a candidate list.
//
// The deploy path evaluates links one tag at a time: received_power_dbm
// (a log10 per call), then a rate-table walk. BatchLinkModel, the metro
// epoch's link model, compares d² against precomputed *squared-range*
// thresholds instead. That is exact (not an approximation) because the
// monostatic backscatter budget is strictly decreasing in distance
// (40 dB/decade), so "P_rx(d) >= P_required(tier)" is equivalent to
// "d² < r_tier²" with r_tier = BackscatterLinkBudget::max_range_m(
// required_power_dbm(tier)), solved once per tier at setup.
//
// EpochBatcher evaluates the model over a list of candidates with the
// epoch's own expressions (d2 = dx * dx + dy * dy, then rate_for_d2), so
// it agrees with the epoch bit for bit. It is off the epoch path: it is
// what perfbench's scale.batch_ms replay times.
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

  /// Fastest tier rate achievable at squared distance `d2` [bit/s], 0
  /// when undetectable: the rate of a metro poll.
  [[nodiscard]] double rate_for_d2(double d2) const;
};

/// Result view of one batch evaluation; spans are valid until the next
/// evaluate() on the same batcher.
struct BatchResult {
  std::size_t count = 0;           ///< Candidates evaluated.
  const double* d2 = nullptr;      ///< Squared distance to the reader.
  const double* rate_bps = nullptr;///< Achievable rate (0 = undetected).
  const std::uint8_t* detected = nullptr;  ///< 1 where d² < detect range².
  std::uint64_t detected_count = 0;
};

/// Reusable evaluator. One instance per shard/worker — the result arrays
/// are scratch, so instances must not be shared across threads.
class EpochBatcher {
 public:
  /// Evaluate `slots` (candidate tags) against a reader at (rx, ry), one
  /// candidate at a time from `store`'s positions. Order of results
  /// matches the order of `slots`.
  const BatchResult& evaluate(const TagStore& store,
                              const std::vector<TagSlot>& slots, double rx,
                              double ry, const BatchLinkModel& model);

 private:
  std::vector<double> d2_, rate_;
  std::vector<std::uint8_t> det_;
  BatchResult result_;
};

}  // namespace mmtag::scale
