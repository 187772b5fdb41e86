#include "src/phy/rate_table.hpp"

#include <algorithm>
#include <cassert>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phy {

RateTier RateTier::from_bandwidth(double bandwidth_hz) {
  assert(bandwidth_hz > 0.0);
  RateTier tier;
  tier.bandwidth_hz = bandwidth_hz;
  tier.bit_rate_bps = bandwidth_hz / 2.0;
  return tier;
}

RateTable::RateTable(std::vector<RateTier> tiers, phys::NoiseModel noise,
                     double required_snr_db)
    : tiers_(std::move(tiers)),
      noise_(noise),
      required_snr_db_(required_snr_db) {
  assert(!tiers_.empty());
  std::sort(tiers_.begin(), tiers_.end(),
            [](const RateTier& a, const RateTier& b) {
              return a.bit_rate_bps > b.bit_rate_bps;
            });
  levels_.reserve(tiers_.size());
  for (const RateTier& tier : tiers_) {
    TierLevels levels;
    levels.noise_w = noise_.power_w(tier.bandwidth_hz);
    levels.noise_dbm = noise_.power_dbm(tier.bandwidth_hz);
    levels.required_power_dbm = required_power_dbm(tier);
    levels_.push_back(levels);
  }
}

RateTable RateTable::mmtag_standard() {
  std::vector<RateTier> tiers = {
      RateTier::from_bandwidth(phys::ghz(2.0)),
      RateTier::from_bandwidth(phys::mhz(200.0)),
      RateTier::from_bandwidth(phys::mhz(20.0)),
  };
  return RateTable(std::move(tiers), phys::NoiseModel::mmtag_reader(),
                   phys::kAskSnrForBer1e3Db);
}

double RateTable::required_power_dbm(const RateTier& tier) const {
  return noise_.power_dbm(tier.bandwidth_hz) + required_snr_db_;
}

std::optional<RateTier> RateTable::best_tier(
    double received_power_dbm) const {
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (received_power_dbm >= levels_[i].required_power_dbm) {
      return tiers_[i];
    }
  }
  return std::nullopt;
}

double RateTable::achievable_rate_bps(double received_power_dbm) const {
  const auto tier = best_tier(received_power_dbm);
  return tier ? tier->bit_rate_bps : 0.0;
}

}  // namespace mmtag::phy
