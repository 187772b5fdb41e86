// The paper's SNR -> data-rate mapping (Fig. 7 annotations).
//
// The reader picks a receive bandwidth; each bandwidth B carries OOK at
// B/2 bit/s and has a thermal noise floor N(B) (src/phys/noise). A rate is
// achievable when the received tag power clears N(B) by the ASK threshold
// (7 dB for BER 1e-3, paper Sec. 8). The standard tiers are the three
// Fig. 7 plots: 2 GHz -> 1 Gbps, 200 MHz -> 100 Mbps, 20 MHz -> 10 Mbps.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/phys/noise.hpp"

namespace mmtag::phy {

/// One selectable reader configuration.
struct RateTier {
  double bandwidth_hz = 0.0;
  double bit_rate_bps = 0.0;

  /// OOK carries one bit per symbol at B/2 symbols/s.
  [[nodiscard]] static RateTier from_bandwidth(double bandwidth_hz);
};

/// A tier's noise floor and detection threshold under a table's noise
/// model and SNR requirement.
struct TierLevels {
  double noise_w = 0.0;             ///< noise().power_w(bandwidth) [W].
  double noise_dbm = 0.0;           ///< noise().power_dbm(bandwidth) [dBm].
  double required_power_dbm = 0.0;  ///< noise_dbm + required_snr_db().
};

class RateTable {
 public:
  /// `tiers` sorted by descending bit rate after construction.
  /// `required_snr_db` — detection threshold (paper: 7 dB).
  RateTable(std::vector<RateTier> tiers, phys::NoiseModel noise,
            double required_snr_db);

  /// The paper's table: {2 GHz, 200 MHz, 20 MHz} tiers, the mmTag reader
  /// noise model and the 7 dB ASK threshold.
  [[nodiscard]] static RateTable mmtag_standard();

  /// Minimum received power needed to run `tier` [dBm].
  [[nodiscard]] double required_power_dbm(const RateTier& tier) const;

  /// The levels of tiers()[index], computed once at construction: the
  /// same values noise() and required_power_dbm give for that tier.
  [[nodiscard]] const TierLevels& levels(std::size_t index) const {
    return levels_[index];
  }

  /// Fastest tier whose threshold `received_power_dbm` clears, if any.
  [[nodiscard]] std::optional<RateTier> best_tier(
      double received_power_dbm) const;

  /// Bit rate achievable at `received_power_dbm` [bit/s]; 0 when even the
  /// slowest tier is out of reach.
  [[nodiscard]] double achievable_rate_bps(double received_power_dbm) const;

  [[nodiscard]] const std::vector<RateTier>& tiers() const { return tiers_; }
  [[nodiscard]] const phys::NoiseModel& noise() const { return noise_; }
  [[nodiscard]] double required_snr_db() const { return required_snr_db_; }

 private:
  std::vector<RateTier> tiers_;
  phys::NoiseModel noise_;
  double required_snr_db_;
  std::vector<TierLevels> levels_;  ///< One per tier, in tiers_ order.
};

}  // namespace mmtag::phy
