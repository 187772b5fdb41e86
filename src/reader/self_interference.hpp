// Reader self-interference (paper Sec. 9, "Self Interference").
//
// A backscatter reader transmits while it receives; its own carrier leaks
// into the receive chain and can bury the tag's reflection. The model
// takes the total TX -> RX suppression (separate TX/RX horns plus mmWave
// directionality, the paper's suggested research direction, and whatever
// cancellation follows them), caps it at the synthesizer's phase-noise
// limit, and adds the residual carrier to the thermal floor. It computes
// the resulting SINR and the rate the paper's rate table would still
// support — quantifying exactly when full-duplex tricks become necessary.
#pragma once

#include "src/phy/rate_table.hpp"

namespace mmtag::reader {

/// Phase-noise-limited floor: no suppression pushes the residual below
/// carrier - this many dB (typical mmWave synthesizer limit).
inline constexpr double kSelfInterferenceLimitDb = 90.0;

class SelfInterferenceModel {
 public:
  struct Params {
    /// Total TX -> RX suppression, horn coupling and cancellation alike.
    double antenna_isolation_db = 40.0;
  };

  explicit SelfInterferenceModel(Params params);

  /// Residual self-interference power at the demodulator input for a reader
  /// transmitting `tx_power_dbm` [dBm]: the carrier less the isolation,
  /// capped at kSelfInterferenceLimitDb.
  [[nodiscard]] double residual_dbm(double tx_power_dbm) const;

  /// Signal-to-(interference+noise) ratio for a tag signal of
  /// `tag_power_dbm` in bandwidth `bandwidth_hz` [dB].
  [[nodiscard]] double sinr_db(double tag_power_dbm, double tx_power_dbm,
                               double bandwidth_hz,
                               const phys::NoiseModel& noise) const;

  /// Best achievable rate under self-interference: like
  /// RateTable::achievable_rate_bps but with the residual SI folded into
  /// the per-tier floor.
  [[nodiscard]] double achievable_rate_bps(double tag_power_dbm,
                                           double tx_power_dbm,
                                           const phy::RateTable& rates) const;

 private:
  Params params_;
};

}  // namespace mmtag::reader
