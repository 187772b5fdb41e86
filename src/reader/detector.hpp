// Power detector: the "spectrum analyzer" half of the prototype reader.
//
// A spectrum analyzer reports the power in its resolution bandwidth, which
// is the tag signal plus the thermal floor, with an estimation jitter that
// shrinks with averaging. The detector also implements the tag-present
// decision the beam scanner uses: a tag is detected when the *modulated*
// power (difference between reflect and absorb states) clears the floor by
// a margin.
#pragma once

#include "src/phys/noise.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::reader {

class PowerDetector {
 public:
  /// The prototype detector: mmTag reader noise model, 20 MHz RBW, 16
  /// trace averages, a 3 dB tag-present margin.
  [[nodiscard]] static PowerDetector mmtag_default();

  /// Noise floor of the resolution bandwidth [dBm].
  [[nodiscard]] double noise_floor_dbm() const;

  /// One power measurement of a true signal `true_power_dbm`: adds the
  /// thermal floor and chi-squared estimation jitter (scaled by 1/sqrt(K)
  /// for K averages) [dBm].
  [[nodiscard]] double measure_dbm(double true_power_dbm,
                                   sim::Rng& rng) const;

  /// Tag-present decision from measured reflect/absorb powers: true when
  /// the modulation excursion exceeds the floor by the detection margin.
  [[nodiscard]] bool detects_modulation(double reflect_dbm,
                                        double absorb_dbm) const;

  [[nodiscard]] const phys::NoiseModel& noise() const { return noise_; }

 private:
  explicit PowerDetector(phys::NoiseModel noise) : noise_(noise) {}

  phys::NoiseModel noise_;
};

}  // namespace mmtag::reader
