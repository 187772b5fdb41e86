// Lumped-element resonator model of a microstrip patch antenna.
//
// Near its fundamental resonance a rectangular patch behaves like a parallel
// RLC tank: the input impedance is
//
//   Z(f) = R / (1 + j * Q * (f/f0 - f0/f))
//
// where R is the resonant (radiation) resistance, f0 the resonant frequency
// and Q the loaded quality factor. This is the standard cavity-model result
// and reproduces the only patch observable the paper evaluates: the S11
// curve of Fig. 6. Parameters for the prototype (Rogers 4835, 0.18 mm,
// 24 GHz ISM band) are provided by PatchResonator::mmtag_element().
#pragma once

#include "src/em/impedance.hpp"

namespace mmtag::em {

/// Parallel-RLC resonator standing in for one patch antenna element.
class PatchResonator {
 public:
  /// `resonant_frequency_hz` > 0, `resonant_resistance_ohm` > 0,
  /// `quality_factor` > 0.
  PatchResonator(double resonant_frequency_hz, double resonant_resistance_ohm,
                 double quality_factor);

  /// The mmTag prototype element: resonance at the centre of the 24 GHz ISM
  /// band, resistance chosen so the matched S11 dip is about -15 dB against
  /// 50 ohm (Fig. 6 "switch off" curve), Q typical of a thin-substrate patch.
  [[nodiscard]] static PatchResonator mmtag_element();

  /// A resonator pre-tuned so that, once loaded by a shunt capacitance
  /// `c_shunt_f` (e.g. a FET's off capacitance), the *combined* one-port
  /// resonates at `f_target_hz`. Real patch/switch co-design does exactly
  /// this; the closed form solves Im(Y_patch + Y_C) = 0 at f_target.
  [[nodiscard]] static PatchResonator tuned_against_shunt(
      double f_target_hz, double resonant_resistance_ohm,
      double quality_factor, double c_shunt_f);

  /// Input impedance at `frequency_hz` [ohm].
  [[nodiscard]] Complex impedance(double frequency_hz) const;

  [[nodiscard]] double resonant_frequency_hz() const { return f0_hz_; }
  [[nodiscard]] double resonant_resistance_ohm() const { return r_ohm_; }
  [[nodiscard]] double quality_factor() const { return q_; }

 private:
  double f0_hz_;
  double r_ohm_;
  double q_;
};

}  // namespace mmtag::em
