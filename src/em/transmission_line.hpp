// Lossy transmission lines as ABCD (chain) matrices.
//
// The Van Atta interconnect (paper Fig. 3b, footnote 2: "copper strips on a
// PCB board") is a set of microstrip lines pairing mirrored antenna
// elements. The retrodirective math of Eq. (4) only requires every pair to
// see the *same* phase shift phi; this module provides that phase shift, the
// ohmic/dielectric loss of the line, and general two-port cascading so the
// tag model can be built from real circuit blocks.
#pragma once

#include "src/em/impedance.hpp"

namespace mmtag::em {

/// 2x2 ABCD (transmission) matrix of a reciprocal two-port.
struct AbcdMatrix {
  Complex a{1.0, 0.0};
  Complex b{0.0, 0.0};
  Complex c{0.0, 0.0};
  Complex d{1.0, 0.0};

  /// Cascade: `this` followed by `next` (matrix product this * next).
  [[nodiscard]] AbcdMatrix cascade(const AbcdMatrix& next) const;

  /// Input impedance looking into port 1 with `load` on port 2.
  [[nodiscard]] Complex input_impedance(Complex load) const;

  /// Complex voltage transfer S21 against a real reference impedance z0
  /// (both ports terminated in z0):
  ///   S21 = 2 / (A + B/z0 + C*z0 + D).
  [[nodiscard]] Complex s21(double z0_ohm) const;
};

/// Uniform transmission line with loss: a 50-ohm Rogers 4835 microstrip,
/// whose effective relative permittivity at 24 GHz is about 2.9.
class TransmissionLine {
 public:
  struct Params {
    /// Conductor + dielectric attenuation [dB per meter] at the design
    /// frequency. Thin-substrate microstrip at 24 GHz: ~40-80 dB/m.
    double attenuation_db_per_m = 60.0;
    double length_m = 0.0;
  };

  explicit TransmissionLine(Params params);

  /// A line of `length_m` with mmTag PCB defaults (Rogers 4835 microstrip).
  [[nodiscard]] static TransmissionLine mmtag_interconnect(double length_m);

  /// Guided wavelength at `frequency_hz` [m].
  [[nodiscard]] double guided_wavelength_m(double frequency_hz) const;

  /// Electrical phase delay beta*l at `frequency_hz` [rad] (positive).
  [[nodiscard]] double phase_delay_rad(double frequency_hz) const;

  /// One-way power loss through the line [dB] (positive).
  [[nodiscard]] double loss_db() const;

  /// Complex amplitude transfer through a matched line: magnitude from the
  /// attenuation, phase -beta*l.
  [[nodiscard]] Complex matched_transfer(double frequency_hz) const;

  /// ABCD matrix at `frequency_hz` (full lossy-line hyperbolic form).
  [[nodiscard]] AbcdMatrix abcd(double frequency_hz) const;

 private:
  /// Complex propagation constant gamma = alpha + j*beta [1/m].
  [[nodiscard]] Complex propagation_constant(double frequency_hz) const;

  Params params_;
};

}  // namespace mmtag::em
