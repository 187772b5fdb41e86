#include "src/em/transmission_line.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::em {

namespace {

constexpr double kCharacteristicImpedanceOhm = 50.0;
/// Rogers 4835 microstrip at 24 GHz.
constexpr double kEffectivePermittivity = 2.9;

}  // namespace

AbcdMatrix AbcdMatrix::cascade(const AbcdMatrix& next) const {
  AbcdMatrix out;
  out.a = a * next.a + b * next.c;
  out.b = a * next.b + b * next.d;
  out.c = c * next.a + d * next.c;
  out.d = c * next.b + d * next.d;
  return out;
}

Complex AbcdMatrix::input_impedance(Complex load) const {
  return (a * load + b) / (c * load + d);
}

Complex AbcdMatrix::s21(double z0_ohm) const {
  assert(z0_ohm > 0.0);
  return 2.0 / (a + b / z0_ohm + c * z0_ohm + d);
}

TransmissionLine::TransmissionLine(Params params) : params_(params) {
  assert(params_.attenuation_db_per_m >= 0.0);
  assert(params_.length_m >= 0.0);
}

TransmissionLine TransmissionLine::mmtag_interconnect(double length_m) {
  Params p;
  p.length_m = length_m;
  return TransmissionLine(p);
}

double TransmissionLine::guided_wavelength_m(double frequency_hz) const {
  return phys::wavelength_m(frequency_hz) /
         std::sqrt(kEffectivePermittivity);
}

double TransmissionLine::phase_delay_rad(double frequency_hz) const {
  return phys::kTwoPi * params_.length_m / guided_wavelength_m(frequency_hz);
}

double TransmissionLine::loss_db() const {
  return params_.attenuation_db_per_m * params_.length_m;
}

Complex TransmissionLine::matched_transfer(double frequency_hz) const {
  const double magnitude = phys::db_to_amplitude_ratio(-loss_db());
  const double phase = -phase_delay_rad(frequency_hz);
  return std::polar(magnitude, phase);
}

Complex TransmissionLine::propagation_constant(double frequency_hz) const {
  // alpha in nepers/m: 1 dB = ln(10)/20 nepers.
  const double alpha_np_per_m =
      params_.attenuation_db_per_m * std::log(10.0) / 20.0;
  const double beta_rad_per_m =
      phys::kTwoPi / guided_wavelength_m(frequency_hz);
  return Complex(alpha_np_per_m, beta_rad_per_m);
}

AbcdMatrix TransmissionLine::abcd(double frequency_hz) const {
  const Complex gl = propagation_constant(frequency_hz) * params_.length_m;
  const Complex z0(kCharacteristicImpedanceOhm, 0.0);
  AbcdMatrix m;
  m.a = std::cosh(gl);
  m.b = z0 * std::sinh(gl);
  m.c = std::sinh(gl) / z0;
  m.d = std::cosh(gl);
  return m;
}

}  // namespace mmtag::em
