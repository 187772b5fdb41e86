#include "src/em/impedance.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::em {

Complex resistor(double ohms) {
  assert(ohms >= 0.0);
  return Complex(ohms, 0.0);
}

Complex inductor(double henries, double frequency_hz) {
  assert(henries >= 0.0);
  assert(frequency_hz > 0.0);
  return Complex(0.0, phys::kTwoPi * frequency_hz * henries);
}

Complex capacitor(double farads, double frequency_hz) {
  assert(farads > 0.0);
  assert(frequency_hz > 0.0);
  return Complex(0.0, -1.0 / (phys::kTwoPi * frequency_hz * farads));
}

Complex series(Complex a, Complex b) { return a + b; }

Complex parallel(Complex a, Complex b) {
  // An ideal short dominates a parallel combination.
  if (std::abs(a) == 0.0 || std::abs(b) == 0.0) return Complex(0.0, 0.0);
  return a * b / (a + b);
}

Complex reflection_coefficient(Complex z, double z0_ohm) {
  assert(z0_ohm > 0.0);
  return (z - z0_ohm) / (z + z0_ohm);
}

double s11_db(Complex z, double z0_ohm) {
  const double mag = std::abs(reflection_coefficient(z, z0_ohm));
  // Clamp a perfectly matched load to a deep-but-finite return loss so dB
  // plots stay finite (HFSS does the same at its numeric floor).
  constexpr double kFloorDb = -80.0;
  if (mag <= 1e-4) return kFloorDb;
  return phys::amplitude_ratio_to_db(mag);
}

}  // namespace mmtag::em
