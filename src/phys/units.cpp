#include "src/phys/units.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"

namespace mmtag::phys {

double ratio_to_db(double ratio) {
  assert(ratio > 0.0 && "dB of a non-positive power ratio is undefined");
  return 10.0 * std::log10(ratio);
}

double db_to_ratio(double db) { return std::pow(10.0, db / 10.0); }

double amplitude_ratio_to_db(double ratio) {
  assert(ratio > 0.0 && "dB of a non-positive amplitude ratio is undefined");
  return 20.0 * std::log10(ratio);
}

double db_to_amplitude_ratio(double db) { return std::pow(10.0, db / 20.0); }

double watts_to_dbm(double watts) {
  assert(watts > 0.0 && "dBm of a non-positive power is undefined");
  return 10.0 * std::log10(watts * 1e3);
}

double dbm_to_watts(double dbm) { return std::pow(10.0, dbm / 10.0) * 1e-3; }

double sum_powers_dbm(double a_dbm, double b_dbm) {
  return watts_to_dbm(dbm_to_watts(a_dbm) + dbm_to_watts(b_dbm));
}

double wavelength_m(double hz) {
  assert(hz > 0.0);
  return kSpeedOfLight / hz;
}

double wavenumber_rad_per_m(double hz) { return kTwoPi / wavelength_m(hz); }

double deg_to_rad(double deg) { return deg * kPi / 180.0; }

double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

double wrap_angle_rad(double rad) {
  double wrapped = std::remainder(rad, kTwoPi);
  if (wrapped <= -kPi) wrapped += kTwoPi;
  return wrapped;
}

}  // namespace mmtag::phys
