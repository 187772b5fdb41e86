#include "src/baselines/specular_plate.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::baselines {

namespace {
double sinc(double x) {
  if (std::abs(x) < 1e-9) return 1.0;
  return std::sin(phys::kPi * x) / (phys::kPi * x);
}
}  // namespace

SpecularPlate::SpecularPlate(double width_m, double frequency_hz)
    : width_m_(width_m), frequency_hz_(frequency_hz) {
  assert(width_m_ > 0.0);
  assert(frequency_hz_ > 0.0);
}

SpecularPlate SpecularPlate::like_mmtag_prototype() {
  return SpecularPlate(0.060, phys::kMmTagCarrierHz);
}

double SpecularPlate::monostatic_gain_db(double theta_rad) const {
  const double lambda = phys::wavelength_m(frequency_hz_);
  // Peak monostatic gain of a flat strip (2-D form): proportional to the
  // electrical width squared.
  const double w_over_lambda = width_m_ / lambda;
  const double peak_power = std::pow(2.0 * phys::kPi * w_over_lambda, 2.0) /
                            (4.0 * phys::kPi);
  const double cos_t = std::cos(theta_rad);
  if (cos_t <= 0.0) return -100.0;
  const double lobe = sinc(w_over_lambda * std::sin(2.0 * theta_rad));
  const double power = peak_power * cos_t * cos_t * lobe * lobe;
  constexpr double kFloorDb = -100.0;
  if (power <= 1e-10) return kFloorDb;
  return phys::ratio_to_db(power);
}

}  // namespace mmtag::baselines
