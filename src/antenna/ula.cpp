#include "src/antenna/ula.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::antenna {

UniformLinearArray::UniformLinearArray(int elements, double spacing_m,
                                       double frequency_hz)
    : elements_(elements), spacing_m_(spacing_m), frequency_hz_(frequency_hz) {
  assert(elements_ >= 1);
  assert(spacing_m_ > 0.0);
  assert(frequency_hz_ > 0.0);
}

UniformLinearArray UniformLinearArray::half_wavelength(int elements,
                                                       double frequency_hz) {
  return UniformLinearArray(elements, phys::wavelength_m(frequency_hz) / 2.0,
                            frequency_hz);
}

double UniformLinearArray::element_phase_rad(double angle_rad) const {
  const double k0 = phys::wavenumber_rad_per_m(frequency_hz_);
  return k0 * spacing_m_ * std::sin(angle_rad);
}

Complex UniformLinearArray::array_factor(std::span<const Complex> weights,
                                         double angle_rad) const {
  assert(static_cast<int>(weights.size()) == elements_);
  const double psi = element_phase_rad(angle_rad);
  Complex af(0.0, 0.0);
  for (int n = 0; n < elements_; ++n) {
    af += weights[static_cast<std::size_t>(n)] * std::polar(1.0, -psi * n);
  }
  return af;
}

double UniformLinearArray::directivity_db(
    std::span<const Complex> weights) const {
  // Average |AF|^2 over the full azimuth circle, then report the peak over
  // the average. 1 deg steps are plenty for arrays of < 1000 elements.
  constexpr int kSteps = 2048;
  double peak = 0.0;
  double sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const double theta = -phys::kPi + phys::kTwoPi * i / kSteps;
    const double p = std::norm(array_factor(weights, theta));
    sum += p;
    if (p > peak) peak = p;
  }
  const double average = sum / kSteps;
  assert(average > 0.0);
  return phys::ratio_to_db(peak / average);
}

double UniformLinearArray::half_power_beamwidth_deg(
    std::span<const Complex> weights, double steer_rad) const {
  const double peak_power = std::norm(array_factor(weights, steer_rad));
  assert(peak_power > 0.0);
  const double half_power = peak_power / 2.0;

  // March outward from the steer angle on each side until |AF|^2 drops below
  // half power, then bisect for the exact crossing.
  const auto power_at = [&](double theta) {
    return std::norm(array_factor(weights, theta));
  };
  const auto find_crossing = [&](double direction) {
    const double step = phys::deg_to_rad(0.05);
    double theta = steer_rad;
    const double limit = phys::kPi / 2.0;
    while (std::abs(theta - steer_rad) < limit) {
      const double next = theta + direction * step;
      if (power_at(next) < half_power) {
        // Bisection between theta and next.
        double lo = theta;
        double hi = next;
        for (int i = 0; i < 40; ++i) {
          const double mid = (lo + hi) / 2.0;
          if (power_at(mid) >= half_power) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        return (lo + hi) / 2.0;
      }
      theta = next;
    }
    return theta;  // No crossing within the visible region (very broad beam).
  };

  const double left = find_crossing(-1.0);
  const double right = find_crossing(+1.0);
  return phys::rad_to_deg(right - left);
}

double UniformLinearArray::broadside_hpbw_estimate_deg() const {
  const double lambda = phys::wavelength_m(frequency_hz_);
  const double aperture = elements_ * spacing_m_;
  return phys::rad_to_deg(0.886 * lambda / aperture);
}

std::vector<Complex> uniform_weights(int n) {
  assert(n >= 1);
  return std::vector<Complex>(static_cast<std::size_t>(n),
                              Complex(1.0 / std::sqrt(n), 0.0));
}

}  // namespace mmtag::antenna
