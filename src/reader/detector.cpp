#include "src/reader/detector.hpp"

#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::reader {

namespace {

constexpr double kBandwidthHz = 20.0e6;     ///< Resolution bandwidth.
constexpr int kAverages = 16;               ///< Trace averaging count.
constexpr double kDetectionMarginDb = 3.0;  ///< Tag-present threshold.

}  // namespace

PowerDetector PowerDetector::mmtag_default() {
  return PowerDetector(phys::NoiseModel::mmtag_reader());
}

double PowerDetector::noise_floor_dbm() const {
  return noise_.power_dbm(kBandwidthHz);
}

double PowerDetector::measure_dbm(double true_power_dbm,
                                  sim::Rng& rng) const {
  const double signal_w = phys::dbm_to_watts(true_power_dbm);
  const double noise_w = noise_.power_w(kBandwidthHz);
  // Averaged power estimate: mean of K exponential (chi-squared_2) noise
  // realizations rides on top of the deterministic signal power. Model the
  // estimate as Gaussian around signal+noise with std (signal+noise)/sqrt(K)
  // — the standard large-K radiometer approximation.
  const double mean_w = signal_w + noise_w;
  const double sigma_w =
      mean_w / std::sqrt(static_cast<double>(kAverages));
  std::normal_distribution<double> jitter(mean_w, sigma_w);
  double measured_w = jitter(rng);
  // A power readout cannot go below a tiny positive floor.
  const double floor_w = noise_w * 1e-3;
  if (measured_w < floor_w) measured_w = floor_w;
  return phys::watts_to_dbm(measured_w);
}

bool PowerDetector::detects_modulation(double reflect_dbm,
                                       double absorb_dbm) const {
  const double excursion_w =
      phys::dbm_to_watts(reflect_dbm) - phys::dbm_to_watts(absorb_dbm);
  if (excursion_w <= 0.0) return false;
  const double threshold_w =
      noise_.power_w(kBandwidthHz) * phys::db_to_ratio(kDetectionMarginDb);
  return excursion_w >= threshold_w;
}

}  // namespace mmtag::reader
