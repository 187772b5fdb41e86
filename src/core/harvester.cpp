#include "src/core/harvester.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace mmtag::core {

namespace {

constexpr double kStorageCapacitanceF = 100e-6;
constexpr double kStorageMaxVoltageV = 3.3;  ///< Regulator ceiling.
constexpr double kStorageMinVoltageV = 1.8;  ///< Gate-drive dropout.
constexpr double kStorageLeakageW = 1e-6;    ///< Capacitor + regulator.

}  // namespace

EnergyHarvester::EnergyHarvester(double harvest_power_w)
    : harvest_power_w_(harvest_power_w) {
  assert(harvest_power_w_ >= 0.0);
}

EnergyHarvester EnergyHarvester::mmtag_with(HarvestSource source) {
  return EnergyHarvester(TagEnergyModel::harvested_power_w(source));
}

double EnergyHarvester::usable_energy_j() const {
  const double vmax2 = kStorageMaxVoltageV * kStorageMaxVoltageV;
  const double vmin2 = kStorageMinVoltageV * kStorageMinVoltageV;
  return kStorageCapacitanceF * (vmax2 - vmin2) / 2.0;
}

double EnergyHarvester::recharge_time_s() const {
  const double net = harvest_power_w_ - kStorageLeakageW;
  if (net <= 0.0) return std::numeric_limits<double>::infinity();
  return usable_energy_j() / net;
}

double EnergyHarvester::max_burst_s(double load_power_w) const {
  assert(load_power_w >= 0.0);
  const double drain = load_power_w + kStorageLeakageW - harvest_power_w_;
  if (drain <= 0.0) return std::numeric_limits<double>::infinity();
  return usable_energy_j() / drain;
}

double EnergyHarvester::duty_cycle(double load_power_w) const {
  const double burst = max_burst_s(load_power_w);
  if (std::isinf(burst)) return 1.0;  // Continuous operation.
  const double recharge = recharge_time_s();
  if (std::isinf(recharge)) return 0.0;  // Can never refill.
  return burst / (burst + recharge);
}

double EnergyHarvester::effective_throughput_bps(
    double bit_rate_bps, const TagEnergyModel& energy) const {
  assert(bit_rate_bps >= 0.0);
  const double load = energy.modulation_power_w(bit_rate_bps);
  return bit_rate_bps * duty_cycle(load);
}

}  // namespace mmtag::core
