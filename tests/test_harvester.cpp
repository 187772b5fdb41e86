// Energy-harvester storage tests (src/core/harvester).
#include "src/core/harvester.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace mmtag::core {
namespace {

/// Indoor light on the prototype area [W].
constexpr double kIndoorHarvestW = 270e-6;

TEST(Harvester, UsableEnergyFormula) {
  const EnergyHarvester cap(kIndoorHarvestW);
  // C (Vmax^2 - Vmin^2)/2 = 1e-4 * (10.89 - 3.24) / 2 = 382.5 uJ.
  EXPECT_NEAR(cap.usable_energy_j(), 382.5e-6, 1e-9);
}

TEST(Harvester, RechargeTimeMatchesNetHarvest) {
  const EnergyHarvester cap(kIndoorHarvestW);
  EXPECT_NEAR(cap.recharge_time_s(), 382.5e-6 / 269e-6, 1e-6);
}

TEST(Harvester, NoHarvestNeverRecharges) {
  const EnergyHarvester cap(0.0);
  EXPECT_TRUE(std::isinf(cap.recharge_time_s()));
  EXPECT_DOUBLE_EQ(cap.duty_cycle(1e-3), 0.0);
}

TEST(Harvester, LightLoadRunsContinuously) {
  const EnergyHarvester cap(kIndoorHarvestW);
  // Load below harvest: infinite burst, duty 1.
  EXPECT_TRUE(std::isinf(cap.max_burst_s(100e-6)));
  EXPECT_DOUBLE_EQ(cap.duty_cycle(100e-6), 1.0);
}

TEST(Harvester, GigabitBurstIsMilliseconds) {
  // 9 mW Gbps modulation against a 382 uJ store: ~44 ms bursts.
  const EnergyHarvester cap(kIndoorHarvestW);
  const TagEnergyModel energy = TagEnergyModel::mmtag_prototype();
  const double load = energy.modulation_power_w(1e9);
  const double burst = cap.max_burst_s(load);
  EXPECT_GT(burst, 10e-3);
  EXPECT_LT(burst, 100e-3);
}

TEST(Harvester, EffectiveThroughputBetweenContinuousAndPeak) {
  const EnergyHarvester indoor =
      EnergyHarvester::mmtag_with(HarvestSource::kIndoorLight);
  const TagEnergyModel energy = TagEnergyModel::mmtag_prototype();
  const double effective = indoor.effective_throughput_bps(1e9, energy);
  // Duty-cycled Gbps bursts deliver ~ the continuous-power rate: the cap
  // only shifts energy in time, it cannot create it.
  const double continuous = energy.max_bit_rate_bps(
      TagEnergyModel::harvested_power_w(HarvestSource::kIndoorLight));
  EXPECT_GT(effective, 0.5 * continuous);
  EXPECT_LT(effective, 1.1 * continuous);
  EXPECT_LT(effective, 1e9);
}

TEST(Harvester, OutdoorLightStreamsGigabitContinuously) {
  const EnergyHarvester outdoor =
      EnergyHarvester::mmtag_with(HarvestSource::kOutdoorLight);
  const TagEnergyModel energy = TagEnergyModel::mmtag_prototype();
  EXPECT_DOUBLE_EQ(outdoor.effective_throughput_bps(1e9, energy), 1e9);
}

// Property: duty cycle is monotone nonincreasing in load power.
class HarvesterDutyTest : public ::testing::TestWithParam<double> {};

TEST_P(HarvesterDutyTest, DutyFallsWithLoad) {
  const double load_w = GetParam();
  const EnergyHarvester cap(kIndoorHarvestW);
  EXPECT_GE(cap.duty_cycle(load_w), cap.duty_cycle(load_w * 2.0));
  EXPECT_GE(cap.duty_cycle(load_w), 0.0);
  EXPECT_LE(cap.duty_cycle(load_w), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Loads, HarvesterDutyTest,
                         ::testing::Values(1e-6, 1e-4, 1e-3, 9e-3, 0.1));

}  // namespace
}  // namespace mmtag::core
