// Rate-table tests (src/phy/rate_table) — the Fig. 7 annotation logic.
#include "src/phy/rate_table.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phy {
namespace {

TEST(RateTier, BandwidthMapsToHalfRate) {
  // OOK at B/2: the paper's 2 GHz -> 1 Gbps, 200 MHz -> 100 Mbps,
  // 20 MHz -> 10 Mbps tiers.
  EXPECT_DOUBLE_EQ(RateTier::from_bandwidth(phys::ghz(2.0)).bit_rate_bps,
                   1e9);
  EXPECT_DOUBLE_EQ(RateTier::from_bandwidth(phys::mhz(200.0)).bit_rate_bps,
                   1e8);
  EXPECT_DOUBLE_EQ(RateTier::from_bandwidth(phys::mhz(20.0)).bit_rate_bps,
                   1e7);
}

TEST(RateTable, StandardTiersSortedFastestFirst) {
  const RateTable table = RateTable::mmtag_standard();
  ASSERT_EQ(table.tiers().size(), 3u);
  EXPECT_DOUBLE_EQ(table.tiers()[0].bit_rate_bps, 1e9);
  EXPECT_DOUBLE_EQ(table.tiers()[1].bit_rate_bps, 1e8);
  EXPECT_DOUBLE_EQ(table.tiers()[2].bit_rate_bps, 1e7);
  EXPECT_DOUBLE_EQ(table.required_snr_db(), phys::kAskSnrForBer1e3Db);
}

TEST(RateTable, RequiredPowerIsFloorPlusSnr) {
  const RateTable table = RateTable::mmtag_standard();
  const RateTier& gbps = table.tiers()[0];
  EXPECT_NEAR(table.required_power_dbm(gbps),
              table.noise().power_dbm(gbps.bandwidth_hz) + 7.0, 1e-9);
  // Numerically: -75.8 + 7 = -68.8 dBm for the 1 Gbps tier.
  EXPECT_NEAR(table.required_power_dbm(gbps), -68.8, 0.3);
}

TEST(RateTable, SelectsFastestFeasibleTier) {
  const RateTable table = RateTable::mmtag_standard();
  EXPECT_DOUBLE_EQ(table.achievable_rate_bps(-50.0), 1e9);
  EXPECT_DOUBLE_EQ(table.achievable_rate_bps(-75.0), 1e8);
  EXPECT_DOUBLE_EQ(table.achievable_rate_bps(-85.0), 1e7);
  EXPECT_DOUBLE_EQ(table.achievable_rate_bps(-95.0), 0.0);
}

TEST(RateTable, BoundaryIsInclusive) {
  const RateTable table = RateTable::mmtag_standard();
  const double threshold = table.required_power_dbm(table.tiers()[0]);
  EXPECT_DOUBLE_EQ(table.achievable_rate_bps(threshold), 1e9);
  EXPECT_LT(table.achievable_rate_bps(threshold - 0.01), 1e9);
}

TEST(RateTable, BestTierReportsBandwidth) {
  const RateTable table = RateTable::mmtag_standard();
  const auto tier = table.best_tier(-80.0);
  ASSERT_TRUE(tier.has_value());
  EXPECT_DOUBLE_EQ(tier->bandwidth_hz, phys::mhz(20.0));
  EXPECT_FALSE(table.best_tier(-120.0).has_value());
}

TEST(RateTable, LevelsEqualTheExpressionsTheyCache) {
  // Bit for bit: each level is the expression it replaced, evaluated at
  // construction. An unsorted custom table checks they follow the sort.
  const RateTable custom(
      {RateTier::from_bandwidth(phys::mhz(50.0)),
       RateTier::from_bandwidth(phys::ghz(1.0)),
       RateTier::from_bandwidth(phys::mhz(5.0))},
      phys::NoiseModel(290.0, 7.5), 9.25);
  for (const RateTable& table : {RateTable::mmtag_standard(), custom}) {
    for (std::size_t i = 0; i < table.tiers().size(); ++i) {
      const double bandwidth = table.tiers()[i].bandwidth_hz;
      EXPECT_EQ(table.levels(i).noise_w, table.noise().power_w(bandwidth));
      EXPECT_EQ(table.levels(i).noise_dbm,
                table.noise().power_dbm(bandwidth));
      EXPECT_EQ(table.levels(i).required_power_dbm,
                table.noise().power_dbm(bandwidth) + table.required_snr_db());
      EXPECT_EQ(table.levels(i).required_power_dbm,
                table.required_power_dbm(table.tiers()[i]));
    }
  }
  EXPECT_DOUBLE_EQ(custom.tiers()[0].bandwidth_hz, phys::ghz(1.0));
}

// Property: achievable rate is monotone nondecreasing in received power.
class RateMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(RateMonotoneTest, MonotoneInPower) {
  const double p = GetParam();
  const RateTable table = RateTable::mmtag_standard();
  EXPECT_LE(table.achievable_rate_bps(p),
            table.achievable_rate_bps(p + 5.0));
}

INSTANTIATE_TEST_SUITE_P(Powers, RateMonotoneTest,
                         ::testing::Values(-100.0, -90.0, -80.0, -72.0,
                                           -65.0, -50.0));

}  // namespace
}  // namespace mmtag::phy
