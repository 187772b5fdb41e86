// Baseline-system tests (src/baselines) — the comparative claims of paper
// Secs. 1 and 3 (experiments C2 and C3).
#include <gtest/gtest.h>

#include "src/baselines/active_radio.hpp"
#include "src/baselines/backscatter_system.hpp"
#include "src/baselines/fixed_beam_tag.hpp"
#include "src/baselines/specular_plate.hpp"
#include "src/core/van_atta.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::baselines {
namespace {

TEST(Systems, PaperRateOrdering) {
  // Paper Sec. 3: Wi-Fi backscatter << HitchHike (0.3 Mbps) < RFID ceiling
  // (< 1 Mbps) ... BackFi (5 Mbps) << mmTag (Gbps).
  const double d = phys::feet_to_m(3.0);
  const double wifi = wifi_backscatter().achievable_rate_bps(d);
  const double hitch = hitchhike().achievable_rate_bps(d);
  const double rfid = rfid_epc_gen2().achievable_rate_bps(d);
  const double back = backfi().achievable_rate_bps(d);
  const double mmtag = mmtag_system().achievable_rate_bps(d);
  EXPECT_LT(wifi, hitch);
  EXPECT_LT(hitch, rfid);
  EXPECT_LT(rfid, back);
  EXPECT_LT(back, mmtag);
}

TEST(Systems, EveryLegacySystemBelowOneMbps) {
  // "Even at short ranges, their rate is at most one Mbps" (paper Sec. 1) —
  // excluding BackFi, which the paper credits with 5 Mbps.
  const double d = 0.5;
  EXPECT_LE(rfid_epc_gen2().achievable_rate_bps(d), 1e6);
  EXPECT_LE(wifi_backscatter().achievable_rate_bps(d), 1e6);
  EXPECT_LE(hitchhike().achievable_rate_bps(d), 1e6);
  EXPECT_NEAR(backfi().achievable_rate_bps(d), 5e6, 1e-6);
}

TEST(Systems, MmTagDeliversGigabitAtFourFeet) {
  EXPECT_DOUBLE_EQ(
      mmtag_system().achievable_rate_bps(phys::feet_to_m(4.0)), 1e9);
}

TEST(Systems, MmTagThreeOrdersAboveBackFi) {
  // "orders of magnitude higher throughput": >= 100x over the best legacy.
  const double d = phys::feet_to_m(3.0);
  EXPECT_GE(mmtag_system().achievable_rate_bps(d),
            100.0 * backfi().achievable_rate_bps(d));
}

TEST(Systems, SnrFallsWithRange) {
  for (const BackscatterSystem& sys : all_systems()) {
    EXPECT_GT(sys.snr_db(1.0), sys.snr_db(5.0)) << sys.name;
  }
}

TEST(Systems, MaxRangeConsistentWithRate) {
  for (const BackscatterSystem& sys : all_systems()) {
    const double edge = sys.max_range_m();
    EXPECT_GT(sys.achievable_rate_bps(edge * 0.95), 0.0) << sys.name;
    EXPECT_DOUBLE_EQ(sys.achievable_rate_bps(edge * 1.05), 0.0) << sys.name;
  }
}

TEST(Systems, AllSystemsListsFiveWithMmTagLast) {
  const auto systems = all_systems();
  ASSERT_EQ(systems.size(), 5u);
  EXPECT_NE(systems.back().name.find("mmTag"), std::string::npos);
}

TEST(FixedBeam, MatchesVanAttaOnBoresightOnly) {
  // Paper Sec. 3 on [18]: "It only works when the tag is exactly in front
  // of the reader."
  const FixedBeamTag fixed = FixedBeamTag::like_mmtag_prototype();
  const core::VanAttaArray van_atta = core::VanAttaArray::mmtag_prototype();
  EXPECT_NEAR(fixed.monostatic_gain_db(0.0),
              van_atta.monostatic_gain_db(0.0), 3.0);
  // 15 degrees off: the fixed beam has collapsed, the Van Atta has not.
  const double off = phys::deg_to_rad(15.0);
  EXPECT_LT(fixed.monostatic_gain_db(off),
            van_atta.monostatic_gain_db(off) - 15.0);
}

TEST(FixedBeam, CollapsesMonotonicallyInTheMainLobe) {
  const FixedBeamTag fixed = FixedBeamTag::like_mmtag_prototype();
  EXPECT_GT(fixed.monostatic_gain_db(0.0),
            fixed.monostatic_gain_db(phys::deg_to_rad(8.0)));
  EXPECT_GT(fixed.monostatic_gain_db(phys::deg_to_rad(8.0)),
            fixed.monostatic_gain_db(phys::deg_to_rad(15.0)));
}

TEST(SpecularPlate, PeaksAtNormalIncidence) {
  const SpecularPlate plate = SpecularPlate::like_mmtag_prototype();
  EXPECT_GT(plate.monostatic_gain_db(0.0),
            plate.monostatic_gain_db(phys::deg_to_rad(10.0)));
  EXPECT_GT(plate.monostatic_gain_db(0.0),
            plate.monostatic_gain_db(phys::deg_to_rad(30.0)) + 20.0);
}

TEST(ActiveRadios, ArrayDcPowerIsWatts) {
  // "phased arrays ... have high power consumption (a few watts)" (paper
  // Sec. 5). The array's share of the active radio must land in that band.
  EXPECT_GT(kActiveArrayDcPowerW, 0.5);
  EXPECT_LT(kActiveArrayDcPowerW, 5.0);
}

TEST(ActiveRadios, MmWaveRadioBurnsWatts) {
  const ActiveRadioModel radio = active_mmwave_radio();
  EXPECT_GT(radio.dc_power_w, 1.0);
  EXPECT_LT(radio.dc_power_w, 10.0);
}

TEST(ActiveRadios, EnergyPerBitOrdering) {
  // Per bit, BLE (30 nJ) is worse than Wi-Fi (10 nJ) which is worse than
  // the mmWave gigabit radio (~2 nJ) — and all are far above the tag.
  const double mm = active_mmwave_radio().energy_per_bit_j();
  const double wifi = active_wifi_radio().energy_per_bit_j();
  const double ble = active_ble_radio().energy_per_bit_j();
  EXPECT_LT(mm, wifi);
  EXPECT_LT(wifi, ble);
}

// Property (experiment C2's summary): across the field of view, the Van
// Atta's advantage over the fixed-beam tag grows with incidence angle.
class RetroAdvantageTest : public ::testing::TestWithParam<double> {};

TEST_P(RetroAdvantageTest, VanAttaWinsOffAxis) {
  const double deg = GetParam();
  const double theta = phys::deg_to_rad(deg);
  const core::VanAttaArray van_atta = core::VanAttaArray::mmtag_prototype();
  const FixedBeamTag fixed = FixedBeamTag::like_mmtag_prototype();
  EXPECT_GT(van_atta.monostatic_gain_db(theta),
            fixed.monostatic_gain_db(theta) + 10.0);
}

INSTANTIATE_TEST_SUITE_P(OffAxisAngles, RetroAdvantageTest,
                         ::testing::Values(12.0, 20.0, 30.0, 45.0, 60.0,
                                           -12.0, -30.0, -45.0));

}  // namespace
}  // namespace mmtag::baselines
