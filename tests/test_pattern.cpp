// Radiation-pattern tests (src/antenna/pattern).
#include "src/antenna/pattern.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::antenna {
namespace {

TEST(Patch, BoresightGainAndSymmetry) {
  const PatchPattern patch(5.0);
  EXPECT_DOUBLE_EQ(patch.gain_dbi(0.0), 5.0);
  EXPECT_DOUBLE_EQ(patch.gain_dbi(0.4), patch.gain_dbi(-0.4));
}

TEST(Patch, RollsOffAndHasBackLobeFloor) {
  const PatchPattern patch(5.0);
  EXPECT_GT(patch.gain_dbi(0.0), patch.gain_dbi(phys::deg_to_rad(45.0)));
  // Behind the ground plane only leakage remains.
  EXPECT_NEAR(patch.gain_dbi(phys::deg_to_rad(120.0)), 5.0 - 25.0, 1e-9);
  EXPECT_NEAR(patch.gain_dbi(phys::kPi), 5.0 - 25.0, 1e-9);
}

TEST(Patch, CosineSquaredShape) {
  // q = 2: at 45 degrees the power shape is cos^2 = 0.5 -> -3.01 dB.
  const PatchPattern patch(5.0, 2.0);
  EXPECT_NEAR(patch.gain_dbi(phys::deg_to_rad(45.0)), 5.0 - 3.0103, 1e-3);
}

TEST(Horn, HalfPowerExactlyAtHalfBeamwidth) {
  const HornPattern horn(20.0, 18.0);
  EXPECT_DOUBLE_EQ(horn.gain_dbi(0.0), 20.0);
  EXPECT_NEAR(horn.gain_dbi(phys::deg_to_rad(9.0)), 17.0, 1e-9);
  EXPECT_NEAR(horn.gain_dbi(phys::deg_to_rad(-9.0)), 17.0, 1e-9);
}

TEST(Horn, SidelobeFloorCaps) {
  const HornPattern horn(20.0, 18.0, -10.0);
  EXPECT_DOUBLE_EQ(horn.gain_dbi(phys::deg_to_rad(90.0)), -10.0);
  EXPECT_DOUBLE_EQ(horn.gain_dbi(phys::kPi), -10.0);
}

TEST(Horn, ReaderHornMatchesPrototype) {
  const HornPattern horn = HornPattern::mmtag_reader_horn();
  EXPECT_DOUBLE_EQ(horn.boresight_gain_dbi(), 20.0);
  EXPECT_DOUBLE_EQ(horn.half_power_beamwidth_deg(), 18.0);
}

TEST(Pattern, AmplitudeIsSqrtOfLinearGain) {
  const HornPattern horn(20.0, 18.0);
  EXPECT_NEAR(horn.amplitude(0.0), 10.0, 1e-12);  // 20 dBi -> 10x field.
}

// Property: every pattern's gain never exceeds its boresight value.
class PatternPeakTest : public ::testing::TestWithParam<double> {};

TEST_P(PatternPeakTest, BoresightIsPeak) {
  const double angle = GetParam();
  const PatchPattern patch(5.0);
  const HornPattern horn = HornPattern::mmtag_reader_horn();
  EXPECT_LE(patch.gain_dbi(angle), patch.gain_dbi(0.0) + 1e-12);
  EXPECT_LE(horn.gain_dbi(angle), horn.gain_dbi(0.0) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Angles, PatternPeakTest,
                         ::testing::Values(-3.0, -1.5, -0.5, -0.1, 0.1, 0.5,
                                           1.5, 3.0));

}  // namespace
}  // namespace mmtag::antenna
