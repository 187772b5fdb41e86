// Rate-controller tests (src/phy/rate_adaptation).
#include "src/phy/rate_adaptation.hpp"

#include <gtest/gtest.h>

namespace mmtag::phy {
namespace {

RateController make_controller() {
  return RateController(RateTable::mmtag_standard());
}

TEST(RateController, StartsAtZeroAndUpgradesAfterDwell) {
  RateController ctl = make_controller();
  // Strong signal: clears 1 Gbps threshold (-68.8) + 3 dB hysteresis.
  EXPECT_DOUBLE_EQ(ctl.observe_dbm(-60.0), 0.0);  // Streak 1.
  EXPECT_DOUBLE_EQ(ctl.observe_dbm(-60.0), 0.0);  // Streak 2.
  EXPECT_DOUBLE_EQ(ctl.observe_dbm(-60.0), 1e9);  // Streak 3: upgrade.
  EXPECT_EQ(ctl.switch_count(), 1);
}

TEST(RateController, DowngradesImmediately) {
  RateController ctl = make_controller();
  for (int i = 0; i < 3; ++i) ctl.observe_dbm(-60.0);
  ASSERT_DOUBLE_EQ(ctl.current_rate_bps(), 1e9);
  // One bad observation below the 1 Gbps bare threshold: instant drop.
  EXPECT_DOUBLE_EQ(ctl.observe_dbm(-72.0), 1e8);
  EXPECT_EQ(ctl.switch_count(), 2);
}

TEST(RateController, HysteresisBlocksMarginalUpgrade) {
  RateController ctl = make_controller();
  // -68.0 clears the bare 1 Gbps threshold (-68.8) but not +3 dB.
  for (int i = 0; i < 10; ++i) ctl.observe_dbm(-68.0);
  EXPECT_LT(ctl.current_rate_bps(), 1e9);
  EXPECT_DOUBLE_EQ(ctl.current_rate_bps(), 1e8);  // Settles one tier down.
}

TEST(RateController, NoThrashOnThresholdNoise) {
  // Power oscillating +/-1 dB around the 1 Gbps threshold: a naive
  // controller would flip every sample; with hysteresis + dwell the
  // controller settles at 100 Mbps and stays.
  RateController ctl = make_controller();
  for (int i = 0; i < 40; ++i) {
    ctl.observe_dbm(-68.8 + (i % 2 == 0 ? 1.0 : -1.0));
  }
  EXPECT_DOUBLE_EQ(ctl.current_rate_bps(), 1e8);
  EXPECT_LE(ctl.switch_count(), 2);
}

TEST(RateController, DwellStreakResetsOnGap) {
  RateController ctl = make_controller();
  ctl.observe_dbm(-60.0);
  ctl.observe_dbm(-60.0);
  ctl.observe_dbm(-80.0);  // Interrupts the streak (only 10 Mbps grade).
  ctl.observe_dbm(-60.0);
  ctl.observe_dbm(-60.0);
  EXPECT_LT(ctl.current_rate_bps(), 1e9);
  ctl.observe_dbm(-60.0);
  EXPECT_DOUBLE_EQ(ctl.current_rate_bps(), 1e9);
}

TEST(RateController, DeadLinkGoesToZero) {
  RateController ctl = make_controller();
  for (int i = 0; i < 3; ++i) ctl.observe_dbm(-60.0);
  EXPECT_DOUBLE_EQ(ctl.observe_dbm(-120.0), 0.0);
}

// Property: the in-force rate never exceeds what the bare table allows at
// the observed power (safety invariant).
class RateControllerBoundTest : public ::testing::TestWithParam<double> {};

TEST_P(RateControllerBoundTest, NeverExceedsBareTable) {
  const double power = GetParam();
  const RateTable table = RateTable::mmtag_standard();
  RateController ctl = make_controller();
  // Drive the controller to a high tier first, then observe the parameter.
  for (int i = 0; i < 3; ++i) ctl.observe_dbm(-55.0);
  const double rate = ctl.observe_dbm(power);
  EXPECT_LE(rate, table.achievable_rate_bps(power));
}

INSTANTIATE_TEST_SUITE_P(Powers, RateControllerBoundTest,
                         ::testing::Values(-50.0, -70.0, -80.0, -90.0,
                                           -110.0));

}  // namespace
}  // namespace mmtag::phy
