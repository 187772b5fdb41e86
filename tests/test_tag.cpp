// mmTag device tests (src/core/tag).
#include "src/core/tag.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::core {
namespace {

TEST(Pose, WorldToLocalConversion) {
  const Pose pose{{0, 0}, phys::deg_to_rad(90.0)};
  // A bearing equal to the orientation is local boresight.
  EXPECT_NEAR(pose.to_local(phys::deg_to_rad(90.0)), 0.0, 1e-12);
  EXPECT_NEAR(pose.to_local(phys::deg_to_rad(120.0)),
              phys::deg_to_rad(30.0), 1e-12);
  // Wraps into (-pi, pi].
  EXPECT_NEAR(pose.to_local(phys::deg_to_rad(-150.0)),
              phys::deg_to_rad(120.0), 1e-12);
}

TEST(MmTag, DataBitDrivesSwitches) {
  MmTag tag = MmTag::prototype_at(Pose{{0, 0}, 0.0});
  EXPECT_FALSE(tag.data_bit());
  for (int n = 0; n < tag.array().size(); ++n) {
    EXPECT_EQ(tag.array().switch_state(n), em::SwitchState::kOff);
  }
  tag.set_data_bit(true);
  EXPECT_TRUE(tag.data_bit());
  for (int n = 0; n < tag.array().size(); ++n) {
    EXPECT_EQ(tag.array().switch_state(n), em::SwitchState::kOn);
  }
}

TEST(MmTag, Bit0ReflectsMoreThanBit1) {
  // Paper Sec. 6: '0' -> high reflected amplitude, '1' -> none.
  MmTag tag = MmTag::prototype_at(Pose{{0, 0}, 0.0});
  tag.set_data_bit(false);
  const double zero_db = tag.monostatic_gain_db(0.0);
  tag.set_data_bit(true);
  const double one_db = tag.monostatic_gain_db(0.0);
  EXPECT_GT(zero_db, one_db + 8.0);
}

TEST(MmTag, ModulationDepthDoesNotDisturbState) {
  MmTag tag = MmTag::prototype_at(Pose{{0, 0}, 0.0});
  tag.set_data_bit(true);
  const double depth = tag.modulation_depth_db(0.0);
  EXPECT_GT(depth, 8.0);
  EXPECT_TRUE(tag.data_bit());  // Probe must not flip the live state.
}

TEST(MmTag, ModulationDepthIsTheStateGainDifference) {
  const MmTag tag = MmTag::prototype_at(Pose{{0, 0}, phys::deg_to_rad(20.0)});
  for (int deg = -80; deg <= 80; deg += 20) {
    const double bearing = phys::deg_to_rad(deg);
    const StateGainsDb gains = tag.monostatic_state_gains_db(bearing);
    EXPECT_EQ(tag.modulation_depth_db(bearing), gains.off_db - gains.on_db)
        << deg;
    // In the tag's local frame, as the array sees it.
    const StateGainsDb local = tag.array().monostatic_state_gains_db(
        tag.pose().to_local(bearing));
    EXPECT_EQ(gains.off_db, local.off_db) << deg;
    EXPECT_EQ(gains.on_db, local.on_db) << deg;
  }
}

TEST(MmTag, OrientationRotatesTheResponse) {
  // A tag turned 30 degrees sees a boresight reader at local -30 degrees;
  // its response must match the unrotated tag probed at -30.
  MmTag facing = MmTag::prototype_at(Pose{{0, 0}, 0.0});
  MmTag turned = MmTag::prototype_at(
      Pose{{0, 0}, phys::deg_to_rad(30.0)});
  EXPECT_NEAR(turned.monostatic_gain_db(0.0),
              facing.monostatic_gain_db(phys::deg_to_rad(-30.0)), 1e-9);
}

TEST(MmTag, ReflectionFieldUsesLocalAngles) {
  const MmTag tag = MmTag::prototype_at(Pose{{0, 0}, phys::deg_to_rad(45.0)});
  const Complex via_tag = tag.reflection_field(phys::deg_to_rad(45.0),
                                               phys::deg_to_rad(45.0));
  const Complex direct = tag.array().reradiated_field(0.0, 0.0);
  EXPECT_NEAR(std::abs(via_tag - direct), 0.0, 1e-12);
}

TEST(MmTag, IdAndPoseAccessors) {
  MmTag tag = MmTag::prototype_at(Pose{{1, 2}, 0.5}, 42);
  EXPECT_EQ(tag.id(), 42u);
  EXPECT_DOUBLE_EQ(tag.pose().position.x, 1.0);
  tag.set_pose(Pose{{3, 4}, 1.0});
  EXPECT_DOUBLE_EQ(tag.pose().position.y, 4.0);
}

// Property: retrodirectivity is pose-invariant — for any tag orientation,
// a reader on the tag's visible side gets a strong monostatic return.
class TagOrientationTest : public ::testing::TestWithParam<double> {};

TEST_P(TagOrientationTest, VisibleSideAlwaysServed) {
  const double orient_deg = GetParam();
  const MmTag tag = MmTag::prototype_at(
      Pose{{0, 0}, phys::deg_to_rad(orient_deg)});
  // Reader bearing 40 deg off the tag boresight, world frame.
  const double bearing = phys::deg_to_rad(orient_deg + 40.0);
  const MmTag reference = MmTag::prototype_at(Pose{{0, 0}, 0.0});
  EXPECT_NEAR(tag.monostatic_gain_db(bearing),
              reference.monostatic_gain_db(phys::deg_to_rad(40.0)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orientations, TagOrientationTest,
                         ::testing::Values(-170.0, -90.0, -15.0, 0.0, 30.0,
                                           120.0, 179.0));

}  // namespace
}  // namespace mmtag::core
