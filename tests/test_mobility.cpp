// Mobility-model tests (src/channel/mobility).
#include "src/channel/mobility.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"

namespace mmtag::channel {
namespace {

TEST(LinearMobility, ConstantVelocity) {
  const LinearMobility walker({0.0, 0.0}, {1.0, -0.5});
  EXPECT_DOUBLE_EQ(walker.position(0.0).x, 0.0);
  EXPECT_DOUBLE_EQ(walker.position(4.0).x, 4.0);
  EXPECT_DOUBLE_EQ(walker.position(4.0).y, -2.0);
}

TEST(WaypointMobility, VisitsWaypointsAtComputedTimes) {
  const WaypointMobility route({{0, 0}, {3, 0}, {3, 4}}, 1.0);
  EXPECT_DOUBLE_EQ(route.total_duration_s(), 7.0);  // 3 m + 4 m at 1 m/s.
  EXPECT_DOUBLE_EQ(route.position(0.0).x, 0.0);
  EXPECT_DOUBLE_EQ(route.position(3.0).x, 3.0);
  EXPECT_DOUBLE_EQ(route.position(3.0).y, 0.0);
  EXPECT_DOUBLE_EQ(route.position(7.0).y, 4.0);
  // Midway along the second leg.
  EXPECT_DOUBLE_EQ(route.position(5.0).y, 2.0);
}

TEST(WaypointMobility, ClampsOutsideSchedule) {
  const WaypointMobility route({{1, 1}, {2, 1}}, 2.0);
  EXPECT_DOUBLE_EQ(route.position(-5.0).x, 1.0);
  EXPECT_DOUBLE_EQ(route.position(50.0).x, 2.0);
}

TEST(WaypointMobility, SinglePointActsStatic) {
  const WaypointMobility route({{4, 2}}, 1.0);
  EXPECT_DOUBLE_EQ(route.position(0.0).x, 4.0);
  EXPECT_DOUBLE_EQ(route.position(9.0).y, 2.0);
  EXPECT_DOUBLE_EQ(route.total_duration_s(), 0.0);
}

TEST(OrbitMobility, StartsAtStartAngle) {
  const OrbitMobility orbit({0, 0}, 2.0, 1.0, 0.0);
  EXPECT_NEAR(orbit.position(0.0).x, 2.0, 1e-12);
  EXPECT_NEAR(orbit.position(0.0).y, 0.0, 1e-12);
}

TEST(OrbitMobility, QuarterTurn) {
  const OrbitMobility orbit({1, 1}, 1.0, phys::kPi / 2.0, 0.0);
  const Vec2 p = orbit.position(1.0);  // 90 degrees later.
  EXPECT_NEAR(p.x, 1.0, 1e-12);
  EXPECT_NEAR(p.y, 2.0, 1e-12);
}

// Property: an orbit stays at constant radius from its centre.
class OrbitRadiusTest : public ::testing::TestWithParam<double> {};

TEST_P(OrbitRadiusTest, RadiusConstant) {
  const double t = GetParam();
  const Vec2 center{2.0, -1.0};
  const OrbitMobility orbit(center, 3.5, 0.7, 1.1);
  EXPECT_NEAR(distance(orbit.position(t), center), 3.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Times, OrbitRadiusTest,
                         ::testing::Values(0.0, 0.3, 1.7, 10.0, 123.0));

}  // namespace
}  // namespace mmtag::channel
