// Ray-tracing tests (src/channel/raytrace) — LOS, first-order reflections,
// blockage, and the NLOS-fallback behaviour of paper Sec. 4.
#include "src/channel/raytrace.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/channel/propagation.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::channel {
namespace {

TEST(RayTrace, EmptyWorldGivesOnlyLos) {
  const Environment env;
  const auto paths = trace_paths(env, {0, 0}, {3, 0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].kind, PathKind::kLineOfSight);
  EXPECT_DOUBLE_EQ(paths[0].length_m, 3.0);
  EXPECT_NEAR(paths[0].departure_rad, 0.0, 1e-12);
  EXPECT_NEAR(paths[0].arrival_rad, phys::kPi, 1e-12);
  EXPECT_DOUBLE_EQ(paths[0].excess_loss_db, 0.0);
}

TEST(RayTrace, WallAddsSpecularReflection) {
  Environment env;
  // Wall along y = 2 above both endpoints.
  env.add_wall(Wall{Segment{{-5, 2}, {5, 2}}, 0.2});
  const auto paths = trace_paths(env, {-1, 0}, {1, 0});
  ASSERT_EQ(paths.size(), 2u);
  const Path& reflected = paths[1];
  EXPECT_EQ(reflected.kind, PathKind::kReflected);
  // Image of (1,0) across y=2 is (1,4); bounce at (0,2); total length
  // = |(-1,0)->(0,2)| + |(0,2)->(1,0)| = 2*sqrt(5).
  EXPECT_NEAR(reflected.length_m, 2.0 * std::sqrt(5.0), 1e-9);
  EXPECT_NEAR(reflected.departure_rad, std::atan2(2.0, 1.0), 1e-9);
  EXPECT_NEAR(reflected.arrival_rad, std::atan2(2.0, -1.0), 1e-9);
  EXPECT_NEAR(reflected.excess_loss_db, reflection_loss_db(0.2), 1e-12);
  EXPECT_EQ(reflected.wall_index, 0);
}

TEST(RayTrace, WallBehindSegmentGivesNoBounce) {
  Environment env;
  // Wall segment too short: the specular point falls outside it.
  env.add_wall(Wall{Segment{{10, 2}, {11, 2}}, 0.2});
  const auto paths = trace_paths(env, {-1, 0}, {1, 0});
  EXPECT_EQ(paths.size(), 1u);
}

TEST(RayTrace, BlockedLosCarriesPenetrationLoss) {
  Environment env;
  env.add_obstacle(Obstacle{Segment{{0.5, -1}, {0.5, 1}}});
  const auto paths = trace_paths(env, {0, 0}, {1, 0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths[0].excess_loss_db, blockage_loss_db());
}

TEST(RayTrace, BlockedLosFallsBackToWallPath) {
  // The paper's NLOS story: blocker cuts LOS, the wall bounce survives and
  // becomes the best path.
  Environment env;
  env.add_wall(Wall{Segment{{-5, 2}, {5, 2}}, 0.2});
  env.add_obstacle(Obstacle{Segment{{0, -0.5}, {0, 0.5}}});
  const Path best = trace_paths(env, {-1, 0}, {1, 0}).front();
  EXPECT_EQ(best.kind, PathKind::kReflected);
  EXPECT_LT(best.excess_loss_db, blockage_loss_db());
}

TEST(RayTrace, ObstacleOnReflectedLegKillsBounce) {
  Environment env;
  env.add_wall(Wall{Segment{{-5, 2}, {5, 2}}, 0.2});
  // Blocker across the upward leg only.
  env.add_obstacle(Obstacle{Segment{{-0.75, 0.9}, {-0.25, 1.1}}});
  const auto paths = trace_paths(env, {-1, 0}, {1, 0});
  ASSERT_EQ(paths.size(), 1u);  // Only LOS survives.
  EXPECT_EQ(paths[0].kind, PathKind::kLineOfSight);
}

TEST(RayTrace, PathsSortedByExcessLossThenLength) {
  Environment env;
  env.add_wall(Wall{Segment{{-5, 2}, {5, 2}}, 0.9});   // Lossy near wall.
  env.add_wall(Wall{Segment{{-5, 6}, {5, 6}}, 0.1});   // Clean far wall.
  const auto paths = trace_paths(env, {-1, 0}, {1, 0});
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].kind, PathKind::kLineOfSight);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].excess_loss_db, paths[i - 1].excess_loss_db);
  }
}

TEST(RayTrace, OfficeRoomProvidesMultiplePaths) {
  const Environment office = Environment::office_room();
  const auto paths = trace_paths(office, {1.0, 1.0}, {4.0, 3.0});
  EXPECT_GE(paths.size(), 3u);  // LOS + several wall bounces.
  EXPECT_EQ(paths[0].kind, PathKind::kLineOfSight);
}

// Property: a reflected path is always longer than the direct one
// (triangle inequality through the image point).
class ReflectedLengthTest : public ::testing::TestWithParam<double> {};

TEST_P(ReflectedLengthTest, ReflectionLongerThanLos) {
  const double x = GetParam();
  Environment env;
  env.add_wall(Wall{Segment{{-20, 3}, {20, 3}}, 0.3});
  const Vec2 a{-2.0, 0.0};
  const Vec2 b{x, 1.0};
  const auto paths = trace_paths(env, a, b);
  ASSERT_GE(paths.size(), 2u);
  EXPECT_GT(paths[1].length_m, paths[0].length_m);
}

INSTANTIATE_TEST_SUITE_P(TagPositions, ReflectedLengthTest,
                         ::testing::Values(-1.0, 0.0, 1.0, 3.0, 6.0));

}  // namespace
}  // namespace mmtag::channel
