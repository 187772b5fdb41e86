// mmWave reader tests (src/reader/reader) — pins the paper's Fig. 7
// headline results end to end through the circuit models.
#include "src/reader/reader.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "src/channel/raytrace.hpp"
#include "src/deploy/layout.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::reader {
namespace {

core::MmTag tag_at_origin() {
  return core::MmTag::prototype_at(core::Pose{{0.0, 0.0}, 0.0});
}

MmWaveReader reader_facing_tag(double range_m) {
  // Reader on the +x axis looking back toward the origin.
  return MmWaveReader::prototype_at(
      core::Pose{{range_m, 0.0}, phys::kPi});
}

TEST(Reader, GainFollowsSteering) {
  MmWaveReader reader = reader_facing_tag(1.0);
  reader.steer_to_world(0.5);
  EXPECT_NEAR(reader.gain_dbi(0.5), 20.0, 1e-9);
  EXPECT_LT(reader.gain_dbi(0.5 + phys::deg_to_rad(30.0)), 10.0);
}

TEST(Reader, Figure7HeadlineOneGbpsAtFourFeet) {
  // "robust communication rates of 1 Gbps at a range of 4 ft".
  const auto reader = reader_facing_tag(phys::feet_to_m(4.0));
  const auto link = reader.evaluate_link(
      tag_at_origin(), channel::Environment{},
      phy::RateTable::mmtag_standard());
  EXPECT_DOUBLE_EQ(link.achievable_rate_bps, 1e9);
}

TEST(Reader, Figure7HeadlineTenMbpsAtTenFeet) {
  // "... and 10 Mbps at a range of 10 ft."
  const auto reader = reader_facing_tag(phys::feet_to_m(10.0));
  const auto link = reader.evaluate_link(
      tag_at_origin(), channel::Environment{},
      phy::RateTable::mmtag_standard());
  EXPECT_DOUBLE_EQ(link.achievable_rate_bps, 1e7);
}

TEST(Reader, Figure7PowerLevelAtTwoFeet) {
  // The measured curve passes ~ -50 dBm at 2 ft (calibration anchor).
  const auto reader = reader_facing_tag(phys::feet_to_m(2.0));
  const auto link = reader.evaluate_link(
      tag_at_origin(), channel::Environment{},
      phy::RateTable::mmtag_standard());
  EXPECT_NEAR(link.received_power_dbm, -51.0, 2.0);
}

TEST(Reader, FortyDbPerDecadeThroughTheModels) {
  const channel::Environment env;
  const auto rates = phy::RateTable::mmtag_standard();
  const auto tag = tag_at_origin();
  const double p1 =
      reader_facing_tag(1.0).evaluate_link(tag, env, rates)
          .received_power_dbm;
  const double p10 =
      reader_facing_tag(10.0).evaluate_link(tag, env, rates)
          .received_power_dbm;
  EXPECT_NEAR(p1 - p10, 40.0, 0.01);
}

TEST(Reader, ModulationDepthSurvivesTheLink) {
  const auto reader = reader_facing_tag(1.0);
  const auto link = reader.evaluate_link(
      tag_at_origin(), channel::Environment{},
      phy::RateTable::mmtag_standard());
  EXPECT_GT(link.modulation_depth_db, 8.0);
}

TEST(Reader, MissteeredBeamLosesTheTag) {
  MmWaveReader reader = reader_facing_tag(phys::feet_to_m(4.0));
  reader.steer_to_world(phys::kPi + phys::deg_to_rad(40.0));  // Way off.
  const auto link = reader.evaluate_link(
      tag_at_origin(), channel::Environment{},
      phy::RateTable::mmtag_standard());
  // Two-way horn penalty (~2 x 30 dB): the link collapses.
  EXPECT_DOUBLE_EQ(link.achievable_rate_bps, 0.0);
}

TEST(Reader, BlockedLosSwitchesToWallReflection) {
  // Paper Sec. 4: "when the LOS path is blocked, the tag and the reader
  // choose an NLOS path to communicate."
  // Corridor geometry: a smooth side wall runs parallel to the link, so
  // the bounce arrives within the tag's field of view (~33 degrees off
  // boresight) instead of from the side.
  channel::Environment env;
  env.add_wall(channel::Wall{channel::Segment{{-2, 0.3}, {2, 0.3}}, 0.1});
  env.add_obstacle(
      channel::Obstacle{channel::Segment{{0.45, -0.1}, {0.45, 0.1}}});

  core::MmTag tag = tag_at_origin();
  MmWaveReader reader = reader_facing_tag(phys::feet_to_m(3.0));
  // Steer toward the wall-bounce departure direction.
  const auto paths =
      channel::trace_paths(env, reader.pose().position, tag.pose().position);
  ASSERT_GE(paths.size(), 2u);
  const auto& bounce = paths[1].kind == channel::PathKind::kReflected
                           ? paths[1]
                           : paths[0];
  reader.steer_to_world(bounce.departure_rad);

  const LinkReport link =
      reader.evaluate_link(tag, env, phy::RateTable::mmtag_standard());
  // The best link must ride the reflected path, and it must still carry
  // data.
  EXPECT_EQ(link.path.kind, channel::PathKind::kReflected);
  EXPECT_GT(link.achievable_rate_bps, 0.0);
}

TEST(Reader, EvaluateLinkReportsTheStrongestPath) {
  const channel::Environment office = channel::Environment::office_room();
  core::MmTag tag = core::MmTag::prototype_at(
      core::Pose{{1.0, 2.0}, 0.0});
  const auto reader = MmWaveReader::prototype_at(
      core::Pose{{4.0, 2.0}, phys::kPi});
  const auto rates = phy::RateTable::mmtag_standard();
  const auto paths =
      channel::trace_paths(office, reader.pose().position, tag.pose().position);
  ASSERT_GE(paths.size(), 2u);
  const LinkReport link = reader.evaluate_link(tag, office, rates);
  for (const channel::Path& path : paths) {
    EXPECT_GE(link.received_power_dbm,
              reader.evaluate_path(tag, path, rates).received_power_dbm);
  }
}

// The best-path routine against a brute-force reference, and the power
// bound it prunes with against every traced path, over seeded geometries
// in three rooms.

/// A room and the box readers and tags are drawn from.
struct Room {
  channel::Environment env;
  double x_lo, x_hi, y_lo, y_hi;
};

/// The office, the fleet layout's floor (bench fleet_traffic's 32 x 20 m
/// hall), and the office with a blocker across each draw's line of sight
/// (added by draw_geometry) so that a reflection wins.
std::vector<Room> rooms() {
  deploy::LayoutConfig fleet;
  fleet.width_m = 32.0;
  fleet.height_m = 20.0;
  fleet.readers = 16;
  fleet.tags = 0;
  return {
      Room{channel::Environment::office_room(), 0.3, 4.7, 0.3, 3.7},
      Room{deploy::make_layout(fleet).environment, 0.5, 31.5, 0.5, 19.5},
      Room{channel::Environment::office_room(), 0.3, 4.7, 0.3, 3.7},
  };
}
constexpr std::size_t kBlockedRoom = 2;

/// One seeded reader/tag draw in `room`.
struct Geometry {
  channel::Environment env;
  MmWaveReader reader;
  core::MmTag tag;
};

Geometry draw_geometry(const Room& room, bool block_los, sim::Rng& rng) {
  std::uniform_real_distribution<double> x(room.x_lo, room.x_hi);
  std::uniform_real_distribution<double> y(room.y_lo, room.y_hi);
  std::uniform_real_distribution<double> angle(-phys::kPi, phys::kPi);
  channel::Vec2 reader_at{x(rng), y(rng)};
  channel::Vec2 tag_at{x(rng), y(rng)};
  while (channel::distance(reader_at, tag_at) < 0.5) tag_at = {x(rng), y(rng)};
  channel::Environment env = room.env;
  if (block_los) {
    // A 0.2 m blocker across the middle of the line of sight.
    const channel::Vec2 mid{(reader_at.x + tag_at.x) / 2.0,
                            (reader_at.y + tag_at.y) / 2.0};
    const double across = channel::bearing_rad(reader_at, tag_at) +
                          phys::kPi / 2.0;
    const channel::Vec2 half{0.1 * std::cos(across), 0.1 * std::sin(across)};
    env.add_obstacle(channel::Obstacle{channel::Segment{
        {mid.x - half.x, mid.y - half.y}, {mid.x + half.x, mid.y + half.y}}});
  }
  // Half the tags face the reader (badge mounting), half face anywhere.
  const double facing = std::uniform_int_distribution<int>(0, 1)(rng) == 0
                            ? channel::bearing_rad(tag_at, reader_at)
                            : angle(rng);
  return Geometry{std::move(env),
                  MmWaveReader::prototype_at(core::Pose{reader_at, angle(rng)}),
                  core::MmTag::prototype_at(core::Pose{tag_at, facing})};
}

/// Steerings to try: at the tag, along every traced path (the bounces),
/// and two random bearings.
std::vector<double> steerings(const Geometry& g,
                              const std::vector<channel::Path>& paths,
                              sim::Rng& rng) {
  std::uniform_real_distribution<double> angle(-phys::kPi, phys::kPi);
  std::vector<double> out = {
      channel::bearing_rad(g.reader.pose().position, g.tag.pose().position)};
  for (const channel::Path& path : paths) out.push_back(path.departure_rad);
  out.push_back(angle(rng));
  out.push_back(angle(rng));
  return out;
}

/// The selection evaluate_link made before the bound: evaluate every
/// traced path and keep the first maximum in trace order (what its
/// std::sort, a stable insertion sort below 17 paths, put in front).
LinkReport brute_force_link(const MmWaveReader& reader,
                            const core::MmTag& tag,
                            const channel::Environment& env,
                            const phy::RateTable& rates) {
  const std::vector<channel::Path> paths =
      channel::trace_paths(env, reader.pose().position, tag.pose().position);
  LinkReport best = reader.evaluate_path(tag, paths.front(), rates);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    const LinkReport report = reader.evaluate_path(tag, paths[i], rates);
    if (report.received_power_dbm > best.received_power_dbm) best = report;
  }
  return best;
}

void expect_same_report(const LinkReport& a, const LinkReport& b) {
  EXPECT_EQ(a.path.kind, b.path.kind);
  EXPECT_EQ(a.path.length_m, b.path.length_m);
  EXPECT_EQ(a.path.departure_rad, b.path.departure_rad);
  EXPECT_EQ(a.path.arrival_rad, b.path.arrival_rad);
  EXPECT_EQ(a.path.excess_loss_db, b.path.excess_loss_db);
  EXPECT_EQ(a.path.wall_index, b.path.wall_index);
  EXPECT_EQ(a.received_power_dbm, b.received_power_dbm);
  EXPECT_EQ(a.modulation_depth_db, b.modulation_depth_db);
  EXPECT_EQ(a.achievable_rate_bps, b.achievable_rate_bps);
}

TEST(Reader, EvaluateLinkMatchesBruteForceSelection) {
  const auto rates = phy::RateTable::mmtag_standard();
  const std::vector<Room> all = rooms();
  for (std::size_t r = 0; r < all.size(); ++r) {
    SCOPED_TRACE(r);
    auto rng = sim::make_rng(9100 + r);
    int reflected_wins = 0;
    int prunable = 0;  // Paths the bound rules out against the winner.
    for (int draw = 0; draw < 40; ++draw) {
      Geometry g = draw_geometry(all[r], r == kBlockedRoom, rng);
      const auto paths = channel::trace_paths(
          g.env, g.reader.pose().position, g.tag.pose().position);
      for (const double steering : steerings(g, paths, rng)) {
        g.reader.steer_to_world(steering);
        const LinkReport link = g.reader.evaluate_link(g.tag, g.env, rates);
        expect_same_report(link,
                           brute_force_link(g.reader, g.tag, g.env, rates));
        if (link.path.kind == channel::PathKind::kReflected) {
          ++reflected_wins;
        }
        for (const channel::Path& path : paths) {
          if (g.reader.power_bound_dbm(g.tag, path) <
              link.received_power_dbm) {
            ++prunable;
          }
        }
      }
    }
    EXPECT_GT(prunable, 0);
    if (r == kBlockedRoom) {
      EXPECT_GT(reflected_wins, 0);
    }
  }
}

TEST(Reader, PowerBoundCoversEveryPath) {
  const auto rates = phy::RateTable::mmtag_standard();
  const std::vector<Room> all = rooms();
  for (std::size_t r = 0; r < all.size(); ++r) {
    SCOPED_TRACE(r);
    auto rng = sim::make_rng(9200 + r);
    for (int draw = 0; draw < 40; ++draw) {
      Geometry g = draw_geometry(all[r], r == kBlockedRoom, rng);
      const auto paths = channel::trace_paths(
          g.env, g.reader.pose().position, g.tag.pose().position);
      for (const double steering : steerings(g, paths, rng)) {
        g.reader.steer_to_world(steering);
        for (const channel::Path& path : paths) {
          EXPECT_GE(g.reader.power_bound_dbm(g.tag, path),
                    g.reader.evaluate_path(g.tag, path, rates)
                        .received_power_dbm);
        }
      }
    }
  }
}

TEST(Reader, PowerBoundIsTightOnAnAlignedLink) {
  // Reader steered at a tag that faces it: both horns and the array sit
  // at their peaks, so only the bound's 1e-6 dB margin separates them.
  const auto reader = reader_facing_tag(2.0);
  const core::MmTag tag = tag_at_origin();
  const auto paths = channel::trace_paths(
      channel::Environment{}, reader.pose().position, tag.pose().position);
  ASSERT_EQ(paths.size(), 1u);
  const double power =
      reader.evaluate_path(tag, paths[0], phy::RateTable::mmtag_standard())
          .received_power_dbm;
  const double bound = reader.power_bound_dbm(tag, paths[0]);
  EXPECT_GE(bound, power);
  EXPECT_LT(bound - power, 1e-5);
}

// Property: the rate tiers degrade monotonically with range, stepping
// through the paper's 1 Gbps / 100 Mbps / 10 Mbps ladder.
class ReaderRangeTest : public ::testing::TestWithParam<double> {};

TEST_P(ReaderRangeTest, RateNeverImprovesWithRange) {
  const double feet = GetParam();
  const channel::Environment env;
  const auto rates = phy::RateTable::mmtag_standard();
  const auto tag = tag_at_origin();
  const double near_rate =
      reader_facing_tag(phys::feet_to_m(feet))
          .evaluate_link(tag, env, rates).achievable_rate_bps;
  const double far_rate =
      reader_facing_tag(phys::feet_to_m(feet + 2.0))
          .evaluate_link(tag, env, rates).achievable_rate_bps;
  EXPECT_GE(near_rate, far_rate);
}

INSTANTIATE_TEST_SUITE_P(Ranges, ReaderRangeTest,
                         ::testing::Values(2.0, 4.0, 6.0, 8.0, 10.0, 12.0));

}  // namespace
}  // namespace mmtag::reader
