// Link-budget cache (src/deploy/link_cache): memoization, counters, dirty
// invalidation when a tag moves, and the bulk flush of a reader restart.
#include "src/deploy/link_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "src/channel/environment.hpp"
#include "src/channel/raytrace.hpp"
#include "src/core/tag.hpp"
#include "src/deploy/layout.hpp"
#include "src/phy/rate_table.hpp"
#include "src/phys/constants.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::deploy {
namespace {

class LinkCacheTest : public ::testing::Test {
 protected:
  LinkCacheTest()
      : env_(channel::Environment::office_room()),
        rates_(phy::RateTable::mmtag_standard()),
        tag_(core::MmTag::prototype_at(core::Pose{{2.0, 1.0}, 3.14},
                                       /*id=*/7)) {}

  [[nodiscard]] LinkCache make_cache(bool enabled = true) const {
    return LinkCache(
        reader::MmWaveReader::prototype_at(core::Pose{{0.0, 1.0}, 0.0}),
        &env_, &rates_, enabled);
  }

  channel::Environment env_;
  phy::RateTable rates_;
  core::MmTag tag_;
};

TEST_F(LinkCacheTest, RepeatLookupsHitWithoutRetracing) {
  LinkCache cache = make_cache();
  const reader::LinkReport first = cache.link(tag_, /*beam_key=*/0, 0.0);
  for (int i = 0; i < 9; ++i) {
    const reader::LinkReport& again = cache.link(tag_, 0, 0.0);
    EXPECT_DOUBLE_EQ(again.received_power_dbm, first.received_power_dbm);
  }
  EXPECT_EQ(cache.stats().lookups, 10u);
  EXPECT_EQ(cache.stats().hits, 9u);
  EXPECT_EQ(cache.stats().raytrace_evals, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.9);
}

TEST_F(LinkCacheTest, MatchesUncachedReaderEvaluation) {
  LinkCache cache = make_cache();
  auto reference =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 1.0}, 0.0});
  reference.steer_to_world(0.1);
  const reader::LinkReport expected =
      reference.evaluate_link(tag_, env_, rates_);
  const reader::LinkReport& cached = cache.link(tag_, 1, 0.1);
  EXPECT_DOUBLE_EQ(cached.received_power_dbm, expected.received_power_dbm);
  EXPECT_DOUBLE_EQ(cached.achievable_rate_bps, expected.achievable_rate_bps);
}

TEST_F(LinkCacheTest, DistinctBeamsShareOneRaytrace) {
  LinkCache cache = make_cache();
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 1, 0.3);
  (void)cache.link(tag_, 2, -0.3);
  // Three different steerings, three report computations, but the geometry
  // was traced once: beams don't move the endpoints.
  EXPECT_EQ(cache.stats().raytrace_evals, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // And every (tag, beam) pair is now warm.
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 2, -0.3);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST_F(LinkCacheTest, InvalidateOnMoveRecomputes) {
  LinkCache cache = make_cache();
  const double before = cache.link(tag_, 0, 0.0).received_power_dbm;

  // Move the tag 1 m closer; a stale cache would keep reporting `before`.
  tag_.set_pose(core::Pose{{1.0, 1.0}, 3.14});
  cache.invalidate_tag(tag_.id());
  const double after = cache.link(tag_, 0, 0.0).received_power_dbm;

  EXPECT_GT(after, before + 3.0);  // ~2x closer: about +12 dB two-way.
  EXPECT_EQ(cache.stats().raytrace_evals, 2u);

  // The fresh value must match a from-scratch evaluation at the new pose.
  auto reference =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 1.0}, 0.0});
  reference.steer_to_world(0.0);
  EXPECT_DOUBLE_EQ(
      after, reference.evaluate_link(tag_, env_, rates_).received_power_dbm);
}

TEST_F(LinkCacheTest, InvalidateIsPerTag) {
  LinkCache cache = make_cache();
  const core::MmTag other =
      core::MmTag::prototype_at(core::Pose{{2.5, 1.5}, 3.0}, /*id=*/8);
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(other, 0, 0.0);
  cache.invalidate_tag(tag_.id());
  (void)cache.link(other, 0, 0.0);  // Still cached.
  (void)cache.link(tag_, 0, 0.0);   // Re-traced.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().raytrace_evals, 3u);
}

TEST_F(LinkCacheTest, InvalidateTagCountsEvictions) {
  LinkCache cache = make_cache();
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 1, 0.3);
  cache.invalidate_tag(tag_.id());
  // Two memoized reports plus the traced path set.
  EXPECT_EQ(cache.stats().evictions, 3u);
  cache.invalidate_tag(tag_.id());  // Already gone: nothing to count.
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST_F(LinkCacheTest, InvalidateAllBulkEvictsAndCounts) {
  LinkCache cache = make_cache();
  const core::MmTag other =
      core::MmTag::prototype_at(core::Pose{{2.5, 1.5}, 3.0}, /*id=*/8);
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 1, 0.3);
  (void)cache.link(other, 0, 0.0);

  // A restart drops everything: (2 reports + paths) + (1 report + paths).
  EXPECT_EQ(cache.invalidate_all(), 5u);
  EXPECT_EQ(cache.stats().evictions, 5u);

  // Cold again: the next lookup re-traces...
  (void)cache.link(tag_, 0, 0.0);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().raytrace_evals, 3u);
  // ...and a second restart evicts exactly the rebuilt entries.
  EXPECT_EQ(cache.invalidate_all(), 2u);
}

TEST_F(LinkCacheTest, DisabledCacheRetracesEveryLookup) {
  LinkCache cache = make_cache(/*enabled=*/false);
  const double a = cache.link(tag_, 0, 0.0).received_power_dbm;
  const double b = cache.link(tag_, 0, 0.0).received_power_dbm;
  EXPECT_DOUBLE_EQ(a, b);  // Same answer, just recomputed.
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().raytrace_evals, 2u);
}

/// Reference selection without the power bound: trace, then evaluate
/// every path from a default report at -300 dBm and keep a path only on
/// strictly greater power (the loop LinkCache::link ran before it shared
/// the reader's best-path routine).
reader::LinkReport every_path_loop_link(reader::MmWaveReader reader,
                                        const core::MmTag& tag,
                                        const channel::Environment& env,
                                        const phy::RateTable& rates,
                                        double boresight_rad) {
  reader.steer_to_world(boresight_rad);
  reader::LinkReport best;
  for (const channel::Path& path : channel::trace_paths(
           env, reader.pose().position, tag.pose().position)) {
    const reader::LinkReport report = reader.evaluate_path(tag, path, rates);
    if (report.received_power_dbm > best.received_power_dbm) best = report;
  }
  return best;
}

void expect_same_report(const reader::LinkReport& a,
                        const reader::LinkReport& b) {
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

TEST(LinkCacheSelection, MatchesTheEveryPathLoopInThreeRooms) {
  // Seeded readers and tags in the office, on the fleet layout's 32 x 20 m
  // floor and in the office with a blocker across each line of sight (a
  // reflection wins there), every lookup steered at the tag, along each
  // traced path and at two random bearings, cached and uncached alike.
  deploy::LayoutConfig fleet;
  fleet.width_m = 32.0;
  fleet.height_m = 20.0;
  fleet.readers = 16;
  fleet.tags = 0;
  struct Room {
    channel::Environment env;
    double x_hi, y_hi;
    bool block_los;
  };
  const std::vector<Room> rooms = {
      {channel::Environment::office_room(), 5.0, 4.0, false},
      {make_layout(fleet).environment, 32.0, 20.0, false},
      {channel::Environment::office_room(), 5.0, 4.0, true},
  };
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  for (std::size_t r = 0; r < rooms.size(); ++r) {
    SCOPED_TRACE(r);
    auto rng = sim::make_rng(9300 + r);
    std::uniform_real_distribution<double> x(0.3, rooms[r].x_hi - 0.3);
    std::uniform_real_distribution<double> y(0.3, rooms[r].y_hi - 0.3);
    std::uniform_real_distribution<double> angle(-phys::kPi, phys::kPi);
    int reflected_wins = 0;
    for (int draw = 0; draw < 30; ++draw) {
      const channel::Vec2 reader_at{x(rng), y(rng)};
      channel::Vec2 tag_at{x(rng), y(rng)};
      while (channel::distance(reader_at, tag_at) < 0.5) {
        tag_at = {x(rng), y(rng)};
      }
      channel::Environment env = rooms[r].env;
      if (rooms[r].block_los) {
        const double across =
            channel::bearing_rad(reader_at, tag_at) + phys::kPi / 2.0;
        const channel::Vec2 mid{(reader_at.x + tag_at.x) / 2.0,
                                (reader_at.y + tag_at.y) / 2.0};
        const channel::Vec2 half{0.1 * std::cos(across),
                                 0.1 * std::sin(across)};
        env.add_obstacle(channel::Obstacle{
            channel::Segment{{mid.x - half.x, mid.y - half.y},
                             {mid.x + half.x, mid.y + half.y}}});
      }
      const auto reader =
          reader::MmWaveReader::prototype_at(core::Pose{reader_at, angle(rng)});
      const core::MmTag tag = core::MmTag::prototype_at(
          core::Pose{tag_at, angle(rng)}, static_cast<std::uint32_t>(draw));
      std::vector<double> steerings = {channel::bearing_rad(reader_at, tag_at),
                                       angle(rng), angle(rng)};
      for (const channel::Path& path :
           channel::trace_paths(env, reader_at, tag_at)) {
        steerings.push_back(path.departure_rad);
      }
      LinkCache cached(reader, &env, &rates);
      LinkCache uncached(reader, &env, &rates, /*enabled=*/false);
      for (std::size_t s = 0; s < steerings.size(); ++s) {
        const reader::LinkReport expected =
            every_path_loop_link(reader, tag, env, rates, steerings[s]);
        expect_same_report(
            cached.link(tag, static_cast<int>(s), steerings[s]), expected);
        expect_same_report(
            uncached.link(tag, static_cast<int>(s), steerings[s]), expected);
        if (expected.path.kind == channel::PathKind::kReflected) {
          ++reflected_wins;
        }
      }
    }
    if (rooms[r].block_los) {
      EXPECT_GT(reflected_wins, 0);
    }
  }
}

}  // namespace
}  // namespace mmtag::deploy
