// Beam-tracker tests (src/reader/tracking).
#include "src/reader/tracking.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/channel/mobility.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::reader {
namespace {

class TrackerFixture : public ::testing::Test {
 protected:
  TrackerFixture()
      : codebook_(antenna::uniform_codebook(phys::deg_to_rad(-70.0),
                                            phys::deg_to_rad(70.0), 17.0)),
        tracker_(BeamScanner(MmWaveReader::prototype_at(
                                 core::Pose{{0.0, 0.0}, 0.0}),
                             PowerDetector::mmtag_default()),
                 codebook_),
        rates_(phy::RateTable::mmtag_standard()),
        rng_(sim::make_rng(101)) {}

  /// A tag orbiting the reader at 4 ft, always facing it.
  core::MmTag orbiting_tag(double t_s) const {
    const channel::OrbitMobility orbit({0.0, 0.0}, phys::feet_to_m(4.0),
                                       /*angular_rate=*/0.3, /*start=*/-0.4);
    const channel::Vec2 pos = orbit.position(t_s);
    return core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, {0.0, 0.0})});
  }

  std::vector<antenna::Beam> codebook_;
  BeamTracker tracker_;
  channel::Environment env_;
  phy::RateTable rates_;
  sim::Rng rng_;
};

TEST_F(TrackerFixture, AcquiresOnFirstStep) {
  const auto link = tracker_.step(0.0, orbiting_tag(0.0), env_, rates_, rng_);
  EXPECT_TRUE(tracker_.is_locked());
  EXPECT_EQ(tracker_.full_scans_used(), 1);
  EXPECT_GT(link.achievable_rate_bps, 0.0);
}

TEST_F(TrackerFixture, TracksOrbitWithoutRescans) {
  int connected = 0;
  constexpr int kSteps = 30;
  for (int i = 0; i < kSteps; ++i) {
    const double t = 0.2 * i;
    const auto link = tracker_.step(t, orbiting_tag(t), env_, rates_, rng_);
    if (link.achievable_rate_bps > 0.0) ++connected;
  }
  EXPECT_EQ(connected, kSteps);
  EXPECT_EQ(tracker_.full_scans_used(), 1);  // Acquisition only.
  // Steady-state cost: 3 probes per step (prediction + 2 neighbours),
  // far below the codebook size per step.
  EXPECT_LE(tracker_.probes_used(),
            static_cast<int>(codebook_.size()) + 3 * kSteps);
}

TEST_F(TrackerFixture, PredictionFollowsTheTag) {
  for (int i = 0; i < 10; ++i) {
    const double t = 0.2 * i;
    tracker_.step(t, orbiting_tag(t), env_, rates_, rng_);
  }
  const double t_next = 2.0;
  const channel::Vec2 pos = orbiting_tag(t_next).pose().position;
  const double truth = channel::bearing_rad({0.0, 0.0}, pos);
  EXPECT_NEAR(tracker_.predicted_bearing_rad(t_next), truth,
              phys::deg_to_rad(10.0));
}

TEST_F(TrackerFixture, ReacquiresAfterDisappearance) {
  // Track for a while...
  for (int i = 0; i < 5; ++i) {
    const double t = 0.2 * i;
    tracker_.step(t, orbiting_tag(t), env_, rates_, rng_);
  }
  // ... then the tag teleports to the opposite side of the sector
  // (e.g. it was carried away). The tracker misses and re-acquires with a
  // full scan.
  core::MmTag jumped = core::MmTag::prototype_at(
      core::Pose{{phys::feet_to_m(4.0) * std::cos(-1.0),
                  phys::feet_to_m(4.0) * std::sin(-1.0)},
                 phys::kPi - 1.0});
  int reacquired_at = -1;
  for (int i = 0; i < 8; ++i) {
    const double t = 1.0 + 0.2 * i;
    const auto link = tracker_.step(t, jumped, env_, rates_, rng_);
    if (link.achievable_rate_bps > 0.0) {
      reacquired_at = i;
      break;
    }
  }
  EXPECT_GE(reacquired_at, 0);
  EXPECT_GE(tracker_.full_scans_used(), 2);
}

TEST_F(TrackerFixture, NoTagMeansNoLock) {
  // Tag far beyond any tier: acquisition fails cleanly.
  const core::MmTag ghost = core::MmTag::prototype_at(
      core::Pose{{80.0, 0.0}, phys::kPi});
  const auto link = tracker_.step(0.0, ghost, env_, rates_, rng_);
  EXPECT_FALSE(tracker_.is_locked());
  EXPECT_DOUBLE_EQ(link.achievable_rate_bps, 0.0);
}

// Property: tracking cost per step stays constant (3 probes) across orbit
// speeds the filter can follow.
class TrackerSpeedTest : public ::testing::TestWithParam<double> {};

TEST_P(TrackerSpeedTest, ConstantCostWhileLocked) {
  const double rate_rad_s = GetParam();
  auto rng = sim::make_rng(102);
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-70.0), phys::deg_to_rad(70.0), 17.0);
  BeamTracker tracker(
      BeamScanner(MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
                  PowerDetector::mmtag_default()),
      codebook);
  const channel::OrbitMobility orbit({0.0, 0.0}, phys::feet_to_m(4.0),
                                     rate_rad_s, -0.5);
  const channel::Environment env;
  const auto rates = phy::RateTable::mmtag_standard();
  int connected = 0;
  constexpr int kSteps = 20;
  for (int i = 0; i < kSteps; ++i) {
    const double t = 0.1 * i;
    const channel::Vec2 pos = orbit.position(t);
    const core::MmTag tag = core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, {0.0, 0.0})});
    if (tracker.step(t, tag, env, rates, rng).achievable_rate_bps > 0.0) {
      ++connected;
    }
  }
  EXPECT_GE(connected, kSteps - 1);
  EXPECT_EQ(tracker.full_scans_used(), 1);
}

INSTANTIATE_TEST_SUITE_P(OrbitRates, TrackerSpeedTest,
                         ::testing::Values(0.1, 0.3, 0.6, 1.0));

}  // namespace
}  // namespace mmtag::reader
