// Scenario-engine tests (src/sim/scenario).
#include "src/sim/scenario.hpp"

#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::sim {
namespace {

LinkScenario basic_scenario(LinkScenario::Config config = {}) {
  return LinkScenario(
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      phy::RateTable::mmtag_standard(), config);
}

TEST(Scenario, StaticTagStaysConnectedAtGigabit) {
  LinkScenario scenario = basic_scenario();
  scenario.set_tag_trajectory(std::make_shared<channel::LinearMobility>(
      channel::Vec2{phys::feet_to_m(4.0), 0.0}, channel::Vec2{0.0, 0.0}));
  const ScenarioResult result = scenario.run(5.0, 1);
  EXPECT_DOUBLE_EQ(result.connectivity, 1.0);
  EXPECT_EQ(result.full_scans, 1);  // Acquisition only.
  // The hysteresis controller needs a few steps to ramp up, then holds
  // 1 Gbps: mean within 10% of the top tier.
  EXPECT_GT(result.mean_rate_bps, 0.9e9);
  EXPECT_GT(result.delivered_bits, 4.0e9);
}

TEST(Scenario, OrbitingTagTracked) {
  LinkScenario::Config config;
  config.orientation = TagOrientation::kFaceReader;
  LinkScenario scenario = basic_scenario(config);
  scenario.set_tag_trajectory(std::make_shared<channel::OrbitMobility>(
      channel::Vec2{0.0, 0.0}, phys::feet_to_m(4.0), 0.25, -0.5));
  const ScenarioResult result = scenario.run(4.0, 2);
  EXPECT_DOUBLE_EQ(result.connectivity, 1.0);
  EXPECT_EQ(result.full_scans, 1);
}

TEST(Scenario, MovingBlockerCausesNlosSteps) {
  // The wall bounce departs ~33 degrees off the LOS — outside the
  // tracker's cheap 3-probe window — so recovery goes through
  // re-acquisition. The tracker re-scans on the first blocked step; a
  // slow blocker keeps the LOS down long enough for several NLOS steps.
  LinkScenario scenario = basic_scenario();
  channel::Environment corridor;
  corridor.add_wall(
      channel::Wall{channel::Segment{{-2.0, 0.3}, {2.0, 0.3}}, 0.1});
  scenario.set_static_environment(corridor);
  scenario.set_tag_trajectory(std::make_shared<channel::LinearMobility>(
      channel::Vec2{phys::feet_to_m(3.0), 0.0}, channel::Vec2{0.0, 0.0}));
  scenario.add_moving_blocker(
      std::make_shared<channel::LinearMobility>(
          channel::Vec2{0.45, -0.4}, channel::Vec2{0.0, 0.25}),
      0.1);
  const ScenarioResult result = scenario.run(3.2, 3);
  int nlos_steps = 0;
  for (const TimelineRecord& record : result.timeline) {
    if (record.path_kind == channel::PathKind::kReflected) ++nlos_steps;
  }
  EXPECT_GT(nlos_steps, 0);
  // At most the one re-acquisition step is lost.
  EXPECT_GT(result.connectivity, 0.9);
}

TEST(Scenario, FixedWorldOrientationLosesBehindTag) {
  // A trajectory passing behind the tag's ground plane disconnects.
  LinkScenario::Config config;
  config.orientation = TagOrientation::kFixedWorld;
  // The tag always faces -x (toward the reader's sector): connected only
  // on the +x part of the orbit where its front half-plane covers the
  // reader.
  LinkScenario scenario = basic_scenario(config);
  scenario.set_tag_trajectory(std::make_shared<channel::OrbitMobility>(
      channel::Vec2{0.0, 0.0}, phys::feet_to_m(3.0), 0.8, 0.0));
  const ScenarioResult result = scenario.run(8.0, 4);
  EXPECT_LT(result.connectivity, 0.9);
  EXPECT_GT(result.connectivity, 0.1);
}

TEST(Scenario, ControlledRateNeverExceedsInstantaneous) {
  LinkScenario scenario = basic_scenario();
  scenario.set_tag_trajectory(std::make_shared<channel::LinearMobility>(
      channel::Vec2{0.7, 0.0}, channel::Vec2{0.25, 0.0}));  // Walks away.
  const ScenarioResult result = scenario.run(10.0, 5);
  for (const TimelineRecord& record : result.timeline) {
    EXPECT_LE(record.controlled_rate_bps,
              record.instantaneous_rate_bps + 1e-9);
  }
  // Walking from 0.7 m out to 3.2 m crosses at least one tier boundary.
  EXPECT_GE(result.rate_switches, 1);
}

/// Expects `call` to throw std::invalid_argument naming `field`.
void expect_rejected(const std::function<void()>& call,
                     const std::string& field) {
  try {
    call();
    ADD_FAILURE() << "accepted; expected a rejection naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, RejectsAStepThatCannotAdvanceTheClock) {
  // A zero or negative step, an infinite duration and a step below one ulp
  // of the duration would never end the time loop; the other values give
  // no meaningful timeline.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double step_s : {0.0, -0.1, kNaN, kInf}) {
    SCOPED_TRACE(step_s);
    LinkScenario::Config config;
    config.step_s = step_s;
    expect_rejected([&] { (void)basic_scenario(config); },
                    "LinkScenario::Config::step_s");
  }
  for (const double duration_s : {0.0, -1.0, kNaN, kInf}) {
    SCOPED_TRACE(duration_s);
    LinkScenario scenario = basic_scenario();
    scenario.set_tag_trajectory(
        std::make_shared<channel::LinearMobility>(channel::Vec2{1.0, 0.0},
                                                  channel::Vec2{0.0, 0.0}));
    expect_rejected([&] { (void)scenario.run(duration_s, 1); },
                    "duration_s");
  }
  // A step below one ulp of the duration rounds away: t + step == t.
  LinkScenario::Config config;
  config.step_s = 1e-20;
  LinkScenario scenario = basic_scenario(config);
  scenario.set_tag_trajectory(
      std::make_shared<channel::LinearMobility>(channel::Vec2{1.0, 0.0},
                                                channel::Vec2{0.0, 0.0}));
  expect_rejected([&] { (void)scenario.run(1.0, 1); },
                  "LinkScenario::Config::step_s");
}

TEST(Scenario, DeterministicUnderSeed) {
  for (int run = 0; run < 2; ++run) {
    LinkScenario scenario = basic_scenario();
    scenario.set_tag_trajectory(std::make_shared<channel::OrbitMobility>(
        channel::Vec2{0.0, 0.0}, 1.0, 0.3, 0.1));
    const ScenarioResult a = scenario.run(2.0, 42);
    LinkScenario scenario_b = basic_scenario();
    scenario_b.set_tag_trajectory(std::make_shared<channel::OrbitMobility>(
        channel::Vec2{0.0, 0.0}, 1.0, 0.3, 0.1));
    const ScenarioResult b = scenario_b.run(2.0, 42);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.timeline[i].received_power_dbm,
                       b.timeline[i].received_power_dbm);
    }
  }
}

}  // namespace
}  // namespace mmtag::sim
