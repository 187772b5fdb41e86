// Polling-scheduler tests (src/mac/polling).
#include "src/mac/polling.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/mac/inventory.hpp"
#include "src/phy/frame.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::mac {
namespace {

std::vector<core::MmTag> arc_tags(int count, double radius_m) {
  std::vector<core::MmTag> tags;
  for (int i = 0; i < count; ++i) {
    const double bearing =
        phys::deg_to_rad(-50.0 + 100.0 * i / std::max(1, count - 1));
    const channel::Vec2 pos{radius_m * std::cos(bearing),
                            radius_m * std::sin(bearing)};
    tags.push_back(core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, {0.0, 0.0})},
        static_cast<std::uint32_t>(i + 1)));
  }
  return tags;
}

PollingScheduler make_scheduler(PollingConfig config = {}) {
  return PollingScheduler(
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      phy::RateTable::mmtag_standard(), config);
}

TEST(Polling, ReadsEveryReachableTag) {
  auto scheduler = make_scheduler();
  const auto tags = arc_tags(10, phys::feet_to_m(4.0));
  const PollingResult result = scheduler.run_round(tags, {});
  EXPECT_EQ(result.tags_read, 10);
  EXPECT_EQ(result.polls.size(), 10u);
  EXPECT_GT(result.total_time_s, 0.0);
}

TEST(Polling, SkipsUnreachableTags) {
  auto scheduler = make_scheduler();
  auto tags = arc_tags(3, 1.0);
  tags.push_back(core::MmTag::prototype_at(
      core::Pose{{70.0, 0.0}, phys::kPi}, 99));
  const PollingResult result = scheduler.run_round(tags, {});
  EXPECT_EQ(result.tags_read, 3);
  int unreachable = 0;
  for (const PollRecord& record : result.polls) {
    if (!record.reachable) {
      ++unreachable;
      EXPECT_EQ(record.tag_id, 99u);
      EXPECT_DOUBLE_EQ(record.time_s, 0.0);
    }
  }
  EXPECT_EQ(unreachable, 1);
}

TEST(Polling, PerTagTimeMatchesRate) {
  PollingConfig config;
  config.beam_switch_overhead_s = 0.0;
  auto scheduler = make_scheduler(config);
  const auto tags = arc_tags(1, phys::feet_to_m(4.0));
  const PollingResult result = scheduler.run_round(tags, {});
  ASSERT_EQ(result.polls.size(), 1u);
  const PollRecord& record = result.polls[0];
  const double on_air_bits =
      2.0 * static_cast<double>(
                phy::TagFrame::frame_bits(kTagPayloadBits) +
                kPollOverheadBits);
  EXPECT_NEAR(record.time_s, on_air_bits / record.rate_bps, 1e-12);
}

TEST(Polling, NoCollisionsMeansLinearScaling) {
  PollingConfig config;
  auto scheduler = make_scheduler(config);
  const auto few = arc_tags(8, phys::feet_to_m(4.0));
  const auto many = arc_tags(16, phys::feet_to_m(4.0));
  const double t_few = scheduler.run_round(few, {}).total_time_s;
  const double t_many = scheduler.run_round(many, {}).total_time_s;
  // Same arc, same rates: twice the tags within ~2.4x time (beam-switch
  // charges vary slightly with geometry).
  EXPECT_GT(t_many, 1.6 * t_few);
  EXPECT_LT(t_many, 2.6 * t_few);
}

TEST(Polling, BeatsAlohaOnThroughputWithElectronicSteering) {
  // The paper's Sec. 9 intuition quantified: once discovered, polling
  // delivers more identifier bits per second than contention — *provided*
  // beam switching is electronic (microseconds). With a 100 us mechanical
  // dwell, switching dominates gigabit-rate frames and per-tag polling
  // loses to per-beam batch contention (see bench_a3_mac_overhead).
  auto rng = sim::make_rng(111);
  const auto tags = arc_tags(24, phys::feet_to_m(4.0));
  const auto reader =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0});
  const auto rates = phy::RateTable::mmtag_standard();
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 17.0);
  const double kElectronicSwitchS = 2e-6;

  InventoryConfig aloha_config;
  aloha_config.beam_switch_overhead_s = kElectronicSwitchS;
  SdmInventory aloha(reader, rates, aloha_config);
  const InventoryResult discovery =
      aloha.run(codebook, tags, {}, rng);
  ASSERT_EQ(discovery.tags_read, 24);

  PollingConfig polling_config;
  polling_config.beam_switch_overhead_s = kElectronicSwitchS;
  PollingScheduler polling(reader, rates, polling_config);
  const PollingResult steady = polling.run_round(tags, {});
  ASSERT_EQ(steady.tags_read, 24);

  // Same tags read, so the faster round carries more identifier bits/s.
  EXPECT_LT(steady.total_time_s, discovery.total_time_s);
}

TEST(Polling, EmptyPopulation) {
  auto scheduler = make_scheduler();
  const PollingResult result = scheduler.run_round({}, {});
  EXPECT_EQ(result.tags_read, 0);
  EXPECT_DOUBLE_EQ(result.total_time_s, 0.0);
}

// Property: total time equals the sum of per-poll times.
class PollingAccountingTest : public ::testing::TestWithParam<int> {};

TEST_P(PollingAccountingTest, TimesAddUp) {
  auto scheduler = make_scheduler();
  const auto tags = arc_tags(GetParam(), phys::feet_to_m(3.0));
  const PollingResult result = scheduler.run_round(tags, {});
  double sum = 0.0;
  for (const PollRecord& record : result.polls) sum += record.time_s;
  EXPECT_NEAR(result.total_time_s, sum, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PollingAccountingTest,
                         ::testing::Values(1, 2, 5, 12, 30));

}  // namespace
}  // namespace mmtag::mac
