// SDM inventory and MIMO-reader tests (src/mac/inventory,
// src/mac/mimo_reader).
#include <cmath>

#include <gtest/gtest.h>

#include "src/mac/inventory.hpp"
#include "src/mac/mimo_reader.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::mac {
namespace {

std::vector<core::MmTag> ring_of_tags(int count, channel::Vec2 reader_pos,
                                      double radius_m) {
  std::vector<core::MmTag> tags;
  tags.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Spread tags over a 100-degree arc in front of the reader.
    const double bearing =
        phys::deg_to_rad(-50.0 + 100.0 * i / std::max(1, count - 1));
    const channel::Vec2 pos{
        reader_pos.x + radius_m * std::cos(bearing),
        reader_pos.y + radius_m * std::sin(bearing)};
    // Each tag faces the reader.
    tags.push_back(core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, reader_pos)},
        static_cast<std::uint32_t>(i + 1)));
  }
  return tags;
}

class InventoryFixture : public ::testing::Test {
 protected:
  InventoryFixture()
      : reader_(reader::MmWaveReader::prototype_at(
            core::Pose{{0.0, 0.0}, 0.0})),
        rates_(phy::RateTable::mmtag_standard()),
        codebook_(antenna::uniform_codebook(phys::deg_to_rad(-60.0),
                                            phys::deg_to_rad(60.0), 18.0)),
        rng_(sim::make_rng(51)) {}

  reader::MmWaveReader reader_;
  phy::RateTable rates_;
  channel::Environment env_;
  std::vector<antenna::Beam> codebook_;
  sim::Rng rng_;
};

TEST_F(InventoryFixture, ReadsEveryReachableTag) {
  const auto tags = ring_of_tags(12, {0, 0}, phys::feet_to_m(4.0));
  SdmInventory inventory(reader_, rates_, InventoryConfig{});
  const InventoryResult result =
      inventory.run(codebook_, tags, env_, rng_);
  EXPECT_EQ(result.tags_total, 12);
  EXPECT_EQ(result.tags_read, 12);
  EXPECT_GT(result.total_time_s, 0.0);
  EXPECT_GT(result.aggregate_throughput_bps(96), 0.0);
}

TEST_F(InventoryFixture, UnreachableTagsStayUnread) {
  // One tag far outside the rate table's reach.
  std::vector<core::MmTag> tags = ring_of_tags(3, {0, 0}, 1.0);
  tags.push_back(core::MmTag::prototype_at(
      core::Pose{{60.0, 0.0}, phys::kPi}, 99));
  SdmInventory inventory(reader_, rates_, InventoryConfig{});
  const InventoryResult result =
      inventory.run(codebook_, tags, env_, rng_);
  EXPECT_EQ(result.tags_read, 3);
}

TEST_F(InventoryFixture, DwellTimeScalesWithContention) {
  // Same geometry, more tags per beam: more slots, longer inventory.
  SdmInventory inventory(reader_, rates_, InventoryConfig{});
  const auto few = ring_of_tags(4, {0, 0}, 1.0);
  const auto many = ring_of_tags(32, {0, 0}, 1.0);
  auto rng_few = sim::make_rng(52);
  auto rng_many = sim::make_rng(52);
  const double t_few =
      inventory.run(codebook_, few, env_, rng_few).total_time_s;
  const double t_many =
      inventory.run(codebook_, many, env_, rng_many).total_time_s;
  EXPECT_GT(t_many, t_few);
}

TEST_F(InventoryFixture, EmptySceneIsFast) {
  SdmInventory inventory(reader_, rates_, InventoryConfig{});
  const InventoryResult result =
      inventory.run(codebook_, {}, env_, rng_);
  EXPECT_EQ(result.tags_read, 0);
  EXPECT_DOUBLE_EQ(result.total_time_s, 0.0);  // No responses, no dwells.
}

TEST_F(InventoryFixture, PerBeamRatesReflectDistance) {
  // Tags near 4 ft run at 1 Gbps; tags near 10 ft at 10 Mbps: the beam
  // inventories must carry those link rates.
  std::vector<core::MmTag> tags;
  const channel::Vec2 near_pos{phys::feet_to_m(4.0), 0.0};
  const channel::Vec2 far_pos{0.0, phys::feet_to_m(10.0)};
  tags.push_back(core::MmTag::prototype_at(
      core::Pose{near_pos, phys::kPi}, 1));
  tags.push_back(core::MmTag::prototype_at(
      core::Pose{far_pos, -phys::kPi / 2.0}, 2));
  const auto wide_codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-10.0), phys::deg_to_rad(100.0), 18.0);
  SdmInventory inventory(reader_, rates_, InventoryConfig{});
  const InventoryResult result =
      inventory.run(wide_codebook, tags, env_, rng_);
  ASSERT_EQ(result.beams.size(), 2u);
  double fastest = 0.0;
  double slowest = 1e18;
  for (const BeamInventory& beam : result.beams) {
    fastest = std::max(fastest, beam.link_rate_bps);
    slowest = std::min(slowest, beam.link_rate_bps);
  }
  EXPECT_DOUBLE_EQ(fastest, 1e9);
  EXPECT_DOUBLE_EQ(slowest, 1e7);
}

TEST_F(InventoryFixture, MimoSpeedsUpInventory) {
  const auto tags = ring_of_tags(24, {0, 0}, phys::feet_to_m(4.0));
  MimoInventory mimo(reader_, rates_, InventoryConfig{}, 4);
  auto rng_mimo = sim::make_rng(53);
  const MimoInventoryResult result =
      mimo.run(codebook_, tags, env_, rng_mimo);
  EXPECT_EQ(result.tags_read, 24);
  EXPECT_GT(result.speedup_vs_single, 1.5);
  EXPECT_LE(result.speedup_vs_single, 4.0 + 1e-9);
}

TEST_F(InventoryFixture, SingleChainMimoMatchesSdm) {
  const auto tags = ring_of_tags(8, {0, 0}, 1.0);
  MimoInventory mimo(reader_, rates_, InventoryConfig{}, 1);
  auto rng_a = sim::make_rng(54);
  const MimoInventoryResult result = mimo.run(codebook_, tags, env_, rng_a);
  EXPECT_EQ(result.tags_read, 8);
  EXPECT_NEAR(result.speedup_vs_single, 1.0, 1e-9);
}

// Property: inventory reads everyone for a range of populations (seeded).
class InventoryPopulationTest : public ::testing::TestWithParam<int> {};

TEST_P(InventoryPopulationTest, CompleteReads) {
  const int population = GetParam();
  auto rng = sim::make_rng(55 + static_cast<unsigned>(population));
  const auto reader = reader::MmWaveReader::prototype_at(
      core::Pose{{0.0, 0.0}, 0.0});
  const auto rates = phy::RateTable::mmtag_standard();
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 18.0);
  const channel::Environment env;
  InventoryConfig config;
  config.aloha.max_rounds = 512;
  SdmInventory inventory(reader, rates, config);
  const auto tags = ring_of_tags(population, {0, 0}, 1.0);
  const InventoryResult result = inventory.run(codebook, tags, env, rng);
  EXPECT_EQ(result.tags_read, population);
}

INSTANTIATE_TEST_SUITE_P(Populations, InventoryPopulationTest,
                         ::testing::Values(1, 2, 8, 16, 48));

}  // namespace
}  // namespace mmtag::mac
