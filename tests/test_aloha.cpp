// Framed-slotted-Aloha tests (src/mac/aloha).
#include "src/mac/aloha.hpp"

#include <gtest/gtest.h>

#include "src/sim/rng.hpp"

namespace mmtag::mac {
namespace {

TEST(Aloha, ZeroTagsIsTrivial) {
  auto rng = sim::make_rng(41);
  const AlohaStats stats = run_framed_aloha(0, AlohaConfig{}, rng);
  EXPECT_EQ(stats.tags_read, 0);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_EQ(stats.slots_total, 0);
}

TEST(Aloha, SingleTagReadsQuickly) {
  auto rng = sim::make_rng(42);
  AlohaConfig config;
  config.slot_success_probability = 1.0;
  const AlohaStats stats = run_framed_aloha(1, config, rng);
  EXPECT_EQ(stats.tags_read, 1);
  EXPECT_EQ(stats.slots_collision, 0);
}

TEST(Aloha, AllTagsEventuallyRead) {
  auto rng = sim::make_rng(43);
  AlohaConfig config;
  config.policy = QPolicy::kEpc;
  const AlohaStats stats = run_framed_aloha(40, config, rng);
  EXPECT_EQ(stats.tags_read, 40);
  EXPECT_EQ(stats.tags_total, 40);
  EXPECT_GT(stats.rounds, 1);
}

TEST(Aloha, AccountingAddsUp) {
  auto rng = sim::make_rng(44);
  const AlohaStats stats = run_framed_aloha(25, AlohaConfig{}, rng);
  EXPECT_EQ(stats.slots_total,
            stats.slots_success + stats.slots_collision + stats.slots_empty);
}

TEST(Aloha, EfficiencyBelowTheoreticalOptimum) {
  // Framed Aloha cannot beat 1/e per slot (plus a little luck margin).
  auto rng = sim::make_rng(45);
  AlohaConfig config;
  config.policy = QPolicy::kOptimal;
  config.slot_success_probability = 1.0;
  double total_eff = 0.0;
  constexpr int kReps = 30;
  for (int i = 0; i < kReps; ++i) {
    const AlohaStats stats = run_framed_aloha(32, config, rng);
    total_eff += static_cast<double>(stats.slots_success) /
                 static_cast<double>(stats.slots_total);
  }
  const double mean_eff = total_eff / kReps;
  EXPECT_LT(mean_eff, 0.45);
  EXPECT_GT(mean_eff, 0.25);  // And the genie policy should be near 1/e.
}

TEST(Aloha, OptimalPolicyBeatsBadFixedQ) {
  auto rng = sim::make_rng(46);
  AlohaConfig fixed_small;
  fixed_small.policy = QPolicy::kFixed;
  fixed_small.initial_q = 1;  // 2 slots for 32 tags: collision storm.
  fixed_small.max_rounds = 256;
  AlohaConfig optimal;
  optimal.policy = QPolicy::kOptimal;
  optimal.max_rounds = 256;

  long fixed_slots = 0;
  long optimal_slots = 0;
  constexpr int kReps = 20;
  for (int i = 0; i < kReps; ++i) {
    fixed_slots += run_framed_aloha(32, fixed_small, rng).slots_total;
    optimal_slots += run_framed_aloha(32, optimal, rng).slots_total;
  }
  EXPECT_LT(optimal_slots, fixed_slots);
}

TEST(Aloha, LinkErrorsCostSlots) {
  auto rng = sim::make_rng(47);
  AlohaConfig reliable;
  reliable.slot_success_probability = 1.0;
  AlohaConfig lossy;
  lossy.slot_success_probability = 0.5;
  long reliable_slots = 0;
  long lossy_slots = 0;
  constexpr int kReps = 20;
  for (int i = 0; i < kReps; ++i) {
    reliable_slots += run_framed_aloha(16, reliable, rng).slots_total;
    lossy_slots += run_framed_aloha(16, lossy, rng).slots_total;
  }
  EXPECT_GT(lossy_slots, reliable_slots);
}

TEST(Aloha, MaxRoundsBoundsWork) {
  auto rng = sim::make_rng(48);
  AlohaConfig config;
  config.policy = QPolicy::kFixed;
  config.initial_q = 0;  // One slot per frame: heavy collisions.
  config.max_rounds = 3;
  const AlohaStats stats = run_framed_aloha(10, config, rng);
  EXPECT_LE(stats.rounds, 3);
  EXPECT_LT(stats.tags_read, 10);
}

// Property: every policy eventually reads every tag across population
// sizes (seeded, generous round budget).
struct AlohaCase {
  QPolicy policy;
  int tags;
};

class AlohaCompletionTest : public ::testing::TestWithParam<AlohaCase> {};

TEST_P(AlohaCompletionTest, ReadsEveryone) {
  const AlohaCase param = GetParam();
  auto rng = sim::make_rng(49 + static_cast<unsigned>(param.tags));
  AlohaConfig config;
  config.policy = param.policy;
  config.max_rounds = 512;
  const AlohaStats stats = run_framed_aloha(param.tags, config, rng);
  EXPECT_EQ(stats.tags_read, param.tags);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSizes, AlohaCompletionTest,
    ::testing::Values(AlohaCase{QPolicy::kFixed, 5},
                      AlohaCase{QPolicy::kFixed, 20},
                      AlohaCase{QPolicy::kEpc, 5},
                      AlohaCase{QPolicy::kEpc, 50},
                      AlohaCase{QPolicy::kOptimal, 5},
                      AlohaCase{QPolicy::kOptimal, 50}));

}  // namespace
}  // namespace mmtag::mac
