// Fragmentation/reassembly tests (src/net/fragmentation).
#include "src/net/fragmentation.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/sim/rng.hpp"

namespace mmtag::net {
namespace {

phy::BitVector random_payload(std::size_t bits, sim::Rng& rng) {
  std::bernoulli_distribution coin(0.5);
  phy::BitVector payload(bits);
  for (std::size_t i = 0; i < bits; ++i) payload[i] = coin(rng);
  return payload;
}

TEST(Fragmentation, SingleFrameWhenPayloadFits) {
  auto rng = sim::make_rng(131);
  const phy::BitVector payload = random_payload(100, rng);
  const auto frames = fragment_payload(7, payload, 256);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].tag_id, 7u);
  EXPECT_EQ(frames[0].payload.size(), kFragmentHeaderBits + 100);
}

TEST(Fragmentation, SplitsAtMtu) {
  auto rng = sim::make_rng(132);
  // MTU 128 -> 104 chunk bits; 300 bits -> 3 fragments.
  const phy::BitVector payload = random_payload(300, rng);
  const auto frames = fragment_payload(1, payload, 128);
  EXPECT_EQ(frames.size(), 3u);
  // Last fragment carries the remainder.
  EXPECT_EQ(frames[2].payload.size(), kFragmentHeaderBits + 300 - 2 * 104);
}

TEST(Fragmentation, EmptyPayloadStillSignals) {
  const auto frames = fragment_payload(2, {}, 64);
  ASSERT_EQ(frames.size(), 1u);
  Reassembler reassembler;
  EXPECT_TRUE(reassembler.accept(frames[0]));
  EXPECT_TRUE(reassembler.complete());
  ASSERT_TRUE(reassembler.payload().has_value());
  EXPECT_TRUE(reassembler.payload()->empty());
}

TEST(Reassembly, InOrderRoundTrip) {
  auto rng = sim::make_rng(133);
  const phy::BitVector payload = random_payload(1000, rng);
  const auto frames = fragment_payload(9, payload, 200);
  Reassembler reassembler;
  for (const auto& frame : frames) {
    EXPECT_TRUE(reassembler.accept(frame));
  }
  ASSERT_TRUE(reassembler.complete());
  EXPECT_EQ(*reassembler.payload(), payload);
}

TEST(Reassembly, OutOfOrderAndDuplicates) {
  auto rng = sim::make_rng(134);
  const phy::BitVector payload = random_payload(777, rng);
  auto frames = fragment_payload(9, payload, 128);
  ASSERT_GE(frames.size(), 3u);
  std::shuffle(frames.begin(), frames.end(), rng);
  Reassembler reassembler;
  for (const auto& frame : frames) {
    EXPECT_TRUE(reassembler.accept(frame));
    // Duplicate delivery of a pending fragment is tolerated — except when
    // the transfer just completed, where any further frame is rejected.
    EXPECT_EQ(reassembler.accept(frame), !reassembler.complete());
  }
  ASSERT_TRUE(reassembler.complete());
  EXPECT_EQ(*reassembler.payload(), payload);
  EXPECT_EQ(reassembler.fragments_received(), frames.size());
}

TEST(Reassembly, RejectsAfterCompleteWithoutMutation) {
  auto rng = sim::make_rng(137);
  const phy::BitVector payload = random_payload(300, rng);
  const auto frames = fragment_payload(3, payload, 128);
  Reassembler reassembler;
  for (const auto& frame : frames) {
    ASSERT_TRUE(reassembler.accept(frame));
  }
  ASSERT_TRUE(reassembler.complete());
  // A duplicate (or any other frame) after completion must be refused and
  // must leave the finished payload and the counters untouched.
  EXPECT_FALSE(reassembler.accept(frames[0]));
  const auto next = fragment_payload(3, random_payload(50, rng), 128);
  EXPECT_FALSE(reassembler.accept(next[0]));
  EXPECT_TRUE(reassembler.complete());
  EXPECT_EQ(reassembler.fragments_received(), frames.size());
  EXPECT_EQ(*reassembler.payload(), payload);
}

TEST(Reassembly, InconsistentFramesDoNotMutateState) {
  auto rng = sim::make_rng(138);
  const phy::BitVector payload = random_payload(500, rng);
  const auto frames = fragment_payload(1, payload, 128);
  ASSERT_GE(frames.size(), 3u);
  Reassembler reassembler;
  ASSERT_TRUE(reassembler.accept(frames[0]));
  const std::size_t received = reassembler.fragments_received();
  const std::size_t expected = reassembler.fragments_expected();
  // Wrong tag and inconsistent total are refused without side effects.
  const auto other_tag = fragment_payload(2, random_payload(500, rng), 128);
  const auto other_total = fragment_payload(1, random_payload(999, rng), 128);
  EXPECT_FALSE(reassembler.accept(other_tag[1]));
  EXPECT_FALSE(reassembler.accept(other_total[1]));
  EXPECT_EQ(reassembler.fragments_received(), received);
  EXPECT_EQ(reassembler.fragments_expected(), expected);
  // The transfer still finishes normally afterwards.
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_TRUE(reassembler.accept(frames[i]));
  }
  ASSERT_TRUE(reassembler.complete());
  EXPECT_EQ(*reassembler.payload(), payload);
}

TEST(Fragmentation, MaxFragmentBoundaryIsExact) {
  // MTU 25 -> 1 chunk bit per fragment, so payload bits == fragment count.
  // 4095 fragments is the last representable transfer; 4096 would wrap the
  // 12-bit seq/total header and must be rejected outright.
  const std::size_t mtu = kFragmentHeaderBits + 1;
  EXPECT_EQ(max_payload_bits(mtu), kMaxFragments);
  auto rng = sim::make_rng(139);
  const phy::BitVector at_limit = random_payload(kMaxFragments, rng);
  const auto frames = fragment_payload(5, at_limit, mtu);
  ASSERT_EQ(frames.size(), kMaxFragments);
  // The header survives intact at the boundary: last seq is 4094/4095.
  std::size_t offset = 0;
  EXPECT_EQ(phy::read_uint(frames.back().payload, offset, 12),
            kMaxFragments - 1);
  EXPECT_EQ(phy::read_uint(frames.back().payload, offset, 12),
            kMaxFragments);
  Reassembler reassembler;
  for (const auto& frame : frames) {
    ASSERT_TRUE(reassembler.accept(frame));
  }
  ASSERT_TRUE(reassembler.complete());
  EXPECT_EQ(*reassembler.payload(), at_limit);

  const phy::BitVector over_limit = random_payload(kMaxFragments + 1, rng);
  EXPECT_TRUE(fragment_payload(5, over_limit, mtu).empty());
}

TEST(Reassembly, RejectsGarbage) {
  Reassembler reassembler;
  phy::TagFrame truncated;
  truncated.payload = phy::BitVector(10, true);  // Shorter than the header.
  EXPECT_FALSE(reassembler.accept(truncated));

  // seq >= total is invalid.
  phy::TagFrame bad;
  phy::append_uint(bad.payload, 5, 12);
  phy::append_uint(bad.payload, 3, 12);
  EXPECT_FALSE(reassembler.accept(bad));
}

TEST(Reassembly, RejectsForeignFragments) {
  auto rng = sim::make_rng(135);
  const auto mine = fragment_payload(1, random_payload(300, rng), 128);
  const auto other_tag = fragment_payload(2, random_payload(300, rng), 128);
  const auto other_total = fragment_payload(1, random_payload(600, rng), 128);
  Reassembler reassembler;
  EXPECT_TRUE(reassembler.accept(mine[0]));
  EXPECT_FALSE(reassembler.accept(other_tag[0]));    // Wrong tag id.
  EXPECT_FALSE(reassembler.accept(other_total[4]));  // Wrong total count.
  EXPECT_FALSE(reassembler.complete());
}

// Property: round trip for assorted payload sizes and MTUs.
struct FragCase {
  std::size_t payload_bits;
  std::size_t mtu;
};

class FragmentationRoundTripTest
    : public ::testing::TestWithParam<FragCase> {};

TEST_P(FragmentationRoundTripTest, RoundTrips) {
  const FragCase param = GetParam();
  auto rng = sim::make_rng(136 + param.payload_bits);
  const phy::BitVector payload = random_payload(param.payload_bits, rng);
  const auto frames = fragment_payload(42, payload, param.mtu);
  Reassembler reassembler;
  for (const auto& frame : frames) {
    ASSERT_TRUE(reassembler.accept(frame));
    // Every frame payload respects the MTU.
    EXPECT_LE(frame.payload.size(), param.mtu);
  }
  ASSERT_TRUE(reassembler.complete());
  EXPECT_EQ(*reassembler.payload(), payload);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FragmentationRoundTripTest,
    ::testing::Values(FragCase{1, 64}, FragCase{40, 64},
                      FragCase{41, 65}, FragCase{4096, 256},
                      FragCase{10000, 512}, FragCase{97, 25}));

}  // namespace
}  // namespace mmtag::net
