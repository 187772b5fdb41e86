// Receive-chain tests (src/reader/receive_chain).
#include "src/reader/receive_chain.hpp"

#include <gtest/gtest.h>

#include "src/phy/waveform.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::reader {
namespace {

phy::TagFrame make_frame(std::uint32_t id, std::size_t payload_bits,
                         sim::Rng& rng) {
  std::bernoulli_distribution coin(0.5);
  phy::TagFrame frame;
  frame.tag_id = id;
  frame.payload.resize(payload_bits);
  for (std::size_t i = 0; i < payload_bits; ++i) frame.payload[i] = coin(rng);
  return frame;
}

TEST(ReceiveChain, CleanRoundTrip) {
  auto rng = sim::make_rng(31);
  const ReceiveChain chain(ReceiveChain::Params{8, true});
  const phy::TagFrame frame = make_frame(0xABCD1234, 96, rng);
  const phy::Waveform wave = chain.encode(frame);
  const ReceiveResult result = chain.receive(wave);
  EXPECT_TRUE(result.preamble_ok);
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.invalid_line_pairs, 0u);
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_TRUE(*result.frame == frame);
}

TEST(ReceiveChain, WorksWithoutManchester) {
  auto rng = sim::make_rng(32);
  const ReceiveChain chain(ReceiveChain::Params{8, false});
  const phy::TagFrame frame = make_frame(7, 40, rng);
  const ReceiveResult result = chain.receive(chain.encode(frame));
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_TRUE(*result.frame == frame);
}

TEST(ReceiveChain, SurvivesModerateNoise) {
  auto rng = sim::make_rng(33);
  const ReceiveChain chain(ReceiveChain::Params{8, true});
  const phy::TagFrame frame = make_frame(42, 96, rng);
  phy::Waveform wave = chain.encode(frame);
  phy::add_awgn(wave, phy::noise_power_for_snr(phy::mean_power(wave), 18.0),
                rng);
  const ReceiveResult result = chain.receive(wave);
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_TRUE(*result.frame == frame);
}

TEST(ReceiveChain, HeavyNoiseFailsCrcNotSilently) {
  auto rng = sim::make_rng(34);
  const ReceiveChain chain(ReceiveChain::Params{4, true});
  const phy::TagFrame frame = make_frame(42, 256, rng);
  phy::Waveform wave = chain.encode(frame);
  phy::add_awgn(wave, phy::noise_power_for_snr(phy::mean_power(wave), -6.0),
                rng);
  const ReceiveResult result = chain.receive(wave);
  EXPECT_FALSE(result.frame.has_value());
  EXPECT_FALSE(result.crc_ok);
  EXPECT_GT(result.demodulated_bits, 0u);
}

TEST(ReceiveChain, FiniteTagContrastStillDecodes) {
  // Encode with the tag's real ~11 dB modulation depth instead of ideal
  // on/off; the blind threshold must still split the clusters.
  auto rng = sim::make_rng(35);
  const ReceiveChain chain(ReceiveChain::Params{8, true});
  const phy::TagFrame frame = make_frame(9, 96, rng);
  phy::Waveform wave = chain.encode(frame, /*modulation_depth_db=*/11.0);
  phy::add_awgn(wave, phy::noise_power_for_snr(phy::mean_power(wave), 22.0),
                rng);
  const ReceiveResult result = chain.receive(wave);
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_TRUE(*result.frame == frame);
}

TEST(ReceiveChain, EmptyInputYieldsNothing) {
  const ReceiveChain chain(ReceiveChain::Params{8, true});
  const ReceiveResult result = chain.receive(phy::Waveform{});
  EXPECT_FALSE(result.frame.has_value());
  EXPECT_FALSE(result.preamble_ok);
  EXPECT_EQ(result.demodulated_bits, 0u);
}

// Property: round trip holds across payload sizes.
class ChainPayloadTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainPayloadTest, RoundTrips) {
  auto rng = sim::make_rng(36 + GetParam());
  const ReceiveChain chain(ReceiveChain::Params{8, true});
  const phy::TagFrame frame = make_frame(1000 + GetParam(), GetParam(), rng);
  const ReceiveResult result = chain.receive(chain.encode(frame));
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_TRUE(*result.frame == frame);
}

INSTANTIATE_TEST_SUITE_P(Payloads, ChainPayloadTest,
                         ::testing::Values(0u, 1u, 8u, 96u, 512u, 1500u));

}  // namespace
}  // namespace mmtag::reader
