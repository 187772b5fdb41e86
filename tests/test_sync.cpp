// Frame-synchronization tests (src/phy/sync + ReceiveChain::receive_stream).
#include "src/phy/sync.hpp"

#include <gtest/gtest.h>

#include "src/phy/waveform.hpp"
#include "src/reader/receive_chain.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::phy {
namespace {

// A stream containing `frame` starting at `offset` samples, padded with
// noise-only guard samples on both sides.
Waveform stream_with_frame(const reader::ReceiveChain& chain,
                           const TagFrame& frame, std::size_t offset,
                           std::size_t tail, double snr_db,
                           sim::Rng& rng) {
  const Waveform body = chain.encode(frame);
  Waveform stream(offset, Complex(0.0, 0.0));
  stream.insert(stream.end(), body.begin(), body.end());
  stream.insert(stream.end(), tail, Complex(0.0, 0.0));
  add_awgn(stream, noise_power_for_snr(mean_power(body), snr_db), rng);
  return stream;
}

TagFrame make_frame(std::uint32_t id, sim::Rng& rng) {
  std::bernoulli_distribution coin(0.5);
  TagFrame frame;
  frame.tag_id = id;
  frame.payload.resize(96);
  for (std::size_t i = 0; i < 96; ++i) frame.payload[i] = coin(rng);
  return frame;
}

TEST(Sync, TemplateHasZeroMean) {
  const FrameSynchronizer sync(SyncConfig{});
  double sum = 0.0;
  for (const double v : sync.preamble_template()) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(Sync, PerfectAlignmentScoresNearOne) {
  auto rng = sim::make_rng(151);
  const reader::ReceiveChain chain(reader::ReceiveChain::Params{8, true});
  const FrameSynchronizer sync(SyncConfig{});
  const Waveform body = chain.encode(make_frame(1, rng));
  EXPECT_GT(sync.correlate_at(body, 0), 0.95);
}

TEST(Sync, ShortStreamFindsNothing) {
  const FrameSynchronizer sync(SyncConfig{});
  const Waveform tiny(10, Complex(1.0, 0.0));
  EXPECT_FALSE(sync.find_frame_start(tiny).has_value());
  EXPECT_TRUE(sync.find_all_frames(tiny).empty());
}

TEST(Sync, PureNoiseRejected) {
  auto rng = sim::make_rng(152);
  Waveform noise(4000, Complex(0.0, 0.0));
  add_awgn(noise, 1.0, rng);
  const FrameSynchronizer sync(SyncConfig{});
  const auto hit = sync.find_frame_start(noise);
  EXPECT_FALSE(hit.has_value());
}

TEST(Sync, RecoversKnownOffset) {
  auto rng = sim::make_rng(153);
  const reader::ReceiveChain chain(reader::ReceiveChain::Params{8, true});
  const std::size_t offset = 731;
  const Waveform stream = stream_with_frame(chain, make_frame(2, rng),
                                            offset, 500, 20.0, rng);
  const FrameSynchronizer sync(SyncConfig{});
  const auto hit = sync.find_frame_start(stream);
  ASSERT_TRUE(hit.has_value());
  // Within half a symbol of the truth.
  EXPECT_NEAR(static_cast<double>(hit->offset_samples),
              static_cast<double>(offset), 4.0);
}

TEST(Sync, StreamDecodeEndToEnd) {
  auto rng = sim::make_rng(154);
  const reader::ReceiveChain chain(reader::ReceiveChain::Params{8, true});
  const TagFrame frame = make_frame(77, rng);
  const Waveform stream =
      stream_with_frame(chain, frame, 333, 600, 18.0, rng);
  const auto results = chain.receive_stream(stream);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].frame.has_value());
  EXPECT_TRUE(*results[0].frame == frame);
}

TEST(Sync, TwoFramesInOneStream) {
  auto rng = sim::make_rng(155);
  const reader::ReceiveChain chain(reader::ReceiveChain::Params{8, true});
  const TagFrame first = make_frame(1, rng);
  const TagFrame second = make_frame(2, rng);
  const Waveform body1 = chain.encode(first);
  const Waveform body2 = chain.encode(second);

  Waveform stream(200, Complex(0.0, 0.0));
  stream.insert(stream.end(), body1.begin(), body1.end());
  stream.insert(stream.end(), 400, Complex(0.0, 0.0));  // Inter-frame gap.
  stream.insert(stream.end(), body2.begin(), body2.end());
  stream.insert(stream.end(), 200, Complex(0.0, 0.0));
  add_awgn(stream, noise_power_for_snr(mean_power(body1), 22.0), rng);

  const auto results = chain.receive_stream(stream);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].frame.has_value());
  ASSERT_TRUE(results[1].frame.has_value());
  EXPECT_EQ(results[0].frame->tag_id, 1u);
  EXPECT_EQ(results[1].frame->tag_id, 2u);
}

// Property: sync recovers the frame across a range of offsets and SNRs.
struct SyncCase {
  std::size_t offset;
  double snr_db;
};

class SyncRecoveryTest : public ::testing::TestWithParam<SyncCase> {};

TEST_P(SyncRecoveryTest, FindsAndDecodes) {
  const SyncCase param = GetParam();
  auto rng = sim::make_rng(156 + param.offset);
  const reader::ReceiveChain chain(reader::ReceiveChain::Params{8, true});
  const TagFrame frame = make_frame(9, rng);
  const Waveform stream = stream_with_frame(chain, frame, param.offset, 300,
                                            param.snr_db, rng);
  const auto results = chain.receive_stream(stream);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].frame.has_value());
  EXPECT_TRUE(*results[0].frame == frame);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SyncRecoveryTest,
    ::testing::Values(SyncCase{0, 20.0}, SyncCase{1, 20.0},
                      SyncCase{17, 16.0}, SyncCase{256, 16.0},
                      SyncCase{1023, 14.0}));

}  // namespace
}  // namespace mmtag::phy
