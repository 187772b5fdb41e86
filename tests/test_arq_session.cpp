// ARQ and transfer-session tests (src/net/arq, src/net/session).
#include <cmath>

#include <gtest/gtest.h>

#include "src/net/arq.hpp"
#include "src/net/session.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::net {
namespace {

TEST(Arq, PerfectChannelIsOneShot) {
  auto rng = sim::make_rng(141);
  const ArqStats stats = run_stop_and_wait(50, 1.0, ArqConfig{}, rng);
  EXPECT_EQ(stats.frames_delivered, 50);
  EXPECT_EQ(stats.transmissions, 50);
  EXPECT_EQ(stats.frames_failed, 0);
  EXPECT_DOUBLE_EQ(stats.efficiency(), 1.0);
}

TEST(Arq, DeadChannelDeliversNothing) {
  auto rng = sim::make_rng(142);
  const ArqStats stats = run_stop_and_wait(10, 0.0, ArqConfig{}, rng);
  EXPECT_EQ(stats.frames_delivered, 0);
  EXPECT_EQ(stats.frames_failed, 10);
}

TEST(Arq, RetransmissionCountMatchesGeometric) {
  auto rng = sim::make_rng(143);
  ArqConfig config;
  config.query_loss_probability = 0.0;
  const double p = 0.5;
  const ArqStats stats = run_stop_and_wait(4000, p, config, rng);
  EXPECT_EQ(stats.frames_delivered, 4000);  // 16 attempts is plenty at 0.5.
  const double measured =
      static_cast<double>(stats.transmissions) / stats.frames_delivered;
  EXPECT_NEAR(measured, 1.0 / p, 0.1);
}

TEST(Arq, QueryLossesAccounted) {
  auto rng = sim::make_rng(144);
  ArqConfig config;
  config.query_loss_probability = 0.3;
  const ArqStats stats = run_stop_and_wait(2000, 0.5, config, rng);
  EXPECT_GT(stats.query_failures, 0);
  EXPECT_EQ(stats.frames_offered, 2000);
}

TEST(Arq, ClosedFormMatchesSimulation) {
  auto rng = sim::make_rng(145);
  ArqConfig config;
  const double p = 0.7;
  const ArqStats stats = run_stop_and_wait(5000, p, config, rng);
  const double predicted = expected_transmissions_per_frame(p, config);
  const double measured =
      static_cast<double>(stats.transmissions) / stats.frames_delivered;
  EXPECT_NEAR(measured, predicted, predicted * 0.08);
}

TEST(Arq, GoodputFactorInRange) {
  const ArqConfig config;
  EXPECT_DOUBLE_EQ(arq_goodput_factor(0.0, config), 0.0);
  EXPECT_GT(arq_goodput_factor(0.99, config), 0.9);
  EXPECT_LE(arq_goodput_factor(1.0, config), 1.0);
  EXPECT_GT(arq_goodput_factor(0.5, config),
            arq_goodput_factor(0.25, config));
}

TEST(Arq, RequeryBudgetIsIndependentOfFrameRetries) {
  // Heavy query loss must not starve the transmission budget: a lost
  // re-query never reached the tag, so it burns the re-query budget and
  // the per-frame transmission count stays geometric in p alone.
  auto rng = sim::make_rng(146);
  ArqConfig config;
  config.query_loss_probability = 0.5;
  config.max_requeries_per_frame = 100;
  const double p = 0.5;
  const ArqStats stats = run_stop_and_wait(4000, p, config, rng);
  EXPECT_EQ(stats.frames_delivered, 4000);
  EXPECT_EQ(stats.requery_exhausted, 0);
  EXPECT_GT(stats.query_failures, 0);
  const double measured =
      static_cast<double>(stats.transmissions) / stats.frames_delivered;
  EXPECT_NEAR(measured, 1.0 / p, 0.1);  // Unchanged by q = 0.5.
}

TEST(Arq, RequeryExhaustionTerminatesAndIsCounted) {
  // A silent tag behind a channel that loses every re-query: each frame
  // costs exactly one transmission (the first attempt needs no re-query),
  // then drains the whole re-query budget and gives up.
  auto rng = sim::make_rng(147);
  ArqConfig config;
  config.query_loss_probability = 1.0;
  const ArqStats stats = run_stop_and_wait(10, 0.0, config, rng);
  EXPECT_EQ(stats.frames_delivered, 0);
  EXPECT_EQ(stats.frames_failed, 10);
  EXPECT_EQ(stats.requery_exhausted, 10);
  EXPECT_EQ(stats.transmissions, 10);
  EXPECT_EQ(stats.query_failures,
            10L * config.max_requeries_per_frame);
  EXPECT_DOUBLE_EQ(stats.efficiency(), 0.0);
}

reader::LinkReport link_with_power(double dbm) {
  reader::LinkReport link;
  link.received_power_dbm = dbm;
  return link;
}

TEST(Session, StrongLinkGoodputNearLinkRate) {
  const TransferSession session = TransferSession::mmtag_default();
  // -55 dBm: ~21 dB SNR in the 2 GHz tier — essentially loss-free.
  const SessionReport report = session.analyze(link_with_power(-55.0), 1e6);
  EXPECT_DOUBLE_EQ(report.link_rate_bps, 1e9);
  EXPECT_GT(report.frame_success, 0.999);
  EXPECT_GT(report.arq_efficiency, 0.95);
  // Goodput loses only the header + Manchester tax: ~34% of chip rate
  // (Manchester alone halves it; preamble/id/len/CRC + fragment header
  // take the rest).
  EXPECT_GT(report.goodput_bps, 0.30 * report.link_rate_bps);
  EXPECT_LT(report.goodput_bps, 0.5 * report.link_rate_bps);
}

TEST(Session, DeadLinkReportsUnusable) {
  const TransferSession session = TransferSession::mmtag_default();
  const SessionReport report =
      session.analyze(link_with_power(-120.0), 1e6);
  EXPECT_FALSE(report.usable());
  EXPECT_TRUE(std::isinf(
      session.transfer_time_s(link_with_power(-120.0), 1e6)));
}

TEST(Session, MarginalLinkPaysArqTax) {
  const TransferSession session = TransferSession::mmtag_default();
  // Just above the 1 Gbps threshold: SNR ~ 7.3 dB, chip BER ~ 1e-2 —
  // frames die constantly and ARQ eats the goodput.
  const SessionReport marginal =
      session.analyze(link_with_power(-68.5), 1e6);
  const SessionReport comfortable =
      session.analyze(link_with_power(-60.0), 1e6);
  EXPECT_DOUBLE_EQ(marginal.link_rate_bps, comfortable.link_rate_bps);
  EXPECT_LT(marginal.arq_efficiency, comfortable.arq_efficiency);
  EXPECT_LT(marginal.goodput_bps, comfortable.goodput_bps);
}

TEST(Session, FragmentCountMatchesMtu) {
  const TransferSession session = TransferSession::mmtag_default();
  const SessionReport report =
      session.analyze(link_with_power(-55.0), 10'000);
  // MTU 256 - 24 header = 232 chunk bits -> ceil(10000/232) = 44.
  EXPECT_EQ(report.frames_per_payload, 44u);
}

TEST(Session, TransferTimeScalesWithPayload) {
  const TransferSession session = TransferSession::mmtag_default();
  const auto link = link_with_power(-60.0);
  const double t1 = session.transfer_time_s(link, 1'000'000);
  const double t2 = session.transfer_time_s(link, 2'000'000);
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
}

// Property: goodput is monotone nondecreasing in received power.
class SessionMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(SessionMonotoneTest, GoodputMonotone) {
  const double dbm = GetParam();
  const TransferSession session = TransferSession::mmtag_default();
  EXPECT_LE(session.analyze(link_with_power(dbm), 1e5).goodput_bps,
            session.analyze(link_with_power(dbm + 3.0), 1e5).goodput_bps +
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Powers, SessionMonotoneTest,
                         ::testing::Values(-95.0, -88.0, -80.0, -72.0,
                                           -68.0, -60.0));

}  // namespace
}  // namespace mmtag::net
