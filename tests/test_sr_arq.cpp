// Selective-repeat ARQ: window/block-ACK mechanics, retry budgets, pool
// backpressure, exact timing decomposition, determinism, the window-1
// analytic oracle, and input validation.
#include "src/net/sr_arq.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "src/net/arq.hpp"
#include "src/net/packet.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::net {
namespace {

SrArqConfig clean_config(int window) {
  SrArqConfig config;
  config.window = window;
  config.ack_loss_probability = 0.0;
  return config;
}

TEST(SrArq, PerfectChannelTakesOneRoundPerWindow) {
  SrArqSession session(clean_config(8), {});
  sim::Rng rng = sim::make_rng(1);
  const SrArqResult result = session.run(32, 1.0, rng);
  EXPECT_EQ(result.packets_offered, 32);
  EXPECT_EQ(result.packets_delivered, 32);
  EXPECT_EQ(result.packets_dropped, 0);
  EXPECT_EQ(result.transmissions, 32);
  EXPECT_EQ(result.rounds, 4);          // 32 packets / window 8.
  EXPECT_EQ(result.acks_received, 4);   // One block-ACK per round.
  EXPECT_EQ(result.acks_lost, 0);
  EXPECT_EQ(result.duplicate_receives, 0);
  EXPECT_EQ(result.efficiency(), 1.0);
  ASSERT_EQ(result.delivery_latency_s.size(), 32u);
  // Latencies come back in ascending sequence order; within the single
  // burst each packet lands one slot after its predecessor.
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_GT(result.delivery_latency_s[i], result.delivery_latency_s[i - 1]);
  }
}

TEST(SrArq, ElapsedDecompositionIsExact) {
  SrArqConfig config;
  config.window = 16;
  config.ack_loss_probability = 0.1;
  SrArqSession session(config, {});
  sim::Rng rng = sim::make_rng(7);
  const SrArqResult result = session.run(300, 0.7, rng);
  EXPECT_EQ(result.packets_delivered + result.packets_dropped, 300);
  const SrArqTiming& timing = session.timing();
  const double expected =
      static_cast<double>(result.transmissions) * timing.packet_time_s +
      static_cast<double>(result.acks_received) * timing.ack_time_s +
      static_cast<double>(result.acks_lost) * timing.ack_timeout_s;
  EXPECT_NEAR(result.elapsed_s, expected, 1e-9 * expected);
}

TEST(SrArq, SelectiveRepeatNeverReplaysDeliveredPackets) {
  // With every block-ACK received, the sender knows exactly which
  // sequences are holes — a received packet must never be transmitted
  // again. Zero duplicates is the selective-repeat signature (go-back-N
  // would replay the whole window on every loss).
  SrArqConfig config = clean_config(16);
  config.max_attempts_per_packet = 64;
  SrArqSession session(config, {});
  sim::Rng rng = sim::make_rng(21);
  const SrArqResult result = session.run(200, 0.5, rng);
  EXPECT_EQ(result.packets_delivered, 200);
  EXPECT_EQ(result.duplicate_receives, 0);
  EXPECT_GT(result.transmissions, 200);  // The channel did drop packets.
}

TEST(SrArq, LostAcksReplayTheWindowButDeliverOnce) {
  SrArqConfig config;
  config.window = 8;
  config.ack_loss_probability = 0.5;
  SrArqSession session(config, {});
  sim::Rng rng = sim::make_rng(3);
  const SrArqResult result = session.run(64, 1.0, rng);
  // Replayed bursts reach a receiver that already has the packets:
  // discarded there, so delivery stays exactly-once.
  EXPECT_EQ(result.packets_delivered, 64);
  EXPECT_GT(result.acks_lost, 0);
  EXPECT_GT(result.duplicate_receives, 0);
  EXPECT_EQ(result.transmissions,
            64 + result.duplicate_receives);  // p = 1: every tx arrives.
}

TEST(SrArq, RetryBudgetBoundsTransmissionsAndDropsTheRest) {
  SrArqConfig config = clean_config(4);
  config.max_attempts_per_packet = 2;
  SrArqSession session(config, {});
  sim::Rng rng = sim::make_rng(11);
  const SrArqResult result = session.run(50, 0.05, rng);
  EXPECT_EQ(result.packets_delivered + result.packets_dropped, 50);
  EXPECT_GT(result.packets_dropped, 0);
  EXPECT_LE(result.transmissions, 50 * 2);
}

TEST(SrArq, PoolExhaustionThrottlesTheWindow) {
  SrArqConfig config = clean_config(16);
  SrArqSession session(config, {});
  sim::Rng rng = sim::make_rng(5);
  PacketPool pool(4, config.payload_bytes, kSrHeaderBytes);
  const SrArqResult result = session.run(64, 1.0, rng, &pool);
  // Four slots cap the effective window at 4 packets in flight; the
  // transfer completes anyway, just in more rounds.
  EXPECT_EQ(result.packets_delivered, 64);
  EXPECT_GT(result.pool_stalls, 0);
  EXPECT_GE(result.rounds, 16);
  EXPECT_EQ(pool.stats().peak_in_use, 4u);
  EXPECT_EQ(pool.in_use(), 0u);  // Every slot released on completion.
  EXPECT_GT(pool.stats().exhaustions, 0u);
}

TEST(SrArq, WindowOneDegeneratesToStopAndWait) {
  SrArqSession session(clean_config(1), {});
  sim::Rng rng = sim::make_rng(9);
  const SrArqResult result = session.run(40, 0.8, rng);
  EXPECT_EQ(result.packets_delivered, 40);
  // One packet per round, one ACK per round: exactly the S&W cadence.
  EXPECT_EQ(result.rounds, result.transmissions);
  EXPECT_EQ(result.acks_received, result.rounds);
}

TEST(SrArq, SeededRunsAreBitIdentical) {
  SrArqConfig config;
  config.window = 16;
  config.ack_loss_probability = 0.05;
  SrArqSession session(config, {});
  sim::Rng rng_a = sim::make_rng(42);
  sim::Rng rng_b = sim::make_rng(42);
  const SrArqResult a = session.run(128, 0.6, rng_a);
  const SrArqResult b = session.run(128, 0.6, rng_b);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.acks_lost, b.acks_lost);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);  // Bit-identical, not just close.
  ASSERT_EQ(a.delivery_latency_s.size(), b.delivery_latency_s.size());
  for (std::size_t i = 0; i < a.delivery_latency_s.size(); ++i) {
    EXPECT_EQ(a.delivery_latency_s[i], b.delivery_latency_s[i]);
  }
}

TEST(SrArq, ZeroPacketsFinishImmediately) {
  SrArqSession session(clean_config(8), {});
  sim::Rng rng = sim::make_rng(1);
  const SrArqResult result = session.run(0, 1.0, rng);
  EXPECT_EQ(result.packets_offered, 0);
  EXPECT_EQ(result.rounds, 0);
  EXPECT_EQ(result.elapsed_s, 0.0);
}

TEST(SrArq, AdapterRetunesTimingBetweenRounds) {
  SrArqConfig config = clean_config(2);
  SrArqTiming timing;
  timing.packet_time_s = 1.0;
  timing.ack_time_s = 0.0;
  timing.ack_timeout_s = 0.0;
  SrArqSession session(config, timing);
  sim::Rng rng = sim::make_rng(1);
  int feedback_rounds = 0;
  const SrArqResult result = session.run(
      4, [](double) { return 1.0; }, rng, nullptr,
      [&](const SrRoundFeedback& feedback) {
        EXPECT_EQ(feedback.round_transmitted, 2);
        EXPECT_EQ(feedback.round_delivered, 2);
        ++feedback_rounds;
        SrArqTiming next = timing;
        next.packet_time_s = 2.0;  // "Downshifted" after the first ACK.
        return next;
      });
  EXPECT_EQ(feedback_rounds, 2);
  // Round 1 at 1 s/packet (2 packets), round 2 at 2 s/packet (2 packets).
  EXPECT_DOUBLE_EQ(result.elapsed_s, 2.0 + 4.0);
}

TEST(SrArq, WindowOneMatchesTheAnalyticOracle) {
  // Window 1, unbounded budget: a packet needs Geometric(p) transmissions
  // to arrive, and every lost block-ACK after that costs one duplicate,
  // so E[transmissions per delivered packet] = 1/p + q/(1-q) with
  // variance (1-p)/p^2 + q/(1-q)^2. At q = 0 this is stop-and-wait's
  // closed form. Bound: z = 5 on the seeded sample mean.
  const double p = 0.6;
  const int packets = 20000;
  for (const double q : {0.0, 0.2}) {
    SrArqConfig config;
    config.window = 1;
    config.max_attempts_per_packet = 1 << 30;
    config.ack_loss_probability = q;
    SrArqSession session(config, {});
    sim::Rng rng = sim::make_rng(77);
    const SrArqResult result = session.run(packets, p, rng);
    ASSERT_EQ(result.packets_delivered, packets);
    const double mean = static_cast<double>(result.transmissions) / packets;
    const double variance = (1.0 - p) / (p * p) + q / ((1.0 - q) * (1.0 - q));
    const double bound = 5.0 * std::sqrt(variance / packets);
    EXPECT_NEAR(mean, 1.0 / p + q / (1.0 - q), bound) << "q = " << q;
    if (q == 0.0) {
      ArqConfig stop_and_wait;
      stop_and_wait.query_loss_probability = 0.0;
      EXPECT_NEAR(mean, expected_transmissions_per_frame(p, stop_and_wait),
                  bound);
    }
  }
}

TEST(SrArq, RejectsAWindowOutsideOneToSixtyFour) {
  for (const int window : {0, -1, 65}) {
    EXPECT_THROW(SrArqSession(clean_config(window), {}),
                 std::invalid_argument)
        << "window = " << window;
  }
}

TEST(SrArq, RejectsAnAttemptBudgetBelowOne) {
  SrArqConfig config;
  config.max_attempts_per_packet = 0;
  EXPECT_THROW(SrArqSession(config, {}), std::invalid_argument);
}

TEST(SrArq, RejectsProbabilitiesOutsideTheUnitInterval) {
  for (const double q : {-0.1, 1.5, std::nan("")}) {
    SrArqConfig config;
    config.ack_loss_probability = q;
    EXPECT_THROW(SrArqSession(config, {}), std::invalid_argument);
  }
  SrArqSession session(clean_config(4), {});
  sim::Rng rng = sim::make_rng(1);
  EXPECT_THROW((void)session.run(4, 1.5, rng), std::invalid_argument);
}

TEST(SrArq, RejectsNegativeTimesAndCounts) {
  SrArqTiming packet;
  packet.packet_time_s = -1e-6;
  SrArqTiming ack;
  ack.ack_time_s = -1e-6;
  SrArqTiming timeout;
  timeout.ack_timeout_s = -1e-6;
  for (const SrArqTiming& timing : {packet, ack, timeout}) {
    EXPECT_THROW(SrArqSession(clean_config(4), timing),
                 std::invalid_argument);
  }
  SrArqSession session(clean_config(4), {});
  sim::Rng rng = sim::make_rng(1);
  EXPECT_THROW((void)session.run(-1, 1.0, rng), std::invalid_argument);
}

TEST(SrArq, RejectsAPoolWithNoFreeSlot) {
  // Nothing can free a slot while the session runs, so a dry pool at
  // entry could never move the base packet.
  SrArqSession session(clean_config(4), {});
  sim::Rng rng = sim::make_rng(1);
  PacketPool pool(1, 32, kSrHeaderBytes);
  Packet held = pool.alloc();
  ASSERT_TRUE(held.valid());
  EXPECT_THROW((void)session.run(4, 1.0, rng, &pool), std::invalid_argument);
  EXPECT_EQ(session.run(0, 1.0, rng, &pool).packets_offered, 0);
  held.release();
  EXPECT_EQ(session.run(4, 1.0, rng, &pool).packets_delivered, 4);
}

TEST(SrArq, DropsAreMirroredToTheSrObsCounter) {
  // DESIGN.md Sec. 15: selective-repeat drops land on their own registry
  // counter ("net.arq.exhausted.sr"), distinct from the stop-and-wait
  // session's, one bump per dropped packet.
  auto& counter =
      obs::Registry::instance().counter("net.arq.exhausted.sr");
  const std::uint64_t before = counter.value();
  SrArqConfig config = clean_config(4);
  config.max_attempts_per_packet = 2;
  SrArqSession session(config, {});
  sim::Rng rng = sim::make_rng(12);
  const SrArqResult result = session.run(20, 0.0, rng);  // Dead channel.
  EXPECT_EQ(result.packets_delivered, 0);
  EXPECT_EQ(result.packets_dropped, 20);
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(counter.value(), before + 20);
  } else {
    EXPECT_EQ(counter.value(), before);
  }
}

}  // namespace
}  // namespace mmtag::net
