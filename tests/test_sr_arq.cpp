// Selective-repeat ARQ: window/block-ACK mechanics, retry budgets, exact
// timing decomposition, determinism, the window-1 analytic oracle, input
// validation, and a differential check of the mask-window session against
// a per-sequence reference loop.
#include "src/net/sr_arq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/net/arq.hpp"
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
  const SrArqTiming timing;
  SrArqSession session(config, timing);
  sim::Rng rng = sim::make_rng(7);
  const SrArqResult result = session.run(300, 0.7, rng);
  EXPECT_EQ(result.packets_delivered + result.packets_dropped, 300);
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
      4, [](double) { return 1.0; }, rng,
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
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double seconds : {-1e-6, kInf}) {
    SrArqTiming packet;
    packet.packet_time_s = seconds;
    SrArqTiming ack;
    ack.ack_time_s = seconds;
    SrArqTiming timeout;
    timeout.ack_timeout_s = seconds;
    for (const SrArqTiming& timing : {packet, ack, timeout}) {
      EXPECT_THROW(SrArqSession(clean_config(4), timing),
                   std::invalid_argument);
    }
  }
  SrArqSession session(clean_config(4), {});
  sim::Rng rng = sim::make_rng(1);
  EXPECT_THROW((void)session.run(-1, 1.0, rng), std::invalid_argument);
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

/// The session as a per-sequence loop: a byte flag, attempt count and
/// receive time for every sequence, byte-flag scans across the window and
/// std::uniform_real_distribution coins. SrArqSession::run must return
/// what this returns, bit for bit, and leave the engine where it leaves it.
SrArqResult reference_run(const SrArqConfig& config, SrArqTiming timing,
                          int total, const ChannelFn& channel,
                          sim::Rng& rng, const AdaptFn& adapt) {
  const auto n = static_cast<std::size_t>(total);
  SrArqResult result;
  result.packets_offered = total;
  std::vector<std::uint8_t> acked(n, 0);
  std::vector<std::uint8_t> dropped(n, 0);
  std::vector<std::uint8_t> received(n, 0);
  std::vector<int> attempts(n, 0);
  std::vector<double> receive_time_s(n, 0.0);
  std::vector<int> burst;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const auto sender_closed = [&](std::size_t u) {
    return acked[u] != 0 || dropped[u] != 0;
  };

  double now_s = 0.0;
  int base = 0;
  while (true) {
    const int reap_end = std::min(total, base + config.window);
    for (int seq = base; seq < reap_end; ++seq) {
      const auto u = static_cast<std::size_t>(seq);
      if (!sender_closed(u) && attempts[u] >= config.max_attempts_per_packet) {
        dropped[u] = 1;
        ++result.packets_dropped;
      }
    }
    while (base < total && sender_closed(static_cast<std::size_t>(base))) {
      ++base;
    }
    if (base >= total) break;

    burst.clear();
    const int window_end = std::min(total, base + config.window);
    for (int seq = base; seq < window_end; ++seq) {
      if (!sender_closed(static_cast<std::size_t>(seq))) burst.push_back(seq);
    }
    ++result.rounds;
    int k = 0;
    for (const int seq : burst) {
      const auto u = static_cast<std::size_t>(seq);
      ++attempts[u];
      ++result.transmissions;
      const double arrival_s = now_s + (k + 1) * timing.packet_time_s;
      const double p = channel(arrival_s);
      if (coin(rng) < p) {
        if (received[u] != 0) {
          ++result.duplicate_receives;
        } else {
          received[u] = 1;
          ++result.packets_delivered;
          receive_time_s[u] = arrival_s;
        }
      }
      ++k;
    }
    now_s += static_cast<double>(burst.size()) * timing.packet_time_s;

    if (coin(rng) < config.ack_loss_probability) {
      ++result.acks_lost;
      now_s += timing.ack_timeout_s;
      continue;
    }
    ++result.acks_received;
    int newly_acked = 0;
    for (int seq = base; seq < window_end; ++seq) {
      const auto u = static_cast<std::size_t>(seq);
      if (received[u] != 0 && acked[u] == 0) {
        acked[u] = 1;
        ++newly_acked;
      }
    }
    if (adapt) {
      SrRoundFeedback feedback;
      feedback.round_transmitted = static_cast<int>(burst.size());
      feedback.round_delivered = newly_acked;
      timing = adapt(feedback);
    }
    now_s += timing.ack_time_s;
  }

  result.elapsed_s = now_s;
  result.delivery_latency_s.reserve(
      static_cast<std::size_t>(result.packets_delivered));
  for (std::size_t u = 0; u < n; ++u) {
    if (received[u] != 0) result.delivery_latency_s.push_back(receive_time_s[u]);
  }
  return result;
}

/// How the differential configs' channels behave over session time.
enum class ChannelShape { kConstant, kStep, kOutage, kDead };

TEST(SrArq, MatchesThePerSequenceReference) {
  // A seeded table: every window at and around the mask edges (no digest
  // runs a window above 32), ACK loss from none to total (with a budget
  // of at most three attempts at total loss, so the run ends), budgets
  // 1-20, 0-300 packets (below the window and off its multiples), a
  // channel that changes level or goes out mid-transfer, and an adapter
  // that retimes every acknowledged round. Every field must match, the
  // doubles by ==, and so must the engine's next draw, the channel's
  // arrival instants and the adapter's feedback.
  const SrArqTiming timing{1e-5, 2e-6, 1.2e-5};
  sim::Rng table = sim::make_rng(0x5EA5);
  int configs = 0;
  for (const int window : {1, 2, 31, 32, 33, 63, 64}) {
    const std::vector<int> packet_counts = {
        0, 1, window - 1, window, window + 1, 2 * window + 3, 97, 300};
    for (const double ack_loss : {0.0, 0.01, 0.5, 1.0}) {
      for (const ChannelShape shape :
           {ChannelShape::kConstant, ChannelShape::kStep,
            ChannelShape::kOutage, ChannelShape::kDead}) {
        for (const bool adapting : {false, true}) {
          for (const int packets : packet_counts) {
            SrArqConfig config;
            config.window = window;
            config.ack_loss_probability = ack_loss;
            config.max_attempts_per_packet =
                ack_loss == 1.0 ? 1 + static_cast<int>(table() % 3)
                                : 1 + static_cast<int>(table() % 20);
            const double level = 0.05 + 0.95 * std::ldexp(
                static_cast<double>(table() >> 11), -53);
            // The level changes a few bursts into the transfer.
            const double switch_s =
                (1 + static_cast<int>(table() % 4)) * window *
                timing.packet_time_s;
            const std::uint64_t seed = table();
            const auto make_channel = [&](std::vector<double>& calls) {
              return [&calls, shape, level, switch_s](double now_s) {
                calls.push_back(now_s);
                switch (shape) {
                  case ChannelShape::kConstant: return level;
                  case ChannelShape::kStep:
                    return now_s < switch_s ? level : 1.0 - level;
                  case ChannelShape::kOutage:
                    return now_s >= switch_s && now_s < 3.0 * switch_s
                               ? 0.0
                               : level;
                  case ChannelShape::kDead: return 0.0;
                }
                return 0.0;
              };
            };
            const auto make_adapt = [&](std::vector<SrRoundFeedback>& log)
                -> AdaptFn {
              if (!adapting) return nullptr;
              return [&log, timing](const SrRoundFeedback& feedback) {
                log.push_back(feedback);
                SrArqTiming next = timing;
                next.packet_time_s *= 1.0 + 0.25 * (feedback.round_delivered % 4);
                next.ack_time_s *= feedback.round_transmitted % 2 == 0 ? 1.5 : 1.0;
                return next;
              };
            };
            std::vector<double> calls_a;
            std::vector<double> calls_b;
            std::vector<SrRoundFeedback> log_a;
            std::vector<SrRoundFeedback> log_b;
            sim::Rng rng_a = sim::make_rng(seed);
            sim::Rng rng_b = sim::make_rng(seed);
            const SrArqResult a = SrArqSession(config, timing).run(
                packets, make_channel(calls_a), rng_a, make_adapt(log_a));
            const SrArqResult b =
                reference_run(config, timing, packets, make_channel(calls_b),
                              rng_b, make_adapt(log_b));
            ++configs;
            SCOPED_TRACE(::testing::Message()
                         << "window " << window << ", ack loss " << ack_loss
                         << ", shape " << static_cast<int>(shape)
                         << ", adapting " << adapting << ", packets "
                         << packets << ", attempts "
                         << config.max_attempts_per_packet);
            EXPECT_EQ(a.packets_offered, b.packets_offered);
            EXPECT_EQ(a.packets_delivered, b.packets_delivered);
            EXPECT_EQ(a.packets_dropped, b.packets_dropped);
            EXPECT_EQ(a.transmissions, b.transmissions);
            EXPECT_EQ(a.acks_received, b.acks_received);
            EXPECT_EQ(a.acks_lost, b.acks_lost);
            EXPECT_EQ(a.rounds, b.rounds);
            EXPECT_EQ(a.duplicate_receives, b.duplicate_receives);
            EXPECT_EQ(a.elapsed_s, b.elapsed_s);
            EXPECT_EQ(a.delivery_latency_s, b.delivery_latency_s);
            EXPECT_EQ(a.delivery_latency_s.capacity(),
                      a.delivery_latency_s.size());
            EXPECT_EQ(calls_a, calls_b);
            ASSERT_EQ(log_a.size(), log_b.size());
            for (std::size_t r = 0; r < log_a.size(); ++r) {
              EXPECT_EQ(log_a[r].round_transmitted,
                        log_b[r].round_transmitted);
              EXPECT_EQ(log_a[r].round_delivered, log_b[r].round_delivered);
            }
            EXPECT_EQ(rng_a(), rng_b());
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 7 * 8 * 4 * 4 * 2);
}

}  // namespace
}  // namespace mmtag::net
