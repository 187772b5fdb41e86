#include "src/net/sr_arq.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.hpp"

namespace mmtag::net {

namespace {

/// Packets dropped with their retry budget spent — distinct from
/// in-flight loss, which stays in the window and retries.
obs::Counter& arq_exhausted_sr_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("net.arq.exhausted.sr");
  return counter;
}

[[noreturn]] void reject(const char* field, const char* rule) {
  throw std::invalid_argument(std::string(field) + " " + rule);
}

bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

void check_time(const char* field, double seconds) {
  if (!(std::isfinite(seconds) && seconds >= 0.0)) {
    reject(field, "must be finite and >= 0");
  }
}

}  // namespace

void SrArqConfig::validate() const {
  if (window < 1 || window > 64) {
    reject("SrArqConfig::window", "must be in [1, 64]");
  }
  if (max_attempts_per_packet < 1) {
    reject("SrArqConfig::max_attempts_per_packet", "must be >= 1");
  }
  if (!is_probability(ack_loss_probability)) {
    reject("SrArqConfig::ack_loss_probability", "must be in [0, 1]");
  }
}

double SrArqResult::goodput_bps(std::size_t payload_bits) const {
  if (elapsed_s <= 0.0) return 0.0;
  return static_cast<double>(packets_delivered) *
         static_cast<double>(payload_bits) / elapsed_s;
}

SrArqSession::SrArqSession(SrArqConfig config, SrArqTiming timing)
    : config_(config), timing_(timing) {
  config_.validate();
  check_time("SrArqTiming::packet_time_s", timing_.packet_time_s);
  check_time("SrArqTiming::ack_time_s", timing_.ack_time_s);
  check_time("SrArqTiming::ack_timeout_s", timing_.ack_timeout_s);
}

SrArqResult SrArqSession::run(int packet_count, const ChannelFn& channel,
                              sim::Rng& rng, const AdaptFn& adapt) {
  if (packet_count < 0) reject("packet_count", "must be >= 0");

  const int total = packet_count;
  const auto n = static_cast<std::size_t>(total);
  SrArqTiming timing = timing_;
  SrArqResult result;
  result.packets_offered = total;
  std::vector<std::uint8_t> acked(n, 0);     // Sender: block-ACK confirmed.
  std::vector<std::uint8_t> dropped(n, 0);   // Sender: retry budget burned.
  std::vector<std::uint8_t> received(n, 0);  // Receiver: payload present.
  std::vector<int> attempts(n, 0);
  std::vector<double> receive_time_s(n, 0.0);  // Receiver-side instant.
  std::vector<int> burst;
  burst.reserve(static_cast<std::size_t>(config_.window));
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const auto sender_closed = [&](std::size_t u) {
    return acked[u] != 0 || dropped[u] != 0;
  };

  double now_s = 0.0;
  int base = 0;  // Lowest sequence the sender still cares about.
  while (true) {
    // Drop the window's sequences whose retry budget is gone, then advance
    // base past everything the sender is finished with.
    const int reap_end = std::min(total, base + config_.window);
    for (int seq = base; seq < reap_end; ++seq) {
      const auto u = static_cast<std::size_t>(seq);
      if (!sender_closed(u) &&
          attempts[u] >= config_.max_attempts_per_packet) {
        dropped[u] = 1;
        ++result.packets_dropped;
        arq_exhausted_sr_metric().add(1);
      }
    }
    while (base < total && sender_closed(static_cast<std::size_t>(base))) {
      ++base;
    }
    if (base >= total) break;

    // This round's burst: every open sequence in the window.
    burst.clear();
    const int window_end = std::min(total, base + config_.window);
    for (int seq = base; seq < window_end; ++seq) {
      if (!sender_closed(static_cast<std::size_t>(seq))) burst.push_back(seq);
    }
    assert(!burst.empty());

    // Draw order per round: one channel coin per transmitted packet in
    // ascending sequence order, then one ACK-loss coin.
    ++result.rounds;
    int k = 0;
    for (const int seq : burst) {
      const auto u = static_cast<std::size_t>(seq);
      ++attempts[u];
      ++result.transmissions;
      // The packet finishes its slot (k+1) packet-times into the burst.
      const double arrival_s = now_s + (k + 1) * timing.packet_time_s;
      const double p = channel(arrival_s);
      if (coin(rng) < p) {
        if (received[u] != 0) {
          // Replay of a packet the receiver already has (lost block-ACK):
          // discarded on arrival, delivered exactly once.
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

    if (coin(rng) < config_.ack_loss_probability) {
      // Lost block-ACK: the sender waits out its timer and replays the
      // whole outstanding window next round. No adapter feedback either —
      // the sender learned nothing about delivery this round.
      ++result.acks_lost;
      now_s += timing.ack_timeout_s;
      continue;
    }
    ++result.acks_received;
    // Block-ACK keyed to the burst's base: cumulative semantics fall out
    // of base advancing past closed sequences; the bitmap reports every
    // received sequence in [base, base + window).
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
  // Latencies in ascending sequence order — a fixed, thread-independent
  // ordering no matter how retransmissions interleaved.
  result.delivery_latency_s.reserve(
      static_cast<std::size_t>(result.packets_delivered));
  for (std::size_t u = 0; u < n; ++u) {
    if (received[u] != 0) result.delivery_latency_s.push_back(receive_time_s[u]);
  }
  return result;
}

SrArqResult SrArqSession::run(int packet_count,
                              double packet_success_probability,
                              sim::Rng& rng) {
  if (!is_probability(packet_success_probability)) {
    reject("packet_success_probability", "must be in [0, 1]");
  }
  return run(
      packet_count,
      [packet_success_probability](double) {
        return packet_success_probability;
      },
      rng);
}

}  // namespace mmtag::net
