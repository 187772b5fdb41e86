#include "src/net/sr_arq.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.hpp"
#include "src/phy/normal.hpp"

namespace mmtag::net {

namespace {

/// Widest window: one bit per sequence in flight in a 64-bit mask, and
/// the slot count of the per-sequence rings.
constexpr int kMaxWindow = 64;
static_assert(kMaxWindow == std::numeric_limits<std::uint64_t>::digits);

/// The low `n` bits, n in [0, 64].
std::uint64_t low_bits(int n) {
  return n >= kMaxWindow ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// `mask` with its low `n` bits shifted out, n in [0, 64].
std::uint64_t shift_out(std::uint64_t mask, int n) {
  return n >= kMaxWindow ? 0 : mask >> n;
}

std::size_t ring_slot(int seq) {
  return static_cast<std::size_t>(seq & (kMaxWindow - 1));
}

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
  if (window < 1 || window > kMaxWindow) {
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
  SrArqTiming timing = timing_;
  SrArqResult result;
  result.packets_offered = total;
  // Receive instants in ascending sequence order, copied into the result
  // at its exact size at the end.
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(total));
  // The window as masks relative to base: bit i is sequence base + i.
  std::uint64_t acked = 0;     // Sender: block-ACK confirmed.
  std::uint64_t dropped = 0;   // Sender: retry budget burned.
  std::uint64_t received = 0;  // Receiver: payload present.
  // Per-sequence state in rings indexed by ring_slot(seq): the window
  // spans at most kMaxWindow consecutive sequences, so no two share a slot.
  std::array<int, kMaxWindow> attempts{};
  std::array<double, kMaxWindow> receive_time_s{};  // Receiver-side instant.
  [[maybe_unused]] int left_closed = 0;

  double now_s = 0.0;
  int base = 0;  // Lowest sequence the sender still cares about.
  // Bits of the window's sequences, [base, min(total, base + window)).
  const auto window_bits = [&] {
    return low_bits(std::min(config_.window, total - base));
  };
  while (true) {
    // Drop the window's sequences whose retry budget is gone, then advance
    // base past everything the sender is finished with.
    for (std::uint64_t open = window_bits() & ~(acked | dropped);
         open != 0; open &= open - 1) {
      const int i = std::countr_zero(open);
      if (attempts[ring_slot(base + i)] >= config_.max_attempts_per_packet) {
        dropped |= std::uint64_t{1} << i;
        ++result.packets_dropped;
        arq_exhausted_sr_metric().add(1);
      }
    }
    // Each received sequence base passes leaves its receive instant:
    // latencies come out in ascending sequence order, a fixed,
    // thread-independent ordering no matter how retransmissions
    // interleaved.
    if (const int passed = std::countr_one(acked | dropped); passed > 0) {
      for (int i = 0; i < passed; ++i) {
        const std::size_t slot = ring_slot(base + i);
        if ((received >> i & 1) != 0) {
          latencies.push_back(receive_time_s[slot]);
        }
        attempts[slot] = 0;
      }
      left_closed += std::popcount((acked | dropped) & low_bits(passed));
      acked = shift_out(acked, passed);
      dropped = shift_out(dropped, passed);
      received = shift_out(received, passed);
      base += passed;
    }
    if (base >= total) break;

    // This round's burst: every open sequence in the window. Draw order
    // per round: one channel coin per transmitted packet in ascending
    // sequence order, then one ACK-loss coin.
    std::uint64_t burst = window_bits() & ~(acked | dropped);
    assert(burst != 0);
    ++result.rounds;
    int k = 0;
    for (; burst != 0; burst &= burst - 1) {
      const int i = std::countr_zero(burst);
      const std::uint64_t bit = std::uint64_t{1} << i;
      const std::size_t slot = ring_slot(base + i);
      ++attempts[slot];
      // The packet finishes its slot (k+1) packet-times into the burst.
      const double arrival_s = now_s + (k + 1) * timing.packet_time_s;
      const double p = channel(arrival_s);
      if (phy::canonical_double(rng()) < p) {
        if ((received & bit) != 0) {
          // Replay of a packet the receiver already has (lost block-ACK):
          // discarded on arrival, delivered exactly once.
          ++result.duplicate_receives;
        } else {
          received |= bit;
          ++result.packets_delivered;
          receive_time_s[slot] = arrival_s;
        }
      }
      ++k;
    }
    result.transmissions += k;
    now_s += static_cast<double>(k) * timing.packet_time_s;

    if (phy::canonical_double(rng()) < config_.ack_loss_probability) {
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
    // received sequence in the window.
    const std::uint64_t newly_acked = received & ~acked;
    acked |= newly_acked;
    if (adapt) {
      SrRoundFeedback feedback;
      feedback.round_transmitted = k;
      feedback.round_delivered = std::popcount(newly_acked);
      timing = adapt(feedback);
    }
    now_s += timing.ack_time_s;
  }

  result.elapsed_s = now_s;
  result.delivery_latency_s.assign(latencies.begin(), latencies.end());
  // Conservation (checked in Debug and sanitizer builds): every round
  // ended in one ACK outcome, one latency per delivery, transmissions
  // bounded by first arrivals plus replays below and the retry budget
  // above, and every sequence left the window acked or dropped.
  assert(result.rounds == result.acks_received + result.acks_lost);
  assert(result.delivery_latency_s.size() ==
         static_cast<std::size_t>(result.packets_delivered));
  assert(result.packets_delivered + result.duplicate_receives <=
         result.transmissions);
  assert(result.transmissions <=
         static_cast<long>(total) * config_.max_attempts_per_packet);
  assert(left_closed == total);
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
