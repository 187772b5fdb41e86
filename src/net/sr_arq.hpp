// Sliding-window ARQ with selective repeat over the backscatter link.
//
// Stop-and-wait (arq.hpp) pays one feedback round-trip per frame; at
// gigabit chip rates the link idles while the reader acknowledges.
// 802.11ad-style block transfer fixes that: the sender keeps a window of
// packets in flight, the receiver returns ONE block-ACK per burst — a
// cumulative high-water mark plus a selective bitmap keyed to the burst's
// base sequence — and only the holes are retransmitted. This module
// simulates that protocol as a plain loop over burst + feedback rounds
// with explicit on-air timing, a per-packet retry budget, and a
// time-varying channel hook so fault schedules (outages, blockage bursts)
// can gate delivery mid-transfer.
//
// Buffers are real: with a PacketPool attached, every in-flight packet
// holds a pool slot whose header was *prepended* into reserved headroom
// (zero-copy — see packet.hpp), and pool exhaustion shrinks the effective
// window. That is the backpressure loop of a production stack, not an
// error path.
//
// Determinism: all coins come from the caller's engine in a fixed order —
// one per transmitted packet in ascending sequence order per burst, then
// one for the block-ACK — so a seeded run is bit-reproducible and
// thread-count independent when each session owns a derive_seed stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/packet.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::net {

/// Bytes of sequencing header prepended to each pool-backed packet.
inline constexpr std::size_t kSrHeaderBytes = 8;

struct SrArqConfig {
  /// In-flight packets (block-ACK bitmap width; 1..64).
  int window = 32;
  /// Transmission attempts per packet before the sender drops it (>= 1).
  int max_attempts_per_packet = 16;
  /// Probability the block-ACK is lost (sender waits out its timer and
  /// replays the whole outstanding window — duplicates are discarded at
  /// the receiver).
  double ack_loss_probability = 0.01;
  /// Application payload bytes per packet (pool-backed sessions).
  std::size_t payload_bytes = 32;

  /// Throws std::invalid_argument naming the first out-of-range field.
  void validate() const;
};

struct SrArqTiming {
  double packet_time_s = 10e-6;  ///< One packet's on-air time.
  double ack_time_s = 2e-6;      ///< Block-ACK on-air time.
  double ack_timeout_s = 5e-6;   ///< Sender timer when the ACK is lost.
};

struct SrArqResult {
  int packets_offered = 0;
  int packets_delivered = 0;
  int packets_dropped = 0;     ///< Retry budget exhausted.
  long transmissions = 0;      ///< Packet transmissions, retries included.
  long acks_received = 0;
  long acks_lost = 0;
  long rounds = 0;             ///< Burst + feedback cycles.
  long duplicate_receives = 0; ///< Replays of already-received packets.
  long pool_stalls = 0;        ///< Rounds throttled by pool exhaustion.
  /// Wall-clock consumed. Exact by construction:
  ///   transmissions * packet_time + acks_received * ack_time
  ///   + acks_lost * ack_timeout.
  double elapsed_s = 0.0;
  /// Receive instant of every delivered packet relative to session start,
  /// ascending sequence order.
  std::vector<double> delivery_latency_s;

  /// Delivered payload per unit wall time.
  [[nodiscard]] double goodput_bps(std::size_t payload_bits) const;
  /// Delivered packets per transmission (<= 1).
  [[nodiscard]] double efficiency() const;
};

/// Per-packet success probability at session time [s]. Fault schedules
/// plug in here (0 during an outage, attenuated while blocked).
using ChannelFn = std::function<double(double now_s)>;

/// What one received block-ACK told the sender.
struct SrRoundFeedback {
  int round_transmitted = 0;  ///< Packets in the just-ACKed burst.
  int round_delivered = 0;    ///< Burst packets newly confirmed delivered.
};

/// Optional cross-layer hook fired on every received block-ACK; returns
/// the timing for subsequent rounds. Rate adaptation lives here: a tier
/// switch changes the packet slot time mid-transfer (the elapsed
/// decomposition above is exact only while timing stays constant — with
/// an adapter, elapsed_s is still the exact sum of every round's steps,
/// just not a three-term closed form).
using AdaptFn = std::function<SrArqTiming(const SrRoundFeedback&)>;

class SrArqSession {
 public:
  /// Throws std::invalid_argument when `config` fails validate() or a
  /// `timing` field is negative.
  SrArqSession(SrArqConfig config, SrArqTiming timing);

  /// Run the transfer over a fixed per-packet success probability in
  /// [0, 1]. `pool` (optional) backs the in-flight window with real
  /// buffers; pass nullptr to skip.
  [[nodiscard]] SrArqResult run(int packet_count,
                                double packet_success_probability,
                                sim::Rng& rng,
                                PacketPool* pool = nullptr);

  /// Run the transfer over a time-varying channel with an optional rate
  /// adapter. Throws std::invalid_argument when `packet_count` is
  /// negative or a non-empty transfer gets a `pool` with no free slot.
  [[nodiscard]] SrArqResult run(int packet_count, const ChannelFn& channel,
                                sim::Rng& rng,
                                PacketPool* pool = nullptr,
                                const AdaptFn& adapt = nullptr);

  [[nodiscard]] const SrArqConfig& config() const { return config_; }
  [[nodiscard]] const SrArqTiming& timing() const { return timing_; }

 private:
  SrArqConfig config_;
  SrArqTiming timing_;
};

}  // namespace mmtag::net
