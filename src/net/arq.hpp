// Stop-and-wait ARQ over the backscatter link.
//
// A backscatter tag cannot hear NACKs the way an active radio can, but the
// reader *is* the carrier source: it simply re-queries a frame whose CRC
// failed, and the tag (which keeps its data in a shift register) replays
// it. That loop is exactly stop-and-wait ARQ with the reader as the
// arbiter. This module simulates the retransmission process over a lossy
// frame channel and supplies the closed-form efficiency the session layer
// uses.
//
// Why this is not SrArqSession at window 1 (sr_arq.hpp): the two loops
// lose their feedback on different sides of the tag. Here the reader's
// re-query is what gets lost, before the tag replays — a lost re-query
// costs no transmission, only re-query budget, so with budgets to spare
// the expected transmissions per delivered frame stay 1/p for any query
// loss q. In
// selective repeat the sender transmits first and the block-ACK is what
// gets lost, after the packet may already have arrived — a lost ACK
// costs a duplicate transmission, so a window-1 session needs
// 1/p + q/(1 - q) transmissions per delivered packet (tests pin both).
// The two agree only at q = 0. expected_transmissions_per_frame below
// approximates the first model, so run_stop_and_wait stays its
// Monte-Carlo reference.
#pragma once

#include "src/sim/rng.hpp"

namespace mmtag::net {

struct ArqConfig {
  int max_attempts_per_frame = 16;  ///< Give up on a frame after this many.
  /// Reader->tag re-query corruption probability (the query is short and
  /// strong, but not immune).
  double query_loss_probability = 0.01;
  /// Lost re-queries a frame may absorb before the reader declares the
  /// tag unreachable. This budget is independent of the transmission
  /// attempt budget: a lost re-query never consumed tag airtime, so it
  /// must not eat a frame retry — but an endless re-query loop against a
  /// blocked tag must still terminate.
  int max_requeries_per_frame = 8;
};

struct ArqStats {
  int frames_offered = 0;
  int frames_delivered = 0;
  long transmissions = 0;      ///< Tag frame transmissions, retries included.
  long query_failures = 0;     ///< Re-queries lost before the tag replayed.
  int frames_failed = 0;       ///< Gave up (either budget exhausted).
  int requery_exhausted = 0;   ///< Frames failed by the re-query budget.
};

/// Simulate transferring `frame_count` frames, each transmission
/// independently succeeding with `frame_success_probability`.
[[nodiscard]] ArqStats run_stop_and_wait(int frame_count,
                                         double frame_success_probability,
                                         const ArqConfig& config,
                                         sim::Rng& rng);

/// Closed form: expected transmissions per delivered frame for success
/// probability `p` (geometric mean 1/p), query losses folded in.
[[nodiscard]] double expected_transmissions_per_frame(
    double frame_success_probability, const ArqConfig& config);

/// Goodput factor: payload delivered per unit airtime relative to a
/// loss-free link = p_effective (inverse of expected transmissions).
[[nodiscard]] double arq_goodput_factor(double frame_success_probability,
                                        const ArqConfig& config);

}  // namespace mmtag::net
