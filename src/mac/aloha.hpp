// Framed slotted Aloha — the in-beam MAC (paper Sec. 9, "MAC Protocol").
//
// "One possible solution is to use similar MAC protocol as RFIDs such as
// Aloha protocol." When several tags share one beam direction they collide;
// framed slotted Aloha resolves them: the reader announces a frame of 2^Q
// slots, every unread tag picks one uniformly, singleton slots deliver a
// frame (subject to link errors), collisions retry in the next frame.
// Three Q policies are provided, from dumb to EPC-grade.
#pragma once

#include "src/sim/rng.hpp"

namespace mmtag::mac {

/// Frame-size adaptation policy.
enum class QPolicy {
  kFixed,     ///< Q never changes.
  kEpc,       ///< EPC Gen2 Q-algorithm (Qfp +/- 0.5 per collision/empty).
  kOptimal,   ///< Q = round(log2(remaining tags)) — genie-aided optimum.
};

struct AlohaConfig {
  int initial_q = 4;             ///< Frame size 2^Q slots.
  QPolicy policy = QPolicy::kEpc;
  double epc_c = 0.5;            ///< EPC Qfp adjustment constant.
  /// Probability a singleton slot's frame survives the link (CRC passes).
  double slot_success_probability = 0.98;
  int max_rounds = 64;           ///< Give up after this many frames.
};

struct AlohaStats {
  int tags_total = 0;
  int tags_read = 0;
  int rounds = 0;
  long slots_total = 0;
  long slots_success = 0;
  long slots_collision = 0;
  long slots_empty = 0;
};

/// Simulate framed slotted Aloha until all `tag_count` tags are read or
/// `config.max_rounds` frames elapse.
[[nodiscard]] AlohaStats run_framed_aloha(int tag_count,
                                          const AlohaConfig& config,
                                          sim::Rng& rng);

}  // namespace mmtag::mac
