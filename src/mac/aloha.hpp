// Framed slotted Aloha — the in-beam MAC (paper Sec. 9, "MAC Protocol").
//
// "One possible solution is to use similar MAC protocol as RFIDs such as
// Aloha protocol." When several tags share one beam direction they collide;
// framed slotted Aloha resolves them: the reader announces a frame of 2^Q
// slots, every unread tag picks one uniformly, singleton slots deliver a
// frame (subject to link errors), collisions retry in the next frame. Q
// adapts by the EPC Gen2 Q-algorithm.
#pragma once

#include "src/sim/rng.hpp"

namespace mmtag::mac {

/// Frames after which an inventory gives up on the tags still unread.
inline constexpr int kAlohaMaxRounds = 64;

struct AlohaConfig {
  /// Probability a singleton slot's frame survives the link (CRC passes).
  double slot_success_probability = 0.98;
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
/// kAlohaMaxRounds frames elapse. Frame-size adaptation follows the EPC
/// Gen2 Q-algorithm: Qfp starts at 4, moves by 0.5 per collision (up) and
/// per empty slot (down), and each frame runs with Q = round(Qfp).
[[nodiscard]] AlohaStats run_framed_aloha(int tag_count,
                                          const AlohaConfig& config,
                                          sim::Rng& rng);

}  // namespace mmtag::mac
