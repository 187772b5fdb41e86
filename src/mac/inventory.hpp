// SDM inventory: reading a population of tags beam by beam.
//
// Paper Sec. 9, "Supporting Multiple Tags": "a simple technique to support
// multiple tags is to use Spatial Division Multiplexing (SDM). In this
// technique, the reader steers its beam and scans the environment. Hence,
// it can read the tags one by one." Each tag belongs to the beam whose
// boresight is nearest its bearing (antenna::nearest_beam, the same
// assignment the fleet's deploy::ReaderCell makes); tags that land in the
// same beam contend via framed slotted Aloha (aloha.hpp).
//
// Timing model: each beam dwell costs a fixed switching overhead plus the
// Aloha slots, where a slot carries one tag frame at the data rate the
// beam's link supports. The dwells run back to back in codebook order, so
// the inventory time is their sum.
#pragma once

#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"
#include "src/mac/aloha.hpp"
#include "src/mac/polling.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::mac {

/// Each successful slot carries one kTagPayloadBits frame.
struct InventoryConfig {
  AlohaConfig aloha;
  /// Mechanical/electrical beam switching overhead per dwell [s].
  double beam_switch_overhead_s = kBeamSwitchS;
};

struct BeamInventory {
  antenna::Beam beam;
  int tags_in_beam = 0;
  AlohaStats aloha;
  double link_rate_bps = 0.0;  ///< Rate of the weakest tag in the beam.
  double dwell_time_s = 0.0;
};

struct InventoryResult {
  std::vector<BeamInventory> beams;
  int tags_total = 0;
  int tags_read = 0;
  double total_time_s = 0.0;
  /// Identifier bits delivered per second of inventory.
  [[nodiscard]] double aggregate_throughput_bps() const;
};

class SdmInventory {
 public:
  SdmInventory(reader::MmWaveReader reader, phy::RateTable rates,
               InventoryConfig config);

  /// Run one full inventory pass over `codebook`. Tags are assigned to the
  /// beam whose boresight is closest to their bearing from the reader
  /// *and* whose link supports a nonzero rate; unreachable tags stay
  /// unread. Beams are dwelt on in codebook order.
  [[nodiscard]] InventoryResult run(const std::vector<antenna::Beam>& codebook,
                                    const std::vector<core::MmTag>& tags,
                                    const channel::Environment& env,
                                    sim::Rng& rng);

 private:
  reader::MmWaveReader reader_;
  phy::RateTable rates_;
  InventoryConfig config_;
};

}  // namespace mmtag::mac
