// Multi-beam (MIMO) inventory — the paper's simultaneous-tags extension.
//
// Paper Sec. 9: "To support multiple tags simultaneously, one can employ
// MIMO beamforming which enables the reader to create multiple independent
// beams simultaneously and direct them toward different tags." We model a
// reader with `chains` independent RF chains: the codebook is partitioned
// across chains (balanced round-robin) and the chains sweep their shares in
// parallel, so inventory time is the slowest chain's share instead of the
// whole sweep.
#pragma once

#include "src/mac/inventory.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::mac {

struct MimoInventoryResult {
  std::vector<InventoryResult> per_chain;
  int tags_total = 0;
  int tags_read = 0;
  /// Wall-clock inventory time: max over chains [s].
  double total_time_s = 0.0;
  /// Speedup vs the same scan on one chain.
  double speedup_vs_single = 1.0;
};

class MimoInventory {
 public:
  /// `chains` >= 1 independent beams.
  MimoInventory(reader::MmWaveReader reader, phy::RateTable rates,
                InventoryConfig config, int chains);

  [[nodiscard]] MimoInventoryResult run(
      const std::vector<antenna::Beam>& codebook,
      const std::vector<core::MmTag>& tags,
      const channel::Environment& env, sim::Rng& rng);

  [[nodiscard]] int chains() const { return chains_; }

 private:
  reader::MmWaveReader reader_;
  phy::RateTable rates_;
  InventoryConfig config_;
  int chains_;
};

}  // namespace mmtag::mac
