#include "src/mac/mimo_reader.hpp"

#include <algorithm>
#include <cassert>

namespace mmtag::mac {

MimoInventory::MimoInventory(reader::MmWaveReader reader,
                             phy::RateTable rates, InventoryConfig config,
                             int chains)
    : reader_(std::move(reader)),
      rates_(std::move(rates)),
      config_(config),
      chains_(chains) {
  assert(chains_ >= 1);
}

MimoInventoryResult MimoInventory::run(
    const std::vector<antenna::Beam>& codebook,
    const std::vector<core::MmTag>& tags, const channel::Environment& env,
    sim::Rng& rng) {
  MimoInventoryResult result;
  result.tags_total = static_cast<int>(tags.size());

  // Round-robin partition of the codebook across chains.
  std::vector<std::vector<antenna::Beam>> shares(
      static_cast<std::size_t>(chains_));
  for (std::size_t b = 0; b < codebook.size(); ++b) {
    shares[b % static_cast<std::size_t>(chains_)].push_back(codebook[b]);
  }

  double slowest = 0.0;
  double single_chain_total = 0.0;
  for (const std::vector<antenna::Beam>& share : shares) {
    if (share.empty()) continue;
    SdmInventory chain(reader_, rates_, config_);
    InventoryResult chain_result = chain.run(share, tags, env, rng);
    // A tag reachable through beams in several shares would be read twice;
    // dedupe by capping at the population (shares partition the codebook,
    // and each tag is only assigned its nearest beam, so in practice each
    // tag appears in exactly one share).
    result.tags_read += chain_result.tags_read;
    single_chain_total += chain_result.total_time_s;
    slowest = std::max(slowest, chain_result.total_time_s);
    result.per_chain.push_back(std::move(chain_result));
  }
  result.tags_read = std::min(result.tags_read, result.tags_total);
  result.total_time_s = slowest;
  result.speedup_vs_single =
      slowest > 0.0 ? single_chain_total / slowest : 1.0;
  return result;
}

}  // namespace mmtag::mac
