#include "src/mac/inventory.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/channel/geometry.hpp"
#include "src/phy/frame.hpp"

namespace mmtag::mac {

double InventoryResult::aggregate_throughput_bps(
    std::size_t payload_bits) const {
  if (total_time_s <= 0.0) return 0.0;
  return static_cast<double>(tags_read) *
         static_cast<double>(payload_bits) / total_time_s;
}

SdmInventory::SdmInventory(reader::MmWaveReader reader, phy::RateTable rates,
                           InventoryConfig config)
    : reader_(std::move(reader)),
      rates_(std::move(rates)),
      config_(config) {}

InventoryResult SdmInventory::run(const std::vector<antenna::Beam>& codebook,
                                  const std::vector<core::MmTag>& tags,
                                  const channel::Environment& env,
                                  sim::Rng& rng) {
  InventoryResult result;
  result.tags_total = static_cast<int>(tags.size());
  result.beams.reserve(codebook.size());

  // Assign each tag to the nearest-boresight beam with a usable link.
  std::vector<std::vector<std::size_t>> beam_tags(codebook.size());
  std::vector<double> beam_rate(codebook.size(),
                                std::numeric_limits<double>::infinity());
  for (std::size_t t = 0; t < tags.size(); ++t) {
    const std::size_t best_beam = antenna::nearest_beam(
        codebook, channel::bearing_rad(reader_.pose().position,
                                       tags[t].pose().position));
    // Check the link through that beam actually works.
    reader_.steer_to_world(codebook[best_beam].boresight_rad);
    const reader::LinkReport link =
        reader_.evaluate_link(tags[t], env, rates_);
    if (link.achievable_rate_bps > 0.0) {
      beam_tags[best_beam].push_back(t);
      beam_rate[best_beam] =
          std::min(beam_rate[best_beam], link.achievable_rate_bps);
    }
  }

  // Dwell on each occupied beam in codebook order: its Aloha contention,
  // then the switching overhead plus the slots it took.
  const std::size_t frame_bits =
      phy::TagFrame::frame_bits(config_.payload_bits) * 2;  // Manchester.
  for (std::size_t b = 0; b < codebook.size(); ++b) {
    if (beam_tags[b].empty()) continue;  // Reader sees no response; skip.
    const double rate = beam_rate[b];
    assert(rate > 0.0 && !std::isinf(rate));
    const double slot_s = static_cast<double>(frame_bits) / rate;
    BeamInventory beam;
    beam.beam = codebook[b];
    beam.tags_in_beam = static_cast<int>(beam_tags[b].size());
    beam.link_rate_bps = rate;
    beam.aloha = run_framed_aloha(beam.tags_in_beam, config_.aloha, rng);
    beam.dwell_time_s = config_.beam_switch_overhead_s +
                        static_cast<double>(beam.aloha.slots_total) * slot_s;
    result.tags_read += beam.aloha.tags_read;
    result.beams.push_back(std::move(beam));
  }

  double total = 0.0;
  for (const BeamInventory& beam : result.beams) total += beam.dwell_time_s;
  result.total_time_s = total;
  return result;
}

}  // namespace mmtag::mac
