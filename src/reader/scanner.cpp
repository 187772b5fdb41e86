#include "src/reader/scanner.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::reader {

BeamScanner::BeamScanner(MmWaveReader reader, PowerDetector detector)
    : reader_(std::move(reader)), detector_(std::move(detector)) {}

BeamProbe BeamScanner::probe_beam(const antenna::Beam& beam,
                                  const core::MmTag& tag,
                                  const channel::Environment& env,
                                  const phy::RateTable& rates,
                                  sim::Rng& rng) {
  reader_.steer_to_world(beam.boresight_rad);
  const LinkReport link = reader_.evaluate_link(tag, env, rates);

  BeamProbe probe;
  probe.beam = beam;
  const double true_reflect_dbm = link.received_power_dbm;
  const double true_absorb_dbm =
      link.received_power_dbm - link.modulation_depth_db;
  probe.reflect_power_dbm = detector_.measure_dbm(true_reflect_dbm, rng);
  probe.absorb_power_dbm = detector_.measure_dbm(true_absorb_dbm, rng);
  probe.tag_detected = detector_.detects_modulation(probe.reflect_power_dbm,
                                                    probe.absorb_power_dbm);
  probe.achievable_rate_bps =
      probe.tag_detected ? rates.achievable_rate_bps(probe.reflect_power_dbm)
                         : 0.0;
  return probe;
}

ScanResult BeamScanner::scan(const std::vector<antenna::Beam>& codebook,
                             const core::MmTag& tag,
                             const channel::Environment& env,
                             const phy::RateTable& rates,
                             sim::Rng& rng) {
  ScanResult result;
  result.probes.reserve(codebook.size());
  double best_excursion_w = 0.0;
  for (const antenna::Beam& beam : codebook) {
    BeamProbe probe = probe_beam(beam, tag, env, rates, rng);
    ++result.probes_used;
    if (probe.tag_detected) {
      const double excursion_w =
          phys::dbm_to_watts(probe.reflect_power_dbm) -
          phys::dbm_to_watts(probe.absorb_power_dbm);
      if (excursion_w > best_excursion_w) {
        best_excursion_w = excursion_w;
        result.best_beam_index = static_cast<int>(result.probes.size());
      }
    }
    result.probes.push_back(std::move(probe));
  }
  return result;
}

ScanResult BeamScanner::hierarchical_scan(
    const std::vector<std::vector<antenna::Beam>>& stages,
    const core::MmTag& tag, const channel::Environment& env,
    const phy::RateTable& rates, sim::Rng& rng) {
  assert(!stages.empty());
  ScanResult result;
  // Stage 0: probe everything; later stages: only the previous winner's
  // angular children.
  antenna::Beam winner{};
  bool have_winner = false;
  for (std::size_t stage = 0; stage < stages.size(); ++stage) {
    double best_excursion_w = 0.0;
    int stage_best = -1;
    std::vector<BeamProbe> stage_probes;
    for (const antenna::Beam& beam : stages[stage]) {
      if (have_winner) {
        const double offset =
            std::abs(beam.boresight_rad - winner.boresight_rad);
        const double half_parent = phys::deg_to_rad(winner.width_deg) / 2.0;
        if (offset > half_parent) continue;  // Not a child of the winner.
      }
      BeamProbe probe = probe_beam(beam, tag, env, rates, rng);
      ++result.probes_used;
      if (probe.tag_detected) {
        const double excursion_w =
            phys::dbm_to_watts(probe.reflect_power_dbm) -
            phys::dbm_to_watts(probe.absorb_power_dbm);
        if (excursion_w > best_excursion_w) {
          best_excursion_w = excursion_w;
          stage_best = static_cast<int>(stage_probes.size());
        }
      }
      stage_probes.push_back(std::move(probe));
    }
    if (stage_best < 0) {
      // Lost the tag at this refinement level; report what we have so far.
      result.probes = std::move(stage_probes);
      result.best_beam_index = -1;
      return result;
    }
    winner = stage_probes[static_cast<std::size_t>(stage_best)].beam;
    have_winner = true;
    result.probes = std::move(stage_probes);
    result.best_beam_index = stage_best;
  }
  return result;
}

}  // namespace mmtag::reader
