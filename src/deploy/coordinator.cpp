#include "src/deploy/coordinator.hpp"

#include <cassert>
#include <cmath>

#include "src/channel/geometry.hpp"
#include "src/phys/units.hpp"
#include "src/reader/interference.hpp"

namespace mmtag::deploy {

namespace {

/// Victim-filter rejection of an adjacent-channel carrier [dB] (E6).
constexpr double kAdjacentChannelRejectionDb = 30.0;
/// How far a tag's backscattered response sits below the aggressor
/// reader's own carrier at the victim [dB]. Tag responses are two-way
/// budgets; 30 dB is conservative for room-scale cells.
constexpr double kTagResponseExcessLossDb = 30.0;

}  // namespace

FleetCoordinator::FleetCoordinator(CoordinatorConfig config)
    : config_(config) {
  assert(config_.channels > 0);
}

std::vector<CellPlan> FleetCoordinator::plan(
    const std::vector<reader::MmWaveReader>& readers,
    const channel::Environment& env) const {
  const std::size_t m = readers.size();
  std::vector<CellPlan> plans(m);
  if (m == 0) return plans;

  if (config_.policy == CoordinationPolicy::kTdm) {
    for (std::size_t v = 0; v < m; ++v) {
      plans[v].airtime_share = 1.0 / static_cast<double>(m);
      plans[v].interference_dbm = -300.0;
      plans[v].channel = 0;
    }
    return plans;
  }

  for (std::size_t v = 0; v < m; ++v) {
    plans[v].channel = static_cast<int>(v) % config_.channels;
  }
  for (std::size_t v = 0; v < m; ++v) {
    double load_w = 0.0;
    for (std::size_t a = 0; a < m; ++a) {
      if (a == v) continue;
      double carrier_dbm = reader::cross_reader_interference_dbm(
          readers[a], readers[v], env);
      if (plans[a].channel != plans[v].channel) {
        carrier_dbm -= kAdjacentChannelRejectionDb;
      }
      // The aggressor's own tags answer on the aggressor's channel too;
      // their backscatter arrives kTagResponseExcessLossDb below the
      // carrier over (approximately) the same paths.
      const double tag_echo_dbm = carrier_dbm - kTagResponseExcessLossDb;
      load_w += phys::dbm_to_watts(carrier_dbm) +
                phys::dbm_to_watts(tag_echo_dbm);
    }
    plans[v].airtime_share = 1.0;
    plans[v].interference_dbm =
        load_w > 0.0 ? phys::watts_to_dbm(load_w) : -300.0;
  }
  return plans;
}

std::vector<int> FleetCoordinator::initial_assignment(
    const std::vector<core::MmTag>& tags,
    const std::vector<reader::MmWaveReader>& readers) {
  std::vector<int> tag_cell(tags.size(), 0);
  (void)reassign(tags, readers, tag_cell);
  return tag_cell;
}

int FleetCoordinator::reassign(const std::vector<core::MmTag>& tags,
                               const std::vector<reader::MmWaveReader>& readers,
                               std::vector<int>& tag_cell) {
  const std::vector<std::uint8_t> everyone(readers.size(), 1);
  return reassign_orphans(tags, readers, everyone, {}, tag_cell);
}

int FleetCoordinator::reassign_orphans(
    const std::vector<core::MmTag>& tags,
    const std::vector<reader::MmWaveReader>& readers,
    const std::vector<std::uint8_t>& live,
    const std::vector<std::uint8_t>& reachable,
    std::vector<int>& tag_cell) {
  assert(!readers.empty());
  assert(live.size() == readers.size());
  assert(reachable.empty() || reachable.size() == readers.size());
  assert(tag_cell.size() == tags.size());
  const auto serviceable = [&](std::size_t r) {
    return live[r] != 0 && (reachable.empty() || reachable[r] != 0);
  };
  bool any = false;
  for (std::size_t r = 0; r < readers.size(); ++r) {
    any = any || serviceable(r);
  }
  if (!any) return 0;  // Total blackout/partition: nowhere to evacuate to.
  int handoffs = 0;
  for (std::size_t t = 0; t < tags.size(); ++t) {
    const channel::Vec2 pos = tags[t].pose().position;
    int best = -1;
    double best_d = 0.0;
    for (std::size_t r = 0; r < readers.size(); ++r) {
      if (!serviceable(r)) continue;
      const double d = channel::distance(readers[r].pose().position, pos);
      if (best < 0 || d < best_d) {
        best_d = d;
        best = static_cast<int>(r);
      }
    }
    if (tag_cell[t] != best) {
      tag_cell[t] = best;
      ++handoffs;
    }
  }
  return handoffs;
}

std::vector<std::vector<std::size_t>> FleetCoordinator::rosters(
    const std::vector<int>& tag_cell, std::size_t cells) {
  std::vector<std::vector<std::size_t>> rosters(cells);
  for (std::size_t t = 0; t < tag_cell.size(); ++t) {
    const auto c = static_cast<std::size_t>(tag_cell[t]);
    assert(c < cells);
    rosters[c].push_back(t);
  }
  return rosters;
}

}  // namespace mmtag::deploy
