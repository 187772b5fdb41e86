// Cross-reader coordination: spectrum/time partitioning and handoff.
//
// E6 established that same-channel simultaneous readers do not coexist at
// room scale — wall bounces deliver carrier-level interference against
// microwatt tag responses. The coordinator turns that finding into policy:
// it hands every cell an airtime share and an interference load
// (CellPlan) under one of two regimes — channelized (round-robin
// channels, adjacent-channel rejection at the victim's filter; one
// channel is raw same-channel SINR) or TDM (1/M airtime, no
// interference) — and it owns
// tag↔cell membership, re-assigning mobile tags to their strongest reader
// and counting the handoffs.
//
// The interference model has two terms per victim: every other reader's
// query carrier over the ray-traced channel (reader::interference), and
// the far weaker backscatter of *other cells'* tag responses, approximated
// as the carrier term attenuated by a fixed tag-response excess loss.
#pragma once

#include <cstdint>
#include <vector>

#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"
#include "src/deploy/cell.hpp"
#include "src/reader/reader.hpp"

namespace mmtag::deploy {

enum class CoordinationPolicy {
  kChannelized,  ///< channel = cell % channels; ACR protects neighbours.
  kTdm,          ///< Cells take turns: 1/M airtime, zero interference.
};

struct CoordinatorConfig {
  /// TDM is the default: E6 measured that same-channel readers do not
  /// coexist at room scale and that the 24 GHz ISM band fits only one
  /// 2 GHz-tier channel, so dense deployments must take turns. Channelized
  /// operation trades fairness for airtime where cells are far apart.
  CoordinationPolicy policy = CoordinationPolicy::kTdm;
  /// Frequency channels available for kChannelized (24 GHz ISM fits a
  /// handful of 200 MHz-tier channels; one 2 GHz-tier channel only).
  int channels = 4;
};

class FleetCoordinator {
 public:
  explicit FleetCoordinator(CoordinatorConfig config);

  /// Per-cell plans for the current reader placement. Readers are assumed
  /// steered at their sector centre (worst-case static analysis — actual
  /// steering churns per dwell). O(M^2) ray traces; call per epoch, not
  /// per event.
  [[nodiscard]] std::vector<CellPlan> plan(
      const std::vector<reader::MmWaveReader>& readers,
      const channel::Environment& env) const;

  /// Membership: tag i belongs to cell tag_cell[i]. Initial assignment
  /// sends every tag to its nearest reader and counts no handoffs.
  [[nodiscard]] static std::vector<int> initial_assignment(
      const std::vector<core::MmTag>& tags,
      const std::vector<reader::MmWaveReader>& readers);

  /// Re-evaluate membership after mobility: a tag whose nearest reader
  /// changed hands off to it (reassign_orphans with every reader
  /// serviceable). Updates `tag_cell` in place and returns the number of
  /// handoffs performed.
  [[nodiscard]] static int reassign(
      const std::vector<core::MmTag>& tags,
      const std::vector<reader::MmWaveReader>& readers,
      std::vector<int>& tag_cell);

  /// Outage-aware reassignment: every tag goes to its nearest serviceable
  /// reader, which both evacuates tags orphaned by an outage and returns
  /// them once their home reader restarts. A reader is serviceable when it
  /// is BOTH radio-live (`live[r]` = reader r serves this epoch) and
  /// backhaul-reachable (`reachable[r]`, from
  /// mesh::MeshTopology::gateway_reachable) — a live reader partitioned
  /// from every gateway can read tags but can never drain their inventory,
  /// so handing it orphans silently loses traffic. An empty `reachable`
  /// means no mesh is deployed and every live reader qualifies. Ties go to
  /// the lowest reader index. With no reader serviceable, membership is
  /// left untouched. Returns the number of handoffs performed.
  [[nodiscard]] static int reassign_orphans(
      const std::vector<core::MmTag>& tags,
      const std::vector<reader::MmWaveReader>& readers,
      const std::vector<std::uint8_t>& live,
      const std::vector<std::uint8_t>& reachable,
      std::vector<int>& tag_cell);

  /// Expand membership into per-cell index lists (cell order, then tag
  /// order — deterministic).
  [[nodiscard]] static std::vector<std::vector<std::size_t>> rosters(
      const std::vector<int>& tag_cell, std::size_t cells);

  [[nodiscard]] const CoordinatorConfig& config() const { return config_; }

 private:
  CoordinatorConfig config_;
};

}  // namespace mmtag::deploy
