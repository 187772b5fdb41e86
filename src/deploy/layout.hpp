// Deterministic fleet layouts: M readers and N tags in one floor plan.
//
// The deployment scenarios of paper Sec. 9 (warehouses, AR rooms) start
// from a geometry: readers mounted around a rectangular hall, tags spread
// over its floor area. This module generates those layouts reproducibly —
// reader poses on a near-square grid facing the room centre, tags
// uniform-random via sim::derive_seed streams — plus the perimeter-wall
// channel::Environment every cell shares.
#pragma once

#include <cstdint>
#include <vector>

#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"

namespace mmtag::deploy {

struct LayoutConfig {
  double width_m = 20.0;
  double height_m = 12.0;
  int readers = 4;
  int tags = 200;
  /// Base seed for the tag placement streams: tag i lands i.i.d. uniform
  /// over the usable floor under derive_seed(seed, i), so adding a tag
  /// never moves another.
  std::uint64_t seed = 1;
  /// Keep-out margin between any entity and the perimeter walls [m].
  double margin_m = 0.5;

  /// Throws std::invalid_argument naming the first out-of-range field:
  /// readers >= 1, tags >= 0, margin_m >= 0, and a floor wider and
  /// deeper than the two margins.
  void validate() const;
};

struct FleetLayout {
  channel::Environment environment;  ///< Four perimeter walls.
  std::vector<core::Pose> reader_poses;
  std::vector<core::MmTag> tags;
  double width_m = 0.0;
  double height_m = 0.0;
};

/// Build the layout for `config`. Readers land on a ceil(sqrt)-grid of the
/// floor, oriented toward the room centre so their scan sector faces the
/// tag population; tags face their nearest reader (badge-like mounting —
/// retrodirectivity covers the residual misalignment). Tag ids start at
/// 1000 + index. Deterministic: the same config always yields the same
/// layout, bit for bit. Throws std::invalid_argument when `config` fails
/// validate().
[[nodiscard]] FleetLayout make_layout(const LayoutConfig& config);

/// Index of the reader pose closest (Euclidean) to `position`; ties go to
/// the lowest index. `reader_poses` must be non-empty.
[[nodiscard]] std::size_t nearest_reader(
    const std::vector<core::Pose>& reader_poses, channel::Vec2 position);

}  // namespace mmtag::deploy
