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
#include "src/sim/parallel.hpp"

namespace mmtag::deploy {

/// Keep-out margin between any entity and the perimeter walls [m].
inline constexpr double kLayoutMarginM = 0.5;

struct LayoutConfig {
  double width_m = 20.0;
  double height_m = 12.0;
  int readers = 4;
  int tags = 200;
  /// Base seed for the tag placement streams: tag i lands i.i.d. uniform
  /// over the usable floor under derive_seed(seed, i), so adding a tag
  /// never moves another.
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument naming the first out-of-range field:
  /// readers >= 1, tags >= 0, and a finite floor wider and deeper than
  /// the two kLayoutMarginM margins.
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
/// validate(). Runs on an inline sim::ThreadPool(1), which starts no
/// thread.
[[nodiscard]] FleetLayout make_layout(const LayoutConfig& config);

/// make_layout(config) with one pool task per tag: a tag's position,
/// owner and facing depend only on derive_seed(config.seed, i) and the
/// reader poses, so each task fills its own slot and the layout is the
/// same bit for bit at any pool size.
[[nodiscard]] FleetLayout make_layout(const LayoutConfig& config,
                                      sim::ThreadPool& pool);

/// Index of the reader pose closest (Euclidean) to `position`; ties go to
/// the lowest index. `reader_poses` must be non-empty.
[[nodiscard]] std::size_t nearest_reader(
    const std::vector<core::Pose>& reader_poses, channel::Vec2 position);

}  // namespace mmtag::deploy
