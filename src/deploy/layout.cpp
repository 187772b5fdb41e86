#include "src/deploy/layout.hpp"

#include <cassert>
#include <cmath>
#include <random>
#include <stdexcept>

#include "src/channel/geometry.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::deploy {

namespace {

/// Roughness of the perimeter walls (see channel::Wall).
constexpr double kWallRoughness = 0.5;

/// Rows x columns of a near-square grid holding `count` cells over a
/// `width` x `height` area (more columns along the longer side).
struct GridShape {
  int cols = 1;
  int rows = 1;
};

GridShape near_square_grid(int count, double width, double height) {
  assert(count > 0);
  GridShape shape;
  const double aspect = width / height;
  shape.cols = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(count) * aspect)));
  if (shape.cols < 1) shape.cols = 1;
  shape.rows = (count + shape.cols - 1) / shape.cols;
  return shape;
}

channel::Vec2 grid_point(const GridShape& shape, int index, double width,
                         double height) {
  const int col = index % shape.cols;
  const int row = index / shape.cols;
  // Cell centres: the k-th of n cells along a span sits at (k + 0.5) / n.
  return {width * (col + 0.5) / shape.cols,
          height * (row + 0.5) / shape.rows};
}

}  // namespace

void LayoutConfig::validate() const {
  if (readers < 1) {
    throw std::invalid_argument("LayoutConfig::readers must be >= 1");
  }
  if (tags < 0) {
    throw std::invalid_argument("LayoutConfig::tags must be >= 0");
  }
  if (!(std::isfinite(width_m) && width_m > 2.0 * kLayoutMarginM)) {
    throw std::invalid_argument(
        "LayoutConfig::width_m must be finite and > 2 * kLayoutMarginM");
  }
  if (!(std::isfinite(height_m) && height_m > 2.0 * kLayoutMarginM)) {
    throw std::invalid_argument(
        "LayoutConfig::height_m must be finite and > 2 * kLayoutMarginM");
  }
}

FleetLayout make_layout(const LayoutConfig& config) {
  sim::ThreadPool inline_pool(1);
  return make_layout(config, inline_pool);
}

FleetLayout make_layout(const LayoutConfig& config, sim::ThreadPool& pool) {
  config.validate();

  FleetLayout layout;
  layout.width_m = config.width_m;
  layout.height_m = config.height_m;

  const channel::Vec2 c00{0.0, 0.0};
  const channel::Vec2 c10{config.width_m, 0.0};
  const channel::Vec2 c11{config.width_m, config.height_m};
  const channel::Vec2 c01{0.0, config.height_m};
  for (const auto& [a, b] : {std::pair{c00, c10}, std::pair{c10, c11},
                             std::pair{c11, c01}, std::pair{c01, c00}}) {
    layout.environment.add_wall(
        channel::Wall{channel::Segment{a, b}, kWallRoughness});
  }

  const channel::Vec2 center{config.width_m / 2.0, config.height_m / 2.0};
  const GridShape reader_grid =
      near_square_grid(config.readers, config.width_m, config.height_m);
  layout.reader_poses.reserve(static_cast<std::size_t>(config.readers));
  for (int i = 0; i < config.readers; ++i) {
    const channel::Vec2 pos =
        grid_point(reader_grid, i, config.width_m, config.height_m);
    // Face the room centre; a reader that lands exactly there faces +x.
    const double facing = (channel::distance(pos, center) > 1e-9)
                              ? channel::bearing_rad(pos, center)
                              : 0.0;
    layout.reader_poses.push_back(core::Pose{pos, facing});
  }

  const double usable_w = config.width_m - 2.0 * kLayoutMarginM;
  const double usable_h = config.height_m - 2.0 * kLayoutMarginM;
  // Tag i draws from its own stream, so its task fills pose i alone. The
  // tags are built in order afterwards: each copies the shared prototype
  // array, which costs less serially than contended on the pool.
  const std::vector<core::Pose> poses = sim::parallel_monte_carlo(
      pool, static_cast<std::size_t>(config.tags), config.seed,
      [&](sim::Rng& rng, std::size_t) {
        std::uniform_real_distribution<double> ux(kLayoutMarginM,
                                                  kLayoutMarginM + usable_w);
        std::uniform_real_distribution<double> uy(kLayoutMarginM,
                                                  kLayoutMarginM + usable_h);
        const channel::Vec2 pos{ux(rng), uy(rng)};
        const std::size_t owner = nearest_reader(layout.reader_poses, pos);
        return core::Pose{
            pos, channel::bearing_rad(pos, layout.reader_poses[owner].position)};
      });
  layout.tags.reserve(poses.size());
  for (std::size_t i = 0; i < poses.size(); ++i) {
    layout.tags.push_back(core::MmTag::prototype_at(
        poses[i], static_cast<std::uint32_t>(1000 + i)));
  }
  return layout;
}

std::size_t nearest_reader(const std::vector<core::Pose>& reader_poses,
                           channel::Vec2 position) {
  assert(!reader_poses.empty());
  std::size_t best = 0;
  double best_d = channel::distance(reader_poses[0].position, position);
  for (std::size_t i = 1; i < reader_poses.size(); ++i) {
    const double d = channel::distance(reader_poses[i].position, position);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace mmtag::deploy
