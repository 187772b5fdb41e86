#include "src/channel/raytrace.hpp"

#include <algorithm>
#include <cassert>

#include "src/channel/propagation.hpp"

namespace mmtag::channel {

namespace {

Path make_los_path(const Environment& env, Vec2 a, Vec2 b) {
  Path path;
  path.kind = PathKind::kLineOfSight;
  path.length_m = distance(a, b);
  path.departure_rad = bearing_rad(a, b);
  path.arrival_rad = bearing_rad(b, a);
  if (env.line_of_sight_blocked(a, b)) {
    path.excess_loss_db = blockage_loss_db();
  }
  return path;
}

}  // namespace

std::vector<Path> trace_paths(const Environment& env, Vec2 a, Vec2 b) {
  assert(distance(a, b) > 0.0 && "reader and tag must be distinct points");
  std::vector<Path> paths;
  paths.push_back(make_los_path(env, a, b));

  const auto& walls = env.walls();
  for (std::size_t w = 0; w < walls.size(); ++w) {
    const Wall& wall = walls[w];
    // Image method: reflect B across the wall plane; the specular bounce
    // point is where the straight line A -> B' crosses the wall segment.
    const Vec2 image = mirror_across(wall.segment, b);
    const auto bounce = intersect(wall.segment, Segment{a, image});
    if (!bounce) continue;
    // Degenerate bounce at A or B means the endpoint lies on the wall.
    if (distance(*bounce, a) < 1e-9 || distance(*bounce, b) < 1e-9) continue;
    // Both legs must be clear of obstacles for a usable NLOS path.
    if (env.line_of_sight_blocked(a, *bounce)) continue;
    if (env.line_of_sight_blocked(*bounce, b)) continue;

    Path path;
    path.kind = PathKind::kReflected;
    path.length_m = distance(a, *bounce) + distance(*bounce, b);
    path.departure_rad = bearing_rad(a, *bounce);
    path.arrival_rad = bearing_rad(b, *bounce);
    path.excess_loss_db = reflection_loss_db(wall.roughness);
    path.wall_index = static_cast<int>(w);
    paths.push_back(path);
  }

  std::sort(paths.begin(), paths.end(), [](const Path& x, const Path& y) {
    if (x.excess_loss_db != y.excess_loss_db) {
      return x.excess_loss_db < y.excess_loss_db;
    }
    return x.length_m < y.length_m;
  });
  return paths;
}

}  // namespace mmtag::channel
