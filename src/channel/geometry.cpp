#include "src/channel/geometry.hpp"

#include <cassert>
#include <cmath>

namespace mmtag::channel {

double Vec2::norm() const { return std::hypot(x, y); }

Vec2 Vec2::normalized() const {
  const double n = norm();
  assert(n > 0.0 && "cannot normalize the zero vector");
  return {x / n, y / n};
}

double distance(Vec2 a, Vec2 b) { return (b - a).norm(); }

double bearing_rad(Vec2 from, Vec2 to) {
  const Vec2 d = to - from;
  assert((d.x != 0.0 || d.y != 0.0) && "bearing between identical points");
  return std::atan2(d.y, d.x);
}

std::optional<Vec2> intersect(const Segment& p, const Segment& q) {
  const Vec2 r = p.b - p.a;
  const Vec2 s = q.b - q.a;
  const double denom = r.cross(s);
  if (std::abs(denom) < 1e-12) return std::nullopt;  // Parallel/collinear.
  const Vec2 qp = q.a - p.a;
  const double t = qp.cross(s) / denom;
  const double u = qp.cross(r) / denom;
  if (t < 0.0 || t > 1.0 || u < 0.0 || u > 1.0) return std::nullopt;
  return p.a + r * t;
}

bool blocks(const Segment& blocker, Vec2 a, Vec2 b) {
  const auto hit = intersect(blocker, Segment{a, b});
  if (!hit) return false;
  // Ignore grazing hits at the path endpoints.
  constexpr double kEndpointTolerance = 1e-9;
  if (distance(*hit, a) < kEndpointTolerance) return false;
  if (distance(*hit, b) < kEndpointTolerance) return false;
  return true;
}

Vec2 mirror_across(const Segment& s, Vec2 p) {
  const Vec2 d = s.direction();
  const Vec2 ap = p - s.a;
  const double along = ap.dot(d);
  const Vec2 foot = s.a + d * along;
  return foot + (foot - p);
}

}  // namespace mmtag::channel
