// Mobility models: positions as functions of time.
//
// The paper's motivation for retrodirectivity is mobility ("when a node
// moves ... it needs to search again for the best beam direction", Sec. 1).
// These models drive the mobility benches and the NLOS example: a tag or a
// blocker follows a trajectory while the link is re-evaluated each step.
#pragma once

#include <vector>

#include "src/channel/geometry.hpp"

namespace mmtag::channel {

/// Interface: a point trajectory over time.
class Mobility {
 public:
  virtual ~Mobility() = default;

  /// Position at time `t_s` (seconds since scenario start).
  [[nodiscard]] virtual Vec2 position(double t_s) const = 0;
};

/// Constant-velocity motion from a start point.
class LinearMobility final : public Mobility {
 public:
  LinearMobility(Vec2 start, Vec2 velocity_m_per_s);

  [[nodiscard]] Vec2 position(double t_s) const override;

 private:
  Vec2 start_;
  Vec2 velocity_;
};

/// Piecewise-linear motion through waypoints at a constant speed, stopping
/// at the last waypoint.
class WaypointMobility final : public Mobility {
 public:
  /// `waypoints` must contain at least one point; `speed_m_per_s` > 0.
  WaypointMobility(std::vector<Vec2> waypoints, double speed_m_per_s);

  [[nodiscard]] Vec2 position(double t_s) const override;

  /// Time to reach the final waypoint [s].
  [[nodiscard]] double total_duration_s() const;

 private:
  std::vector<Vec2> waypoints_;
  double speed_;
  std::vector<double> arrival_times_;  ///< Cumulative time at each waypoint.
};

/// Circular orbit around a centre — handy for sweeping incidence angles
/// at constant range in the retrodirectivity benches.
class OrbitMobility final : public Mobility {
 public:
  OrbitMobility(Vec2 center, double radius_m, double angular_rate_rad_per_s,
                double start_angle_rad = 0.0);

  [[nodiscard]] Vec2 position(double t_s) const override;

 private:
  Vec2 center_;
  double radius_;
  double rate_;
  double start_angle_;
};

}  // namespace mmtag::channel
