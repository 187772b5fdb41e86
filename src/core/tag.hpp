// The complete mmTag device: a posed Van Atta array plus the OOK data line.
//
// Paper Sec. 6: data bit '0' leaves all switches off (tag reflective, high
// amplitude at the reader), data bit '1' turns them on (tag absorptive, no
// reflection). A link budget needs the gain in both states at once, so the
// tag reports them as a pair (monostatic_state_gains_db) rather than
// holding a current bit. The tag has no receiver, no transmitter and no
// knowledge of the reader's direction — everything directional is handled
// passively by the Van Atta array.
#pragma once

#include <cstdint>

#include "src/channel/geometry.hpp"
#include "src/core/van_atta.hpp"

namespace mmtag::core {

/// Position and boresight orientation of a device in the world frame.
struct Pose {
  channel::Vec2 position;
  double orientation_rad = 0.0;  ///< World-frame bearing of the boresight.

  /// Incoming world-frame bearing converted to this device's local frame.
  [[nodiscard]] double to_local(double world_bearing_rad) const;
};

class MmTag {
 public:
  MmTag(VanAttaArray array, Pose pose, std::uint32_t id = 0);

  /// A prototype tag at `pose`.
  [[nodiscard]] static MmTag prototype_at(Pose pose, std::uint32_t id = 0);

  /// Monostatic gains toward a reader seen at world-frame bearing
  /// `world_bearing_rad` from the tag, with the data line at bit 0
  /// (off_db) and at bit 1 (on_db) [dB rel. isotropic scatterer]
  /// (VanAttaArray::monostatic_state_gains_db in the local frame).
  [[nodiscard]] StateGainsDb monostatic_state_gains_db(
      double world_bearing_rad) const;

  [[nodiscard]] const Pose& pose() const { return pose_; }
  void set_pose(Pose pose) { pose_ = pose; }

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const VanAttaArray& array() const { return array_; }
  [[nodiscard]] VanAttaArray& array() { return array_; }

 private:
  VanAttaArray array_;
  Pose pose_;
  std::uint32_t id_;
};

}  // namespace mmtag::core
