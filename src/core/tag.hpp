// The complete mmTag device: a posed Van Atta array plus the OOK data line.
//
// Paper Sec. 6: data bit '0' leaves all switches off (tag reflective, high
// amplitude at the reader), data bit '1' turns them on (tag absorptive, no
// reflection). The tag has no receiver, no transmitter and no knowledge of
// the reader's direction — everything directional is handled passively by
// the Van Atta array.
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

  /// Drive the common switch line with a data bit (paper Sec. 6):
  /// false/'0' -> switches off, reflective; true/'1' -> switches on,
  /// absorptive.
  void set_data_bit(bool bit);

  [[nodiscard]] bool data_bit() const { return bit_; }

  /// Monostatic reflection gain toward a reader seen at world-frame bearing
  /// `world_bearing_rad` from the tag [dB rel. isotropic scatterer],
  /// with the current data bit applied.
  [[nodiscard]] double monostatic_gain_db(double world_bearing_rad) const;

  /// Bistatic complex reflection: wave arriving from world bearing
  /// `world_in_rad`, observed toward world bearing `world_out_rad`.
  [[nodiscard]] Complex reflection_field(double world_in_rad,
                                         double world_out_rad) const;

  /// Monostatic gains toward `world_bearing_rad` with the data line at
  /// bit 0 (off_db) and at bit 1 (on_db), whatever bit is set now
  /// (VanAttaArray::monostatic_state_gains_db in the local frame).
  [[nodiscard]] StateGainsDb monostatic_state_gains_db(
      double world_bearing_rad) const;

  /// OOK modulation depth at the reader: gain difference between bit 0 and
  /// bit 1 states toward `world_bearing_rad` [dB].
  [[nodiscard]] double modulation_depth_db(double world_bearing_rad) const;

  [[nodiscard]] const Pose& pose() const { return pose_; }
  void set_pose(Pose pose) { pose_ = pose; }

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const VanAttaArray& array() const { return array_; }
  [[nodiscard]] VanAttaArray& array() { return array_; }

 private:
  VanAttaArray array_;
  Pose pose_;
  std::uint32_t id_;
  bool bit_ = false;
};

}  // namespace mmtag::core
