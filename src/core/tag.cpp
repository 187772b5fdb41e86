#include "src/core/tag.hpp"

#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::core {

double Pose::to_local(double world_bearing_rad) const {
  return phys::wrap_angle_rad(world_bearing_rad - orientation_rad);
}

MmTag::MmTag(VanAttaArray array, Pose pose, std::uint32_t id)
    : array_(std::move(array)), pose_(pose), id_(id) {
  set_data_bit(false);
}

MmTag MmTag::prototype_at(Pose pose, std::uint32_t id) {
  return MmTag(VanAttaArray::mmtag_prototype(), pose, id);
}

void MmTag::set_data_bit(bool bit) {
  bit_ = bit;
  array_.set_all_switches(bit ? em::SwitchState::kOn : em::SwitchState::kOff);
}

double MmTag::monostatic_gain_db(double world_bearing_rad) const {
  const double local = pose_.to_local(world_bearing_rad);
  return array_.monostatic_gain_db(local);
}

Complex MmTag::reflection_field(double world_in_rad,
                                double world_out_rad) const {
  return array_.reradiated_field(pose_.to_local(world_in_rad),
                                 pose_.to_local(world_out_rad));
}

StateGainsDb MmTag::monostatic_state_gains_db(double world_bearing_rad) const {
  return array_.monostatic_state_gains_db(pose_.to_local(world_bearing_rad));
}

double MmTag::modulation_depth_db(double world_bearing_rad) const {
  const StateGainsDb gains = monostatic_state_gains_db(world_bearing_rad);
  return gains.off_db - gains.on_db;
}

}  // namespace mmtag::core
