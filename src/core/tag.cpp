#include "src/core/tag.hpp"

#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::core {

double Pose::to_local(double world_bearing_rad) const {
  return phys::wrap_angle_rad(world_bearing_rad - orientation_rad);
}

MmTag::MmTag(VanAttaArray array, Pose pose, std::uint32_t id)
    : array_(std::move(array)), pose_(pose), id_(id) {}

MmTag MmTag::prototype_at(Pose pose, std::uint32_t id) {
  return MmTag(VanAttaArray::mmtag_prototype(), pose, id);
}

StateGainsDb MmTag::monostatic_state_gains_db(double world_bearing_rad) const {
  return array_.monostatic_state_gains_db(pose_.to_local(world_bearing_rad));
}

}  // namespace mmtag::core
