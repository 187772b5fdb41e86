#include "src/antenna/codebook.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::antenna {

std::vector<Beam> uniform_codebook(double sector_min_rad,
                                   double sector_max_rad,
                                   double beamwidth_deg) {
  assert(sector_max_rad > sector_min_rad);
  assert(beamwidth_deg > 0.0);
  const double width_rad = phys::deg_to_rad(beamwidth_deg);
  const double sector = sector_max_rad - sector_min_rad;
  const int count = std::max(1, static_cast<int>(std::ceil(sector / width_rad)));
  std::vector<Beam> beams;
  beams.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Beam beam;
    beam.boresight_rad = sector_min_rad + (i + 0.5) * sector / count;
    beam.width_deg = beamwidth_deg;
    beams.push_back(beam);
  }
  return beams;
}

}  // namespace mmtag::antenna
