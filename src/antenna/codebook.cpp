#include "src/antenna/codebook.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

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

std::size_t nearest_beam(const std::vector<Beam>& codebook,
                         double bearing_rad) {
  assert(!codebook.empty());
  std::size_t best = 0;
  double best_offset = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < codebook.size(); ++b) {
    const double offset =
        std::abs(phys::wrap_angle_rad(codebook[b].boresight_rad - bearing_rad));
    if (offset < best_offset) {
      best_offset = offset;
      best = b;
    }
  }
  return best;
}

}  // namespace mmtag::antenna
