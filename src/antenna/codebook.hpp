// Beam codebooks: the discrete set of directions a reader scans.
//
// The mmTag reader "scans the space by steering its beam" (paper Fig. 2).
// A codebook enumerates those beam positions; the reader probes every one
// of them in turn (exhaustive linear scanning, as the evaluation does).
#pragma once

#include <vector>

namespace mmtag::antenna {

/// One beam position in a scan.
struct Beam {
  double boresight_rad = 0.0;
  double width_deg = 0.0;
};

/// A flat codebook covering [sector_min_rad, sector_max_rad] with beams of
/// `beamwidth_deg`, spaced so adjacent beams meet at their -3 dB edges.
[[nodiscard]] std::vector<Beam> uniform_codebook(double sector_min_rad,
                                                 double sector_max_rad,
                                                 double beamwidth_deg);

}  // namespace mmtag::antenna
