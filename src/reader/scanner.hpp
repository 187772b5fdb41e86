// Beam scanning: how the reader finds tags (paper Fig. 2).
//
// "The reader scans the space by steering its beam. When the reader beam is
// toward a tag, the tag modulates and reflects the reader's signal back."
// The scanner sweeps a codebook, measures modulated power in each beam
// position with the power detector, and reports the beams where a tag
// responded. Because the tag is retrodirective, the tag needs no part in
// the search — exactly the paper's point.
#pragma once

#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/reader/detector.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::reader {

/// Result of probing one beam position.
struct BeamProbe {
  antenna::Beam beam;
  double reflect_power_dbm = -300.0;  ///< Measured, tag reflective.
  double absorb_power_dbm = -300.0;   ///< Measured, tag absorptive.
  bool tag_detected = false;
  double achievable_rate_bps = 0.0;
};

/// Result of a full scan.
struct ScanResult {
  std::vector<BeamProbe> probes;
  int best_beam_index = -1;  ///< Probe with the strongest detection, or -1.
  int probes_used = 0;

  [[nodiscard]] bool found_tag() const { return best_beam_index >= 0; }
};

class BeamScanner {
 public:
  BeamScanner(MmWaveReader reader, PowerDetector detector);

  /// Exhaustively probe `codebook`, measuring the tag in both switch states
  /// per beam (the tag toggles continuously, the reader just watches the
  /// excursion). Returns every probe plus the winner.
  [[nodiscard]] ScanResult scan(const std::vector<antenna::Beam>& codebook,
                                const core::MmTag& tag,
                                const channel::Environment& env,
                                const phy::RateTable& rates,
                                sim::Rng& rng);

  [[nodiscard]] MmWaveReader& reader() { return reader_; }
  [[nodiscard]] const MmWaveReader& reader() const { return reader_; }

 private:
  /// Probe a single beam position.
  [[nodiscard]] BeamProbe probe_beam(const antenna::Beam& beam,
                                     const core::MmTag& tag,
                                     const channel::Environment& env,
                                     const phy::RateTable& rates,
                                     sim::Rng& rng);

  MmWaveReader reader_;
  PowerDetector detector_;
};

}  // namespace mmtag::reader
