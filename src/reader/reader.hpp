// The mmWave reader (paper Secs. 4 & 7).
//
// The prototype reader is a signal generator and a spectrum analyzer behind
// two co-located directional horns: it transmits a query beam, steers it
// across the sector, and measures the power modulated back by a tag. This
// class reproduces that instrument: steerable TX/RX horn patterns, the
// 20 mW query source, and link evaluation against posed tags over the
// ray-traced channel.
#pragma once

#include <vector>

#include "src/antenna/pattern.hpp"
#include "src/channel/environment.hpp"
#include "src/channel/raytrace.hpp"
#include "src/core/tag.hpp"
#include "src/phy/rate_table.hpp"

namespace mmtag::reader {

/// Everything the reader learns about one tag over one path.
struct LinkReport {
  channel::Path path;                 ///< The propagation path used.
  double received_power_dbm = -300.0; ///< Tag reflection, bit-'0' state.
  double modulation_depth_db = 0.0;   ///< Bit-0 minus bit-1 power at reader.
  double achievable_rate_bps = 0.0;   ///< Best rate from the rate table.
};

class MmWaveReader {
 public:
  struct Params {
    double tx_power_dbm = 13.0;  ///< 20 mW (paper Sec. 7).
    antenna::HornPattern horn = antenna::HornPattern::mmtag_reader_horn();
    double frequency_hz = 24.0e9;
    /// Calibrated losses of the physical prototype beyond the ideal models
    /// (connectors, polarization, alignment). See DESIGN.md Sec. 4.
    double implementation_loss_db = 18.0;
  };

  MmWaveReader(core::Pose pose, Params params);

  /// The paper's reader at `pose` with default parameters.
  [[nodiscard]] static MmWaveReader prototype_at(core::Pose pose);

  /// Steer both horns (they move together) to world bearing `world_rad`.
  void steer_to_world(double world_rad);

  /// Current beam boresight (world frame).
  [[nodiscard]] double beam_world_rad() const { return beam_world_rad_; }

  /// TX/RX gain toward world bearing `world_rad` with the current steering
  /// [dBi]. TX and RX horns are identical and co-steered.
  [[nodiscard]] double gain_dbi(double world_rad) const;

  /// Evaluate the link to `tag` over a specific `path`.
  [[nodiscard]] LinkReport evaluate_path(const core::MmTag& tag,
                                         const channel::Path& path,
                                         const phy::RateTable& rates) const;

  /// Evaluate the link over the best available path in `env` (LOS when
  /// clear, else the strongest wall reflection — paper Sec. 4).
  [[nodiscard]] LinkReport evaluate_link(const core::MmTag& tag,
                                         const channel::Environment& env,
                                         const phy::RateTable& rates) const;

  /// All usable paths, each evaluated. Sorted by descending received power.
  [[nodiscard]] std::vector<LinkReport> evaluate_all_paths(
      const core::MmTag& tag, const channel::Environment& env,
      const phy::RateTable& rates) const;

  [[nodiscard]] const core::Pose& pose() const { return pose_; }
  [[nodiscard]] const Params& params() const { return params_; }

 private:
  core::Pose pose_;
  Params params_;
  double beam_world_rad_;
};

}  // namespace mmtag::reader
