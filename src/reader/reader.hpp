// The mmWave reader (paper Secs. 4 & 7).
//
// The prototype reader is a signal generator and a spectrum analyzer behind
// two co-located directional horns: it transmits a query beam, steers it
// across the sector, and measures the power modulated back by a tag. This
// class reproduces that instrument: steerable TX/RX horn patterns, the
// 20 mW query source, and link evaluation against posed tags over the
// ray-traced channel.
#pragma once

#include <span>

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

/// The query source's transmit power: 20 mW (paper Sec. 7) [dBm].
inline constexpr double kReaderTxPowerDbm = 13.0;
/// Calibrated losses of the physical prototype beyond the ideal models
/// (connectors, polarization, alignment) [dB]. See DESIGN.md Sec. 4.
inline constexpr double kReaderImplementationLossDb = 18.0;

/// The paper's reader: the 20 mW source behind two co-steered
/// antenna::HornPattern::mmtag_reader_horn() horns at
/// phys::kMmTagCarrierHz.
class MmWaveReader {
 public:
  /// The paper's reader at `pose`, steered along the pose's orientation.
  [[nodiscard]] static MmWaveReader prototype_at(core::Pose pose);

  /// Steer both horns (they move together) to world bearing `world_rad`.
  void steer_to_world(double world_rad);

  /// TX/RX gain toward world bearing `world_rad` with the current steering
  /// [dBi]. TX and RX horns are identical and co-steered.
  [[nodiscard]] double gain_dbi(double world_rad) const;

  /// Evaluate the link to `tag` over a specific `path`.
  [[nodiscard]] LinkReport evaluate_path(const core::MmTag& tag,
                                         const channel::Path& path,
                                         const phy::RateTable& rates) const;

  /// Upper bound on evaluate_path(tag, path, rates).received_power_dbm
  /// under any steering [dBm]: evaluate_path's budget, rounded in the same
  /// order, with the horn's boresight gain for both horns and the tag's
  /// VanAttaArray::off_gain_bound_db() for its gain.
  [[nodiscard]] double power_bound_dbm(const core::MmTag& tag,
                                       const channel::Path& path) const;

  /// The report of the first strongest of `paths` (non-empty, in trace
  /// order). A path whose power_bound_dbm falls strictly below the best
  /// power so far cannot win and is not evaluated; a later path replaces
  /// the best only on strictly greater power (DESIGN.md Sec. 8).
  [[nodiscard]] LinkReport evaluate_best_path(
      const core::MmTag& tag, std::span<const channel::Path> paths,
      const phy::RateTable& rates) const;

  /// Evaluate the link over the best available path in `env` (LOS when
  /// clear, else the strongest wall reflection — paper Sec. 4):
  /// evaluate_best_path over trace_paths.
  [[nodiscard]] LinkReport evaluate_link(const core::MmTag& tag,
                                         const channel::Environment& env,
                                         const phy::RateTable& rates) const;

  [[nodiscard]] const core::Pose& pose() const { return pose_; }

 private:
  explicit MmWaveReader(core::Pose pose);

  core::Pose pose_;
  double beam_world_rad_;
};

}  // namespace mmtag::reader
