// Beam tracking: keeping the reader's beam on a moving tag between scans.
//
// A full codebook sweep per motion step would waste most of the airtime on
// probing (the very overhead the beam-search literature the paper cites
// tries to cut). The tracker closes the loop cheaply:
//
//   * an alpha-beta filter predicts the tag bearing from past fixes,
//   * each step probes only the predicted beam and its two neighbours,
//   * a miss triggers re-acquisition by full scan on the next step.
//
// This quantifies the other half of the paper's story: the tag side is
// alignment-free (Van Atta), and the reader side needs only this much work.
#pragma once


#include "src/reader/scanner.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::reader {

class BeamTracker {
 public:
  BeamTracker(BeamScanner scanner, std::vector<antenna::Beam> full_codebook);

  /// One tracking step at time `t_s`: probe around the prediction (or run
  /// a full re-acquisition scan after a miss), update the filter, and
  /// return the link through the chosen beam. Returns a report with rate 0
  /// when even re-acquisition fails.
  LinkReport step(double t_s, const core::MmTag& tag,
                  const channel::Environment& env,
                  const phy::RateTable& rates, sim::Rng& rng);

  /// Predicted bearing at time `t_s` [rad].
  [[nodiscard]] double predicted_bearing_rad(double t_s) const;

  [[nodiscard]] bool is_locked() const { return locked_; }
  [[nodiscard]] int full_scans_used() const { return full_scans_; }
  [[nodiscard]] int probes_used() const { return probes_; }

 private:
  /// Probe one beam direction; returns the link if the tag was detected.
  [[nodiscard]] std::optional<LinkReport> probe(double bearing_rad,
                                                const core::MmTag& tag,
                                                const channel::Environment& env,
                                                const phy::RateTable& rates,
                                                sim::Rng& rng);

  void update_filter(double t_s, double measured_bearing_rad);

  BeamScanner scanner_;
  std::vector<antenna::Beam> full_codebook_;

  bool locked_ = false;
  double bearing_rad_ = 0.0;
  double bearing_rate_rad_s_ = 0.0;
  double last_fix_t_s_ = 0.0;
  int misses_ = 0;
  int full_scans_ = 0;
  int probes_ = 0;
};

}  // namespace mmtag::reader
