// The Van Atta retrodirective array — the heart of mmTag (paper Sec. 5.2).
//
// Mirrored element pairs are joined by equal-phase transmission lines, so
// the signal received by element n re-radiates from element N-1-n. For an
// incident plane wave from theta the re-radiated aperture phases are
// exactly the transmit steering phases *toward* theta (paper Eq. 5 vs
// Eq. 3), hence the array reflects back to the direction of arrival for any
// incidence angle — passive beam alignment with zero active components.
//
// This class implements that math element-by-element: per-element switch
// states (the shunt FETs of Fig. 4), the measured coupling of the patch
// resonator, the interconnect lines' loss and common phase phi, and the
// element radiation pattern. Everything Fig. 3(b) draws is a term here.
#pragma once

#include <complex>
#include <memory>
#include <optional>
#include <vector>

#include "src/antenna/mutual_coupling.hpp"
#include "src/antenna/pattern.hpp"
#include "src/antenna/ula.hpp"
#include "src/em/patch_element.hpp"
#include "src/em/transmission_line.hpp"

namespace mmtag::core {

using Complex = std::complex<double>;

/// Monostatic gains of the two data-bit states toward one direction [dB
/// relative to an ideal isotropic scatterer].
struct StateGainsDb {
  double off_db = 0.0;  ///< Every switch off: bit '0', reflective.
  double on_db = 0.0;   ///< Every switch on: bit '1', absorptive.
};

class VanAttaArray {
 public:
  struct Config {
    int elements = 6;               ///< Prototype: 6 patches (paper Sec. 7).
    double frequency_hz = 24.0e9;   ///< Design carrier.
    /// Element spacing [m]; 0 selects the conventional half wavelength.
    double spacing_m = 0.0;
  };

  /// Build with explicit per-pair interconnect lines. `pair_lines` must hold
  /// ceil(elements / 2) entries; pair p joins elements p and N-1-p. With an
  /// odd element count the centre element is self-paired through the last
  /// line (standard Van Atta practice). Retrodirectivity only holds when all
  /// line phases are equal modulo 2*pi — tests deliberately violate this.
  VanAttaArray(Config config, em::PatchElement element_model,
               std::vector<em::TransmissionLine> pair_lines);

  /// The fabricated prototype: 6 elements at 24 GHz, half-wavelength
  /// spacing, equal-length (one guided wavelength) interconnects. Every
  /// call returns a copy of one array built once.
  [[nodiscard]] static VanAttaArray mmtag_prototype();

  /// Same as the prototype but with `elements` patches — the knob behind
  /// "the range and data-rate can be further increased by using more
  /// antenna elements" (paper Sec. 8).
  [[nodiscard]] static VanAttaArray with_elements(int elements);

  [[nodiscard]] int size() const { return config_.elements; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Mirrored partner of element `n`.
  [[nodiscard]] int pair_of(int n) const;

  /// Set every switch (the common data line of Fig. 4).
  void set_all_switches(em::SwitchState state);

  /// Set one element's switch (failure injection / per-element tests).
  void set_switch(int n, em::SwitchState state);

  [[nodiscard]] em::SwitchState switch_state(int n) const;

  /// Install an inter-element mutual-coupling matrix (applied once on
  /// reception and once on re-radiation). Must match the element count.
  /// Default: no coupling. Persymmetric matrices (any Toeplitz coupling)
  /// preserve retrodirectivity — see tests.
  void set_mutual_coupling(antenna::CouplingMatrix coupling);

  /// Remove the coupling model.
  void clear_mutual_coupling() { coupling_.reset(); }

  /// Complex re-radiated far-field amplitude for a unit plane wave incident
  /// from `theta_in`, observed at `theta_out`, at carrier `frequency_hz`
  /// (angles relative to the array boresight). Normalized so that a single
  /// ideal isotropic, lossless, perfectly-matched scatterer would give 1.
  /// At the design carrier the feed couplings and line transfers come from
  /// the block computed at construction; at any other frequency the same
  /// calls compute them here (DESIGN.md Sec. 8).
  [[nodiscard]] Complex reradiated_field(double theta_in_rad,
                                         double theta_out_rad,
                                         double frequency_hz) const;

  /// reradiated_field at the design carrier.
  [[nodiscard]] Complex reradiated_field(double theta_in_rad,
                                         double theta_out_rad) const;

  /// Monostatic (reader-sees-its-own-reflection) power gain at the design
  /// carrier [dB relative to an ideal isotropic scatterer].
  [[nodiscard]] double monostatic_gain_db(double theta_rad) const;

  /// Monostatic gains toward `theta_rad` at the design carrier with every
  /// switch off and with every switch on, whatever the switches are set
  /// to now: bit for bit what a copy gives after set_all_switches and
  /// monostatic_gain_db, from one set of steering phasors.
  [[nodiscard]] StateGainsDb monostatic_state_gains_db(double theta_rad) const;

  /// Bistatic power gain [dB] for arbitrary in/out directions.
  [[nodiscard]] double bistatic_gain_db(double theta_in_rad,
                                        double theta_out_rad) const;

  /// Direction of the re-radiated beam's peak for a wave from `theta_in`
  /// [rad] — retrodirectivity means this equals theta_in (within the
  /// element pattern's visible region). Found by golden-section search
  /// refined from a coarse sweep.
  [[nodiscard]] double peak_reradiation_direction_rad(
      double theta_in_rad) const;

  /// Half-power width of the re-radiated beam for a wave from `theta_in`
  /// [deg] — "20 degree beam width" for the 6-element prototype.
  [[nodiscard]] double retro_beamwidth_deg(double theta_in_rad) const;

  /// Effective receive/transmit gain pair used by the scalar link budget:
  /// element boresight gain plus 10*log10(N) on each side [dBi].
  [[nodiscard]] double link_side_gain_dbi() const;

  [[nodiscard]] const em::PatchElement& element_model() const {
    return element_model_;
  }
  [[nodiscard]] const antenna::UniformLinearArray& geometry() const {
    return geometry_;
  }

 private:
  /// The signal flow's frequency-only factors at the design carrier.
  struct CarrierTerms;

  Config config_;
  em::PatchElement element_model_;
  std::vector<em::TransmissionLine> pair_lines_;
  antenna::UniformLinearArray geometry_;
  antenna::PatchPattern element_pattern_;
  std::vector<em::SwitchState> switch_states_;
  std::optional<antenna::CouplingMatrix> coupling_;
  /// Immutable, so every copy shares it: nothing it depends on (element
  /// model, pair lines, carrier) can change after construction.
  std::shared_ptr<const CarrierTerms> carrier_;
};

}  // namespace mmtag::core
