// Composed impairment pipeline (DESIGN.md Sec. 16).
//
// The chain owns one instance of each stage and applies them in the
// fixed physical order
//
//   TX side:  PA nonlinearity                    (before channel noise)
//   RX side:  phase noise -> IQ imbalance -> ADC (after channel noise)
//
// Disabled stages are skipped without drawing RNG values or touching
// obs, so a fully-disabled chain (bypass) leaves the waveform, every
// RNG stream, and every metric bit-identical to the legacy code path.
// Each stage derives its own RNG stream from the caller's
// per-(epoch, entity) seed via its fixed ordinal, so results are
// bit-identical for any thread count and any stage on/off combination.
#pragma once

#include <array>
#include <cstdint>

#include "src/impair/config.hpp"
#include "src/impair/stages.hpp"

namespace mmtag::impair {

/// The four-stage impairment pipeline, copyable and seed-pure.
class ImpairmentChain {
 public:
  /// Bypass chain (ImpairmentConfig::off()).
  ImpairmentChain();
  /// Chain with the given stage parameters; derived constants are
  /// precomputed once here. Throws std::invalid_argument when `config`
  /// fails ImpairmentConfig::validate().
  explicit ImpairmentChain(const ImpairmentConfig& config);

  /// The configuration the chain was built from.
  [[nodiscard]] const ImpairmentConfig& config() const { return config_; }

  /// True when any stage is enabled; false means bypass.
  [[nodiscard]] bool enabled() const { return config_.any_enabled(); }

  /// Apply the enabled transmit-side stages (PA) in place. `seed` is the
  /// per-(epoch, entity) base seed shared with apply_rx.
  void apply_tx(phy::Waveform& samples, std::uint64_t seed) const;

  /// Apply the enabled receive-side stages (phase noise, IQ, ADC) in
  /// their fixed order, in place.
  void apply_rx(phy::Waveform& samples, std::uint64_t seed) const;

  /// apply_tx followed by apply_rx — the noiseless-channel composition.
  void apply(phy::Waveform& samples, std::uint64_t seed) const;

  /// Stage views in fixed pipeline order (PA, phase noise, IQ, ADC),
  /// present regardless of enablement.
  [[nodiscard]] std::array<const ImpairmentStage*, 4> stages() const;

  /// Sum of evm_squared() over the *enabled* stages — the joint
  /// small-signal distortion power against a unit-power signal.
  [[nodiscard]] double evm_squared_total() const;

 private:
  ImpairmentConfig config_;
  PaStage pa_;
  PhaseNoiseStage phase_noise_;
  IqImbalanceStage iq_;
  AdcStage adc_;
};

}  // namespace mmtag::impair
