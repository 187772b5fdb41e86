// Composable impairment-stage interface (DESIGN.md Sec. 16).
//
// A stage mutates a complex-baseband waveform in place. The contracts
// that make a pipeline of stages deterministic:
//
//   * Fixed stream ordinals. Every stage owns a compile-time ordinal
//     (PA = 0, phase noise = 1, IQ = 2, ADC = 3) and draws randomness
//     only from sim::Rng(sim::derive_seed(seed, ordinal)), in
//     phy::normal_pairs pairs. Toggling a stage on or off therefore
//     never shifts another stage's stream.
//   * Seed-pure application. apply() is const and uses no state other
//     than the ctor parameters and the passed seed, so the same
//     (waveform, seed) pair always yields the same bits regardless of
//     thread, call order, or how many other entities were processed.
//   * Kernel-exact arithmetic. The per-sample inner loops run through
//     kern::dispatch() kernels restricted to exactly-rounded IEEE ops;
//     transcendental evaluation (cos/sin for phase-noise coefficients)
//     happens in scalar stage code outside the kernels. Output is
//     bit-identical across the scalar and AVX2 backends.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/phy/waveform.hpp"

namespace mmtag::impair {

/// One hardware non-ideality applied in place to a waveform.
class ImpairmentStage {
 public:
  virtual ~ImpairmentStage() = default;

  /// Stable stage name, used for obs metric paths and loss reports.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True for stages applied before channel noise (transmit side),
  /// false for receive-side stages.
  [[nodiscard]] virtual bool tx_side() const = 0;

  /// Fixed RNG stream ordinal (never changes with enablement).
  [[nodiscard]] virtual std::uint64_t stream_ordinal() const = 0;

  /// Mutate `samples` in place. `seed` is the per-(epoch, entity) base
  /// seed; the stage derives its own stream from it via its ordinal.
  /// Deterministic stages ignore the seed entirely.
  virtual void apply(phy::Waveform& samples, std::uint64_t seed) const = 0;

  /// Small-signal error-vector-magnitude-squared contribution of this
  /// stage against a unit-power signal (linear power ratio). Feeds the
  /// per-stage loss decomposition in src/impair/loss.hpp.
  [[nodiscard]] virtual double evm_squared() const = 0;
};

}  // namespace mmtag::impair
