#include "src/impair/chain.hpp"

#include "src/obs/metrics.hpp"

namespace mmtag::impair {
namespace {

// Per-stage application counters. Only enabled stages record, so bypass
// runs leave the obs export bit-identical to the legacy chain.
void record_stage(const ImpairmentStage& stage, std::size_t samples) {
  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::Registry::instance();
    if (stage.name() == "pa") {
      static obs::Counter& applies = registry.counter("impair.stage.pa.applies");
      applies.add();
    } else if (stage.name() == "phase_noise") {
      static obs::Counter& applies =
          registry.counter("impair.stage.phase_noise.applies");
      applies.add();
    } else if (stage.name() == "iq") {
      static obs::Counter& applies = registry.counter("impair.stage.iq.applies");
      applies.add();
    } else {
      static obs::Counter& applies =
          registry.counter("impair.stage.adc.applies");
      applies.add();
    }
    static obs::Counter& total = registry.counter("impair.stage.samples");
    total.add(static_cast<std::uint64_t>(samples));
  } else {
    (void)stage;
    (void)samples;
  }
}

const ImpairmentConfig& validated(const ImpairmentConfig& config) {
  config.validate();
  return config;
}

}  // namespace

ImpairmentChain::ImpairmentChain(const ImpairmentConfig& config)
    : config_(validated(config)),
      pa_(config.pa),
      phase_noise_(config.phase_noise),
      iq_(config.iq),
      adc_(config.adc) {}

void ImpairmentChain::apply_tx(phy::Waveform& samples,
                               std::uint64_t seed) const {
  if (!config_.pa.enabled || samples.empty()) {
    return;
  }
  pa_.apply(samples, seed);
  record_stage(pa_, samples.size());
  static obs::Counter& calls =
      obs::Registry::instance().counter("impair.apply.tx");
  calls.add();
}

void ImpairmentChain::apply_rx(phy::Waveform& samples,
                               std::uint64_t seed) const {
  if (samples.empty()) {
    return;
  }
  bool any = false;
  if (config_.phase_noise.enabled) {
    phase_noise_.apply(samples, seed);
    record_stage(phase_noise_, samples.size());
    any = true;
  }
  if (config_.iq.enabled) {
    iq_.apply(samples, seed);
    record_stage(iq_, samples.size());
    any = true;
  }
  if (config_.adc.enabled) {
    adc_.apply(samples, seed);
    record_stage(adc_, samples.size());
    any = true;
  }
  if (any) {
    static obs::Counter& calls =
        obs::Registry::instance().counter("impair.apply.rx");
    calls.add();
  }
}

std::array<const ImpairmentStage*, 4> ImpairmentChain::stages() const {
  return {&pa_, &phase_noise_, &iq_, &adc_};
}

double ImpairmentChain::evm_squared_total() const {
  double total = 0.0;
  if (config_.pa.enabled) total += pa_.evm_squared();
  if (config_.phase_noise.enabled) total += phase_noise_.evm_squared();
  if (config_.iq.enabled) total += iq_.evm_squared();
  if (config_.adc.enabled) total += adc_.evm_squared();
  return total;
}

}  // namespace mmtag::impair
