#include "src/impair/chain.hpp"

#include "src/obs/metrics.hpp"

namespace mmtag::impair {
namespace {

// Applies one stage the chain has found enabled and counts it. Each stage
// type has its own applies counter, registered on that stage's first
// application (and never with obs compiled out), so bypass runs leave the
// obs export bit-identical to the legacy chain.
template <typename Stage>
void apply_counted(const Stage& stage, const char* applies_name,
                   phy::Waveform& samples, std::uint64_t seed) {
  stage.apply(samples, seed);
  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::Registry::instance();
    static obs::Counter& applies = registry.counter(applies_name);
    static obs::Counter& total = registry.counter("impair.stage.samples");
    applies.add();
    total.add(static_cast<std::uint64_t>(samples.size()));
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
  apply_counted(pa_, "impair.stage.pa.applies", samples, seed);
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
    apply_counted(phase_noise_, "impair.stage.phase_noise.applies", samples,
                  seed);
    any = true;
  }
  if (config_.iq.enabled) {
    apply_counted(iq_, "impair.stage.iq.applies", samples, seed);
    any = true;
  }
  if (config_.adc.enabled) {
    apply_counted(adc_, "impair.stage.adc.applies", samples, seed);
    any = true;
  }
  if (any) {
    static obs::Counter& calls =
        obs::Registry::instance().counter("impair.apply.rx");
    calls.add();
  }
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
