// Experiment I1 (DESIGN.md Sec. 16, docs/IMPAIRMENTS.md): hardware-
// impairment realism. The paper folds every front-end non-ideality into
// one implementation-loss scalar; this bench turns the calibrated stages
// (PA, LO phase noise, IQ imbalance, ADC) on one at a time and measures
// what each costs in waveform-level BER and frame goodput, next to the
// analytic per-stage loss from the decomposed budget.
//
// Hard self-checks (exit 1 on violation) enforce the suite's contracts:
//   * bypass (all stages off) is bit-identical to the legacy chain,
//   * the all-on sweep is bit-identical for {1, 4, hw} threads,
//   * the all-on sweep is bit-identical under scalar and auto kern
//     backends.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/impair/chain.hpp"
#include "src/impair/loss.hpp"
#include "src/kern/kern.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/sweep.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

struct Variant {
  std::string name;
  impair::ImpairmentConfig config;
};

// off, each calibrated stage alone, then everything at once.
std::vector<Variant> make_variants() {
  const impair::ImpairmentConfig all = impair::ImpairmentConfig::cmos_24ghz();
  std::vector<Variant> variants;
  variants.push_back({"off", impair::ImpairmentConfig::off()});

  Variant pa{"pa", impair::ImpairmentConfig::off()};
  pa.config.pa = all.pa;
  variants.push_back(pa);

  Variant pn{"phase_noise", impair::ImpairmentConfig::off()};
  pn.config.phase_noise = all.phase_noise;
  variants.push_back(pn);

  Variant iq{"iq", impair::ImpairmentConfig::off()};
  iq.config.iq = all.iq;
  variants.push_back(iq);

  Variant adc{"adc", impair::ImpairmentConfig::off()};
  adc.config.adc = all.adc;
  variants.push_back(adc);

  variants.push_back({"all", all});
  return variants;
}

sim::MonteCarloLink::Params link_params(const impair::ImpairmentConfig& config,
                                        std::size_t bits) {
  sim::MonteCarloLink::Params params;
  params.min_bits = bits;
  params.max_bits = bits;
  params.impairments = config;
  return params;
}

// Contract 1: the bypass chain must reproduce the legacy chain's exact
// error counts (it draws nothing from the point streams).
int check_bypass(std::uint64_t seed) {
  const sim::MonteCarloLink legacy{
      link_params(impair::ImpairmentConfig{}, 10'000)};
  const sim::MonteCarloLink bypass{
      link_params(impair::ImpairmentConfig::off(), 10'000)};
  for (const double snr : {4.0, 8.0, 12.0}) {
    const auto a = legacy.measure_ber_point(snr, seed + 17);
    const auto b = bypass.measure_ber_point(snr, seed + 17);
    if (a.bits_sent != b.bits_sent || a.bit_errors != b.bit_errors) {
      std::fprintf(stderr,
                   "FAIL: bypass != legacy at %.1f dB (%zu/%zu vs %zu/%zu)\n",
                   snr, a.bit_errors, a.bits_sent, b.bit_errors, b.bits_sent);
      return 1;
    }
  }
  std::printf("check: bypass == legacy chain on 3 SNR points\n");
  return 0;
}

// Contracts 2+3: with every stage on, error counts must not depend on
// the thread count or the kern backend.
int check_determinism(std::uint64_t seed) {
  const sim::MonteCarloLink link{
      link_params(impair::ImpairmentConfig::cmos_24ghz(), 10'000)};
  const std::vector<double> snrs = sim::linspace(4.0, 12.0, 3);

  const auto run = [&](int threads) {
    sim::ThreadPool pool(threads);
    const auto sweep = link.measure_ber_sweep(snrs, seed + 29, pool);
    std::vector<std::uint64_t> errors;
    for (const auto& p : sweep.points) errors.push_back(p.bit_errors);
    return errors;
  };
  if (!bench::check_thread_invariance(
          "impaired sweep (bit errors)",
          bench::thread_grid({1, 4, sim::default_thread_count()}, false),
          run)) {
    return 1;
  }
  std::printf("check: impaired sweep identical for {1, 4, %d} threads\n",
              sim::default_thread_count());

  sim::ThreadPool pool(2);
  if (!kern::set_backend(kern::Backend::kScalar)) return 2;
  const auto scalar_sweep = link.measure_ber_sweep(snrs, seed + 31, pool);
  if (!kern::set_backend(kern::Backend::kAuto)) return 2;
  const auto auto_sweep = link.measure_ber_sweep(snrs, seed + 31, pool);
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    if (scalar_sweep.points[i].bit_errors != auto_sweep.points[i].bit_errors ||
        scalar_sweep.points[i].bits_sent != auto_sweep.points[i].bits_sent) {
      std::fprintf(stderr, "FAIL: scalar vs %s differ at %.1f dB\n",
                   kern::dispatch().name, snrs[i]);
      return 1;
    }
  }
  std::printf("check: impaired sweep identical under scalar and %s\n",
              kern::dispatch().name);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Parser parser("i1_impair",
                       "per-stage hardware-impairment BER/goodput deltas");
  std::string kern_name;
  bench::add_kern_flag(parser, &kern_name);
  if (!parser.parse(argc, argv)) return parser.exit_code();
  if (!bench::apply_kern_flag(kern_name)) return 2;

  if (const int rc = check_bypass(parser.options().seed); rc != 0) return rc;
  if (const int rc = check_determinism(parser.options().seed); rc != 0) {
    return rc;
  }

  bench::Harness harness(parser.options());
  sim::ThreadPool pool = bench::make_pool(parser.options());

  const std::vector<Variant> variants = make_variants();
  // One BER point at 8 dB and one FER point at 9 dB per variant: the
  // deltas against "off" are the per-stage realism cost.
  const std::vector<double> ber_snrs = {8.0};
  const std::vector<double> fer_snrs = {9.0};
  const int fer_frames = 60;
  const std::size_t payload_bits = 96;

  std::vector<sim::BerSweepResult> ber(variants.size());
  std::vector<sim::FerSweepResult> fer(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const sim::MonteCarloLink link{
        link_params(variants[v].config, 60'000)};
    harness.add("sweep_" + variants[v].name, [&, v, link](
                                                 bench::CaseContext& ctx) {
      ber[v] = link.measure_ber_sweep(ber_snrs, ctx.seed() + 100, pool);
      fer[v] = link.measure_fer_sweep(fer_snrs, fer_frames, payload_bits,
                                      ctx.seed() + 200, pool);
      ctx.set_units(static_cast<double>(ber[v].stats.units), "bits");
    });
  }

  if (const int rc = harness.run(); rc != 0) return rc;

  const double ber_off = ber[0].points[0].ber();
  const double goodput_off = 1.0 - fer[0].points[0].fer();

  sim::Table table({"variant", "evm2", "loss_db", "ber_8db", "x_ber",
                    "fer_9db", "goodput_frac", "d_goodput"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const impair::ImpairmentChain chain(variants[v].config);
    const impair::LossReport loss = impair::decompose(variants[v].config);
    const double b = ber[v].points[0].ber();
    const double goodput = 1.0 - fer[v].points[0].fer();
    char evm2[32];
    std::snprintf(evm2, sizeof(evm2), "%.2e", chain.evm_squared_total());
    char berstr[32];
    std::snprintf(berstr, sizeof(berstr), "%.2e", b);
    table.add_row({variants[v].name, evm2,
                   sim::Table::fmt(loss.modelled_db, 3), berstr,
                   sim::Table::fmt(ber_off > 0.0 ? b / ber_off : 0.0, 2),
                   sim::Table::fmt(fer[v].points[0].fer(), 2),
                   sim::Table::fmt(goodput, 2),
                   sim::Table::fmt(goodput - goodput_off, 2)});
  }

  if (parser.csv()) {
    std::fputs(table.to_csv().c_str(), stdout);
    return 0;
  }
  table.print("I1 — per-stage impairment cost (BER at 8 dB, FER at 9 dB)");
  std::printf(
      "\nloss_db is the analytic stand-alone stage loss at the 7 dB required"
      " SNR; x_ber is measured BER relative to the clean chain. The 'all'"
      " variant is the calibrated 24 GHz CMOS front end whose decomposed"
      " total reproduces the prototype's 14 dB budget"
      " (docs/IMPAIRMENTS.md).\n");
  return 0;
}
