// Extension E3 (paper Sec. 9): self-interference at the reader. Sweeps the
// TX->RX isolation and reports the residual carrier, the SINR of a tag at
// 4 ft, and the surviving rate — quantifying how much isolation the
// "directionality property of mmWave" must buy before full-duplex tricks
// become unnecessary.
#include <cstdio>

#include "bench/bench_main.hpp"
#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"
#include "src/phy/rate_table.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/reader/reader.hpp"
#include "src/reader/self_interference.hpp"
#include "src/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmtag;
  bench::Parser parser("e3_selfint",
                       "residual self-interference vs TX/RX isolation");
  if (!parser.parse(argc, argv)) return parser.exit_code();
  bench::Harness harness(parser.options());

  // Tag power at 4 ft from the Fig. 7 model.
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  const core::MmTag tag = core::MmTag::prototype_at(core::Pose{{0, 0}, 0.0});
  const auto reader = reader::MmWaveReader::prototype_at(
      core::Pose{{phys::feet_to_m(4.0), 0.0}, phys::kPi});
  const auto link =
      reader.evaluate_link(tag, channel::Environment{}, rates);
  const double tag_dbm = link.received_power_dbm;
  const double tx_dbm = reader::kReaderTxPowerDbm;

  const std::vector<std::string> headers = {
      "isolation_db", "residual_dbm", "sinr_2ghz_db", "sinr_20mhz_db",
      "rate"};
  sim::Table table(headers);

  harness.add("isolation_sweep", [&](bench::CaseContext& ctx) {
    table = sim::Table(headers);
    int points = 0;
    for (double isolation = 20.0; isolation <= 100.0; isolation += 10.0) {
      reader::SelfInterferenceModel::Params p;
      p.antenna_isolation_db = isolation;
      const reader::SelfInterferenceModel model(p);
      table.add_row(
          {sim::Table::fmt(isolation, 0),
           sim::Table::fmt(model.residual_dbm(tx_dbm), 1),
           sim::Table::fmt(
               model.sinr_db(tag_dbm, tx_dbm, phys::ghz(2.0),
                             rates.noise()),
               1),
           sim::Table::fmt(
               model.sinr_db(tag_dbm, tx_dbm, phys::mhz(20.0),
                             rates.noise()),
               1),
           sim::Table::fmt_rate(
               model.achievable_rate_bps(tag_dbm, tx_dbm, rates))});
      ++points;
    }
    ctx.set_units(points, "isolation points");
  });

  if (const int rc = harness.run(); rc != 0) return rc;
  if (parser.csv()) {
    std::fputs(table.to_csv().c_str(), stdout);
    return 0;
  }
  table.print("E3 — self-interference vs TX/RX isolation (tag at 4 ft, "
              "-63.7 dBm)");
  std::printf(
      "\nTwo co-located 18-degree horns plus mmWave directionality supply "
      "~40-60 dB for free; the gigabit tier returns once total suppression "
      "approaches ~85-90 dB, i.e. directional isolation plus one modest "
      "analog cancellation stage — no BackFi-style full-duplex radio.\n");
  return 0;
}
