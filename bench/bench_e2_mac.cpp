// Extension E2 (paper Sec. 9): multi-tag support via SDM beam scanning
// with framed-Aloha contention inside each beam, plus the MIMO multi-beam
// reader. Sweeps the tag population and reports inventory latency and
// aggregate identifier throughput.
#include <cstdio>

#include "bench/bench_main.hpp"
#include "src/channel/geometry.hpp"
#include "src/mac/inventory.hpp"
#include "src/mac/mimo_reader.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/table.hpp"

namespace {

std::vector<mmtag::core::MmTag> arc_of_tags(int count, double radius_m) {
  using namespace mmtag;
  std::vector<core::MmTag> tags;
  for (int i = 0; i < count; ++i) {
    const double bearing =
        phys::deg_to_rad(-55.0 + 110.0 * i / std::max(1, count - 1));
    const channel::Vec2 pos{radius_m * std::cos(bearing),
                            radius_m * std::sin(bearing)};
    tags.push_back(core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, {0.0, 0.0})},
        static_cast<std::uint32_t>(i + 1)));
  }
  return tags;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmtag;
  bench::Parser parser("e2_mac",
                       "SDM inventory latency vs tag population");
  if (!parser.parse(argc, argv)) return parser.exit_code();
  bench::Harness harness(parser.options());

  const auto rates = phy::RateTable::mmtag_standard();
  const channel::Environment env;
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 17.0);
  const auto reader =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0});
  const mac::InventoryConfig config;

  const std::vector<std::string> headers = {
      "tags", "read", "rounds_max", "slots", "efficiency", "time_ms",
      "throughput", "mimo4_time_ms", "mimo4_speedup"};
  sim::Table table(headers);

  harness.add("population_sweep", [&](bench::CaseContext& ctx) {
    table = sim::Table(headers);
    int total_tags = 0;
    for (const int population : {1, 2, 4, 8, 16, 32, 64}) {
      auto rng = sim::make_rng(sim::derive_seed(
          ctx.seed(), 1000 + static_cast<std::uint64_t>(population)));
      const auto tags = arc_of_tags(population, phys::feet_to_m(4.0));

      mac::SdmInventory sdm(reader, rates, config);
      const auto result = sdm.run(codebook, tags, env, rng);
      long slots = 0;
      int rounds_max = 0;
      for (const auto& beam : result.beams) {
        slots += beam.aloha.slots_total;
        rounds_max = std::max(rounds_max, beam.aloha.rounds);
      }
      const double efficiency =
          slots > 0 ? static_cast<double>(result.tags_read) / slots : 0.0;

      auto rng_mimo = sim::make_rng(sim::derive_seed(
          ctx.seed(), 2000 + static_cast<std::uint64_t>(population)));
      mac::MimoInventory mimo(reader, rates, config, 4);
      const auto mimo_result = mimo.run(codebook, tags, env, rng_mimo);

      table.add_row({std::to_string(population),
                     std::to_string(result.tags_read),
                     std::to_string(rounds_max), std::to_string(slots),
                     sim::Table::fmt(efficiency, 2),
                     sim::Table::fmt(result.total_time_s * 1e3, 3),
                     sim::Table::fmt_rate(result.aggregate_throughput_bps()),
                     sim::Table::fmt(mimo_result.total_time_s * 1e3, 3),
                     sim::Table::fmt(mimo_result.speedup_vs_single, 2)});
      total_tags += population;
    }
    ctx.set_units(total_tags, "tags inventoried");
  });

  if (const int rc = harness.run(); rc != 0) return rc;
  if (parser.csv()) {
    std::fputs(table.to_csv().c_str(), stdout);
    return 0;
  }
  table.print("E2 — SDM inventory + in-beam framed Aloha (and 4-chain MIMO)");
  std::printf(
      "\nGigabit links make even 64-tag inventories take milliseconds; the "
      "4-beam MIMO reader (paper Sec. 9) divides the sweep time by up to "
      "4.\n");
  return 0;
}
