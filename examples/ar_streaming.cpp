// AR-glasses streaming: the paper's motivating application (Sec. 1 names
// "augmented reality (AR) lenses" among the emerging applications that
// need far more than a Mbps on a harvested-energy budget).
//
// A user wearing a tagged AR headset walks a loop through an office while
// two corner readers track them. The tag's retrodirective aperture covers
// its front half-plane, so a single reader loses the wearer whenever they
// face away; with a reader in each of two opposite corners, whichever one
// the headset faces carries the stream (a realistic deployment, and a
// mini handover protocol). The energy model then checks whether the
// headset could sustain the session's average modulation rate from
// harvested light.
#include <cstdio>

#include "src/channel/mobility.hpp"
#include "src/core/energy.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/table.hpp"

namespace {

struct WalkStep {
  double t_s = 0.0;
  mmtag::channel::Vec2 pos{0.0, 0.0};
  int reader = 0;
  double range_ft = 0.0;
  bool nlos = false;
  double power_dbm = -300.0;
  double rate_bps = 0.0;
};

}  // namespace

int main() {
  using namespace mmtag;

  // Office room (5 x 4 m, smooth north wall) with the reader in the
  // south-west corner looking into the room.
  const channel::Environment office = channel::Environment::office_room();
  std::vector<reader::MmWaveReader> readers = {
      reader::MmWaveReader::prototype_at(
          core::Pose{{0.3, 0.3}, phys::deg_to_rad(45.0)}),     // SW corner.
      reader::MmWaveReader::prototype_at(
          core::Pose{{4.7, 3.7}, phys::deg_to_rad(-135.0)}),   // NE corner.
  };
  const auto rates = phy::RateTable::mmtag_standard();

  // The wearer walks a loop: desk -> window -> whiteboard -> desk.
  const channel::WaypointMobility walk(
      {{1.2, 1.0}, {4.2, 1.2}, {4.0, 3.2}, {1.5, 3.0}, {1.2, 1.0}},
      /*speed_m_per_s=*/1.0);

  const double kStep = 0.5;  // Report every half second.
  const std::size_t steps =
      static_cast<std::size_t>(walk.total_duration_s() / kStep) + 1;

  // Every half-second snapshot of the walk is independent: shard the
  // timeline across the parallel sweep engine. Each task steers private
  // copies of the readers, so the shared deployment is never mutated.
  sim::ThreadPool pool;
  sim::SweepStats stats;
  const auto timeline = sim::parallel_sweep(
      pool, steps,
      [&](std::size_t s) {
        WalkStep step;
        step.t_s = static_cast<double>(s) * kStep;
        step.pos = walk.position(step.t_s);
        // Headset orientation follows the walking direction (worst case
        // for a fixed-beam tag; irrelevant for the retrodirective one).
        const channel::Vec2 ahead = walk.position(step.t_s + 0.1);
        const double heading =
            (ahead.x != step.pos.x || ahead.y != step.pos.y)
                ? channel::bearing_rad(step.pos, ahead)
                : 0.0;
        const core::MmTag headset = core::MmTag::prototype_at(
            core::Pose{step.pos, heading}, 77);

        // Handover: each reader beam-tracks the headset; the session
        // rides on whichever link is stronger this step.
        reader::LinkReport best_link;
        for (std::size_t r = 0; r < readers.size(); ++r) {
          reader::MmWaveReader tracked = readers[r];
          const auto paths = channel::trace_paths(
              office, tracked.pose().position, step.pos);
          tracked.steer_to_world(paths.front().departure_rad);
          const auto link = tracked.evaluate_link(headset, office, rates);
          if (link.received_power_dbm > best_link.received_power_dbm) {
            best_link = link;
            step.reader = static_cast<int>(r);
          }
        }
        step.range_ft = phys::m_to_feet(channel::distance(
            readers[static_cast<std::size_t>(step.reader)].pose().position,
            step.pos));
        step.nlos = best_link.path.kind == channel::PathKind::kReflected;
        step.power_dbm = best_link.received_power_dbm;
        step.rate_bps = best_link.achievable_rate_bps;
        return step;
      },
      &stats);

  sim::Table table(
      {"t_s", "pos", "reader", "range_ft", "path", "power_dbm", "rate"});
  double bits_delivered = 0.0;
  double time_connected = 0.0;
  for (const WalkStep& step : timeline) {
    bits_delivered += step.rate_bps * kStep;
    if (step.rate_bps > 0.0) time_connected += kStep;
    char pos_text[32];
    std::snprintf(pos_text, sizeof(pos_text), "(%.1f,%.1f)", step.pos.x,
                  step.pos.y);
    table.add_row({sim::Table::fmt(step.t_s, 1), pos_text,
                   step.reader == 0 ? "SW" : "NE",
                   sim::Table::fmt(step.range_ft, 1),
                   step.nlos ? "NLOS" : "LOS",
                   sim::Table::fmt(step.power_dbm, 1),
                   sim::Table::fmt_rate(step.rate_bps)});
  }
  table.print("AR headset walking loop — tracked backscatter link");
  sim::sweep_stats_table(stats).print("walk timeline sweep throughput");

  const double duration = walk.total_duration_s();
  const double mean_rate = bits_delivered / duration;
  std::printf("\nconnected %.0f%% of the walk, mean goodput %s\n",
              100.0 * time_connected / duration,
              sim::Table::fmt_rate(mean_rate).c_str());

  // Could the headset modulate at that average rate batteryless?
  const core::TagEnergyModel energy = core::TagEnergyModel::mmtag_prototype();
  const double indoor = core::TagEnergyModel::harvested_power_w(
      core::HarvestSource::kIndoorLight);
  std::printf(
      "modulation power at mean rate: %sW; indoor-light harvest: %sW -> %s\n",
      sim::Table::fmt_si(energy.modulation_power_w(mean_rate), 2).c_str(),
      sim::Table::fmt_si(indoor, 2).c_str(),
      energy.modulation_power_w(mean_rate) < indoor
          ? "sustainable continuously"
          : "needs duty cycling / storage");
  return 0;
}
