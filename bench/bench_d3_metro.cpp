// Deployment D3: metro-scale world model — 2k -> 100k -> 1M tags.
//
// The deploy fleet tops out around 10^4 tags (per-object layout, O(tags)
// queries). This bench exercises the scale layer (SoA TagStore + uniform
// grid + squared-distance link model, DESIGN.md Sec. 14) three orders of
// magnitude further and verifies its engineering claims:
//   1. determinism under sharding — a full epoch sweep over the default
//      1M-tag world produces bit-identical state fingerprints (every
//      per-tag byte hashed) at {1, 4, hw} threads, hard failure on
//      mismatch;
//   2. the spatial index pays — at 100k tags the indexed query path hands
//      the service shards >= 10x fewer candidates than a linear scan, for
//      bit-identical simulation state (both hard-checked);
//   3. scaling shape — a tag sweep 2k -> 100k -> 1M quotes wall time and
//      per-epoch query cost so EXPERIMENTS.md can track the O(cell
//      occupancy) claim.
//
// Standard harness flags plus --tags N, --margin-tags N, --epochs E,
// --grid G (G x G readers). Out-of-range --tags, --margin-tags or --grid
// print the MetroConfig validation error and exit 2, as does --epochs
// below 1.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/scale/world.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

scale::MetroConfig metro_config(std::size_t tags, int grid,
                                std::uint64_t seed) {
  scale::MetroConfig config;
  config.width_m = 200.0;
  config.height_m = 200.0;
  config.readers_x = grid;
  config.readers_y = grid;
  config.tags = tags;
  config.index_cell_m = 5.0;
  config.seed = seed;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  int tags = 1000000;
  int margin_tags = 100000;
  int epochs = 3;
  int grid = 4;
  bench::Parser parser("d3_metro",
                       "metro-scale world: determinism, index margin, "
                       "tag scaling");
  parser.add_int("--tags", &tags, "tag count for the determinism sweep");
  parser.add_int("--margin-tags", &margin_tags,
                 "tag count for the index-vs-linear margin check");
  parser.add_int("--epochs", &epochs, "epochs per world run");
  parser.add_int("--grid", &grid, "reader grid side (G x G readers)");
  std::string kern_name;
  bench::add_kern_flag(parser, &kern_name);
  if (!parser.parse(argc, argv)) return parser.exit_code();
  if (!bench::apply_kern_flag(kern_name)) return 2;
  const std::uint64_t seed = parser.options().seed;
  if (epochs < 1) {
    std::fprintf(stderr, "error: --epochs must be >= 1 (got %d)\n", epochs);
    return 2;
  }
  try {
    metro_config(static_cast<std::size_t>(tags), grid, seed).validate();
    metro_config(static_cast<std::size_t>(margin_tags), grid, seed)
        .validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  bench::Harness harness(parser.options());
  bool fail = false;

  // --- 1. Thread scaling + hard determinism check -----------------------
  // {1, 4, hw} clipped to the machine. The state fingerprint hashes every
  // per-tag byte (pose, energy, MAC columns), so a single divergent bit
  // anywhere in the million-tag world fails the bench.
  // Oversubscription is deliberate: on a small machine threads=4 still
  // exercises the sharded epoch, and determinism must hold regardless.
  const int hw = sim::default_thread_count();
  const std::vector<int> thread_grid = bench::thread_grid({1, 4, hw}, false);

  const std::vector<std::string> scaling_headers = {
      "threads", "wall_s", "tag_epochs/s", "reads", "delivered_mbit",
      "state_fingerprint"};
  sim::Table scaling(scaling_headers);

  harness.add("thread_scaling", [&](bench::CaseContext& ctx) {
    scaling = sim::Table(scaling_headers);
    double tag_epochs = 0.0;
    const auto run = [&](int threads) -> std::vector<std::uint64_t> {
      scale::MetroWorld world(
          metro_config(static_cast<std::size_t>(tags), grid, seed));
      sim::ThreadPool pool(threads);
      sim::SweepStats sweep;
      sweep.threads = pool.size();
      const auto t0 = std::chrono::steady_clock::now();
      for (int e = 0; e < epochs; ++e) (void)world.run_epoch(pool);
      sweep.wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      const std::uint64_t state = world.state_fingerprint();
      const scale::MetroStats stats = world.stats();
      const double te = static_cast<double>(tags) * epochs;
      scaling.add_row(
          {std::to_string(threads), sim::Table::fmt(sweep.wall_s, 3),
           sim::Table::fmt(sweep.wall_s > 0.0 ? te / sweep.wall_s : 0.0, 0),
           std::to_string(stats.tags_read),
           sim::Table::fmt(stats.delivered_bits / 1e6, 2),
           bench::hex64(state)});
      tag_epochs += te;
      return {state};
    };
    if (!bench::check_thread_invariance("state fingerprint", thread_grid,
                                        run)) {
      fail = true;
    }
    ctx.set_units(tag_epochs, "tag epochs");
  });

  // --- 2. Indexed vs linear query path ----------------------------------
  // Same world, same physics, two query strategies. Bit-identity proves
  // the index is a pure accelerator; the candidate-count margin is the
  // O(tags) -> O(cell occupancy) claim, hard-checked at >= 10x.
  const std::vector<std::string> margin_headers = {
      "path", "candidates", "cells_visited", "wall_s", "state_fingerprint"};
  sim::Table margin_table(margin_headers);
  double margin = 0.0;

  harness.add("index_vs_linear", [&](bench::CaseContext& ctx) {
    scale::MetroConfig indexed_cfg =
        metro_config(static_cast<std::size_t>(margin_tags), grid, seed);
    scale::MetroConfig linear_cfg = indexed_cfg;
    linear_cfg.use_index = false;

    scale::MetroWorld indexed(indexed_cfg);
    scale::MetroWorld linear(linear_cfg);
    sim::ThreadPool pool(parser.options().threads);

    std::uint64_t indexed_cands = 0;
    std::uint64_t indexed_cells = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int e = 0; e < epochs; ++e) {
      const scale::MetroEpochStats stats = indexed.run_epoch(pool);
      indexed_cands += stats.candidates;
      indexed_cells += stats.cells_visited;
    }
    const double indexed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    std::uint64_t linear_cands = 0;
    const auto t1 = std::chrono::steady_clock::now();
    for (int e = 0; e < epochs; ++e) {
      linear_cands += linear.run_epoch(pool).candidates;
    }
    const double linear_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t1)
                                .count();

    const std::uint64_t fp_indexed = indexed.state_fingerprint();
    const std::uint64_t fp_linear = linear.state_fingerprint();

    margin_table = sim::Table(margin_headers);
    margin_table.add_row(
        {"indexed", std::to_string(indexed_cands),
         std::to_string(indexed_cells), sim::Table::fmt(indexed_s, 3),
         bench::hex64(fp_indexed)});
    margin_table.add_row({"linear", std::to_string(linear_cands), "-",
                          sim::Table::fmt(linear_s, 3),
                          bench::hex64(fp_linear)});

    if (fp_indexed != fp_linear) {
      std::fprintf(stderr,
                   "FAIL: index changed the simulation (%s vs %s)\n",
                   bench::hex64(fp_indexed).c_str(),
                   bench::hex64(fp_linear).c_str());
      fail = true;
    }
    if (indexed.stats().fingerprint() != linear.stats().fingerprint()) {
      std::fprintf(stderr, "FAIL: aggregate stats diverged across paths\n");
      fail = true;
    }
    margin = indexed_cands > 0 ? static_cast<double>(linear_cands) /
                                     static_cast<double>(indexed_cands)
                               : 0.0;
    if (margin < 10.0) {
      std::fprintf(stderr,
                   "FAIL: index candidate margin %.1fx < 10x at %d tags\n",
                   margin, margin_tags);
      fail = true;
    }
    ctx.set_units(static_cast<double>(linear_cands), "candidates");
  });

  // --- 3. Tag scaling sweep (hw threads) --------------------------------
  const std::size_t sweep_sizes[] = {2000, 100000,
                                     static_cast<std::size_t>(tags)};
  const std::vector<std::string> sweep_headers = {
      "tags", "wall_s", "tag_epochs/s", "cands/epoch", "detected",
      "reads", "delivered_mbit", "interference"};
  sim::Table sweep_table(sweep_headers);

  harness.add("tag_scaling", [&](bench::CaseContext& ctx) {
    sweep_table = sim::Table(sweep_headers);
    double tag_epochs = 0.0;
    sim::ThreadPool pool(parser.options().threads);
    for (const std::size_t n : sweep_sizes) {
      scale::MetroWorld world(metro_config(n, grid, seed));
      std::uint64_t cands = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int e = 0; e < epochs; ++e) {
        cands += world.run_epoch(pool).candidates;
      }
      const double wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      const scale::MetroStats stats = world.stats();
      const double te = static_cast<double>(n) * epochs;
      sweep_table.add_row(
          {std::to_string(n), sim::Table::fmt(wall_s, 3),
           sim::Table::fmt(wall_s > 0.0 ? te / wall_s : 0.0, 0),
           std::to_string(cands / static_cast<std::uint64_t>(epochs)),
           std::to_string(stats.detected), std::to_string(stats.tags_read),
           sim::Table::fmt(stats.delivered_bits / 1e6, 2),
           std::to_string(stats.interference_pairs)});
      tag_epochs += te;
    }
    ctx.set_units(tag_epochs, "tag epochs");
  });

  const int rc = harness.run();
  if (rc != 0) return rc;

  if (parser.csv()) {
    std::fputs(scaling.to_csv().c_str(), stdout);
    std::fputs(margin_table.to_csv().c_str(), stdout);
    std::fputs(sweep_table.to_csv().c_str(), stdout);
  } else {
    char title[128];
    std::snprintf(title, sizeof title,
                  "D3 — metro thread scaling (%d tags, %dx%d readers, "
                  "hw=%d)",
                  tags, grid, grid, hw);
    scaling.print(title);
    std::snprintf(title, sizeof title,
                  "D3 — indexed vs linear query path (%d tags)",
                  margin_tags);
    margin_table.print(title);
    std::printf("index candidate margin: %.1fx (>= 10x required)\n\n",
                margin);
    sweep_table.print("D3 — tag scaling sweep");
  }
  return fail ? 1 : 0;
}
