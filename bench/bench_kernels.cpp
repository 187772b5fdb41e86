// Microbenchmarks of the library's hot kernels: the costs a downstream
// user pays per simulation step. Each case runs a fixed iteration count
// per repetition; the harness reports median/p90 wall and cpu time plus
// per-unit throughput, and --compare flags regressions against a saved
// BENCH_kernels.json baseline.
#include <atomic>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/antenna/ula.hpp"
#include "src/channel/environment.hpp"
#include "src/channel/geometry.hpp"
#include "src/channel/raytrace.hpp"
#include "src/core/tag.hpp"
#include "src/core/van_atta.hpp"
#include "src/kern/kern.hpp"
#include "src/mac/aloha.hpp"
#include "src/phy/fft.hpp"
#include "src/phy/ook.hpp"
#include "src/phy/waveform.hpp"
#include "src/phy/rate_table.hpp"
#include "src/phys/constants.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sweep.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

void add_array_factor_case(bench::Harness& harness, int n) {
  harness.add("array_factor_" + std::to_string(n),
              [n](bench::CaseContext& ctx) {
                constexpr int kIters = 20'000;
                const auto array = antenna::UniformLinearArray::half_wavelength(
                    n, phys::kMmTagCarrierHz);
                const auto weights = antenna::uniform_weights(n);
                double theta = 0.1;
                for (int i = 0; i < kIters; ++i) {
                  bench::do_not_optimize(array.array_factor(weights, theta));
                  theta += 1e-4;
                }
                ctx.set_units(kIters, "evals");
              });
}

void add_van_atta_case(bench::Harness& harness, int n) {
  harness.add("van_atta_gain_" + std::to_string(n),
              [n](bench::CaseContext& ctx) {
                constexpr int kIters = 2'000;
                const auto array = core::VanAttaArray::with_elements(n);
                double theta = -0.5;
                for (int i = 0; i < kIters; ++i) {
                  bench::do_not_optimize(array.monostatic_gain_db(theta));
                  theta += 1e-4;
                }
                ctx.set_units(kIters, "evals");
              });
}

void add_link_cases(bench::Harness& harness) {
  harness.add("van_atta_state_gains_6", [](bench::CaseContext& ctx) {
    // Both data-bit states toward one direction, as every link budget
    // asks for them.
    constexpr int kIters = 2'000;
    const auto array = core::VanAttaArray::mmtag_prototype();
    double theta = -0.5;
    for (int i = 0; i < kIters; ++i) {
      bench::do_not_optimize(array.monostatic_state_gains_db(theta));
      theta += 1e-4;
    }
    ctx.set_units(kIters, "evals");
  });
  harness.add("reader_evaluate_path", [](bench::CaseContext& ctx) {
    // One path's link budget, the unit of every fleet link evaluation:
    // the office room's paths from a prototype reader steered at a
    // prototype tag that faces it, in turn.
    constexpr int kIters = 2'000;
    const channel::Vec2 reader_at{1.0, 1.0};
    const channel::Vec2 tag_at{4.0, 3.0};
    auto reader =
        reader::MmWaveReader::prototype_at(core::Pose{reader_at, 0.0});
    reader.steer_to_world(channel::bearing_rad(reader_at, tag_at));
    const auto tag = core::MmTag::prototype_at(
        core::Pose{tag_at, channel::bearing_rad(tag_at, reader_at)});
    const auto rates = phy::RateTable::mmtag_standard();
    const std::vector<channel::Path> paths = channel::trace_paths(
        channel::Environment::office_room(), reader_at, tag_at);
    for (int i = 0; i < kIters; ++i) {
      bench::do_not_optimize(reader.evaluate_path(
          tag, paths[static_cast<std::size_t>(i) % paths.size()], rates));
    }
    ctx.set_units(kIters, "paths");
  });
  harness.add("reader_evaluate_link", [](bench::CaseContext& ctx) {
    // One tag's whole link evaluation, trace included: the office room's
    // paths from a prototype reader steered at a prototype tag that faces
    // it, the strongest of them kept (reflections that cannot win are
    // skipped on their power bound).
    constexpr int kIters = 2'000;
    const channel::Vec2 reader_at{1.0, 1.0};
    const channel::Vec2 tag_at{4.0, 3.0};
    auto reader =
        reader::MmWaveReader::prototype_at(core::Pose{reader_at, 0.0});
    reader.steer_to_world(channel::bearing_rad(reader_at, tag_at));
    const auto tag = core::MmTag::prototype_at(
        core::Pose{tag_at, channel::bearing_rad(tag_at, reader_at)});
    const auto rates = phy::RateTable::mmtag_standard();
    const channel::Environment office = channel::Environment::office_room();
    for (int i = 0; i < kIters; ++i) {
      bench::do_not_optimize(reader.evaluate_link(tag, office, rates));
    }
    ctx.set_units(kIters, "links");
  });
}

void add_ook_modem_case(bench::Harness& harness, std::size_t bits_count) {
  harness.add("ook_modem_" + std::to_string(bits_count),
              [bits_count](bench::CaseContext& ctx) {
                constexpr int kIters = 40;
                auto rng = sim::make_rng(ctx.seed());
                std::bernoulli_distribution coin(0.5);
                phy::BitVector bits(bits_count);
                for (std::size_t i = 0; i < bits.size(); ++i) {
                  bits[i] = coin(rng);
                }
                const phy::OokModulator mod(8);
                const phy::OokDemodulator demod(8);
                for (int i = 0; i < kIters; ++i) {
                  phy::Waveform wave = mod.modulate(bits);
                  bench::do_not_optimize(demod.demodulate(wave));
                }
                ctx.set_units(kIters * bits_count, "bits");
              });
}

void add_ber_sweep_case(bench::Harness& harness, int threads) {
  harness.add(
      "parallel_ber_sweep_t" + std::to_string(threads),
      [threads](bench::CaseContext& ctx) {
        // The E4 hot path: a 13-point SNR grid through the waveform-level
        // modem, sharded across a pool. The result is bit-identical at
        // every thread count (see test_parallel.cpp); only wall time
        // moves.
        sim::ThreadPool pool(threads);
        sim::MonteCarloLink::Params params;
        params.min_bits = 4'000;
        params.max_bits = 4'000;
        const sim::MonteCarloLink link{params};
        const std::vector<double> snrs = sim::linspace(0.0, 12.0, 13);
        const sim::BerSweepResult sweep =
            link.measure_ber_sweep(snrs, ctx.seed() + 98, pool);
        bench::do_not_optimize(sweep.points.data());
        ctx.set_units(sweep.stats.units, "bits");
      });
}

void add_pool_dispatch_case(bench::Harness& harness, int threads) {
  harness.add("pool_dispatch_t" + std::to_string(threads),
              [threads](bench::CaseContext& ctx) {
                // Pure pool overhead: empty 64-item parallel_fors, so
                // sweep authors know the fixed cost a grid must amortise.
                constexpr int kIters = 500;
                sim::ThreadPool pool(threads);
                std::atomic<std::size_t> sink{0};
                for (int i = 0; i < kIters; ++i) {
                  pool.parallel_for(64, [&](std::size_t j) {
                    sink.fetch_add(j, std::memory_order_relaxed);
                  });
                }
                bench::do_not_optimize(sink.load());
                ctx.set_units(kIters * 64, "tasks");
              });
}

void add_aloha_case(bench::Harness& harness, int tags, int iters) {
  harness.add("framed_aloha_" + std::to_string(tags),
              [tags, iters](bench::CaseContext& ctx) {
                auto rng = sim::make_rng(ctx.seed() + 2);
                mac::AlohaConfig config;
                for (int i = 0; i < iters; ++i) {
                  bench::do_not_optimize(
                      mac::run_framed_aloha(tags, config, rng));
                }
                ctx.set_units(static_cast<std::uint64_t>(iters) * tags,
                              "tag inventories");
              });
}

// ---- Per-backend SIMD kernel cases ------------------------------------
//
// Each kern:: kernel gets one case per backend the host supports, named
// "<kernel>_<backend>", all doing the identical work via that backend's
// table (no global dispatch switch, so the surrounding cases are
// unaffected). After the harness run, main() prints a speedup table of
// scalar-median / backend-median per kernel — the number EXPERIMENTS.md
// K1's ">= 2x on the FFT" bar reads off.

std::vector<kern::Backend> bench_backends() {
  std::vector<kern::Backend> backends = {kern::Backend::kScalar};
  if (kern::available(kern::Backend::kAvx2)) {
    backends.push_back(kern::Backend::kAvx2);
  }
  return backends;
}

std::vector<double> bench_doubles(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> values(n);
  for (double& v : values) v = uniform(rng);
  return values;
}

std::vector<phy::Complex> bench_complex(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<phy::Complex> values(n);
  for (auto& v : values) {
    // Imaginary part first: the order GCC gave the two-call constructor.
    const double im = uniform(rng);
    const double re = uniform(rng);
    v = phy::Complex(re, im);
  }
  return values;
}

void add_backend_cases(bench::Harness& harness) {
  for (const kern::Backend backend : bench_backends()) {
    const kern::Kernels& k = kern::table(backend);
    const std::string suffix(kern::backend_name(backend));

    // One full FFT (all butterfly stages) through the backend's
    // butterfly_pass, twiddles cached outside the timed loop the way
    // phy::fft uses them.
    harness.add("fft_1024_" + suffix, [&k](bench::CaseContext& ctx) {
      constexpr int kIters = 1'000;
      constexpr std::size_t kN = 1024;
      const auto input = bench_complex(kN, ctx.seed() + 17);
      std::vector<std::vector<phy::Complex>> twiddles;
      for (std::size_t len = 2; len <= kN; len <<= 1) {
        std::vector<phy::Complex> stage(len / 2);
        for (std::size_t j = 0; j < len / 2; ++j) {
          stage[j] = std::polar(
              1.0, -2.0 * 3.141592653589793 * static_cast<double>(j) /
                       static_cast<double>(len));
        }
        twiddles.push_back(std::move(stage));
      }
      std::vector<phy::Complex> work(kN);
      for (int i = 0; i < kIters; ++i) {
        work = input;
        std::size_t stage = 0;
        for (std::size_t len = 2; len <= kN; len <<= 1, ++stage) {
          k.butterfly_pass(work.data(), kN, len, twiddles[stage].data());
        }
        bench::do_not_optimize(work.data());
      }
      ctx.set_units(static_cast<double>(kIters) * kN, "points");
    });

    // Pulse-shaping FIR: 33-tap raised-cosine-sized filter over a frame.
    harness.add("fir_4096_t33_" + suffix, [&k](bench::CaseContext& ctx) {
      constexpr int kIters = 500;
      constexpr std::size_t kN = 4096;
      constexpr std::size_t kTaps = 33;
      const auto x = bench_complex(kN, ctx.seed() + 19);
      const auto taps = bench_doubles(kTaps, ctx.seed() + 23);
      std::vector<phy::Complex> out(kN);
      for (int i = 0; i < kIters; ++i) {
        k.fir_complex(x.data(), kN, taps.data(), kTaps, out.data());
        bench::do_not_optimize(out.data());
      }
      ctx.set_units(static_cast<double>(kIters) * kN, "samples");
    });

    // Frame-check CRC over a 4096-bit payload.
    harness.add("crc16_4096b_" + suffix, [&k](bench::CaseContext& ctx) {
      constexpr int kIters = 20'000;
      constexpr std::size_t kBits = 4096;
      sim::Rng rng(ctx.seed() + 29);
      std::vector<std::uint8_t> bytes(kBits / 8);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      std::uint32_t sink = 0;
      for (int i = 0; i < kIters; ++i) {
        sink ^= k.crc16_bits(bytes.data(), kBits);
      }
      bench::do_not_optimize(sink);
      ctx.set_units(static_cast<double>(kIters) * kBits, "bits");
    });
  }
}

// Speedup table: for every "<kernel>_<backend>" case, median scalar wall
// time over median backend wall time.
void print_speedup_table(const bench::Harness& harness) {
  const std::vector<std::string> kernels = {"fft_1024", "fir_4096_t33",
                                            "crc16_4096b"};
  std::map<std::string, double> medians;
  for (const auto& report : harness.case_reports()) {
    medians[report.name] = report.wall_median_ns;
  }
  std::vector<std::string> headers = {"kernel", "scalar"};
  std::vector<kern::Backend> accel;
  for (const kern::Backend b : bench_backends()) {
    if (b == kern::Backend::kScalar) continue;
    accel.push_back(b);
    headers.push_back(std::string(kern::backend_name(b)) + " speedup");
  }
  if (accel.empty()) return;
  sim::Table table(headers);
  for (const std::string& kernel : kernels) {
    const double scalar_ns = medians[kernel + "_scalar"];
    std::vector<std::string> row = {kernel, bench::format_ns(scalar_ns)};
    for (const kern::Backend b : accel) {
      const double accel_ns =
          medians[kernel + "_" + std::string(kern::backend_name(b))];
      row.push_back(accel_ns > 0.0
                        ? sim::Table::fmt(scalar_ns / accel_ns, 2) + "x"
                        : "n/a");
    }
    table.add_row(row);
  }
  table.print("SIMD kernel speedups (median wall, scalar = 1.0)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Parser parser("kernels", "microbenchmarks of the hot kernels");
  std::string kern_name;
  bench::add_kern_flag(parser, &kern_name);
  if (!parser.parse(argc, argv)) return parser.exit_code();
  if (!bench::apply_kern_flag(kern_name)) return 2;
  bench::Harness harness(parser.options());

  for (const int n : {6, 16, 64}) add_array_factor_case(harness, n);
  for (const int n : {6, 16, 64}) add_van_atta_case(harness, n);
  add_link_cases(harness);

  harness.add("retro_peak_search", [](bench::CaseContext& ctx) {
    constexpr int kIters = 200;
    const auto array = core::VanAttaArray::mmtag_prototype();
    double theta = -0.4;
    for (int i = 0; i < kIters; ++i) {
      bench::do_not_optimize(array.peak_reradiation_direction_rad(theta));
      theta += 0.01;
      if (theta > 0.4) theta = -0.4;
    }
    ctx.set_units(kIters, "searches");
  });

  add_ook_modem_case(harness, 1024);
  add_ook_modem_case(harness, 16384);

  harness.add("awgn_4096", [](bench::CaseContext& ctx) {
    constexpr int kIters = 500;
    constexpr std::size_t kSamples = 4096;
    auto rng = sim::make_rng(ctx.seed() + 1);
    phy::Waveform wave(kSamples, phy::Complex(1.0, 0.0));
    for (int i = 0; i < kIters; ++i) {
      phy::Waveform copy = wave;
      phy::add_awgn(copy, 0.1, rng);
      bench::do_not_optimize(copy.data());
    }
    ctx.set_units(kIters * kSamples, "samples");
  });

  harness.add("raytrace_office", [](bench::CaseContext& ctx) {
    constexpr int kIters = 2'000;
    const auto office = channel::Environment::office_room();
    double x = 1.0;
    for (int i = 0; i < kIters; ++i) {
      bench::do_not_optimize(
          channel::trace_paths(office, {x, 1.0}, {4.0, 3.0}));
      x = x > 3.0 ? 1.0 : x + 0.001;
    }
    ctx.set_units(kIters, "traces");
  });

  for (const int t : {1, 2, 4}) add_ber_sweep_case(harness, t);
  for (const int t : {1, 4}) add_pool_dispatch_case(harness, t);

  add_aloha_case(harness, 16, 2'000);
  add_aloha_case(harness, 128, 500);

  add_backend_cases(harness);

  const int rc = harness.run();
  if (rc == 0 && !parser.csv()) print_speedup_table(harness);
  return rc;
}
