// link_sweep: sim::MonteCarloLink on a 7-point 0-12 dB grid.
//
// One closed-loop operation is a BER sweep (impairments off, bulk sample
// path, 100k bits per point) followed by an FER sweep (96-bit frames
// through Manchester and CRC with ImpairmentConfig::cmos_24ghz(), the
// per-frame path), both on the 4-thread pool. The gate checks the clean
// BER curve against the coherent-OOK closed form and pins the digest every
// timed sweep must reproduce.
//
// Traced sweeps replay every point's exact loop on the coordinating
// thread with a span around each public call (modulate, encode, impairment
// TX/RX, AWGN, demodulate, line decode, frame parse). A replayed point
// counts only if its errors / failures equal those of the real
// measure_ber_point / measure_fer_point call, run serially beside it; the
// serial real calls are also the untraced side of the tracing overhead.
#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <vector>

#include "common.hpp"
#include "src/impair/config.hpp"
#include "src/obs/stats.hpp"
#include "src/phy/ber.hpp"
#include "src/phy/frame.hpp"
#include "src/phy/line_code.hpp"
#include "src/phy/ook.hpp"
#include "src/phy/waveform.hpp"
#include "src/reader/receive_chain.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sweep.hpp"

namespace perfbench {

namespace {

using namespace mmtag;

constexpr std::size_t kBerBits = 100'000;
constexpr int kFerFrames = 80;
constexpr std::size_t kPayloadBits = 96;
/// Set-up samples taken before each timed operation.
constexpr int kSetupPerOp = 4;
/// Two-sided z of the binomial gate (Wilson score interval).
constexpr double kGateZ = 5.0;
/// Computed bytes per sample on the bulk BER path: modulate writes the
/// 16-byte complex sample, mean_power reads it, add_awgn reads and writes
/// it, demodulate reads it.
constexpr double kBytesPerSample = 16 + 16 + 32 + 16;

sim::MonteCarloLink::Params ber_params() {
  sim::MonteCarloLink::Params params;
  params.min_bits = kBerBits;
  params.max_bits = kBerBits;
  return params;
}

sim::MonteCarloLink::Params fer_params() {
  sim::MonteCarloLink::Params params;
  params.impairments = impair::ImpairmentConfig::cmos_24ghz();
  return params;
}

/// True when `p` lies inside the Wilson score interval of k errors in n.
bool within_binomial_bound(std::size_t k, std::size_t n, double p) {
  const double nn = static_cast<double>(n);
  const double phat = static_cast<double>(k) / nn;
  const double z2 = kGateZ * kGateZ;
  const double centre = (phat + z2 / (2 * nn)) / (1 + z2 / nn);
  const double half =
      kGateZ / (1 + z2 / nn) * std::sqrt(phat * (1 - phat) / nn + z2 / (4 * nn * nn));
  return p >= centre - half && p <= centre + half;
}

std::uint64_t sweep_digest(const sim::BerSweepResult& ber, const sim::FerSweepResult& fer) {
  obs::Fnv1a h;
  for (const sim::BerMeasurement& m : ber.points) {
    h.mix_u64(m.bits_sent);
    h.mix_u64(m.bit_errors);
  }
  for (const sim::FerMeasurement& m : fer.points) {
    h.mix_u64(static_cast<std::uint64_t>(m.frames));
    h.mix_u64(static_cast<std::uint64_t>(m.failures));
  }
  return h.digest();
}

struct BerReplay {
  std::size_t bits = 0;
  std::size_t errors = 0;
  std::size_t samples = 0;
};

/// MonteCarloLink::measure_ber's block loop, call by call (bypass chain).
BerReplay replay_ber_point(const sim::MonteCarloLink& link, double snr_db,
                           std::uint64_t seed, Tracer* tracer) {
  const sim::MonteCarloLink::Params& p = link.params();
  std::mt19937_64 rng = sim::make_rng(seed);
  const phy::OokModulator mod(p.samples_per_symbol, p.modulation_depth_db);
  const phy::OokDemodulator demod(p.samples_per_symbol);
  std::bernoulli_distribution coin(0.5);
  const std::size_t max_bits = link.effective_max_bits();
  BerReplay out;
  while (out.bits < max_bits &&
         (out.bits < p.min_bits || out.errors < p.target_bit_errors)) {
    phy::BitVector bits(p.block_bits);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);
    phy::Waveform wave;
    {
      Tracer::Scope span(tracer, "phy.modulate_ms");
      wave = mod.modulate(bits);
    }
    {
      Tracer::Scope span(tracer, "phy.awgn_ms");
      const double power = phy::mean_power(wave);
      phy::add_awgn(wave, phy::noise_power_for_snr(power, snr_db) * p.samples_per_symbol,
                    rng);
    }
    phy::BitVector decoded;
    {
      Tracer::Scope span(tracer, "phy.demod_ms");
      decoded = demod.demodulate(wave);
    }
    out.errors += phy::hamming_distance(bits, decoded);
    out.bits += bits.size();
    out.samples += wave.size();
  }
  return out;
}

struct FerReplay {
  int frames = 0;
  int failures = 0;
  int crc_ok = 0;
  int preamble_ok = 0;
  std::size_t samples = 0;
};

/// MonteCarloLink's frame loop with the receive chain unrolled into its
/// public calls (impairments enabled).
FerReplay replay_fer_point(const sim::MonteCarloLink& link, double snr_db,
                           std::uint64_t seed, Tracer* tracer) {
  const sim::MonteCarloLink::Params& p = link.params();
  const impair::ImpairmentChain& impairments = link.impairments();
  std::mt19937_64 rng = sim::make_rng(seed);
  const reader::ReceiveChain chain(
      reader::ReceiveChain::Params{p.samples_per_symbol, true});
  const phy::OokDemodulator demod(p.samples_per_symbol);
  const phy::BitVector preamble = phy::TagFrame::preamble();
  std::bernoulli_distribution coin(0.5);
  FerReplay out;
  for (int f = 0; f < kFerFrames; ++f) {
    phy::TagFrame frame;
    frame.tag_id = static_cast<std::uint32_t>(f + 1);
    frame.payload.resize(kPayloadBits);
    for (std::size_t i = 0; i < kPayloadBits; ++i) frame.payload[i] = coin(rng);

    phy::Waveform wave;
    {
      Tracer::Scope span(tracer, "reader.encode_ms");
      wave = chain.encode(frame, p.modulation_depth_db);
    }
    const std::uint64_t frame_seed = rng();
    {
      Tracer::Scope span(tracer, "impair.tx_ms");
      impairments.apply_tx(wave, frame_seed);
    }
    {
      Tracer::Scope span(tracer, "phy.awgn_ms");
      const double power = phy::mean_power(wave);
      phy::add_awgn(wave, phy::noise_power_for_snr(power, snr_db) * p.samples_per_symbol,
                    rng);
    }
    phy::Waveform received;
    {
      // ReceiveChain::receive_impaired: private copy, then the RX stages.
      Tracer::Scope span(tracer, "impair.rx_ms");
      received = wave;
      impairments.apply_rx(received, frame_seed);
    }
    phy::BitVector bits;
    {
      Tracer::Scope span(tracer, "phy.demod_ms");
      bits = demod.demodulate(received);
    }
    std::size_t invalid_pairs = 0;
    {
      Tracer::Scope span(tracer, "phy.line_decode_ms");
      bits = phy::manchester_decode_lenient(bits, invalid_pairs);
    }
    const bool preamble_ok =
        bits.size() >= preamble.size() &&
        std::equal(preamble.begin(), preamble.end(), bits.begin());
    std::optional<phy::TagFrame> parsed;
    {
      Tracer::Scope span(tracer, "phy.frame_parse_ms");
      parsed = phy::TagFrame::parse(bits);
    }
    ++out.frames;
    out.samples += received.size();
    out.preamble_ok += preamble_ok ? 1 : 0;
    out.crc_ok += parsed.has_value() ? 1 : 0;
    if (!parsed.has_value() || !(*parsed == frame)) ++out.failures;
  }
  return out;
}

struct Sweeps {
  std::vector<double> ber_s;
  std::vector<double> fer_s;
  std::vector<double> op_s;
  double cpu_s = 0.0;
  double ber_bits = 0.0;
  double frames = 0.0;
};

}  // namespace

void run_link(const Options& options, sim::ThreadPool& pool, Report& report,
              Tracer* tracer) {
  const sim::MonteCarloLink ber_link(ber_params());
  const sim::MonteCarloLink fer_link(fer_params());

  // Set-up: both links and a pool of the benchmark's size. Samples are
  // taken between timed sweeps, once the process is warm.
  std::vector<double> setup_samples;
  const auto sample_setup = [&] {
    const auto t0 = Clock::now();
    const sim::MonteCarloLink ber(ber_params());
    const sim::MonteCarloLink fer(fer_params());
    const sim::ThreadPool scratch_pool(kThreads);
    setup_samples.push_back(seconds_since(t0));
  };

  const std::vector<double> snrs = sim::linspace(0.0, 12.0, 7);
  const std::uint64_t ber_seed = sim::derive_seed(options.seed, 0x626572ULL);  // "ber"
  const std::uint64_t fer_seed = sim::derive_seed(options.seed, 0x666572ULL);  // "fer"

  // Gate (untimed): the clean chain's BER agrees with the closed form at
  // every point; the sweep pair's digest is what every timed sweep repeats.
  const sim::BerSweepResult gate_ber = ber_link.measure_ber_sweep(snrs, ber_seed, pool);
  const sim::FerSweepResult gate_fer =
      fer_link.measure_fer_sweep(snrs, kFerFrames, kPayloadBits, fer_seed, pool);
  report.check(!ber_link.impairments().enabled() && fer_link.impairments().enabled(),
               "link gate: BER chain clean, FER chain impaired");
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    const sim::BerMeasurement& m = gate_ber.points[i];
    const double analytic = phy::ook_coherent_ber(snrs[i]);
    const bool ok = within_binomial_bound(m.bit_errors, m.bits_sent, analytic);
    report.check(ok, "link gate: BER at " + std::to_string(snrs[i]) +
                         " dB inside the binomial bound of ook_coherent_ber");
    say("gate  %4.1f dB  ber %.3e  coherent %.3e  (%zu bits, z=%.0f Wilson bound %s)",
        snrs[i], m.ber(), analytic, m.bits_sent, kGateZ, ok ? "ok" : "FAIL");
  }
  const std::uint64_t digest = sweep_digest(gate_ber, gate_fer);
  say("gate  sweep digest %s", hex64(digest).c_str());

  const auto run_sweeps = [&](double seconds) {
    Sweeps out;
    const auto start = Clock::now();
    for (int op = 0; op == 0 || seconds_since(start) < seconds; ++op) {
      for (int i = 0; i < kSetupPerOp; ++i) sample_setup();
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      const sim::BerSweepResult ber = ber_link.measure_ber_sweep(snrs, ber_seed, pool);
      const auto t1 = Clock::now();
      const sim::FerSweepResult fer =
          fer_link.measure_fer_sweep(snrs, kFerFrames, kPayloadBits, fer_seed, pool);
      const auto t2 = Clock::now();
      out.cpu_s += process_cpu_s() - cpu0;
      out.ber_s.push_back(seconds_between(t0, t1));
      out.fer_s.push_back(seconds_between(t1, t2));
      out.op_s.push_back(seconds_between(t0, t2));
      out.ber_bits += static_cast<double>(ber.stats.units);
      out.frames += static_cast<double>(fer.stats.units);
      report.check(sweep_digest(ber, fer) == digest,
                   "link sweep " + std::to_string(op) + " reproduces the gate digest");
    }
    return out;
  };

  if (tracer == nullptr) {
    const Sweeps run = run_sweeps(options.seconds);
    const double bits_per_s = run.ber_bits / sum(run.ber_s);
    const double frames_per_s = run.frames / sum(run.fer_s);
    const double setup_s = median(setup_samples);
    const double rss = peak_rss_mib();
    say("end-to-end (untraced, %zu BER+FER sweeps)", run.op_s.size());
    say("  %-18s %14.9f s      (median of %zu MonteCarloLink x2 + ThreadPool(%d))",
        "setup_s", setup_s, setup_samples.size(), kThreads);
    say("  %-18s %14.2f MiB", "peak_rss_mb", rss);
    say("  %-18s %14.0f bit/s  -> work_per_s (BER part)", "link_bits_per_s", bits_per_s);
    say("  %-18s %14.2f frame/s (FER part)", "link_frames_per_s", frames_per_s);
    say("  %-18s %14.4f s      -> op_ms_p50", "sweep_s", median(run.op_s));
    say("  %-18s %14.4f s      (process CPU per sweep, all threads)", "sweep_cpu_s",
        run.cpu_s / static_cast<double>(run.op_s.size()));
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", rss);
    report.set("work_per_s", bits_per_s);
    report.set("op_ms_p50", 1e3 * median(run.op_s));
    return;
  }

  // Traced run: an untraced half of pooled sweeps, then a traced half. Each
  // traced operation runs every point once through the real self-seeded
  // entry points on this thread (the untraced reference) and once as a
  // replay with a span per call; the replay counts only if it matches.
  const Sweeps plain = run_sweeps(options.seconds / 2);
  const auto start = Clock::now();
  double ops = 0.0;
  double real_s = 0.0;
  double samples = 0.0;
  double bit_errors = 0.0;
  double frames = 0.0;
  double frame_failures = 0.0;
  double crc_ok = 0.0;
  double preamble_ok = 0.0;
  for (std::uint64_t op = 0; op == 0 || seconds_since(start) < options.seconds / 2; ++op) {
    tracer->set_op(op);
    std::vector<sim::BerMeasurement> real_ber(snrs.size());
    std::vector<sim::FerMeasurement> real_fer(snrs.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < snrs.size(); ++i) {
      real_ber[i] = ber_link.measure_ber_point(snrs[i], sim::derive_seed(ber_seed, i));
    }
    for (std::size_t i = 0; i < snrs.size(); ++i) {
      real_fer[i] = fer_link.measure_fer_point(snrs[i], kFerFrames, kPayloadBits,
                                                sim::derive_seed(fer_seed, i));
    }
    real_s += seconds_since(t0);
    bool match = true;
    {
      Tracer::Scope sweep_span(tracer, "link.sweep_ms");
      for (std::size_t i = 0; i < snrs.size(); ++i) {
        const BerReplay r = replay_ber_point(ber_link, snrs[i],
                                             sim::derive_seed(ber_seed, i), tracer);
        match = match && r.bits == real_ber[i].bits_sent &&
                r.errors == real_ber[i].bit_errors &&
                r.errors == gate_ber.points[i].bit_errors;
        samples += static_cast<double>(r.samples);
        bit_errors += static_cast<double>(r.errors);
      }
      for (std::size_t i = 0; i < snrs.size(); ++i) {
        const FerReplay r = replay_fer_point(fer_link, snrs[i],
                                             sim::derive_seed(fer_seed, i), tracer);
        match = match && r.frames == real_fer[i].frames &&
                r.failures == real_fer[i].failures &&
                r.failures == gate_fer.points[i].failures;
        samples += static_cast<double>(r.samples);
        frames += r.frames;
        frame_failures += r.failures;
        crc_ok += r.crc_ok;
        preamble_ok += r.preamble_ok;
      }
    }
    report.check(match, "link replay " + std::to_string(op) +
                            ": errors and failures equal measure_ber/fer_point");
    ops += 1.0;
  }

  static constexpr const char* kStages[] = {
      "phy.modulate_ms", "reader.encode_ms", "impair.tx_ms",       "impair.rx_ms",
      "phy.awgn_ms",     "phy.demod_ms",     "phy.line_decode_ms", "phy.frame_parse_ms"};
  const double sweep_s = tracer->total_s("link.sweep_ms") / ops;
  double covered_s = 0.0;
  say("per-layer (traced, %.0f replayed sweeps; spans are per-sweep totals)", ops);
  for (const char* stage : kStages) {
    const double s = tracer->total_s(stage) / ops;
    covered_s += s;
    say("  %-26s %10.4f ms  %5.1f%%", stage, 1e3 * s, 100.0 * s / sweep_s);
    report.set(stage, 1e3 * s);
  }
  const double rest_s = sweep_s - covered_s;
  say("  %-26s %10.4f ms  %5.1f%%  derived: bit/payload draws, error count, "
      "frame compare", "link.rest_ms", 1e3 * rest_s, 100.0 * rest_s / sweep_s);
  say("  %-26s %10.4f ms          span around one replayed BER+FER sweep",
      "link.sweep_ms", 1e3 * sweep_s);
  say("  %-26s %10.0f      per sweep (bit_errors %.0f, frame_failures %.0f of %.0f)",
      "phy.samples", samples / ops, bit_errors / ops, frame_failures / ops, frames / ops);
  say("  %-26s %10.4f      (preamble_ok_ratio %.4f)", "phy.crc_ok_ratio",
      crc_ok / frames, preamble_ok / frames);
  report.set("link.sweep_ms", 1e3 * sweep_s);
  report.set("link.rest_ms", 1e3 * rest_s);
  report.set("phy.samples", samples / ops);
  report.set("link.bit_errors", bit_errors / ops);
  report.set("link.frame_failures", frame_failures / ops);
  report.set("phy.crc_ok_ratio", crc_ok / frames);
  report.set("phy.preamble_ok_ratio", preamble_ok / frames);
  report.set("phy.bytes_per_sample", kBytesPerSample);

  TraceSummary summary;
  summary.parent_s = sweep_s;
  summary.covered_s = covered_s;
  summary.ops = ops;
  summary.traced_op_s = sweep_s;
  summary.untraced_op_s = real_s / ops;
  summary.pool_efficiency = plain.cpu_s / (sum(plain.op_s) * kThreads);
  report_trace_summary(summary, report);

  const double gbps = measure_stream(pool, report);
  const double samples_per_s =
      plain.ber_bits * ber_link.params().samples_per_symbol / sum(plain.ber_s);
  const double achieved_gbps = kBytesPerSample * samples_per_s / 1e9;
  say("  %-26s %10.2f B    computed; %.3f GB/s at the untraced BER sample rate",
      "phy.bytes_per_sample", kBytesPerSample, achieved_gbps);
  say("  %-26s %10.4f      computed GB/s / host.stream_gbps", "phy.stream_share",
      gbps > 0.0 ? achieved_gbps / gbps : 0.0);
  report.set("phy.stream_share", gbps > 0.0 ? achieved_gbps / gbps : 0.0);
}

}  // namespace perfbench
