// metro_1m: scale::MetroWorld with 1,000,000 tags under 4x4 readers.
//
// The closed loop runs rounds of kRoundEpochs epochs, each round from a
// freshly constructed world (the construction is timed as set-up, not as
// an epoch). Every round must end in the state digest the gate produced
// at pool sizes 1 and 4.
//
// Traced rounds cycle through three kinds of epoch. A replayed epoch first
// replays, on the same pre-epoch state and with the same per-reader
// fan-out, the two phases an epoch starts with: the grid query
// (GridIndex::gather_disc plus its canonical sort) and the SIMD slab
// (EpochBatcher::evaluate). The replays count only if their candidate
// totals match that epoch's MetroEpochStats::candidates. A replay leaves
// the caches warm for the epoch after it, so that epoch is not timed. The
// next epoch runs inside the scale.epoch_ms span and the one after it runs
// plain; neither has a replay before it, so their difference is the cost
// of tracing.
#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common.hpp"
#include "src/scale/world.hpp"
#include "src/sim/rng.hpp"

namespace perfbench {

namespace {

using namespace mmtag;

constexpr std::size_t kTags = 1'000'000;
constexpr int kRoundEpochs = 40;

// Computed bytes each unit of epoch work moves (not measured): the
// candidate path writes the 4-byte slot, sorts it (read + write), gathers
// x/y (16), writes the slab's d2/rate/detected (17), and the poll loop
// re-reads slot, slab and position (4 + 17 + 16); an owned detected tag
// updates energy (16); a poll its counter (16); a success energy,
// delivered bits and the read flag (33); every slot's alive flag is read by
// mobility (1); a mover reads and writes x/y (32); a rebucket moves one
// slot between cell buckets (8).
constexpr double kBytesPerCandidate = 4 + 8 + 16 + 17 + 4 + 17 + 16;
constexpr double kBytesPerDetected = 16;
constexpr double kBytesPerPoll = 16;
constexpr double kBytesPerSuccess = 33;
constexpr double kBytesPerSlot = 1;
constexpr double kBytesPerMove = 32;
constexpr double kBytesPerRebucket = 8;

scale::MetroConfig metro_config(std::uint64_t seed) {
  scale::MetroConfig config;
  config.tags = kTags;
  config.readers_x = 4;
  config.readers_y = 4;
  config.width_m = 200.0;
  config.height_m = 200.0;
  config.move_fraction = 0.05;
  config.control_plane = false;
  config.seed = sim::derive_seed(seed, 0x6D6574726FULL);  // "metro"
  return config;
}

bool epoch_invariants(const scale::MetroEpochStats& e) {
  return e.successes <= e.polls && e.polls <= e.detected &&
         e.detected <= e.candidates && e.rebuckets <= e.moved &&
         e.handoffs <= e.moved;
}

struct Totals {
  double epochs = 0;
  double candidates = 0;
  double detected = 0;
  double polls = 0;
  double successes = 0;
  double moved = 0;
  double rebuckets = 0;
  double handoffs = 0;

  void add(const scale::MetroEpochStats& e) {
    epochs += 1;
    candidates += static_cast<double>(e.candidates);
    detected += static_cast<double>(e.detected);
    polls += static_cast<double>(e.polls);
    successes += static_cast<double>(e.successes);
    moved += static_cast<double>(e.moved);
    rebuckets += static_cast<double>(e.rebuckets);
    handoffs += static_cast<double>(e.handoffs);
  }
};

/// Owns the one live world; every construction is a set-up sample.
class WorldSlot {
 public:
  explicit WorldSlot(const scale::MetroConfig& config) : config_(config) {}

  scale::MetroWorld& fresh() {
    world_.reset();  // Destruction is not set-up.
    const auto t0 = Clock::now();
    world_.emplace(config_);
    setup_s_.push_back(seconds_since(t0));
    return *world_;
  }
  [[nodiscard]] const std::vector<double>& setup_s() const { return setup_s_; }

 private:
  scale::MetroConfig config_;
  std::optional<scale::MetroWorld> world_;
  std::vector<double> setup_s_;
};

/// Per-reader replays of the query and slab phases on the pre-epoch state.
class PhaseReplay {
 public:
  explicit PhaseReplay(const scale::MetroWorld& world)
      : cands_(static_cast<std::size_t>(world.readers())),
        counts_(cands_.size()) {
    radius_m_ = std::max(std::sqrt(world.link_model().detect_r2_m2),
                         world.config().interference_radius_m);
  }

  /// Returns the candidate total both phases saw (they must agree).
  std::uint64_t run(const scale::MetroWorld& world, sim::ThreadPool& pool,
                    Tracer* tracer) {
    {
      Tracer::Scope span(tracer, "scale.query_ms");
      pool.parallel_for(cands_.size(), [&](std::size_t r) {
        const int reader = static_cast<int>(r);
        cands_[r].clear();
        world.index().gather_disc(world.reader_x(reader), world.reader_y(reader),
                                  radius_m_, cands_[r]);
        std::sort(cands_[r].begin(), cands_[r].end());
      });
    }
    {
      Tracer::Scope span(tracer, "scale.batch_ms");
      pool.parallel_for(cands_.size(), [&](std::size_t r) {
        const int reader = static_cast<int>(r);
        scale::EpochBatcher batcher;
        counts_[r] = batcher
                         .evaluate(world.store(), cands_[r], world.reader_x(reader),
                                   world.reader_y(reader), world.link_model())
                         .count;
      });
    }
    std::uint64_t queried = 0;
    std::uint64_t batched = 0;
    for (std::size_t r = 0; r < cands_.size(); ++r) {
      queried += cands_[r].size();
      batched += counts_[r];
    }
    return queried == batched ? queried : ~std::uint64_t{0};
  }

 private:
  double radius_m_ = 0.0;
  std::vector<std::vector<scale::TagSlot>> cands_;
  std::vector<std::size_t> counts_;
};

struct LoopResult {
  std::vector<double> epoch_s;  ///< Plain epochs, timed with no span.
  double cpu_s = 0.0;           ///< Process CPU over the plain epochs.
  double replays = 0.0;
  double spanned = 0.0;
  Totals totals;
};

/// Closed loop of fresh-world rounds for `seconds`. Without a tracer every
/// epoch is plain. With one, epochs cycle through three kinds: replayed
/// (phase replays, then the epoch, not timed), spanned (in the
/// scale.epoch_ms span) and plain. A spanned and a plain epoch each follow
/// a real epoch, so they differ only by the span and by host drift within
/// a few milliseconds.
LoopResult run_rounds(WorldSlot& slot, sim::ThreadPool& pool, double seconds,
                      std::uint64_t gate_digest, Report& report,
                      Tracer* tracer) {
  LoopResult out;
  const auto start = Clock::now();
  std::uint64_t op = 0;
  for (int round = 0; round == 0 || seconds_since(start) < seconds; ++round) {
    scale::MetroWorld& world = slot.fresh();
    std::optional<PhaseReplay> replay;
    if (tracer != nullptr) replay.emplace(world);
    bool invariants = true;
    bool replays_match = true;
    for (int e = 0; e < kRoundEpochs; ++e) {
      scale::MetroEpochStats stats;
      const int kind = tracer == nullptr ? 2 : e % 3;
      if (tracer != nullptr) tracer->set_op(op++);
      if (kind == 0) {
        const std::uint64_t replayed = replay->run(world, pool, tracer);
        stats = world.run_epoch(pool);
        replays_match = replays_match && replayed == stats.candidates;
        out.replays += 1.0;
      } else if (kind == 1) {
        Tracer::Scope span(tracer, "scale.epoch_ms");
        stats = world.run_epoch(pool);
        out.spanned += 1.0;
      } else {
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        stats = world.run_epoch(pool);
        out.epoch_s.push_back(seconds_since(t0));
        out.cpu_s += process_cpu_s() - cpu0;
      }
      invariants = invariants && epoch_invariants(stats);
      out.totals.add(stats);
    }
    report.check(invariants, "metro round " + std::to_string(round) +
                                 ": successes <= polls <= detected <= candidates");
    if (tracer != nullptr) {
      report.check(replays_match, "metro round " + std::to_string(round) +
                                      ": replayed candidates equal MetroEpochStats::candidates");
    }
    report.check(world.state_fingerprint() == gate_digest,
                 "metro round " + std::to_string(round) + " reproduces the gate digest");
  }
  return out;
}

}  // namespace

void run_metro(const Options& options, sim::ThreadPool& pool, Report& report,
               Tracer* tracer) {
  const scale::MetroConfig config = metro_config(options.seed);
  WorldSlot slot(config);

  // Gate (untimed): a short prefix is bit-identical at pool sizes 1 and 4.
  std::uint64_t digest[2] = {0, 0};
  {
    sim::ThreadPool serial(1);
    sim::ThreadPool* pools[2] = {&serial, &pool};
    for (int g = 0; g < 2; ++g) {
      scale::MetroWorld& world = slot.fresh();
      for (int e = 0; e < kRoundEpochs; ++e) (void)world.run_epoch(*pools[g]);
      digest[g] = world.state_fingerprint();
    }
  }
  report.check(digest[0] == digest[1],
               "metro gate: state_fingerprint equal at pool sizes 1 and 4");
  say("gate  %d-epoch state_fingerprint  threads=1 %s  threads=%d %s", kRoundEpochs,
      hex64(digest[0]).c_str(), kThreads, hex64(digest[1]).c_str());

  if (tracer == nullptr) {
    const LoopResult run =
        run_rounds(slot, pool, options.seconds, digest[0], report, nullptr);
    const double epochs = static_cast<double>(run.epoch_s.size());
    const double tag_epochs_per_s =
        static_cast<double>(kTags) * epochs / sum(run.epoch_s);
    const double setup_s = median(slot.setup_s());
    const double rss = peak_rss_mib();
    say("end-to-end (untraced, %.0f epochs in %zu rounds)", epochs,
        slot.setup_s().size() - 2);
    say("  %-18s %14.6f s      (median of %zu MetroWorld constructions)", "setup_s",
        setup_s, slot.setup_s().size());
    say("  %-18s %14.2f MiB", "peak_rss_mb", rss);
    say("  %-18s %14.0f tag-epoch/s  -> work_per_s", "tag_epochs_per_s",
        tag_epochs_per_s);
    say("  %-18s %14.4f ms     -> op_ms_p50", "epoch_ms_p50",
        1e3 * median(run.epoch_s));
    say("  %-18s %14.4f ms     (n=%.0f epochs)", "epoch_ms_p95",
        1e3 * percentile(run.epoch_s, 95.0), epochs);
    say("  %-18s %14.4f ms     (process CPU per epoch, all threads)", "epoch_cpu_ms",
        1e3 * run.cpu_s / epochs);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", rss);
    report.set("work_per_s", tag_epochs_per_s);
    report.set("op_ms_p50", 1e3 * median(run.epoch_s));
    return;
  }

  // Traced run: replayed, spanned and plain epochs interleaved.
  const LoopResult traced =
      run_rounds(slot, pool, options.seconds, digest[0], report, tracer);

  const Totals& t = traced.totals;
  const double n = t.epochs;
  const double epoch_s = tracer->total_s("scale.epoch_ms") / traced.spanned;
  const double query_s = tracer->total_s("scale.query_ms") / traced.replays;
  const double batch_s = tracer->total_s("scale.batch_ms") / traced.replays;
  const double rest_s = epoch_s - query_s - batch_s;
  const double untraced_epoch_s =
      sum(traced.epoch_s) / static_cast<double>(traced.epoch_s.size());
  const double bytes_per_tag_epoch =
      (kBytesPerCandidate * t.candidates + kBytesPerDetected * t.detected +
       kBytesPerPoll * t.polls + kBytesPerSuccess * t.successes +
       kBytesPerSlot * static_cast<double>(kTags) * n + kBytesPerMove * t.moved +
       kBytesPerRebucket * t.rebuckets) /
      (static_cast<double>(kTags) * n);

  say("per-layer (traced, %.0f epochs: %.0f replayed, %.0f spanned, %zu plain; "
      "spans are per-epoch means)",
      n, traced.replays, traced.spanned, traced.epoch_s.size());
  say("  %-26s %10.4f ms   replay of gather_disc + sort, 16 readers", "scale.query_ms",
      1e3 * query_s);
  say("  %-26s %10.4f ms   replay of EpochBatcher::evaluate, 16 readers",
      "scale.batch_ms", 1e3 * batch_s);
  say("  %-26s %10.4f ms   derived: poll loop, merge, mobility, rebucket",
      "scale.rest_ms", 1e3 * rest_s);
  say("  %-26s %10.4f ms   span around run_epoch, spanned epochs only",
      "scale.epoch_ms", 1e3 * epoch_s);
  say("  %-26s %10.0f      per epoch", "scale.candidates", t.candidates / n);
  say("  %-26s %10.0f      per epoch (detect_ratio %.4f)", "scale.detected",
      t.detected / n, t.detected / t.candidates);
  say("  %-26s %10.0f      per epoch (success_ratio %.4f)", "scale.polls",
      t.polls / n, t.successes / t.polls);
  say("  %-26s %10.0f      per epoch (rebuckets %.0f, handoffs %.0f)", "scale.moved",
      t.moved / n, t.rebuckets / n, t.handoffs / n);

  report.set("scale.epoch_ms", 1e3 * epoch_s);
  report.set("scale.query_ms", 1e3 * query_s);
  report.set("scale.batch_ms", 1e3 * batch_s);
  report.set("scale.rest_ms", 1e3 * rest_s);
  report.set("scale.candidates", t.candidates / n);
  report.set("scale.detected", t.detected / n);
  report.set("scale.detect_ratio", t.detected / t.candidates);
  report.set("scale.polls", t.polls / n);
  report.set("scale.poll_success_ratio", t.successes / t.polls);
  report.set("scale.moved", t.moved / n);
  report.set("scale.rebuckets", t.rebuckets / n);
  report.set("scale.handoffs", t.handoffs / n);
  report.set("scale.bytes_per_tag_epoch", bytes_per_tag_epoch);

  TraceSummary summary;
  summary.parent_s = epoch_s;
  summary.covered_s = query_s + batch_s;
  summary.ops = traced.spanned;
  summary.traced_op_s = epoch_s;
  summary.untraced_op_s = untraced_epoch_s;
  summary.pool_efficiency = traced.cpu_s / (sum(traced.epoch_s) * kThreads);
  report_trace_summary(summary, report);

  const double gbps = measure_stream(pool, report);
  const double achieved_gbps =
      bytes_per_tag_epoch * static_cast<double>(kTags) / untraced_epoch_s / 1e9;
  say("  %-26s %10.2f B    computed; %.3f GB/s at the untraced epoch rate",
      "scale.bytes_per_tag_epoch", bytes_per_tag_epoch, achieved_gbps);
  say("  %-26s %10.4f      computed GB/s / host.stream_gbps", "scale.stream_share",
      gbps > 0.0 ? achieved_gbps / gbps : 0.0);
  report.set("scale.stream_share", gbps > 0.0 ? achieved_gbps / gbps : 0.0);
}

}  // namespace perfbench
