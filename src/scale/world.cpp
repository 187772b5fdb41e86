#include "src/scale/world.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/stats.hpp"
#include "src/phy/normal.hpp"
#include "src/phy/rate_table.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::scale {

namespace {

/// Bits a successful poll delivers at the slowest rate tier.
constexpr double kMetroPayloadBits = 96.0;

/// 53-bit mantissa uniform in [0, 1) from raw hash bits.
inline double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

void require(bool ok, const char* field, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string("MetroConfig::") + field +
                                " must be " + rule);
  }
}

void require_finite_nonnegative(double value, const char* field) {
  require(std::isfinite(value) && value >= 0.0, field, "finite and >= 0");
}

const MetroConfig& validated(const MetroConfig& config) {
  config.validate();
  return config;
}

}  // namespace

void MetroConfig::validate() const {
  require(width_m > 0.0, "width_m", "> 0");
  require(height_m > 0.0, "height_m", "> 0");
  require(readers_x >= 1, "readers_x", ">= 1");
  require(readers_y >= 1, "readers_y", ">= 1");
  // Reader ids are ints.
  require(readers_x <= std::numeric_limits<int>::max() / readers_y,
          "readers_x", "such that readers_x * readers_y <= 2^31 - 1");
  // TagStore slots are 32-bit.
  require(tags <= std::numeric_limits<std::uint32_t>::max(), "tags",
          "<= 2^32 - 1");
  require(index_cell_m > 0.0, "index_cell_m", "> 0");
  // GridIndex columns and rows are ints.
  require(width_m / index_cell_m < 0x1.0p31 &&
              height_m / index_cell_m < 0x1.0p31,
          "index_cell_m", "> width_m / 2^31 and > height_m / 2^31");
  // run_epoch stamps reads at epochs_run_ * epoch_duration_s; with the
  // count a uint64, this bound keeps that product finite for any epoch.
  constexpr double kMaxEpochS = std::numeric_limits<double>::max() * 0x1.0p-64;
  require(epoch_duration_s > 0.0 && epoch_duration_s <= kMaxEpochS,
          "epoch_duration_s", "in (0, DBL_MAX / 2^64]");
  require(polls_per_reader >= 0, "polls_per_reader", ">= 0");
  require(poll_success_prob >= 0.0 && poll_success_prob <= 1.0,
          "poll_success_prob", "in [0, 1]");
  require_finite_nonnegative(interference_radius_m, "interference_radius_m");
  require_finite_nonnegative(initial_energy_j, "initial_energy_j");
  require_finite_nonnegative(harvest_j_per_epoch, "harvest_j_per_epoch");
  require_finite_nonnegative(respond_cost_j, "respond_cost_j");
  require(move_fraction >= 0.0 && move_fraction <= 1.0, "move_fraction",
          "in [0, 1]");
  // run_epoch steps a mover by up to speed_mps * epoch_duration_s.
  require(std::isfinite(speed_mps) && speed_mps >= 0.0 &&
              std::isfinite(speed_mps * epoch_duration_s),
          "speed_mps", "finite and >= 0, with speed_mps * epoch_duration_s "
          "finite");
  health.validate();
  domains.validate();
}

std::uint64_t MetroStats::fingerprint() const {
  obs::Fnv1a h;
  h.mix_u64(static_cast<std::uint64_t>(tags));
  h.mix_u64(static_cast<std::uint64_t>(readers));
  h.mix_u64(epochs);
  h.mix_u64(detected);
  h.mix_u64(polls);
  h.mix_u64(successes);
  h.mix_u64(interference_pairs);
  h.mix_u64(moved);
  h.mix_u64(handoffs);
  h.mix_u64(tags_read);
  h.mix_double(delivered_bits);
  h.mix_double(energy_j);
  return h.digest();
}

struct MetroWorld::ReaderResult {
  std::uint64_t candidates = 0;
  std::uint64_t cells_visited = 0;
  std::uint64_t detected = 0;
  std::uint64_t polls = 0;
  std::uint64_t successes = 0;
  std::uint64_t new_reads = 0;
  std::uint64_t interference_pairs = 0;
  std::uint64_t adopted = 0;  ///< Detected tags whose owner was re-homed.
  double delivered_bits = 0.0;
};

MetroWorld::MetroWorld(const MetroConfig& config)
    : config_(validated(config)),
      index_(config.width_m, config.height_m, config.index_cell_m),
      model_(BatchLinkModel::from_budget(config.budget,
                                         phy::RateTable::mmtag_standard())),
      reader_dx_(config.width_m / config.readers_x),
      reader_dy_(config.height_m / config.readers_y) {
  gather_radius_m_ = std::max(std::sqrt(model_.detect_r2_m2),
                              config.interference_radius_m);
  poll_base_ = sim::derive_seed(config.seed, 0x706F6C6CULL);  // "poll"
  move_base_ = sim::derive_seed(config.seed, 0x6D6F7665ULL);  // "move"
  const std::uint64_t init_base =
      sim::derive_seed(config.seed, 0x696E6974ULL);  // "init"

  store_.reserve(config.tags);
  for (std::size_t t = 0; t < config.tags; ++t) {
    const std::uint64_t bits = sim::derive_seed(init_base, t);
    const double x =
        static_cast<double>(bits & 0xFFFFFFFFULL) * 0x1.0p-32 * config.width_m;
    const double y =
        static_cast<double>(bits >> 32) * 0x1.0p-32 * config.height_m;
    const TagSlot slot = store_.create(x, y, config.initial_energy_j);
    index_.insert(slot, x, y);
  }
  if (config.control_plane) {
    monitor_.emplace(static_cast<std::size_t>(readers()), config.health);
  }
}

double MetroWorld::reader_x(int r) const {
  return (static_cast<double>(r % config_.readers_x) + 0.5) * reader_dx_;
}

double MetroWorld::reader_y(int r) const {
  return (static_cast<double>(r / config_.readers_x) + 0.5) * reader_dy_;
}

MetroEpochStats MetroWorld::run_epoch(sim::ThreadPool& pool) {
  const int n_readers = readers();
  const std::size_t n_slots = store_.size();
  const double t_now = static_cast<double>(epochs_run_) * config_.epoch_duration_s;
  const double intf_r2 =
      config_.interference_radius_m * config_.interference_radius_m;
  // Delivered bits per successful poll scale with the tag's rate tier:
  // the poll grants a fixed airtime slot sized to carry kMetroPayloadBits
  // at the slowest tier, so a 1 Gbps tag moves 100x the payload of a
  // 10 Mbps tag in the same slot.
  const double base_rate =
      model_.tier_rate_bps.empty() ? 1.0 : model_.tier_rate_bps.back();
  const double* xs = store_.xs();
  const double* ys = store_.ys();

  MetroEpochStats epoch;

  // --- Resilience control plane (DESIGN.md Sec. 15). Every decision the
  // epoch depends on is drawn HERE, on the coordinating thread, before
  // the fan-out: the scripted outage mask, the serve mask from the
  // monitor state of the PREVIOUS epoch, and the ownership remap that
  // re-homes a skipped reader's tags to its nearest serving neighbor
  // (grid distance, ties to the lower id). Workers only read the
  // resulting vectors, so suspicion and adoption are bit-identical at
  // any thread count. With no domains and no monitor all of this stays
  // empty and the shard below runs the legacy path untouched.
  std::vector<std::uint8_t> serving;  // Shard r runs this epoch.
  std::vector<int> adopter;           // Owner remap; identity when empty.
  if (config_.domains.active() || monitor_) {
    std::vector<std::uint8_t> up;
    if (config_.domains.active()) {
      config_.domains.apply(epochs_run_, config_.readers_x, config_.readers_y,
                            &up);
    }
    serving.assign(static_cast<std::size_t>(n_readers), 1);
    bool any_skip = false;
    for (int r = 0; r < n_readers; ++r) {
      const std::size_t ri = static_cast<std::size_t>(r);
      const bool is_up = up.empty() || up[ri] != 0;
      if (!is_up) ++epoch.readers_down;
      bool serve = true;
      if (monitor_) {
        if (monitor_->suspected(ri)) ++epoch.readers_suspected;
        serve = monitor_->should_serve(ri);
        if (!serve) any_skip = true;
      }
      serving[ri] = (is_up && serve) ? 1 : 0;
    }
    if (any_skip) {
      // Ascending, so a tie still goes to the lower id.
      std::vector<int> servers;
      for (int a = 0; a < n_readers; ++a) {
        if (monitor_->should_serve(static_cast<std::size_t>(a))) {
          servers.push_back(a);
        }
      }
      adopter.resize(static_cast<std::size_t>(n_readers));
      for (int o = 0; o < n_readers; ++o) {
        if (monitor_->should_serve(static_cast<std::size_t>(o))) {
          adopter[static_cast<std::size_t>(o)] = o;
          continue;
        }
        const int ox = o % config_.readers_x;
        const int oy = o / config_.readers_x;
        int best = o;  // Nobody serving: keep self (tags go unserved).
        std::int64_t best_d2 = std::numeric_limits<std::int64_t>::max();
        for (const int a : servers) {
          const std::int64_t dx = a % config_.readers_x - ox;
          const std::int64_t dy = a / config_.readers_x - oy;
          const std::int64_t d2 = dx * dx + dy * dy;
          if (d2 < best_d2) {
            best_d2 = d2;
            best = a;
          }
        }
        adopter[static_cast<std::size_t>(o)] = best;
      }
    }
  }
  const std::uint8_t* shard_up = serving.empty() ? nullptr : serving.data();
  const int* remap = adopter.empty() ? nullptr : adopter.data();

  // --- Service phase: shard by reader. Ownership partitioning makes
  // every store write disjoint (a tag is owned by exactly one reader);
  // results merge serially in reader order below.
  std::vector<ReaderResult> results(static_cast<std::size_t>(n_readers));
  pool.parallel_for(static_cast<std::size_t>(n_readers), [&](std::size_t ri) {
    // Down (scripted outage) or skipped (suspected, non-probe epoch):
    // the shard produces nothing — which the monitor reads as silence.
    if (shard_up && shard_up[ri] == 0) return;
    const int r = static_cast<int>(ri);
    const double rx = reader_x(r);
    const double ry = reader_y(r);
    ReaderResult& out = results[ri];

    // Only the candidate set matters below, not its row-major cell order.
    std::vector<TagSlot> cands;
    if (config_.use_index) {
      out.cells_visited = index_.gather_disc(rx, ry, gather_radius_m_, cands);
    } else {
      cands.resize(n_slots);
      std::iota(cands.begin(), cands.end(), TagSlot{0});
    }
    out.candidates = cands.size();

    double* energy = store_.energies();
    double* first_read = store_.first_read_s();
    double* delivered = store_.delivered_bits();
    long* polls = store_.polls();

    // One pass: a tag's harvest and eligibility depend only on its own
    // columns and d2, and only its effective owner writes them. The
    // candidates are scattered over whole columns, so the lines of the
    // one kAhead places on are fetched while this one is worked.
    std::vector<std::pair<TagSlot, double>> eligible;  // (slot, d2)
    constexpr std::size_t kAhead = 16;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (i + kAhead < cands.size()) {
        __builtin_prefetch(xs + cands[i + kAhead]);
        __builtin_prefetch(ys + cands[i + kAhead]);
        __builtin_prefetch(energy + cands[i + kAhead], 1);
      }
      const TagSlot slot = cands[i];
      const double dx = xs[slot] - rx;
      const double dy = ys[slot] - ry;
      const double d2 = dx * dx + dy * dy;
      const bool detected = d2 < model_.detect_r2_m2;
      // Outside the beam and the contention radius a tag changes nothing
      // under either branch below, whoever owns it.
      if (!detected && !(d2 < intf_r2)) continue;
      const int owner = owner_of(xs[slot], ys[slot]);
      // The tag belongs to whoever the control plane re-homed its owner
      // to (identity when no reader is skipped) — the remap is a pure
      // owner -> reader function, so store writes stay disjoint.
      const int effective = remap ? remap[owner] : owner;
      if (effective != r) {
        // Foreign tag close enough to contend for the medium.
        if (d2 < intf_r2) ++out.interference_pairs;
        continue;
      }
      if (!detected) continue;
      ++out.detected;
      if (owner != r) ++out.adopted;
      // In the beam: harvest first, then maybe answer a poll.
      energy[slot] = std::min(kMetroEnergyCapJ,
                              energy[slot] + config_.harvest_j_per_epoch);
      if (energy[slot] >= config_.respond_cost_j) {
        eligible.emplace_back(slot, d2);
      }
    }
    assert(out.detected <= out.candidates);

    // The budget goes to the lowest eligible slots in ascending order
    // (slots are distinct, so pairs order by slot alone): the poll
    // sequence, and so the RNG draws, is a function of the candidate set.
    const auto budget = static_cast<std::size_t>(config_.polls_per_reader);
    if (eligible.size() > budget) {
      std::nth_element(eligible.begin(), eligible.begin() + budget,
                       eligible.end());
      eligible.resize(budget);
    }
    std::sort(eligible.begin(), eligible.end());

    sim::Rng rng = sim::make_rng(sim::derive_seed(
        poll_base_, epochs_run_ * static_cast<std::uint64_t>(n_readers) +
                        static_cast<std::uint64_t>(r)));
    for (const auto& [slot, d2] : eligible) {
      ++out.polls;
      ++polls[slot];
      if (phy::canonical_double(rng()) < config_.poll_success_prob) {
        ++out.successes;
        energy[slot] -= config_.respond_cost_j;
        assert(energy[slot] >= 0.0);
        const double bits =
            kMetroPayloadBits * (model_.rate_for_d2(d2) / base_rate);
        delivered[slot] += bits;
        out.delivered_bits += bits;
        if (std::isinf(first_read[slot])) {  // Never read before.
          first_read[slot] = t_now;
          ++out.new_reads;
        }
      }
    }
    assert(out.successes <= out.polls &&
           out.polls <= std::min<std::uint64_t>(out.detected, budget));
  });

  for (const ReaderResult& r : results) {
    epoch.candidates += r.candidates;
    epoch.cells_visited += r.cells_visited;
    epoch.detected += r.detected;
    epoch.polls += r.polls;
    epoch.successes += r.successes;
    epoch.new_reads += r.new_reads;
    epoch.interference_pairs += r.interference_pairs;
    epoch.tags_adopted += r.adopted;
    epoch.delivered_bits += r.delivered_bits;
  }
  // Feed the monitor what a metro coordinator actually observes: each
  // reader's per-epoch success count. A reader whose shard did not run
  // reports zero, which is the miss evidence suspicion accrues on.
  // end_epoch() draws the next epoch's serve decisions in fixed reader
  // order.
  if (monitor_) {
    std::vector<std::uint64_t> successes(results.size());
    for (std::size_t r = 0; r < results.size(); ++r) {
      successes[r] = results[r].successes;
    }
    monitor_->end_epoch(successes);
  }

  // --- Mobility phase: fixed-size chunks (thread-count independent),
  // per-slot derived bits, disjoint position writes. Each chunk records
  // its cell changes; the index applies them as one batch afterwards,
  // and bucket sort order makes the final index state independent of
  // application order anyway.
  struct ChunkResult {
    std::vector<GridIndex::CellMove> moves;
    std::uint64_t moved = 0;
    std::uint64_t handoffs = 0;
  };
  constexpr std::size_t kChunk = 4096;
  const std::size_t n_chunks = (n_slots + kChunk - 1) / kChunk;
  std::vector<ChunkResult> chunks(n_chunks);
  const std::uint64_t move_base = move_base_;
  const std::uint64_t first_stream =
      epochs_run_ * static_cast<std::uint64_t>(n_slots);
  // unit_double(bits) < move_fraction exactly when (bits >> 11) is below
  // move_fraction * 2^53 (an exact scaling), i.e. below its ceiling.
  const auto move_threshold = static_cast<std::uint64_t>(
      std::ceil(config_.move_fraction * 0x1.0p53));
  const double step_scale = config_.speed_mps * config_.epoch_duration_s;
  const double width_m = config_.width_m;
  const double height_m = config_.height_m;
  pool.parallel_for(n_chunks, [&](std::size_t ci) {
    ChunkResult& out = chunks[ci];
    const std::size_t lo = ci * kChunk;
    const std::size_t hi = std::min(lo + kChunk, n_slots);
    // Sieve first, branch-free: every slot is written, a mover is kept.
    struct Mover {
      TagSlot slot;
      std::uint64_t bits;
    };
    const auto movers = std::make_unique_for_overwrite<Mover[]>(hi - lo);
    std::size_t n_movers = 0;
    for (std::size_t s = lo; s < hi; ++s) {
      const std::uint64_t bits = sim::derive_seed(move_base, first_stream + s);
      movers[n_movers] = {static_cast<TagSlot>(s), bits};
      n_movers += (bits >> 11) < move_threshold ? 1 : 0;
    }
    // Then step the movers, scattered slots, in ascending slot order.
    constexpr std::size_t kAhead = 8;
    for (std::size_t m = 0; m < n_movers; ++m) {
      if (m + kAhead < n_movers) {
        __builtin_prefetch(xs + movers[m + kAhead].slot, 1);
        __builtin_prefetch(ys + movers[m + kAhead].slot, 1);
      }
      const auto [slot, bits] = movers[m];
      const std::uint64_t step_bits = sim::derive_seed(bits, 0x6D76ULL);
      const double u1 =
          static_cast<double>(step_bits & 0xFFFFFFFFULL) * 0x1.0p-32;
      const double u2 = static_cast<double>(step_bits >> 32) * 0x1.0p-32;
      const double old_x = xs[slot];
      const double old_y = ys[slot];
      const double new_x =
          std::clamp(old_x + (2.0 * u1 - 1.0) * step_scale, 0.0, width_m);
      const double new_y =
          std::clamp(old_y + (2.0 * u2 - 1.0) * step_scale, 0.0, height_m);
      store_.set_position(slot, new_x, new_y);
      if (owner_of(old_x, old_y) != owner_of(new_x, new_y)) ++out.handoffs;
      const std::size_t from = index_.cell_of(old_x, old_y);
      const std::size_t to = index_.cell_of(new_x, new_y);
      if (from != to) out.moves.push_back({slot, from, to});
    }
    out.moved = n_movers;
    assert(out.moves.size() <= n_movers &&
           std::none_of(out.moves.begin(), out.moves.end(),
                        [](const auto& m) { return m.from == m.to; }));
  });
  std::vector<GridIndex::CellMove> moves;
  for (const ChunkResult& c : chunks) {
    epoch.moved += c.moved;
    epoch.handoffs += c.handoffs;
    moves.insert(moves.end(), c.moves.begin(), c.moves.end());
  }
  epoch.rebuckets = index_.rebucket(moves, pool);
#ifndef NDEBUG
  // Exactly one owner per tag: one gather over the whole floor returns
  // every slot exactly once.
  {
    std::vector<TagSlot> all;
    index_.gather_disc(config_.width_m / 2.0, config_.height_m / 2.0,
                       std::hypot(config_.width_m, config_.height_m), all);
    std::vector<std::uint8_t> seen(n_slots, 0);
    for (const TagSlot slot : all) {
      assert(slot < n_slots && seen[slot] == 0);
      seen[slot] = 1;
    }
    assert(all.size() == n_slots);
  }
#endif

  ++epochs_run_;
  detected_total_ += epoch.detected;
  polls_total_ += epoch.polls;
  successes_total_ += epoch.successes;
  interference_total_ += epoch.interference_pairs;
  moved_total_ += epoch.moved;
  handoffs_total_ += epoch.handoffs;
  return epoch;
}

MetroStats MetroWorld::stats() const {
  MetroStats s;
  s.tags = store_.size();
  s.readers = static_cast<std::size_t>(readers());
  s.epochs = epochs_run_;
  s.detected = detected_total_;
  s.polls = polls_total_;
  s.successes = successes_total_;
  s.interference_pairs = interference_total_;
  s.moved = moved_total_;
  s.handoffs = handoffs_total_;
  for (std::size_t i = 0; i < s.tags; ++i) {
    s.tags_read += std::isfinite(store_.first_read_s()[i]) ? 1 : 0;
    s.delivered_bits += store_.delivered_bits()[i];
    s.energy_j += store_.energies()[i];
  }
  return s;
}

std::uint64_t MetroWorld::state_fingerprint() const {
  obs::Fnv1a h;
  const std::size_t n = store_.size();
  const std::uint64_t init_base =
      sim::derive_seed(config_.seed, 0x696E6974ULL);  // "init"
  h.mix_u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Every slot holds a live tag; the 1 keeps the pinned digests' bytes.
    h.mix_u64(1);
    h.mix_double(store_.xs()[i]);
    h.mix_double(store_.ys()[i]);
    // Nothing reads a tag orientation, so the store keeps none; the pinned
    // digests mix the angle each tag's init stream gives, re-derived here
    // so they keep their bytes until a deliberate re-pin drops it.
    h.mix_double(
        unit_double(sim::derive_seed(sim::derive_seed(init_base, i), 1)) *
        6.283185307179586);
    h.mix_double(store_.energies()[i]);
    // The digests' read bit: a tag has been read exactly when its
    // first-read time is finite.
    h.mix_u64(std::isfinite(store_.first_read_s()[i]) ? 1 : 0);
    h.mix_double(store_.first_read_s()[i]);
    h.mix_double(store_.delivered_bits()[i]);
    h.mix_u64(static_cast<std::uint64_t>(store_.polls()[i]));
  }
  return h.digest();
}

}  // namespace mmtag::scale
