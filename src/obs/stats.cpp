#include "src/obs/stats.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

namespace mmtag::obs {

namespace {

/// Where a percentile falls in an ascending sample of `n` (> 0) values:
/// the two order statistics it interpolates between, and the weight of
/// the upper one.
struct Rank {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};

Rank rank_of(std::size_t n, double pct) {
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(n - 1);
  Rank r;
  r.lo = static_cast<std::size_t>(std::floor(rank));
  r.hi = static_cast<std::size_t>(std::ceil(rank));
  r.frac = rank - static_cast<double>(r.lo);
  return r;
}

double interpolate(double lo, double hi, double frac) {
  return lo + (hi - lo) * frac;
}

/// Keys are bucketed by their top bits: one per bit of the sample size,
/// from 4 up to 16 (the sign flag, the exponent and the leading four
/// mantissa bits, i.e. 16 buckets per octave). A small sample thus never
/// pays for 65536 counters, and a large one splits finely.
int key_bits(std::size_t n) {
  return std::clamp(static_cast<int>(std::bit_width(n)), 4, 16);
}

/// Bucket of a value's order-preserving key (a < b implies key(a) <=
/// key(b) for non-NaN doubles): negatives flip every bit, the rest set
/// the sign bit.
std::size_t key_bucket(double value, int bits) {
  const auto raw = std::bit_cast<std::uint64_t>(value);
  const std::uint64_t key =
      (raw >> 63) != 0 ? ~raw : raw | (std::uint64_t{1} << 63);
  return static_cast<std::size_t>(key >> (64 - bits));
}

/// A sample splits into one group per this many values, at most
/// kMaxGroups of them: enough tasks to balance a small pool, and few
/// enough that their counters stay small.
constexpr std::size_t kGroupValues = std::size_t{1} << 12;
constexpr std::size_t kMaxGroups = 16;

/// One contiguous run of the concatenated sample and its key counts.
struct Group {
  std::vector<std::span<const double>> spans;
  std::size_t lo = std::numeric_limits<std::size_t>::max();  ///< Bucket.
  std::size_t hi = 0;                                         ///< Bucket.
  std::vector<std::size_t> count;  ///< Values per bucket lo..hi.
  std::vector<std::size_t> cursor;  ///< Next write per slot (pass 2).

  [[nodiscard]] std::size_t count_of(std::size_t bucket) const {
    return bucket < lo || bucket > hi ? 0 : count[bucket - lo];
  }
};

}  // namespace

std::vector<double> percentiles(
    const std::vector<std::span<const double>>& parts,
    const std::vector<double>& pcts, const ParallelFor& parallel_for) {
  std::vector<double> out(pcts.size(),
                          std::numeric_limits<double>::quiet_NaN());
  std::size_t n = 0;
  for (const std::span<const double> part : parts) n += part.size();
  if (n == 0) return out;

  // The order statistics the interpolations read, ascending and unique.
  std::vector<Rank> ranks;
  std::vector<std::size_t> needed;
  for (const double pct : pcts) {
    ranks.push_back(rank_of(n, pct));
    needed.push_back(ranks.back().lo);
    needed.push_back(ranks.back().hi);
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  // Contiguous groups balanced by value count: group g holds values
  // [g n / G, (g + 1) n / G) of the parts' concatenation, so none is
  // empty.
  const std::size_t group_count =
      std::clamp(n / kGroupValues, std::size_t{1}, kMaxGroups);
  std::vector<Group> groups(group_count);
  std::size_t g = 0;
  std::size_t taken = 0;
  for (std::span<const double> part : parts) {
    while (!part.empty()) {
      const std::size_t end = (g + 1) * n / group_count;
      const std::size_t take = std::min(part.size(), end - taken);
      groups[g].spans.push_back(part.first(take));
      part = part.subspan(take);
      taken += take;
      if (taken == end) ++g;
    }
  }
  const auto run_groups = [&](const std::function<void(std::size_t)>& body) {
    if (parallel_for) {
      parallel_for(group_count, body);
    } else {
      for (std::size_t i = 0; i < group_count; ++i) body(i);
    }
  };

  // Pass 1, per group: its bucket range, then a count of every value in
  // counters for that range alone.
  const int bits = key_bits(n);
  run_groups([&](std::size_t i) {
    Group& group = groups[i];
    for (const std::span<const double> span : group.spans) {
      for (const double v : span) {
        const std::size_t bucket = key_bucket(v, bits);
        group.lo = std::min(group.lo, bucket);
        group.hi = std::max(group.hi, bucket);
      }
    }
    group.count.assign(group.hi - group.lo + 1, 0);
    for (const std::span<const double> span : group.spans) {
      for (const double v : span) {
        ++group.count[key_bucket(v, bits) - group.lo];
      }
    }
  });

  // The groups' counts summed in group order over the union of their
  // ranges: bucket_count[k] counts bucket lo + k.
  std::size_t lo = groups[0].lo;
  std::size_t hi = groups[0].hi;
  for (const Group& group : groups) {
    lo = std::min(lo, group.lo);
    hi = std::max(hi, group.hi);
  }
  std::vector<std::size_t> bucket_count(hi - lo + 1, 0);
  for (const Group& group : groups) {
    for (std::size_t k = 0; k < group.count.size(); ++k) {
      bucket_count[group.lo - lo + k] += group.count[k];
    }
  }
  assert(std::accumulate(bucket_count.begin(), bucket_count.end(),
                         std::size_t{0}) == n);

  // One walk over the cumulative counts finds the bucket of every needed
  // rank; each such bucket becomes a slot that gathers its values.
  struct Slot {
    std::size_t bucket = 0;      ///< Index into bucket_count.
    std::size_t first_rank = 0;  ///< Rank of the bucket's smallest value.
    std::vector<double> values;
  };
  std::vector<Slot> slots;
  std::vector<std::size_t> slot_of_needed(needed.size());
  std::size_t below = 0;  // Values in the buckets before `b`.
  std::size_t b = 0;
  for (std::size_t i = 0; i < needed.size(); ++i) {
    while (below + bucket_count[b] <= needed[i]) below += bucket_count[b++];
    if (slots.empty() || slots.back().bucket != b) {
      slots.push_back({b, below, std::vector<double>(bucket_count[b])});
    }
    slot_of_needed[i] = slots.size() - 1;
  }
  // Each group writes its share of a slot after the shares of the groups
  // before it: the slot then holds its values in concatenation order.
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::size_t offset = 0;
    for (Group& group : groups) {
      group.cursor.push_back(offset);
      offset += group.count_of(lo + slots[s].bucket);
    }
  }

  // Pass 2, per group: gather the slotted buckets' values. The counts are
  // spent, so the array becomes the bucket -> slot map (0 = not slotted).
  std::fill(bucket_count.begin(), bucket_count.end(), 0);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    bucket_count[slots[s].bucket] = s + 1;
  }
  run_groups([&](std::size_t i) {
    Group& group = groups[i];
    for (const std::span<const double> span : group.spans) {
      for (const double v : span) {
        const std::size_t slot = bucket_count[key_bucket(v, bits) - lo];
        if (slot != 0) slots[slot - 1].values[group.cursor[slot - 1]++] = v;
      }
    }
  });

  // Select each needed rank inside its slot. Ranks ascend, so every
  // nth_element only searches above the previous pick in the same slot.
  std::vector<double> needed_value(needed.size());
  std::size_t unpicked = 0;
  for (std::size_t i = 0; i < needed.size(); ++i) {
    Slot& slot = slots[slot_of_needed[i]];
    if (i > 0 && slot_of_needed[i] != slot_of_needed[i - 1]) unpicked = 0;
    const std::size_t local = needed[i] - slot.first_rank;
    const auto begin = slot.values.begin();
    std::nth_element(begin + static_cast<std::ptrdiff_t>(unpicked),
                     begin + static_cast<std::ptrdiff_t>(local),
                     slot.values.end());
    needed_value[i] = slot.values[local];
    unpicked = local + 1;
  }

  const auto value_at = [&](std::size_t rank) {
    const auto it = std::lower_bound(needed.begin(), needed.end(), rank);
    return needed_value[static_cast<std::size_t>(it - needed.begin())];
  };
  for (std::size_t p = 0; p < pcts.size(); ++p) {
    out[p] = interpolate(value_at(ranks[p].lo), value_at(ranks[p].hi),
                         ranks[p].frac);
  }
  return out;
}

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const Rank r = rank_of(sorted.size(), pct);
  return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

double jain_fairness(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : values) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

void Fnv1a::mix_bytes(const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash_ ^= p[i];
    hash_ *= kPrime;
  }
}

void Fnv1a::mix_double(double value) noexcept {
  std::uint64_t bits = 0;
  if (std::isnan(value)) {
    bits = 0x7FF8000000000000ull;
  } else {
    std::memcpy(&bits, &value, sizeof(bits));
  }
  mix_bytes(&bits, sizeof(bits));
}

}  // namespace mmtag::obs
