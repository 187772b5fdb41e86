#include "src/scale/grid_index.hpp"

#include <array>
#include <limits>
#include <stdexcept>

#include "src/sim/parallel.hpp"

namespace mmtag::scale {

namespace {

constexpr int kDigitBits = 11;
constexpr std::size_t kDigitValues = std::size_t{1} << kDigitBits;
constexpr int kDigits = 3;  // 33 bits cover a 32-bit slot.
/// Pool items for rebucket(): at most this many, so the claims per epoch
/// do not grow with the grid (each claim takes the pool mutex).
constexpr std::size_t kRebucketRanges = 64;

/// One side of a move: `slot` leaves or arrives at `cell`.
struct BucketEdit {
  std::size_t cell;
  TagSlot slot;
  bool arrives;
};

}  // namespace

void sort_slots(std::vector<TagSlot>& slots) {
  const std::size_t n = slots.size();
  if (n < 2) return;
  constexpr TagSlot kMask = kDigitValues - 1;
  std::array<std::array<std::size_t, kDigitValues>, kDigits> count{};
  for (const TagSlot s : slots) {
    ++count[0][s & kMask];
    ++count[1][(s >> kDigitBits) & kMask];
    ++count[2][s >> (2 * kDigitBits)];
  }
  std::vector<TagSlot> buffer(n);
  TagSlot* src = slots.data();
  TagSlot* dst = buffer.data();
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    std::array<std::size_t, kDigitValues>& offset = count[d];
    // A digit every key shares would leave the order as it is.
    if (offset[(src[0] >> shift) & kMask] == n) continue;
    std::size_t sum = 0;
    for (std::size_t& c : offset) {
      const std::size_t keys = c;
      c = sum;
      sum += keys;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const TagSlot s = src[i];
      dst[offset[(s >> shift) & kMask]++] = s;
    }
    std::swap(src, dst);
  }
  if (src != slots.data()) slots.swap(buffer);
}

GridIndex::GridIndex(double width_m, double height_m, double cell_m)
    : cell_m_(cell_m) {
  if (!(width_m > 0.0 && height_m > 0.0 && cell_m > 0.0)) {
    throw std::invalid_argument(
        "GridIndex: width_m, height_m and cell_m must be > 0");
  }
  // floor() of each quotient must fit an int.
  if (!(width_m / cell_m < 0x1.0p31 && height_m / cell_m < 0x1.0p31)) {
    throw std::invalid_argument(
        "GridIndex: width_m / cell_m and height_m / cell_m must be < 2^31");
  }
  cols_ = std::max(1, static_cast<int>(std::floor(width_m / cell_m)));
  rows_ = std::max(1, static_cast<int>(std::floor(height_m / cell_m)));
  cells_.resize(static_cast<std::size_t>(cols_) *
                static_cast<std::size_t>(rows_));
}

void GridIndex::insert(TagSlot slot, double x, double y) {
  std::vector<TagSlot>& bucket = cells_[cell_of(x, y)];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), slot), slot);
  ++occupancy_;
}

std::size_t GridIndex::rebucket(const std::vector<CellMove>& moves,
                                sim::ThreadPool& pool) {
  // Ranges of 2^shift consecutive cells, at most kRebucketRanges of them.
  int shift = 0;
  while (((cells_.size() - 1) >> shift) >= kRebucketRanges) ++shift;
  const std::size_t n_ranges = ((cells_.size() - 1) >> shift) + 1;

  // Counting scatter of both sides of every move into their cell range.
  std::vector<std::size_t> begin(n_ranges + 1, 0);
  std::size_t changed = 0;
  for (const CellMove& m : moves) {
    if (m.from == m.to) continue;
    ++changed;
    ++begin[(m.from >> shift) + 1];
    ++begin[(m.to >> shift) + 1];
  }
  if (changed == 0) return 0;
  for (std::size_t r = 0; r < n_ranges; ++r) begin[r + 1] += begin[r];
  std::vector<BucketEdit> edits(2 * changed);
  std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
  for (const CellMove& m : moves) {
    if (m.from == m.to) continue;
    edits[fill[m.from >> shift]++] = {m.from, m.slot, false};
    edits[fill[m.to >> shift]++] = {m.to, m.slot, true};
  }

  // Ranges own disjoint cells, so they edit their buckets independently.
  // A bucket is a sorted set and a slot is in at most one record, so the
  // order of the edits within a range does not matter.
  pool.parallel_for(n_ranges, [&](std::size_t r) {
    for (std::size_t e = begin[r]; e < begin[r + 1]; ++e) {
      const BucketEdit& edit = edits[e];
      std::vector<TagSlot>& bucket = cells_[edit.cell];
      const auto it =
          std::lower_bound(bucket.begin(), bucket.end(), edit.slot);
      if (edit.arrives) {
        bucket.insert(it, edit.slot);
      } else if (it != bucket.end() && *it == edit.slot) {
        bucket.erase(it);
      }
    }
  });
  return changed;
}

void GridIndex::gather_disc(double cx, double cy, double radius_m,
                            std::vector<TagSlot>& out) const {
  const int c0 = col_of(cx - radius_m);
  const int c1 = col_of(cx + radius_m);
  const int r0 = row_of(cy - radius_m);
  const int r1 = row_of(cy + radius_m);
  // Cells whose nearest corner lies beyond the disc are skipped outright
  // (cheap integer-geometry cull); the rest are coarse candidates.
  const double r2 = radius_m * radius_m;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Queries run concurrently from epoch shards: tally this query's cost
  // locally and publish once with relaxed adds (deltas commute, so the
  // totals are exact whatever the interleaving).
  std::uint64_t visited = 0;
  std::uint64_t candidates = 0;
  for (int r = r0; r <= r1; ++r) {
    // Border cells absorb every clamped out-of-rectangle position, so
    // their extent is unbounded for the cull.
    const double ylo = r == 0 ? -kInf : static_cast<double>(r) * cell_m_;
    const double yhi =
        r == rows_ - 1 ? kInf : static_cast<double>(r + 1) * cell_m_;
    const double dy = cy < ylo ? ylo - cy : (cy > yhi ? cy - yhi : 0.0);
    for (int c = c0; c <= c1; ++c) {
      const double xlo = c == 0 ? -kInf : static_cast<double>(c) * cell_m_;
      const double xhi =
          c == cols_ - 1 ? kInf : static_cast<double>(c + 1) * cell_m_;
      const double dx = cx < xlo ? xlo - cx : (cx > xhi ? cx - xhi : 0.0);
      ++visited;
      if (dx * dx + dy * dy > r2) continue;
      const std::vector<TagSlot>& bucket =
          cells_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
      candidates += bucket.size();
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  cells_visited_.fetch_add(visited, std::memory_order_relaxed);
  candidates_.fetch_add(candidates, std::memory_order_relaxed);
}

}  // namespace mmtag::scale
